//! # sara-core
//!
//! The SARA compiler (Zhang et al., *SARA: Scaling a Reconfigurable
//! Dataflow Accelerator*, ISCA 2021), reproduced in Rust.
//!
//! SARA converts a nested control-flow program ([`sara_ir::Program`]) into a
//! **virtual unit dataflow graph** ([`vudfg::Vudfg`]) that spatially
//! pipelines the entire control-flow graph across the distributed units of
//! a Plasticine RDA:
//!
//! 1. [`lower`] — imperative → dataflow lowering (§III-A): a virtual
//!    compute unit per hyperblock (per unrolled lane), a virtual memory
//!    unit per on-chip data structure (per bank), request/response
//!    splitting of every memory access, and value streams for dynamic
//!    bounds and branch conditions.
//! 2. [`cmmc`] — compiler-managed memory consistency (§III-A1/A3): a
//!    per-memory accessor dependency graph, transitive reduction and
//!    loop-carried-dependency pruning, then token/credit streams that
//!    enforce exactly the reduced order.
//! 3. [`mempart`] — memory partitioning (§III-B2): banked VMUs with either
//!    statically resolved point-to-point wiring or hierarchical
//!    merge/distribute trees.
//! 4. [`opt`] — resource/performance optimizations (§III-C): switches for
//!    `rtelm`, `retime` and `retime-m`. The paper's `msr` and `xbar-elm`
//!    are structural here (banking and lowering give them) and have no
//!    switch.
//! 5. [`partition`] — compute partitioning (§III-B1) with traversal-based
//!    and solver-based algorithms; [`merge`] — global merging.
//! 6. [`assign`] — virtual-to-physical unit-type assignment and resource
//!    reporting.
//!
//! The one-call driver is [`compile::compile`]:
//!
//! ```
//! use sara_core::compile::{compile, CompilerOptions};
//! use plasticine_arch::ChipSpec;
//! # use sara_ir::{Program, LoopSpec, DType, MemInit, BinOp};
//! # fn build() -> Program {
//! #   let mut p = Program::new("demo");
//! #   let root = p.root();
//! #   let a = p.dram("a", &[16], DType::F64, MemInit::Zero);
//! #   let l = p.add_loop(root, "i", LoopSpec::new(0, 16, 1)).unwrap();
//! #   let hb = p.add_leaf(l, "b").unwrap();
//! #   let i = p.idx(hb, l).unwrap();
//! #   let x = p.load(hb, a, &[i]).unwrap();
//! #   let y = p.bin(hb, BinOp::Add, x, x).unwrap();
//! #   p.store(hb, a, &[i], y).unwrap();
//! #   p
//! # }
//! # fn main() -> Result<(), sara_core::CompileError> {
//! let program = build();
//! let chip = ChipSpec::tiny_4x4();
//! let compiled = compile(&program, &chip, &CompilerOptions::default())?;
//! assert!(compiled.report.pcus >= 1);
//! # Ok(())
//! # }
//! ```

pub mod artifact;
pub mod assign;
pub mod cmmc;
pub mod compile;
pub mod depgraph;
pub mod error;
pub mod lower;
pub mod mempart;
pub mod merge;
pub mod opt;
pub mod opt_ir;
pub mod partition;
pub mod profile;
pub mod report;
pub mod robust;
pub mod shard;
pub mod traffic;
pub mod vudfg;
pub mod vudfg_validate;

pub use compile::{compile, Compiled, CompilerOptions};
pub use error::CompileError;
pub use profile::SimProfile;
pub use report::ResourceReport;
pub use vudfg::Vudfg;
