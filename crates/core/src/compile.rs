//! End-to-end compilation driver (paper Fig 3): lowering → CMMC →
//! memory partitioning → optimizations → compute partitioning → global
//! merging → assignment.

use crate::assign::{self, Assignment};
use crate::cmmc::CmmcStats;
use crate::error::CompileError;
use crate::lower::{self, LowerOptions, Lowered};
use crate::opt::OptConfig;
use crate::partition::Algo;
use crate::report::ResourceReport;
use crate::vudfg::Vudfg;
use plasticine_arch::ChipSpec;
use sara_ir::Program;

/// Options for a full compilation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompilerOptions {
    pub lower: LowerOptions,
    pub opt: OptConfig,
    /// Algorithm for per-unit compute partitioning.
    pub partition_algo: Algo,
    /// Algorithm for global merging.
    pub merge_algo: Algo,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            lower: LowerOptions::default(),
            opt: OptConfig::default(),
            partition_algo: Algo::BestTraversal,
            merge_algo: Algo::BestTraversal,
        }
    }
}

/// A fully compiled program, ready for place-and-route and simulation.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The virtual unit dataflow graph (stream depths already adjusted by
    /// retiming).
    pub vudfg: Vudfg,
    /// Resource usage.
    pub report: ResourceReport,
    /// CMMC reduction statistics.
    pub cmmc_stats: CmmcStats,
    /// Assignment detail (per-unit partitioning, merge plan, unit types).
    pub assignment: Assignment,
}

/// Compile a program for a chip.
///
/// # Errors
///
/// Propagates validation, lowering, partitioning and capacity errors.
pub fn compile(
    p: &Program,
    chip: &ChipSpec,
    opts: &CompilerOptions,
) -> Result<Compiled, CompileError> {
    // IR-level rewrites first (route-through elimination, §III-C).
    let rewritten;
    let p = if opts.opt.rtelm {
        rewritten = crate::opt_ir::rtelm(p).0;
        &rewritten
    } else {
        p
    };
    let lowered: Lowered = lower::lower(p, chip, &opts.lower)?;
    let mut g = lowered.vudfg;
    crate::vudfg_validate::validate(&g).map_err(CompileError::Internal)?;
    let assignment = assign::assign(&mut g, chip, opts)?;
    Ok(Compiled { vudfg: g, report: assignment.report, cmmc_stats: lowered.cmmc.stats, assignment })
}
