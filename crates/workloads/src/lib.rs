//! # sara-workloads
//!
//! The benchmark kernels of the SARA paper's evaluation (Table IV and
//! §IV-C/D), expressed in the [`sara_ir`] nested-loop DSL:
//!
//! | name | domain | character |
//! |------|--------|-----------|
//! | `dotprod`, `outerprod`, `gemm` | linear algebra | dense compute |
//! | `mlp` | deep learning | single-batch GEMV chain (the Fig 9 scalability subject) |
//! | `lstm` | deep learning | recurrent gates, deep fp pipeline |
//! | `snet` | deep learning | small conv net, compute-bound |
//! | `kmeans`, `gda`, `logreg`, `sgd` | analytics/ML | the Table V comparison set |
//! | `tpchq6` | analytics | selective streaming aggregation |
//! | `bs` | finance | Black-Scholes, transcendental-heavy streaming |
//! | `sort` | sorting | bitonic network over scratchpads |
//! | `ms` | sorting | data-dependent streaming two-way merge |
//! | `pr` | graphs | PageRank iteration, dynamic (CSR) inner bounds |
//! | `rf` | ML inference | random-forest traversal, gather-heavy |
//!
//! Each builder takes a parameter struct with a `Default` sized for fast
//! functional testing; benches scale the sizes and parallelization factors
//! up. Every kernel writes its observable result to DRAM so differential
//! testing against the reference interpreter is meaningful.

pub mod cnn;
pub mod graph;
pub mod linalg;
pub mod ml;
pub mod registry;
pub mod sort;
pub mod streamk;

pub use registry::{all_small, by_name, names, Workload};
