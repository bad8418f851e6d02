//! Performance and resource optimizations (paper §III-C): the switches.
//! Each pass lives where it is naturally expressed:
//! * `rtelm` rewrites the IR before lowering ([`crate::opt_ir::rtelm`]);
//! * `retime`/`retime_m` run during assignment, where post-partitioning
//!   path delays are known ([`crate::assign`]).
//!
//! The paper's other two, `msr` and `xbar-elm`, are structural here and
//! have no switch: constant/affine addresses statically resolve to
//! point-to-point streams at banking time (see the [`crate::opt_ir`]
//! module docs), and lowering duplicates bank-address computation into
//! each lane's request unit rather than forwarding it.

use serde::{Deserialize, Serialize};

/// Which optimizations are enabled (the Fig 10 ablation axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptConfig {
    /// Route-through elimination: forwarding memories between lock-step
    /// producer/consumer pairs are removed.
    pub rtelm: bool,
    /// Retiming: insert buffer units on delay-imbalanced paths to keep
    /// full pipeline throughput.
    pub retime: bool,
    /// Use scratchpads (PMUs) as retiming buffers instead of chained
    /// compute-unit FIFOs.
    pub retime_m: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig { rtelm: true, retime: true, retime_m: true }
    }
}

impl OptConfig {
    /// Everything off (the ablation baseline).
    pub fn none() -> Self {
        OptConfig { rtelm: false, retime: false, retime_m: false }
    }
}
