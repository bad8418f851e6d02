//! Performance and resource optimizations (paper §III-C): the switches and
//! statistics. Each pass lives where it is naturally expressed:
//! * `rtelm` rewrites the IR before lowering ([`crate::opt_ir::rtelm`]);
//! * `msr` is structural — constant/affine addresses statically resolve
//!   to point-to-point streams at banking time (see [`crate::opt_ir`]
//!   module docs);
//! * `xbar_elm` is a lowering wiring decision (bank-address computation is
//!   duplicated into each lane's request unit rather than forwarded);
//! * `retime`/`retime_m` run during assignment, where post-partitioning
//!   path delays are known ([`crate::assign`]).

use serde::{Deserialize, Serialize};

/// Which optimizations are enabled (the Fig 10 ablation axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptConfig {
    /// Memory strength reduction: scratchpads with constant-address
    /// accessors become FIFOs (input buffers).
    pub msr: bool,
    /// Route-through elimination: forwarding memories between lock-step
    /// producer/consumer pairs are removed.
    pub rtelm: bool,
    /// Retiming: insert buffer units on delay-imbalanced paths to keep
    /// full pipeline throughput.
    pub retime: bool,
    /// Use scratchpads (PMUs) as retiming buffers instead of chained
    /// compute-unit FIFOs.
    pub retime_m: bool,
    /// Duplicate cheap bank-address computation instead of forwarding it
    /// across the crossbar datapath.
    pub xbar_elm: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig { msr: true, rtelm: true, retime: true, retime_m: true, xbar_elm: true }
    }
}

impl OptConfig {
    /// Everything off (the ablation baseline).
    pub fn none() -> Self {
        OptConfig { msr: false, rtelm: false, retime: false, retime_m: false, xbar_elm: false }
    }
}

/// Statistics of one optimization run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptStats {
    /// Route-through memories eliminated.
    pub rtelm_removed: usize,
}
