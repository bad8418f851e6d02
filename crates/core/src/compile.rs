//! End-to-end compilation driver (paper Fig 3): lowering → CMMC →
//! memory partitioning → optimizations → compute partitioning → global
//! merging → assignment.

use crate::assign::{self, AssignOptions, Assignment};
use crate::cmmc::CmmcStats;
use crate::error::CompileError;
use crate::lower::{self, LowerOptions, Lowered};
use crate::opt::{OptConfig, OptStats};
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
    pub partition_algo: Algo,
    pub merge_algo: Algo,
    /// Logical DRAM streams per physical AG.
    pub streams_per_ag: u32,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            lower: LowerOptions::default(),
            opt: OptConfig::default(),
            partition_algo: Algo::BestTraversal,
            merge_algo: Algo::BestTraversal,
            streams_per_ag: 4,
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
    /// Optimization statistics.
    pub opt_stats: OptStats,
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
    let (p, rtelm_removed) = if opts.opt.rtelm {
        let (q, s) = crate::opt_ir::rtelm(p);
        rewritten = q;
        (&rewritten, s.rtelm_removed)
    } else {
        (p, 0)
    };
    let lowered: Lowered = lower::lower(p, chip, &opts.lower)?;
    let mut g = lowered.vudfg;
    crate::vudfg_validate::validate(&g).map_err(CompileError::Internal)?;
    let assignment = assign::assign(
        &mut g,
        chip,
        &AssignOptions {
            partition_algo: opts.partition_algo,
            merge_algo: opts.merge_algo,
            opt: opts.opt,
            streams_per_ag: opts.streams_per_ag,
        },
    )?;
    Ok(Compiled {
        vudfg: g,
        report: assignment.report,
        cmmc_stats: lowered.cmmc.stats,
        opt_stats: OptStats { rtelm_removed },
        assignment,
    })
}
