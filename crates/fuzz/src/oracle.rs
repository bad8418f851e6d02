//! The differential oracle: one program through the whole stack, every
//! stage isolated behind `catch_unwind`, every outcome classified.
//!
//! The contract under test is the CMMC correctness theorem: for any valid
//! program, compile → place-and-route → simulate (under *both*
//! schedulers) must reproduce the sequential interpreter's DRAM image —
//! or fail with a *typed* error. A panic anywhere, a simulator
//! deadlock/timeout/fault on a program the interpreter accepts, a
//! scheduler disagreement, or a wrong DRAM image are all failures; typed
//! `IrError`/`CompileError`/PnR rejections are clean rejects.
//!
//! A case that passes on one chip runs again on two: the same placed
//! graph under the adversarial [`ShardPlan::halved`] plan with
//! 1-packet-per-cycle links, where both schedulers must agree and the
//! DRAM image must equal the single-chip one (a chip boundary may only
//! cost cycles).

use plasticine_arch::{ChipSpec, SystemSpec};
use plasticine_sim::{simulate, simulate_system, SimConfig, SimOutcome};
use sara_core::compile::{compile, CompilerOptions};
use sara_core::shard::ShardPlan;
use sara_ir::interp::Interp;
use sara_ir::Program;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Pipeline stage at which an outcome was decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Validate,
    Interp,
    Compile,
    Pnr,
    SimDense,
    SimActive,
    SystemDense,
    SystemActive,
    Compare,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Stage::Validate => "validate",
            Stage::Interp => "interp",
            Stage::Compile => "compile",
            Stage::Pnr => "pnr",
            Stage::SimDense => "sim-dense",
            Stage::SimActive => "sim-active",
            Stage::SystemDense => "system-dense",
            Stage::SystemActive => "system-active",
            Stage::Compare => "compare",
        };
        f.write_str(s)
    }
}

/// What the oracle concluded about one program.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Full agreement: both schedulers match each other and the
    /// interpreter.
    Pass { cycles: u64 },
    /// The pipeline rejected the program with a typed error before
    /// simulation — an acceptable outcome for off-nominal inputs.
    Reject { stage: Stage, reason: String },
    /// A bug: panic, simulator failure on an interpreter-accepted
    /// program, scheduler divergence, or a wrong result.
    Failure { kind: FailureKind, detail: String },
}

/// Failure classes; minimization preserves the class, not the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// A `panic!`/`unwrap` fired somewhere in the stack.
    Panic(Stage),
    /// The simulator returned `SimError` (deadlock/timeout/fault) on a
    /// program the interpreter executed successfully.
    SimFailure(Stage),
    /// Dense and active-list schedulers disagree (cycles, firings, or
    /// DRAM image).
    SchedulerDivergence,
    /// The fabric's DRAM image differs from the interpreter's memory,
    /// or the 2-chip image from the single-chip one.
    ResultDivergence,
}

impl Verdict {
    /// Stable string key identifying the failure class (used by the
    /// minimizer to check a candidate reproduces the *same* failure).
    pub fn failure_class(&self) -> Option<String> {
        match self {
            Verdict::Failure { kind, .. } => Some(match kind {
                FailureKind::Panic(s) => format!("panic@{s}"),
                FailureKind::SimFailure(s) => format!("simfail@{s}"),
                FailureKind::SchedulerDivergence => "sched-divergence".to_string(),
                FailureKind::ResultDivergence => "result-divergence".to_string(),
            }),
            _ => None,
        }
    }
}

/// Fixed harness configuration shared by a fuzz run and its minimizer.
pub struct Oracle {
    pub chip: ChipSpec,
    /// Base simulator config; both scheduler variants derive from it.
    pub sim_cfg: SimConfig,
    pub pnr_seed: u64,
    /// Interpreter fuel (total hyperblock firings) guarding divergence.
    pub fuel: u64,
    /// CMMC credit relaxation, mirrored from the generated case.
    pub relax_credits: bool,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle {
            chip: ChipSpec::small_8x8(),
            sim_cfg: SimConfig::default(),
            pnr_seed: 42,
            fuel: 2_000_000,
            relax_credits: false,
        }
    }
}

impl Oracle {
    /// Run the full differential check on one program.
    pub fn run(&self, p: &Program) -> Verdict {
        // ---- validate ----
        match guard(Stage::Validate, || p.validate()) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Verdict::Reject { stage: Stage::Validate, reason: e.to_string() },
            Err(v) => return v,
        }

        // ---- reference interpreter ----
        let reference = match guard(Stage::Interp, || Interp::new(p).with_fuel(self.fuel).run()) {
            Ok(Ok(o)) => o,
            Ok(Err(e)) => return Verdict::Reject { stage: Stage::Interp, reason: e.to_string() },
            Err(v) => return v,
        };

        // ---- compile ----
        let mut opts = CompilerOptions::default();
        opts.lower.cmmc.relax_credits = self.relax_credits;
        let mut compiled = match guard(Stage::Compile, || compile(p, &self.chip, &opts)) {
            Ok(Ok(c)) => c,
            Ok(Err(e)) => return Verdict::Reject { stage: Stage::Compile, reason: e.to_string() },
            Err(v) => return v,
        };

        // ---- place and route ----
        match guard(Stage::Pnr, || {
            sara_pnr::place_and_route(
                &mut compiled.vudfg,
                &compiled.assignment,
                &self.chip,
                self.pnr_seed,
            )
        }) {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => return Verdict::Reject { stage: Stage::Pnr, reason: e.to_string() },
            Err(v) => return v,
        }

        // ---- simulate under both schedulers ----
        let g = &compiled.vudfg;
        let active = match self.both_schedulers([Stage::SimDense, Stage::SimActive], |cfg| {
            simulate(g, &self.chip, cfg)
        }) {
            Ok(o) => o,
            Err(v) => return v,
        };

        // ---- fabric vs interpreter ----
        if let Err(detail) = plasticine_sim::verify_dram(p, &reference, &active) {
            return Verdict::Failure { kind: FailureKind::ResultDivergence, detail };
        }

        // ---- the same graph split over two chips ----
        let mut system = SystemSpec::grid(self.chip.clone(), 2);
        system.link.bandwidth = 1;
        let plan = ShardPlan::halved(g, system.count);
        let split = match self.both_schedulers([Stage::SystemDense, Stage::SystemActive], |cfg| {
            simulate_system(g, &system, &plan, cfg)
        }) {
            Ok(o) => o,
            Err(v) => return v,
        };
        if split.dram_final != active.dram_final {
            return Verdict::Failure {
                kind: FailureKind::ResultDivergence,
                detail: "2-chip halved plan: DRAM image differs from the single-chip run".into(),
            };
        }
        Verdict::Pass { cycles: active.cycles }
    }

    /// Run `sim` under the dense and the active scheduler (`stages`
    /// names the two runs, in that order) and require them to agree.
    /// Returns the active outcome.
    fn both_schedulers(
        &self,
        [dense_stage, active_stage]: [Stage; 2],
        sim: impl Fn(&SimConfig) -> Result<SimOutcome, plasticine_sim::SimError>,
    ) -> Result<SimOutcome, Verdict> {
        let run = |stage, dense| {
            let cfg = SimConfig { dense, ..self.sim_cfg.clone() };
            guard(stage, || sim(&cfg))?.map_err(|e| Verdict::Failure {
                kind: FailureKind::SimFailure(stage),
                detail: e.to_string(),
            })
        };
        let dense = run(dense_stage, true)?;
        let active = run(active_stage, false)?;
        if let Some(diff) = scheduler_diff(&dense, &active) {
            let detail = format!("{dense_stage}/{active_stage}: {diff}");
            return Err(Verdict::Failure { kind: FailureKind::SchedulerDivergence, detail });
        }
        Ok(active)
    }
}

/// Fault-mode verdict: what happened when a seeded fault plan was
/// injected into an otherwise-passing program.
///
/// The contract under test is "recover or explain": every injected fault
/// must lead to a completed run or a *typed* diagnosis (sanitizer report,
/// watchdog deadlock diagnosis, typed DRAM/unit fault). A panic or an
/// undiagnosed timeout is a harness failure.
#[derive(Debug, Clone)]
pub enum FaultVerdict {
    /// Completed with the fault-free DRAM image (timing-only fault,
    /// absorbed retry, or a fault that never landed).
    Recovered { cycles: u64 },
    /// Ended in a typed diagnosis (or a completed run whose image
    /// divergence the differential comparison itself detected).
    Diagnosed { class: String, detail: String },
    /// The program never reached fault injection (reject or pre-stage
    /// failure) — not a fault-mode outcome.
    NotApplicable { reason: String },
    /// Panic or undiagnosed hang: the fault model's contract is broken.
    Failure { detail: String },
}

impl Oracle {
    /// Fault-mode oracle: compile and place the program, capture the
    /// fault-free baseline, then inject the seeded single-fault plan
    /// derived from `fault_seed` (see [`plasticine_sim::seeded_plan`])
    /// with the sanitizer enabled, and classify the outcome.
    pub fn run_faulted(&self, p: &Program, fault_seed: u64) -> FaultVerdict {
        let na = |reason: String| FaultVerdict::NotApplicable { reason };
        let mut opts = CompilerOptions::default();
        opts.lower.cmmc.relax_credits = self.relax_credits;
        let mut compiled = match guard(Stage::Compile, || compile(p, &self.chip, &opts)) {
            Ok(Ok(c)) => c,
            Ok(Err(e)) => return na(format!("compile reject: {e}")),
            Err(_) => return na("compile panic (covered by the base oracle)".to_string()),
        };
        if sara_pnr::place_and_route(
            &mut compiled.vudfg,
            &compiled.assignment,
            &self.chip,
            self.pnr_seed,
        )
        .is_err()
        {
            return na("pnr reject".to_string());
        }
        let base_cfg = SimConfig { sanitize: true, ..self.sim_cfg.clone() };
        let baseline = match simulate(&compiled.vudfg, &self.chip, &base_cfg) {
            Ok(o) => o,
            Err(e) => return na(format!("fault-free baseline failed: {e}")),
        };
        let plan = plasticine_sim::seeded_plan(
            &compiled.vudfg,
            fault_seed,
            (baseline.cycles * 3 / 4).max(2),
        );
        let plan_text = plan.to_string().trim_end().to_string();
        let cfg = SimConfig {
            faults: Some(plan),
            sanitize: true,
            max_cycles: baseline.cycles * 50 + 1_000_000,
            ..self.sim_cfg.clone()
        };
        let result = catch_unwind(AssertUnwindSafe(|| simulate(&compiled.vudfg, &self.chip, &cfg)));
        match result {
            Err(e) => FaultVerdict::Failure {
                detail: format!("panic under plan [{plan_text}]: {}", panic_message(&e)),
            },
            Ok(Ok(o)) if o.dram_final == baseline.dram_final => {
                FaultVerdict::Recovered { cycles: o.cycles }
            }
            Ok(Ok(o)) => FaultVerdict::Diagnosed {
                class: "image-divergence".to_string(),
                detail: format!(
                    "plan [{plan_text}] completed in {} cycles with a divergent DRAM image",
                    o.cycles
                ),
            },
            Ok(Err(e)) => {
                use plasticine_sim::SimError;
                match &e {
                    SimError::Sanitizer(r) => FaultVerdict::Diagnosed {
                        class: format!("sanitizer:{}", r.invariant.label()),
                        detail: format!("plan [{plan_text}]: {e}"),
                    },
                    SimError::Deadlock { .. } => FaultVerdict::Diagnosed {
                        class: "watchdog".to_string(),
                        detail: format!("plan [{plan_text}]: {e}"),
                    },
                    SimError::Dram { .. } | SimError::Fault { .. } => FaultVerdict::Diagnosed {
                        class: "typed-fault".to_string(),
                        detail: format!("plan [{plan_text}]: {e}"),
                    },
                    SimError::Timeout { .. } | SimError::Config { .. } => FaultVerdict::Failure {
                        detail: format!("plan [{plan_text}]: undiagnosed {e}"),
                    },
                }
            }
        }
    }
}

/// Run `f` behind `catch_unwind`, mapping a panic to a classified
/// failure verdict.
fn guard<T>(stage: Stage, f: impl FnOnce() -> T) -> Result<T, Verdict> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| Verdict::Failure {
        kind: FailureKind::Panic(stage),
        detail: panic_message(&e),
    })
}

/// Extract a printable message from a caught panic payload.
pub fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

/// Install a silent panic hook so caught panics don't spam stderr with
/// backtraces during a fuzz run.
pub fn silence_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

fn scheduler_diff(dense: &SimOutcome, active: &SimOutcome) -> Option<String> {
    if dense.cycles != active.cycles {
        return Some(format!("cycles: dense {} vs active {}", dense.cycles, active.cycles));
    }
    if dense.stats.firings != active.stats.firings {
        return Some(format!(
            "firings: dense {} vs active {}",
            dense.stats.firings, active.stats.firings
        ));
    }
    if dense.stats.unit_firings != active.stats.unit_firings {
        return Some("per-unit firing divergence".to_string());
    }
    if dense.stats.dram != active.stats.dram {
        return Some("dram statistics divergence".to_string());
    }
    if dense.dram_final != active.dram_final {
        return Some("dram image divergence".to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_passes_known_good_program() {
        let case = crate::gen::generate(0);
        let oracle = Oracle { relax_credits: case.cfg.relax_credits, ..Oracle::default() };
        match oracle.run(&case.program) {
            Verdict::Pass { cycles } => assert!(cycles > 0),
            v => {
                // A typed reject is tolerable (resource limits); a failure
                // is not.
                assert!(v.failure_class().is_none(), "unexpected failure: {v:?}");
            }
        }
    }

    #[test]
    fn fault_mode_never_fails_on_known_good_program() {
        let case = crate::gen::generate(0);
        let oracle = Oracle { relax_credits: case.cfg.relax_credits, ..Oracle::default() };
        for fault_seed in 0..4u64 {
            if let FaultVerdict::Failure { detail } = oracle.run_faulted(&case.program, fault_seed)
            {
                panic!("fault contract broken (seed {fault_seed}): {detail}")
            }
        }
    }

    #[test]
    fn oracle_flags_timeout_as_sim_failure() {
        let case = crate::gen::generate(0);
        let oracle = Oracle {
            sim_cfg: SimConfig { max_cycles: 3, ..SimConfig::default() },
            relax_credits: case.cfg.relax_credits,
            ..Oracle::default()
        };
        let v = oracle.run(&case.program);
        match v.failure_class().as_deref() {
            Some(c) if c.starts_with("simfail@") => {}
            other => panic!("expected simfail class, got {other:?} ({v:?})"),
        }
    }
}
