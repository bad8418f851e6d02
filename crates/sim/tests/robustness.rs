//! Integration tests for the robustness layer: fault injection, the
//! invariant sanitizer, the liveness watchdog, and AG retry recovery.
//!
//! Three contracts are enforced here:
//!
//! 1. **Zero cost when off / pure observer when on** — an empty fault
//!    plan and the sanitizer perturb nothing: cycle counts equal the
//!    default config's under both schedulers, for every registry
//!    workload.
//! 2. **Recover or explain** — each fault kind ends in recovery (same
//!    DRAM image as fault-free) or a typed diagnosis; never a panic or an
//!    undiagnosed timeout. Diagnoses are deterministic and replay
//!    bit-for-bit through the plan-text round trip.
//! 3. **No false positives** — a slow-but-live fabric (DRAM latency
//!    beyond the deadlock window) completes clean: the watchdog defers to
//!    in-flight DRAM/fault/retry state instead of crying deadlock.
//!
//! The sanitizer, stall-fault and retry tests also run every graph on a
//! 2-chip system under the adversarial halved plan, so the layer is
//! checked across per-chip DRAM controllers and slipping links too.

use plasticine_arch::{ChipSpec, SystemSpec};
use plasticine_sim::{
    simulate, simulate_system, FaultKind, FaultPlan, SimConfig, SimError, SimOutcome,
};
use ramulator_lite::DramModelCfg;
use sara_core::cmmc::CmmcOptions;
use sara_core::compile::{compile, CompilerOptions};
use sara_core::lower::LowerOptions;
use sara_core::robust::InvariantKind;
use sara_core::shard::ShardPlan;
use sara_core::vudfg::{StreamKind, UnitKind, Vudfg};

fn compiled(name: &str) -> (Vudfg, ChipSpec) {
    let chip = ChipSpec::small_8x8();
    let w = sara_workloads::by_name(name).expect("registry workload");
    let mut c = compile(&w.program, &chip, &CompilerOptions::default()).expect(name);
    sara_pnr::place_and_route(&mut c.vudfg, &c.assignment, &chip, 7).expect(name);
    (c.vudfg, chip)
}

/// First token stream carrying initial credits (a steal applies at its
/// arming cycle) — every CMMC-lowered workload has one.
fn credit_stream(g: &Vudfg) -> usize {
    g.streams
        .iter()
        .position(|s| matches!(s.kind, StreamKind::Token { init } if init > 0))
        .expect("no initial-credit token stream")
}

/// First data stream sourced by an AG (always carries load traffic).
fn ag_data_stream(g: &Vudfg) -> usize {
    g.streams
        .iter()
        .position(|s| !s.kind.is_token() && matches!(g.unit(s.src).kind, UnitKind::Ag(_)))
        .expect("no AG-sourced data stream")
}

fn with_plan(plan: FaultPlan) -> SimConfig {
    SimConfig { faults: Some(plan), sanitize: true, ..SimConfig::default() }
}

/// Run `g` on `chip` itself (`chips == 1`) or on a 2-chip system under
/// the halved plan with 1-packet-per-cycle links, where every stream
/// between the halves crosses and contends for link slots.
fn sim_on(chips: u32, g: &Vudfg, chip: &ChipSpec, cfg: &SimConfig) -> Result<SimOutcome, SimError> {
    if chips == 1 {
        return simulate(g, chip, cfg);
    }
    let mut system = SystemSpec::grid(chip.clone(), chips);
    system.link.bandwidth = 1;
    simulate_system(g, &system, &ShardPlan::halved(g, chips), cfg)
}

#[test]
fn sanitizer_clean_on_every_registry_workload_under_both_schedulers() {
    let chip = ChipSpec::small_8x8();
    for w in sara_workloads::all_small() {
        let mut c = compile(&w.program, &chip, &CompilerOptions::default()).expect(w.name);
        sara_pnr::place_and_route(&mut c.vudfg, &c.assignment, &chip, 7).expect(w.name);
        for chips in [1, 2] {
            let plain = sim_on(chips, &c.vudfg, &chip, &SimConfig::default()).expect(w.name);
            for dense in [false, true] {
                let cfg = SimConfig { sanitize: true, dense, ..SimConfig::default() };
                let o = sim_on(chips, &c.vudfg, &chip, &cfg).unwrap_or_else(|e| {
                    panic!("{} ({chips} chips): sanitizer tripped on clean run: {e}", w.name)
                });
                assert_eq!(
                    o.cycles, plain.cycles,
                    "{} ({chips} chips): sanitizer perturbed timing",
                    w.name
                );
            }
        }
    }
}

#[test]
fn empty_fault_plan_is_inert() {
    let (g, chip) = compiled("gemm");
    let plain = simulate(&g, &chip, &SimConfig::default()).unwrap();
    for dense in [false, true] {
        let cfg = SimConfig {
            faults: Some(FaultPlan::empty()),
            sanitize: true,
            dense,
            ..SimConfig::default()
        };
        let o = simulate(&g, &chip, &cfg).expect("empty plan must not fault");
        assert_eq!(o.cycles, plain.cycles, "injector machinery perturbed timing (dense={dense})");
        assert_eq!(o.dram_final, plain.dram_final);
    }
}

#[test]
fn leaked_credit_is_caught_deterministically_and_replays_from_text() {
    let (g, chip) = compiled("ms");
    let s = credit_stream(&g);
    let plan = FaultPlan::empty().with(5, FaultKind::LeakCredit { stream: s });
    let run = |plan: FaultPlan| simulate(&g, &chip, &with_plan(plan)).unwrap_err();
    let first = run(plan.clone());
    match &first {
        SimError::Sanitizer(r) => {
            assert_eq!(r.invariant, InvariantKind::TokenConservation, "{r}");
            assert_eq!(r.stream, Some(s));
            assert_eq!(r.cycle, 5, "leak applies at its arming cycle");
            assert!(
                r.recent.iter().any(|e| e.what.contains("leak")),
                "injected fault missing from event ring: {r}"
            );
        }
        other => panic!("expected sanitizer report, got {other}"),
    }
    // Determinism: same plan, same typed report.
    assert_eq!(first, run(plan.clone()));
    // Replayability: the plan's text form round-trips to the same report.
    let reparsed = FaultPlan::parse(&plan.to_string()).unwrap();
    assert_eq!(first, run(reparsed));
}

#[test]
fn stolen_credit_is_caught_by_sanitizer() {
    let (g, chip) = compiled("ms");
    let s = credit_stream(&g);
    let plan = FaultPlan::empty().with(0, FaultKind::StealCredit { stream: s });
    match simulate(&g, &chip, &with_plan(plan)).unwrap_err() {
        SimError::Sanitizer(r) => {
            assert_eq!(r.invariant, InvariantKind::TokenConservation, "{r}");
            assert_eq!(r.stream, Some(s));
        }
        other => panic!("expected sanitizer report, got {other}"),
    }
}

#[test]
fn stolen_credit_without_sanitizer_yields_watchdog_diagnosis() {
    let (g, chip) = compiled("ms");
    let s = credit_stream(&g);
    let plan = FaultPlan::empty().with(0, FaultKind::StealCredit { stream: s });
    let cfg = SimConfig { faults: Some(plan), deadlock_window: 2_000, ..SimConfig::default() };
    match simulate(&g, &chip, &cfg).unwrap_err() {
        SimError::Deadlock { report, .. } => {
            assert!(!report.members.is_empty(), "watchdog produced no members");
            // The stolen credit starves a consumer; at least one member
            // must be attributed (credit-blocked in the common case).
            assert!(
                report.members.iter().any(|m| m.stream.is_some()),
                "no member names a stream: {report:?}"
            );
        }
        other => panic!("expected watchdog deadlock diagnosis, got {other}"),
    }
}

#[test]
fn dropped_and_duplicated_packets_are_caught() {
    let (g, chip) = compiled("dotprod");
    let s = ag_data_stream(&g);
    for kind in [FaultKind::Drop { stream: s }, FaultKind::Duplicate { stream: s }] {
        let plan = FaultPlan::empty().with(1, kind);
        match simulate(&g, &chip, &with_plan(plan)).unwrap_err() {
            SimError::Sanitizer(r) => {
                assert_eq!(r.invariant, InvariantKind::TokenConservation, "{kind:?}: {r}");
                assert_eq!(r.stream, Some(s), "{kind:?}");
            }
            other => panic!("{kind:?}: expected sanitizer report, got {other}"),
        }
    }
}

#[test]
fn delay_and_stall_faults_recover_with_identical_results() {
    let (g, chip) = compiled("gemm");
    let baseline = simulate(&g, &chip, &SimConfig::default()).unwrap();
    let s = ag_data_stream(&g);
    let vcu = g.units.iter().position(|u| matches!(u.kind, UnitKind::Vcu(_))).expect("no VCU");
    let plans = [
        FaultPlan::empty().with(1, FaultKind::Delay { stream: s, cycles: 200 }),
        FaultPlan::empty().with(10, FaultKind::Stall { unit: vcu, cycles: 500 }),
    ];
    for plan in plans {
        let tag = plan.to_string();
        let o = simulate(&g, &chip, &with_plan(plan))
            .unwrap_or_else(|e| panic!("timing-only fault [{tag}] must recover: {e}"));
        assert_eq!(o.dram_final, baseline.dram_final, "[{tag}] changed results");
        assert!(o.cycles >= baseline.cycles, "[{tag}] sped the run up?");
    }
}

#[test]
fn corrupted_packet_is_diagnosed_or_visibly_diverges() {
    let (g, chip) = compiled("dotprod");
    let baseline = simulate(&g, &chip, &SimConfig::default()).unwrap();
    let s = ag_data_stream(&g);
    let plan = FaultPlan::empty().with(1, FaultKind::Corrupt { stream: s });
    match simulate(&g, &chip, &with_plan(plan)) {
        Ok(o) => assert_ne!(
            o.dram_final, baseline.dram_final,
            "corrupting live load data must not go unnoticed"
        ),
        Err(SimError::Sanitizer(_) | SimError::Deadlock { .. } | SimError::Fault { .. }) => {}
        Err(other) => panic!("undiagnosed outcome: {other}"),
    }
}

#[test]
fn dropped_dram_response_recovers_via_ag_retry() {
    let (g, chip) = compiled("dotprod");
    for chips in [1, 2] {
        let baseline = sim_on(chips, &g, &chip, &SimConfig::default()).unwrap();
        for dense in [false, true] {
            let cfg = SimConfig {
                faults: Some(FaultPlan::empty().with(1, FaultKind::DropDramResponse { nth: 1 })),
                sanitize: true,
                dense,
                dram_retry_timeout: 500,
                ..SimConfig::default()
            };
            let o = sim_on(chips, &g, &chip, &cfg).unwrap_or_else(|e| {
                panic!("retry must absorb a dropped response ({chips} chips, dense={dense}): {e}")
            });
            assert_eq!(o.dram_final, baseline.dram_final, "retry recovery changed results");
            assert!(
                o.cycles > baseline.cycles,
                "recovery should cost at least the retry timeout ({chips} chips, dense={dense})"
            );
        }
    }
}

#[test]
fn exhausted_retry_budget_surfaces_typed_dram_error() {
    let (g, chip) = compiled("dotprod");
    let cfg = SimConfig {
        faults: Some(FaultPlan::empty().with(1, FaultKind::DropDramResponse { nth: 1 })),
        dram_retry_timeout: 200,
        dram_max_retries: 0,
        ..SimConfig::default()
    };
    match simulate(&g, &chip, &cfg).unwrap_err() {
        SimError::Dram { error, unit, .. } => {
            assert!(
                matches!(error, ramulator_lite::DramError::ResponseStall { .. }),
                "expected a response-stall error, got {error}"
            );
            assert!(!unit.is_empty());
        }
        other => panic!("expected typed DRAM error, got {other}"),
    }
}

#[test]
fn delayed_dram_response_past_timeout_is_absorbed_as_duplicate() {
    let (g, chip) = compiled("dotprod");
    let baseline = simulate(&g, &chip, &SimConfig::default()).unwrap();
    // Delay a response beyond the retry timeout: the AG reissues, and the
    // original must land harmlessly as a recorded duplicate.
    let cfg = SimConfig {
        faults: Some(
            FaultPlan::empty().with(1, FaultKind::DelayDramResponse { nth: 1, cycles: 2_000 }),
        ),
        sanitize: true,
        dram_retry_timeout: 400,
        ..SimConfig::default()
    };
    let o = simulate(&g, &chip, &cfg).expect("late duplicate must be absorbed");
    assert_eq!(o.dram_final, baseline.dram_final);
}

#[test]
fn watchdog_tolerates_slow_but_live_dram_under_both_schedulers() {
    // DRAM latency far beyond the deadlock window: the whole fabric sits
    // with zero progress for > window cycles while the first loads are in
    // flight. The watchdog must classify this as slow-but-live (DRAM
    // busy) and let the run complete — with the sanitizer clean too.
    let (g, chip) = compiled("dotprod");
    let mut slow = DramModelCfg::of_kind(chip.dram);
    slow.idle_latency = 80_000; // deadlock_window is 50_000
    slow.response_stall_budget = 1_000_000;
    let mut cycles = Vec::new();
    for dense in [false, true] {
        let cfg = SimConfig {
            dram_override: Some(slow.clone()),
            sanitize: true,
            dense,
            ..SimConfig::default()
        };
        let o = simulate(&g, &chip, &cfg).unwrap_or_else(|e| {
            panic!("false-positive: slow-but-live run failed (dense={dense}): {e}")
        });
        assert!(o.cycles > 80_000, "latency override had no effect (dense={dense})");
        cycles.push(o.cycles);
    }
    assert_eq!(cycles[0], cycles[1], "schedulers diverged on slow DRAM");
}

#[test]
fn watchdog_tolerates_serialized_depth1_pipeline_under_both_schedulers() {
    // The other slow-but-live shape: par=1 everywhere, credits pinned to 1
    // (depth-1 multibuffers — no pipelining across loop stages), and DRAM
    // latency past the deadlock window. Progress happens one token at a
    // time with long silent gaps; the watchdog must keep deferring and the
    // sanitizer must stay clean.
    let chip = ChipSpec::small_8x8();
    let prog = sara_workloads::linalg::gemm(&sara_workloads::linalg::GemmParams::default());
    let opts = CompilerOptions {
        lower: LowerOptions {
            cmmc: CmmcOptions { relax_credits: false, multibuffer: 1, ..CmmcOptions::default() },
            ..LowerOptions::default()
        },
        ..CompilerOptions::default()
    };
    let mut c = compile(&prog, &chip, &opts).expect("gemm depth-1");
    sara_pnr::place_and_route(&mut c.vudfg, &c.assignment, &chip, 7).expect("gemm depth-1");
    assert!(
        !c.vudfg.streams.iter().any(|s| matches!(s.kind, StreamKind::Token { init } if init > 1)),
        "relax_credits=false must pin every credit to 1"
    );
    let mut slow = DramModelCfg::of_kind(chip.dram);
    slow.idle_latency = 80_000; // deadlock_window is 50_000
    slow.response_stall_budget = 10_000_000;
    let mut cycles = Vec::new();
    for dense in [false, true] {
        let cfg = SimConfig {
            dram_override: Some(slow.clone()),
            sanitize: true,
            dense,
            ..SimConfig::default()
        };
        let o = simulate(&c.vudfg, &chip, &cfg).unwrap_or_else(|e| {
            panic!("false-positive: serialized depth-1 run failed (dense={dense}): {e}")
        });
        assert!(o.cycles > 80_000, "latency override had no effect (dense={dense})");
        cycles.push(o.cycles);
    }
    assert_eq!(cycles[0], cycles[1], "schedulers diverged on serialized pipeline");
}

#[test]
fn faulted_runs_are_deterministic_across_schedulers_when_timing_only() {
    // A pure stall fault is scheduler-visible but value-neutral: both
    // schedulers must agree on the final image (cycle counts may differ
    // only if the fault interacts with scheduling — they must not here,
    // where the stall is applied identically at begin-of-cycle).
    let (g, chip) = compiled("bs");
    let vcu = g.units.iter().position(|u| matches!(u.kind, UnitKind::Vcu(_))).expect("no VCU");
    let plan = FaultPlan::empty().with(20, FaultKind::Stall { unit: vcu, cycles: 300 });
    for chips in [1, 2] {
        let run = |dense| {
            let cfg = SimConfig { faults: Some(plan.clone()), dense, ..SimConfig::default() };
            sim_on(chips, &g, &chip, &cfg)
                .unwrap_or_else(|e| panic!("{chips} chips, dense={dense}: {e}"))
        };
        let (dense_o, active_o) = (run(true), run(false));
        assert_eq!(
            dense_o.cycles, active_o.cycles,
            "schedulers diverged under a stall fault ({chips} chips)"
        );
        assert_eq!(dense_o.dram_final, active_o.dram_final);
    }
}

#[test]
fn invalid_plans_are_rejected_as_config_errors() {
    let (g, chip) = compiled("dotprod");
    let bogus = [
        FaultPlan::empty().with(1, FaultKind::Drop { stream: 10_000 }),
        FaultPlan::empty().with(1, FaultKind::LeakCredit { stream: ag_data_stream(&g) }),
        FaultPlan::empty().with(1, FaultKind::Stall { unit: 10_000, cycles: 5 }),
    ];
    for plan in bogus {
        let tag = plan.to_string();
        match simulate(&g, &chip, &with_plan(plan)) {
            Err(SimError::Config { .. }) => {}
            other => panic!("[{tag}] expected config rejection, got {other:?}"),
        }
    }
}
