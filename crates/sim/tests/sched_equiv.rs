//! Scheduler equivalence: the wakeup-driven active-list scheduler (the
//! default) must be cycle-for-cycle indistinguishable from the dense
//! reference scheduler (`SimConfig::dense()`), which steps every unit on
//! every cycle. Registry workloads are compiled, placed and simulated
//! under both; cycle counts, firing counts and final DRAM images must be
//! identical, and both must match the sequential interpreter.
//!
//! Also covers the error path: an under-credited token graph must
//! deadlock identically under both schedulers, and the active-list
//! diagnostic must name the stalled VCUs and backpressured streams.

use plasticine_arch::ChipSpec;
use plasticine_sim::{simulate, verify_dram, SimConfig, SimError};
use sara_core::compile::{compile, CompilerOptions};
use sara_core::vudfg::StreamKind;
use sara_ir::interp::Interp;

/// Simulate under both schedulers, assert identical outcomes, and check
/// every DRAM tensor against the interpreter.
fn check_workload(name: &str, chip: &ChipSpec, pnr_seed: u64) {
    let w = sara_workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let p = &w.program;
    let reference = Interp::new(p).run().expect("interpreter runs");
    let mut compiled = compile(p, chip, &CompilerOptions::default())
        .unwrap_or_else(|e| panic!("compile {name}: {e}"));
    sara_pnr::place_and_route(&mut compiled.vudfg, &compiled.assignment, chip, pnr_seed)
        .unwrap_or_else(|e| panic!("pnr {name}: {e}"));
    let active = simulate(&compiled.vudfg, chip, &SimConfig::default())
        .unwrap_or_else(|e| panic!("active sim {name}: {e}"));
    let dense = simulate(&compiled.vudfg, chip, &SimConfig::dense())
        .unwrap_or_else(|e| panic!("dense sim {name}: {e}"));

    assert_eq!(active.cycles, dense.cycles, "{name}: cycle divergence");
    assert_eq!(active.stats.firings, dense.stats.firings, "{name}: total firings");
    assert_eq!(active.stats.unit_firings, dense.stats.unit_firings, "{name}: per-unit firings");
    assert_eq!(active.stats.dram, dense.stats.dram, "{name}: dram stats");
    assert_eq!(active.dram_final, dense.dram_final, "{name}: dram image");

    verify_dram(p, &reference, &active).unwrap_or_else(|e| panic!("{name}: {e}"));
}

#[test]
fn registry_workloads_linalg() {
    let chip = ChipSpec::small_8x8();
    for name in ["dotprod", "gemm", "outerprod"] {
        check_workload(name, &chip, 7);
    }
}

#[test]
fn registry_workloads_ml() {
    let chip = ChipSpec::small_8x8();
    for name in ["mlp", "lstm", "kmeans"] {
        check_workload(name, &chip, 7);
    }
}

#[test]
fn registry_workloads_streaming_and_graph() {
    let chip = ChipSpec::small_8x8();
    for name in ["bs", "tpchq6", "pr", "ms"] {
        check_workload(name, &chip, 7);
    }
}

#[test]
fn registry_workloads_dense_and_stat() {
    // The rest of the registry, so every registered workload passes the
    // dense-vs-active differential (the other three tests cover the
    // linalg/ml/streaming subsets).
    let chip = ChipSpec::small_8x8();
    for name in ["snet", "rf", "sort", "gda", "logreg", "sgd"] {
        check_workload(name, &chip, 7);
    }
}

#[test]
fn every_registry_workload_is_differentially_checked() {
    // Guard against the registry growing without this suite keeping up.
    let covered: std::collections::HashSet<&str> = [
        "dotprod",
        "gemm",
        "outerprod",
        "mlp",
        "lstm",
        "kmeans",
        "bs",
        "tpchq6",
        "pr",
        "ms",
        "snet",
        "rf",
        "sort",
        "gda",
        "logreg",
        "sgd",
    ]
    .into_iter()
    .collect();
    for w in sara_workloads::all_small() {
        assert!(covered.contains(w.name), "workload {} missing from sched_equiv coverage", w.name);
    }
}

#[test]
fn equivalence_holds_across_pnr_seeds() {
    // Different placements change stream latencies, exercising different
    // wakeup schedules in the active-list engine.
    let chip = ChipSpec::small_8x8();
    for seed in [0, 3, 11] {
        check_workload("gemm", &chip, seed);
    }
}

#[test]
fn undercredited_token_graph_deadlocks_with_diagnostic() {
    // Zero out the CMMC credit initialization on every token stream: the
    // producers then wait forever for credits only their consumers could
    // return, a guaranteed cyclic stall. Both schedulers must report the
    // deadlock at the same cycle, and the diagnostic must name the
    // stalled VCUs and the backpressure picture.
    let chip = ChipSpec::small_8x8();
    // lstm's cross-timestep dependencies compile to a credit-rich token
    // graph (the probe for "has initialized credits to ablate").
    let w = sara_workloads::by_name("lstm").unwrap();
    let mut compiled = compile(&w.program, &chip, &CompilerOptions::default()).unwrap();
    sara_pnr::place_and_route(&mut compiled.vudfg, &compiled.assignment, &chip, 1).unwrap();

    let mut zeroed = 0;
    for s in &mut compiled.vudfg.streams {
        if let StreamKind::Token { init } = &mut s.kind {
            if *init > 0 {
                *init = 0;
                zeroed += 1;
            }
        }
    }
    assert!(zeroed > 0, "expected initialized token credits to ablate");

    let cfg = SimConfig { max_cycles: 5_000_000, deadlock_window: 2_000, ..SimConfig::default() };
    let active_err = simulate(&compiled.vudfg, &chip, &cfg).unwrap_err();
    let SimError::Deadlock { cycle: active_cycle, diagnostic, .. } = active_err else {
        panic!("expected deadlock under active-list, got {active_err:?}");
    };
    assert!(diagnostic.contains("stalled on"), "diagnostic must list stalled VCUs:\n{diagnostic}");
    assert!(
        diagnostic.contains("streams backpressured"),
        "diagnostic must summarize backpressure:\n{diagnostic}"
    );

    let dense_cfg = SimConfig { dense: true, ..cfg };
    let dense_err = simulate(&compiled.vudfg, &chip, &dense_cfg).unwrap_err();
    let SimError::Deadlock { cycle: dense_cycle, .. } = dense_err else {
        panic!("expected deadlock under dense scheduler, got {dense_err:?}");
    };
    assert_eq!(active_cycle, dense_cycle, "deadlock cycle divergence");
}
