//! Repo-level integration tests spanning every crate: IR → CMMC →
//! lowering → banking → partitioning → merging → PnR → simulation →
//! baselines, on real workloads.

use plasticine_arch::ChipSpec;
use plasticine_sim::{simulate, verify_dram, SimConfig};
use sara_core::compile::{compile, CompilerOptions};
use sara_ir::interp::Interp;

/// Every registered workload compiles, places, simulates and matches the
/// interpreter — the repository's headline invariant, exercised from the
/// outermost layer.
#[test]
fn all_workloads_end_to_end() {
    let chip = ChipSpec::small_8x8();
    for w in sara_workloads::all_small() {
        let p = &w.program;
        let reference = Interp::new(p).run().expect("interp");
        let mut compiled = compile(p, &chip, &CompilerOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        sara_pnr::place_and_route(&mut compiled.vudfg, &compiled.assignment, &chip, 1)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let outcome = simulate(&compiled.vudfg, &chip, &SimConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        verify_dram(p, &reference, &outcome).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    }
}

/// Determinism: compiling and simulating twice produces bit-identical
/// outcomes — cycle counts, resource reports, firing statistics and the
/// final DRAM image (the PnR annealer is seeded).
#[test]
fn deterministic_end_to_end() {
    let chip = ChipSpec::small_8x8();
    let w = sara_workloads::by_name("gemm").unwrap();
    let once = || {
        let mut c = compile(&w.program, &chip, &CompilerOptions::default()).unwrap();
        sara_pnr::place_and_route(&mut c.vudfg, &c.assignment, &chip, 11).unwrap();
        let o = simulate(&c.vudfg, &chip, &SimConfig::default()).unwrap();
        (o.cycles, c.report, o.stats.firings, o.stats.unit_firings.clone(), o.dram_final)
    };
    assert_eq!(once(), once());
}

/// Determinism holds under the parallel sweep harness: four concurrent
/// workers each running the full compile+PnR+simulate pipeline produce
/// bit-identical outcomes — shared-nothing points, no cross-thread state.
#[test]
fn deterministic_under_parallel_harness() {
    let chip = ChipSpec::small_8x8();
    let points: Vec<&str> = vec!["gemm", "gemm", "dotprod", "dotprod", "gemm", "dotprod"];
    let results = sara_util::pool::run_points_on(4, &points, |name| {
        let w = sara_workloads::by_name(name).unwrap();
        let mut c =
            compile(&w.program, &chip, &CompilerOptions::default()).map_err(|e| e.to_string())?;
        sara_pnr::place_and_route(&mut c.vudfg, &c.assignment, &chip, 11)
            .map_err(|e| e.to_string())?;
        let o = simulate(&c.vudfg, &chip, &SimConfig::default()).map_err(|e| e.to_string())?;
        Ok((o.cycles, c.report, o.stats.firings, o.dram_final))
    });
    let results: Vec<_> = results.into_iter().map(|r| r.unwrap()).collect();
    // Identical inputs must yield identical outputs regardless of which
    // worker ran them, and interleaved points must not perturb each other.
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[4]);
    assert_eq!(results[2], results[3]);
    assert_eq!(results[2], results[5]);
    assert_ne!(results[0].0, results[2].0, "distinct workloads should differ");
}

/// The PC baseline is never faster than SARA on the Table V set.
#[test]
fn pc_baseline_never_faster() {
    let chip = ChipSpec::vanilla_16x8();
    for name in ["kmeans", "gda", "logreg"] {
        let w = sara_workloads::by_name(name).unwrap();
        let mut sara = compile(&w.program, &chip, &CompilerOptions::default()).unwrap();
        sara_pnr::place_and_route(&mut sara.vudfg, &sara.assignment, &chip, 2).unwrap();
        let t_sara = simulate(&sara.vudfg, &chip, &SimConfig::default()).unwrap().cycles;
        let mut pc = sara_baselines::pc::compile_pc(&w.program, &chip).unwrap();
        sara_pnr::place_and_route(&mut pc.vudfg, &pc.assignment, &chip, 2).unwrap();
        sara_baselines::pc::apply_hierarchical_control(&mut pc);
        let t_pc = simulate(&pc.vudfg, &chip, &SimConfig::default()).unwrap().cycles;
        assert!(t_pc >= t_sara, "{name}: pc {t_pc} vs sara {t_sara}");
    }
}

/// Resource reports scale with parallelization (more lanes, more units).
#[test]
fn resources_scale_with_par() {
    use sara_workloads::linalg::{mlp, MlpParams};
    let chip = ChipSpec::sara_20x20();
    let r1 = compile(
        &mlp(&MlpParams { par_inner: 1, par_neuron: 1, ..Default::default() }),
        &chip,
        &CompilerOptions::default(),
    )
    .unwrap()
    .report;
    let r4 = compile(
        &mlp(&MlpParams { par_inner: 16, par_neuron: 4, ..Default::default() }),
        &chip,
        &CompilerOptions::default(),
    )
    .unwrap()
    .report;
    assert!(r4.total_pus() > r1.total_pus());
}
