//! Cache-correctness acceptance for the `sarad` engine:
//!
//! * same request twice → bit-identical artifacts + a cache hit;
//! * any single field of the key tuple changed → a miss (distinct keys),
//!   except that a flag toggle which compiles to the same design keeps
//!   its sim key;
//! * knob settings that compile to one design share one placement, one
//!   simulation and one sim artifact, across restarts too;
//! * the registry's design digests stay pinned, and equal digests
//!   simulate identically;
//! * corrupted on-disk artifact → detected by hash mismatch and
//!   recomputed, never served;
//! * served cached sim results bit-identical to fresh computation;
//! * cache-warm autotune repeat → zero recompilations, verified via the
//!   service hit/miss stats;
//! * a restarted engine answers an autotune from disk: no compile, no
//!   PnR, no sim, and the same result;
//! * a lost sim artifact is recomputed through compile and PnR, to the
//!   same result;
//! * a tampered eval artifact is recompiled, never served;
//! * a pipeline run puts only evaluations and simulations on disk;
//! * the registry's compile keys stay pinned, so existing stores hit.

use plasticine_arch::ChipSpec;
use sara_core::artifact::{design_digest, f64_bits};
use sara_dse::{autotune_with, Evaluator, KnobConfig, SearchOptions};
use sara_util::Json;
use sarad::engine::{no_progress, Deadline};
use sarad::{stage_keys, CachedEval, Engine};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sarad-cache-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn knobs_for(workload: &str, chip: &str, seed: u64) -> KnobConfig {
    let w = sara_workloads::by_name(workload).unwrap();
    KnobConfig::default_for(&w, chip, seed).unwrap()
}

#[test]
fn repeat_request_hits_and_serves_bit_identical_results() {
    let engine = Engine::open(&tmp_dir("repeat")).unwrap();
    let knobs = knobs_for("dotprod", "8x8", 7);

    let mut sink = no_progress();
    let (keys_a, art_a) = engine.run(&knobs, &mut sink).unwrap();
    let hits_before = engine.stats.sim_hits.load(Ordering::Relaxed);
    let sims_before = engine.stats.sims_run.load(Ordering::Relaxed);
    let (keys_b, art_b) = engine.run(&knobs, &mut sink).unwrap();
    assert_eq!(keys_a, keys_b);
    assert_eq!(art_a, art_b, "cached artifact must be bit-identical");
    assert_eq!(
        engine.stats.sim_hits.load(Ordering::Relaxed),
        hits_before + 1,
        "second identical request must be a sim-stage hit"
    );
    assert_eq!(
        engine.stats.sims_run.load(Ordering::Relaxed),
        sims_before,
        "second identical request must not re-simulate"
    );

    // Bit-identity against a fresh, cacheless computation.
    let chip = ChipSpec::small_8x8();
    let opts = knobs.compiler_options();
    let mut compiled =
        sara_core::compile::compile(&knobs.build_program().unwrap(), &chip, &opts).unwrap();
    sara_pnr::place_and_route(&mut compiled.vudfg, &compiled.assignment, &chip, 7).unwrap();
    let fresh =
        plasticine_sim::simulate(&compiled.vudfg, &chip, &plasticine_sim::SimConfig::default())
            .unwrap();
    assert_eq!(art_a.cycles, fresh.cycles, "cached cycles != fresh");
    assert_eq!(art_a.firings, fresh.stats.firings, "cached firings != fresh");
}

/// The optimization flags, by the names `toggled` takes.
const FLAGS: [&str; 3] = ["rtelm", "retime", "retime_m"];

/// `knobs` with one optimization flag flipped.
fn toggled(knobs: &KnobConfig, flag: &str) -> KnobConfig {
    let mut k = knobs.clone();
    let opt = &mut k.opt;
    let bit = match flag {
        "rtelm" => &mut opt.rtelm,
        "retime" => &mut opt.retime,
        _ => &mut opt.retime_m,
    };
    *bit = !*bit;
    k
}

/// The digest of `knobs`' compiled design on its chip.
fn digest_of(knobs: &KnobConfig) -> String {
    let chip = knobs.system_spec().unwrap().chip;
    let program = knobs.build_program().unwrap();
    design_digest(&sara_core::compile::compile(&program, &chip, &knobs.compiler_options()).unwrap())
}

#[test]
fn any_single_key_field_change_is_a_miss() {
    let engine = Engine::open(&tmp_dir("fields")).unwrap();
    let keys_of = |k: &KnobConfig| engine.run(k, &mut no_progress()).unwrap().0;
    let base = knobs_for("dotprod", "8x8", 7);
    let base_keys = keys_of(&base);

    // Different workload (program text).
    let other_workload = knobs_for("gemm", "8x8", 7);
    // Different chip.
    let other_chip = knobs_for("dotprod", "16x8", 7);
    // Different PnR seed.
    let other_seed = knobs_for("dotprod", "8x8", 8);
    // Different par knob (where the loop admits one).
    let mut other_par = base.clone();
    other_par.pars[0].par = other_par.pars[0].par.saturating_mul(2).max(2);

    for (what, k) in [("workload", &other_workload), ("chip", &other_chip), ("par", &other_par)] {
        let keys = keys_of(k);
        assert_ne!(keys.sim, base_keys.sim, "{what}: sim key must change");
        assert_ne!(keys.place, base_keys.place, "{what}: place key must change");
        assert_ne!(keys.eval, base_keys.eval, "{what}: eval key must change");
        assert_ne!(keys.compile, base_keys.compile, "{what}: compile key must change");
    }

    // A flag toggle changes every knob-derived key, and the sim key
    // exactly when it changes the compiled design. At default knobs
    // every `dotprod` toggle compiles to the same design; `pr`'s
    // `retime` toggle does not.
    let pr = knobs_for("pr", "8x8", 7);
    let pr_keys = keys_of(&pr);
    let mut shared = 0;
    for (from, from_keys) in [(&base, &base_keys), (&pr, &pr_keys)] {
        for flag in FLAGS {
            let what = format!("{} {flag}", from.workload);
            let k = toggled(from, flag);
            let keys = keys_of(&k);
            assert_ne!(keys.compile, from_keys.compile, "{what}: compile key must change");
            assert_ne!(keys.eval, from_keys.eval, "{what}: eval key must change");
            assert_ne!(keys.place, from_keys.place, "{what}: place key must change");
            let same_design = digest_of(&k) == digest_of(from);
            assert_eq!(keys.sim == from_keys.sim, same_design, "{what}: sim key vs design");
            shared += usize::from(same_design);
        }
    }
    assert!((1..6).contains(&shared), "both outcomes must occur: {shared} of 6 toggles shared");

    // A seed change invalidates place/sim but reuses the compile stage.
    let seed_keys = keys_of(&other_seed);
    assert_eq!(seed_keys.compile, base_keys.compile, "seed must not invalidate the compile");
    assert_eq!(seed_keys.eval, base_keys.eval, "seed must not invalidate the evaluation");
    assert_ne!(seed_keys.place, base_keys.place);
    assert_ne!(seed_keys.sim, base_keys.sim);
}

#[test]
fn every_topology_field_invalidates_the_compile_key() {
    // Knob-reachable topology changes: system name (count, chip kind)
    // and the link overrides. Each must produce a distinct compile key
    // from the others — a cached artifact can never alias across
    // topologies.
    let base = knobs_for("dotprod", "2x8x8", 7);
    let base_keys = stage_keys(&base).unwrap();

    let more_chips = knobs_for("dotprod", "4x8x8", 7);
    let other_chip_kind = knobs_for("dotprod", "2x16x8", 7);
    let single = knobs_for("dotprod", "8x8", 7);
    let mut slow_link = base.clone();
    slow_link.link_latency = Some(80);
    let mut wide_link = base.clone();
    wide_link.link_bandwidth = Some(8);

    let mut seen = vec![("base", base_keys.compile.clone())];
    for (what, k) in [
        ("count", &more_chips),
        ("chip kind", &other_chip_kind),
        ("single-chip", &single),
        ("link latency", &slow_link),
        ("link bandwidth", &wide_link),
    ] {
        let keys = stage_keys(k).unwrap();
        for (prev, key) in &seen {
            assert_ne!(&keys.compile, key, "{what} must not alias {prev}");
        }
        seen.push((what, keys.compile));
    }

    // Fields no knob reaches (grid shape, link FIFO depth, per-chip
    // capabilities) still flow into the key through the field-complete
    // system canon.
    let program = base.build_program().unwrap();
    let opts = base.compiler_options();
    let sys = base.system_spec().unwrap();
    let base_key = sara_core::artifact::compile_key(&program, &opts, &sys);
    assert_eq!(base_key, base_keys.compile, "stage_keys must use the canonical compile key");
    let mut deep = sys.clone();
    deep.link.fifo_depth += 1;
    let mut tall = sys.clone();
    tall.grid_cols = 1;
    let mut hot = sys.clone();
    hot.chip.hop_latency += 1;
    for (what, s) in [("link.fifo_depth", &deep), ("grid_cols", &tall), ("chip.hop_latency", &hot)]
    {
        assert_ne!(
            sara_core::artifact::compile_key(&program, &opts, s),
            base_key,
            "{what} must change the compile key"
        );
    }
}

#[test]
fn multi_chip_requests_run_replay_and_match_direct_simulation() {
    let dir = tmp_dir("multichip");
    let knobs = knobs_for("dotprod", "2x8x8", 7);

    // Cold run through the engine.
    let (art, placed) = {
        let engine = Engine::open(&dir).unwrap();
        let mut sink = no_progress();
        let (keys, art) = engine.run(&knobs, &mut sink).unwrap();
        let placed = engine.place_stage(&knobs, &keys, Deadline::none(), &mut sink).unwrap();
        (art, placed)
    };
    let plan = placed.plan.as_ref().expect("multi-chip placement must carry its shard plan");
    assert_eq!(plan.count, 2);

    // Bit-identity against a fresh, cacheless multi-chip pipeline.
    let system = knobs.system_spec().unwrap();
    let opts = knobs.compiler_options();
    let mut compiled =
        sara_core::compile::compile(&knobs.build_program().unwrap(), &system.chip, &opts).unwrap();
    let pnr =
        sara_pnr::place_and_route_system(&mut compiled.vudfg, &compiled.assignment, &system, 7)
            .unwrap();
    let fresh = plasticine_sim::simulate_system(
        &compiled.vudfg,
        &system,
        &pnr.plan,
        &plasticine_sim::SimConfig::default(),
    )
    .unwrap();
    assert_eq!(art.cycles, fresh.cycles, "cached multi-chip cycles != fresh");
    assert_eq!(art.firings, fresh.stats.firings, "cached multi-chip firings != fresh");
    assert_eq!(*plan, pnr.plan, "engine shard plan != fresh");

    // A fresh engine (same disk store) answers the multi-chip run from
    // its sim artifact, without compiling, placing or simulating.
    let engine = Engine::open(&dir).unwrap();
    let mut sink = no_progress();
    let (_, replayed) = engine.run(&knobs, &mut sink).unwrap();
    assert_eq!(replayed, art, "disk replay must reproduce the sim artifact exactly");
    assert_eq!(engine.stats.compiles_run.load(Ordering::Relaxed), 0, "no recompile");
    assert_eq!(engine.stats.pnrs_run.load(Ordering::Relaxed), 0, "no re-place");
    assert_eq!(engine.stats.sims_run.load(Ordering::Relaxed), 0, "no re-simulation");
}

#[test]
fn corrupted_disk_artifact_is_detected_and_recomputed_never_served() {
    let dir = tmp_dir("corrupt");
    let knobs = knobs_for("dotprod", "8x8", 7);

    let (keys, art) = {
        let engine = Engine::open(&dir).unwrap();
        let mut sink = no_progress();
        engine.run(&knobs, &mut sink).unwrap()
    };

    // Tamper with the sim artifact on disk: valid JSON, wrong cycles.
    let path = dir.join("sim").join(format!("{}.json", keys.sim));
    let text = std::fs::read_to_string(&path).unwrap();
    let bogus = format!("{}9", art.cycles); // definitely a different number
    std::fs::write(&path, text.replace(&art.cycles.to_string(), &bogus)).unwrap();

    // A fresh engine (empty in-memory index, same disk store) must not
    // serve the tampered value: hash mismatch → recompute.
    let engine = Engine::open(&dir).unwrap();
    let mut sink = no_progress();
    let (_, art2) = engine.run(&knobs, &mut sink).unwrap();
    assert_eq!(art2, art, "recomputed artifact must match the original, not the tampered file");
    assert!(
        engine.stats.corrupt_detected.load(Ordering::Relaxed) >= 1,
        "corruption must be counted"
    );
    assert_eq!(engine.stats.sims_run.load(Ordering::Relaxed), 1, "must recompute, not serve");

    // The recompute healed the artifact: a third engine reads it from
    // disk without simulating at all.
    let engine3 = Engine::open(&dir).unwrap();
    let mut sink = no_progress();
    let (_, art3) = engine3.run(&knobs, &mut sink).unwrap();
    assert_eq!(art3, art);
    assert_eq!(engine3.stats.sims_run.load(Ordering::Relaxed), 0);
    assert!(engine3.stats.disk_hits.load(Ordering::Relaxed) >= 1);
}

#[test]
fn lost_sim_artifact_is_recomputed_through_compile_and_pnr() {
    let dir = tmp_dir("lost-sim");
    let knobs = knobs_for("gemm", "8x8", 7);
    let art = {
        let engine = Engine::open(&dir).unwrap();
        let mut sink = no_progress();
        engine.run(&knobs, &mut sink).unwrap().1
    };
    // New process (fresh memory) with the sim artifact gone: placements
    // live only in memory, so the request compiles, places and
    // simulates again, to the same result.
    std::fs::remove_dir_all(dir.join("sim")).unwrap();
    let engine = Engine::open(&dir).unwrap();
    let mut sink = no_progress();
    let (_, again) = engine.run(&knobs, &mut sink).unwrap();
    assert_eq!(again, art, "the recomputed artifact must match the original");
    assert_eq!(engine.stats.compiles_run.load(Ordering::Relaxed), 1, "one recompile");
    assert_eq!(engine.stats.pnrs_run.load(Ordering::Relaxed), 1, "one re-place");
    assert_eq!(engine.stats.sims_run.load(Ordering::Relaxed), 1, "the sim is rerun");
}

#[test]
fn only_evaluations_and_simulations_reach_the_disk_store() {
    let dir = tmp_dir("stages");
    let engine = Engine::open(&dir).unwrap();
    let mut sink = no_progress();
    engine.run(&knobs_for("gemm", "8x8", 7), &mut sink).unwrap();
    assert!(!dir.join("compile").exists(), "the compile stage is memory-only");
    assert!(!dir.join("place").exists(), "the place stage is memory-only");
    let bytes_in = |stage: &str| -> u64 {
        std::fs::read_dir(dir.join(stage))
            .unwrap()
            .map(|entry| entry.unwrap().metadata().unwrap().len())
            .sum()
    };
    let (evals, sims) = (bytes_in("eval"), bytes_in("sim"));
    assert!(evals > 0, "a run saves its evaluation, which holds the design digest");
    assert!(sims > 0);
    let store_bytes = engine.stats_json().get("store_bytes").and_then(Json::as_u64);
    assert_eq!(store_bytes, Some(evals + sims), "store_bytes counts exactly eval/ and sim/");
}

#[test]
fn concurrent_identical_requests_coalesce_to_one_simulation() {
    let engine = Arc::new(Engine::open(&tmp_dir("flight")).unwrap());
    let knobs = knobs_for("dotprod", "8x8", 7);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let engine = Arc::clone(&engine);
            let knobs = knobs.clone();
            scope.spawn(move || {
                let mut sink = no_progress();
                engine.run(&knobs, &mut sink).unwrap();
            });
        }
    });
    assert_eq!(
        engine.stats.sims_run.load(Ordering::Relaxed),
        1,
        "single-flight: identical in-flight requests must share one simulation"
    );
    assert_eq!(engine.stats.compiles_run.load(Ordering::Relaxed), 1);
}

#[test]
fn warm_autotune_repeat_runs_zero_recompilations() {
    let engine = Arc::new(Engine::open(&tmp_dir("autotune")).unwrap());
    let backend = CachedEval::new(Arc::clone(&engine));
    let opts = SearchOptions { budget: 12, sim_top: 2, ..SearchOptions::default() };

    let cold = autotune_with("dotprod", &opts, &backend).unwrap();
    let compiles_after_cold = engine.stats.compiles_run.load(Ordering::Relaxed);
    let sims_after_cold = engine.stats.sims_run.load(Ordering::Relaxed);
    let eval_hits_after_cold = engine.stats.eval_hits.load(Ordering::Relaxed);
    let sim_hits_after_cold = engine.stats.sim_hits.load(Ordering::Relaxed);
    assert!(compiles_after_cold >= 1);

    // The warm repeat: identical (program, flags, chip, seed) tuples
    // throughout, so the service must not compile or simulate anything.
    let warm = autotune_with("dotprod", &opts, &backend).unwrap();
    assert_eq!(
        engine.stats.compiles_run.load(Ordering::Relaxed),
        compiles_after_cold,
        "cache-warm autotune must perform zero recompilations"
    );
    assert_eq!(
        engine.stats.sims_run.load(Ordering::Relaxed),
        sims_after_cold,
        "cache-warm autotune must perform zero new simulations"
    );
    // The warm run's evaluations and simulations are served as hits.
    assert!(
        engine.stats.eval_hits.load(Ordering::Relaxed) > eval_hits_after_cold,
        "cache-warm evaluations must be eval-stage hits"
    );
    assert!(
        engine.stats.sim_hits.load(Ordering::Relaxed) > sim_hits_after_cold,
        "cache-warm simulations must be sim-stage hits"
    );

    // Determinism: the warm run reproduces the cold run's result.
    assert_eq!(cold.best.simulated, warm.best.simulated);
    assert_eq!(cold.best.knobs.key(), warm.best.knobs.key());
    assert_eq!(cold.default_point.simulated, warm.default_point.simulated);
}

#[test]
fn eviction_pressure_keeps_results_bit_identical_and_budget_holds() {
    let dir = tmp_dir("evict");
    let tuples: Vec<KnobConfig> =
        [7u64, 8, 9, 10].iter().map(|&s| knobs_for("dotprod", "8x8", s)).collect();

    // Reference artifacts and the total disk footprint from an
    // unbounded engine.
    let clean = Engine::open(&dir.join("clean")).unwrap();
    let mut reference = Vec::new();
    for k in &tuples {
        let mut sink = no_progress();
        reference.push(clean.run(k, &mut sink).unwrap().1);
    }
    let total = clean.store().bytes();
    assert!(total > 0);
    drop(clean);

    // Half the footprint: enough for any single request tuple, not for
    // all of them — every pass below runs under real eviction pressure.
    let budget = total / 2;
    let tight = dir.join("tight");
    let mut evictions = 0u64;
    let mut save_failures = 0u64;
    for pass in 0..2 {
        for (k, expect) in tuples.iter().zip(&reference) {
            // A fresh engine per request: no in-memory cache, so every
            // request exercises the evicting disk store (hit, evicted
            // re-compute, or degraded compute — all must agree).
            let engine = Engine::open_with(&tight, Some(budget), None).unwrap();
            let mut sink = no_progress();
            let (_, art) = engine.run(k, &mut sink).unwrap();
            assert_eq!(
                &art, expect,
                "pass {pass}: results under eviction pressure must be bit-identical to fresh"
            );
            let bytes = engine.store().bytes();
            assert!(bytes <= budget, "store holds {bytes} B over the {budget} B budget");
            evictions += engine.store().counters.evictions.load(Ordering::Relaxed);
            save_failures += engine.store().counters.save_failures.load(Ordering::Relaxed);
        }
    }
    assert!(
        evictions + save_failures > 0,
        "the budget must actually have constrained the store (evictions or refusals)"
    );
}

#[test]
fn registry_compile_keys_are_pinned() {
    // Literals computed when the registry built every program on each
    // lookup: a lookup that builds a different program would change its
    // key, and every existing store would miss.
    let pinned = [
        ("dotprod", "1f8c344c084f93e606c2952572fa6941"),
        ("outerprod", "5c695ec3e82d10c19d6823b45a93bca2"),
        ("gemm", "ce349be789d3d2b38e1348b5147d8b34"),
        ("mlp", "920ec1f1bdd93ac54f8404c57baad1fa"),
        ("lstm", "9a196b248d24cbfbbc02a75c42322be0"),
        ("snet", "146e952cec716ce0ba723235c79f46cb"),
        ("logreg", "e1099cc67b2b3e063bbc1c2599fd26ad"),
        ("sgd", "da134af791dfa76478cd68348a68b757"),
        ("kmeans", "469f6009d7d298d53862cd8229047292"),
        ("gda", "80f5c9dc787f2360548e265a816c47a7"),
        ("tpchq6", "a0b6b1d108d4a6839cd5fb9894a84de4"),
        ("bs", "f530c3a710cb4ca7126e761ca70d6a50"),
        ("sort", "d50afd64ff865b35314ae52d1653120a"),
        ("ms", "c7ddf2064c58afc6e8fb3296b2a0d32d"),
        ("pr", "c45f3c23924f8e3b2b5221b54195f448"),
        ("rf", "becd598b026d859c7af996c9c9b0403b"),
    ];
    let names: Vec<&str> = pinned.iter().map(|(name, _)| *name).collect();
    assert_eq!(sara_workloads::names(), names, "one pin per registry workload");
    for (name, key) in pinned {
        let keys = stage_keys(&knobs_for(name, "8x8", 42)).unwrap();
        assert_eq!(keys.compile, key, "{name}: compile key moved");
    }
}

#[test]
fn restarted_autotune_answers_from_disk_without_compiling() {
    let dir = tmp_dir("restart");
    let opts = SearchOptions { budget: 12, sim_top: 2, ..SearchOptions::default() };
    let cold = {
        let engine = Arc::new(Engine::open(&dir).unwrap());
        autotune_with("dotprod", &opts, &CachedEval::new(engine)).unwrap()
    };

    // A fresh engine over the same store, as after a daemon restart:
    // evaluations and simulations all come from disk, so nothing is
    // compiled, placed or simulated.
    let engine = Arc::new(Engine::open(&dir).unwrap());
    let restarted = autotune_with("dotprod", &opts, &CachedEval::new(Arc::clone(&engine))).unwrap();
    let stat = |c: &AtomicU64| c.load(Ordering::Relaxed);
    assert_eq!(stat(&engine.stats.compiles_run), 0, "a restart must not compile");
    assert_eq!(stat(&engine.stats.pnrs_run), 0, "a restart must not place");
    assert_eq!(stat(&engine.stats.sims_run), 0, "a restart must not simulate");
    assert!(stat(&engine.stats.eval_hits) > 0);

    assert_eq!(restarted.best.knobs.key(), cold.best.knobs.key());
    assert_eq!(restarted.best.simulated, cold.best.simulated);
    assert_eq!(restarted.default_point.simulated, cold.default_point.simulated);
    assert_eq!(restarted.points_explored, cold.points_explored);
    assert_eq!(restarted.infeasible_pruned, cold.infeasible_pruned);
}

#[test]
fn tampered_eval_artifact_is_recompiled_never_served() {
    let dir = tmp_dir("eval-corrupt");
    let knobs = knobs_for("gemm", "8x8", 7);
    let keys = stage_keys(&knobs).unwrap();
    let original = {
        let engine = Arc::new(Engine::open(&dir).unwrap());
        CachedEval::new(engine).evaluate(&knobs).unwrap()
    };
    let estimate = original.estimate.clone().expect("default gemm compiles");

    // Valid JSON, wrong `raw_cycles` bits: only the payload hash can
    // catch it.
    let path = dir.join("eval").join(format!("{}.json", keys.eval));
    let text = std::fs::read_to_string(&path).unwrap();
    let bits = f64_bits(estimate.raw_cycles);
    let bogus = f64_bits(2.0 * estimate.raw_cycles);
    assert!(text.contains(&bits), "the eval artifact stores raw_cycles by its bits");
    std::fs::write(&path, text.replace(&bits, &bogus)).unwrap();

    let engine = Arc::new(Engine::open(&dir).unwrap());
    let point = CachedEval::new(Arc::clone(&engine)).evaluate(&knobs).unwrap();
    assert_eq!(engine.stats.corrupt_detected.load(Ordering::Relaxed), 1);
    assert_eq!(engine.stats.compiles_run.load(Ordering::Relaxed), 1, "must recompile, not serve");
    let served = point.estimate.expect("the recompiled point has an estimate");
    assert_eq!(served.raw_cycles.to_bits(), estimate.raw_cycles.to_bits());
    assert_eq!(served, estimate);
    assert_eq!(point.report, original.report);
    assert_eq!(point.feasible, original.feasible);
}

#[test]
fn concurrent_evaluations_of_one_point_coalesce_to_one_compile() {
    let engine = Arc::new(Engine::open(&tmp_dir("eval-flight")).unwrap());
    // A slow compile and a common start keep all four in flight at once.
    engine.set_stage_delay(Some(std::time::Duration::from_millis(50)));
    let backend = CachedEval::new(Arc::clone(&engine));
    let knobs = knobs_for("dotprod", "8x8", 7);
    let start = std::sync::Barrier::new(4);
    let points: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    backend.evaluate(&knobs).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(engine.stats.compiles_run.load(Ordering::Relaxed), 1);
    assert_eq!(engine.stats.eval_misses.load(Ordering::Relaxed), 1);
    assert_eq!(engine.stats.eval_hits.load(Ordering::Relaxed), 3);
    for p in &points {
        assert_eq!(p.estimate, points[0].estimate);
        assert_eq!(p.report, points[0].report);
    }
}

#[test]
fn eval_artifacts_change_only_with_their_key() {
    // The compile key does not cover the cost model, the compiler's
    // code or the design digest's walk. When any of them moves an eval
    // artifact, `sarad-eval-v2` must be bumped, which moves the key too,
    // so stores written before miss instead of serving stale estimates
    // or digests. Re-pin both after the bump.
    let pinned = [
        ("dotprod", "a5666dcf3d7622937840958f4924329c", "553de81aba62f8d23827b3a4bd4eb161"),
        ("gemm", "0e9bd66eb8eb6622bf08b2a04c4c24f9", "51d96c570edcbab9ac0f7e944171216a"),
        ("mlp", "736bebc5b0141ec3bf56d6826d376680", "ba131df4ff6242cc11bb4fca92662fbb"),
    ];
    let dir = tmp_dir("eval-pin");
    let backend = CachedEval::new(Arc::new(Engine::open(&dir).unwrap()));
    let found: Vec<(String, String)> = pinned
        .iter()
        .map(|(name, _, _)| {
            let knobs = knobs_for(name, "8x8", 42);
            backend.evaluate(&knobs).unwrap();
            let key = stage_keys(&knobs).unwrap().eval;
            let text = std::fs::read_to_string(dir.join("eval").join(format!("{key}.json")));
            let doc = Json::parse(&text.unwrap()).unwrap();
            (key, doc.get("payload_hash").and_then(Json::as_str).unwrap().to_string())
        })
        .collect();
    for ((name, key, payload_hash), (eval_key, hash)) in pinned.iter().zip(&found) {
        if eval_key == key {
            assert_eq!(hash, payload_hash, "{name}: eval artifact changed; bump sarad-eval-v2");
        }
        assert_eq!(eval_key, key, "{name}: eval key moved; re-pin {found:?}");
    }
}

#[test]
fn flag_twins_share_one_simulation_across_autotune_and_restart() {
    let dir = tmp_dir("twins");
    let opts = SearchOptions { budget: 12, ..SearchOptions::default() };
    let count = |c: &AtomicU64| c.load(Ordering::Relaxed);

    // Every `lstm` point the search simulates is a flag toggle of one
    // design: one placement and one simulation serve them all.
    let cold = {
        let engine = Arc::new(Engine::open(&dir).unwrap());
        let cold = autotune_with("lstm", &opts, &CachedEval::new(Arc::clone(&engine))).unwrap();
        assert_eq!(cold.sims_run, 4, "the search simulates four points");
        assert_eq!(count(&engine.stats.pnrs_run), 1, "one placement for one design");
        assert_eq!(count(&engine.stats.sims_run), 1, "one simulation for one design");
        cold
    };
    assert_eq!(std::fs::read_dir(dir.join("sim")).unwrap().count(), 1, "one sim artifact");

    // A restarted engine reads every sim key from the eval artifacts.
    let engine = Arc::new(Engine::open(&dir).unwrap());
    let restarted = autotune_with("lstm", &opts, &CachedEval::new(Arc::clone(&engine))).unwrap();
    assert_eq!(count(&engine.stats.compiles_run), 0, "a restart must not compile");
    assert_eq!(count(&engine.stats.pnrs_run), 0, "a restart must not place");
    assert_eq!(count(&engine.stats.sims_run), 0, "a restart must not simulate");
    assert_eq!(restarted.best.knobs.key(), cold.best.knobs.key());
    assert_eq!(restarted.best.simulated, cold.best.simulated);
}

#[test]
fn a_flag_twin_run_compiles_but_reuses_the_simulation() {
    let engine = Engine::open(&tmp_dir("twin-run")).unwrap();
    let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let base = knobs_for("dotprod", "8x8", 7);
    let mut twin = base.clone();
    twin.opt.retime = false;
    assert_eq!(digest_of(&twin), digest_of(&base), "premise: the toggle compiles identically");

    let (base_keys, art) = engine.run(&base, &mut no_progress()).unwrap();
    let (compiles, pnrs, sims) = (
        count(&engine.stats.compiles_run),
        count(&engine.stats.pnrs_run),
        count(&engine.stats.sims_run),
    );
    let (twin_keys, twin_art) = engine.run(&twin, &mut no_progress()).unwrap();
    assert_eq!(count(&engine.stats.compiles_run), compiles + 1, "the twin compiles once");
    assert_eq!(count(&engine.stats.pnrs_run), pnrs, "the twin is not placed");
    assert_eq!(count(&engine.stats.sims_run), sims, "the twin is not simulated");
    assert_ne!(twin_keys.compile, base_keys.compile);
    assert_eq!(twin_keys.sim, base_keys.sim);
    assert_eq!(twin_art, art, "the twin is served its design's sim artifact");
}

#[test]
fn registry_design_digests_are_pinned() {
    // The digests of the 16 registry designs at default knobs on `8x8`.
    // A digest that moved between processes (a `HashMap` order leaking
    // into the walk) would fail here; so does a compiler change, which
    // also needs a `sarad-eval-v2` bump.
    let pinned = [
        ("dotprod", "e07d8a70313c6067258e5f53a88c4d68"),
        ("outerprod", "6c44515c16fead736189f0b74c4c8f00"),
        ("gemm", "5e4a6cf0311dff60a3120aa2e498cd8b"),
        ("mlp", "9e274bfcf45efefd5da2f2f48951558a"),
        ("lstm", "f155191855ea95c43688e08df0988a7f"),
        ("snet", "8c51403ff4c3f08098b7797a4ce4d52f"),
        ("logreg", "83290a557e4c9512e0a7e5baa599b84d"),
        ("sgd", "6729e78d76d89e6aed6854ef3f6f139d"),
        ("kmeans", "8f5ea9f1c05b0d736a5fa8e8dd6af888"),
        ("gda", "b28f386d0aa9137adc194359da026ac5"),
        ("tpchq6", "0c8704c9dfa4d0b27774c2325b2bfa4d"),
        ("bs", "02be3f1bd3a80cf75705ee5635340e58"),
        ("sort", "686d75ace5dd15f5280911add00d0d2e"),
        ("ms", "887da7b3a3af736dd0f4cf0e539a09ea"),
        ("pr", "d6f7fa44d210f8e833b6bd3e8ae2880f"),
        ("rf", "9729ef381d1e7cd1e6313c6aba634c62"),
    ];
    let names: Vec<&str> = pinned.iter().map(|(name, _)| *name).collect();
    assert_eq!(sara_workloads::names(), names, "one pin per registry workload");
    let found: Vec<(&str, String)> =
        pinned.iter().map(|(name, _)| (*name, digest_of(&knobs_for(name, "8x8", 42)))).collect();
    for ((name, digest), (_, got)) in pinned.iter().zip(&found) {
        assert_eq!(got, digest, "{name}: design digest moved; found {found:?}");
    }
}

#[test]
fn equal_design_digests_simulate_identically() {
    // Soundness on the real twins: every single-flag toggle of every
    // registry workload at default knobs on `8x8` whose design digest
    // equals the default's must place and simulate to the same cycles,
    // firings and final DRAM image, run without the engine.
    let run = |knobs: &KnobConfig| {
        let system = knobs.system_spec().unwrap();
        let program = knobs.build_program().unwrap();
        let mut compiled =
            sara_core::compile::compile(&program, &system.chip, &knobs.compiler_options()).unwrap();
        let digest = design_digest(&compiled);
        sara_pnr::place_and_route_system(
            &mut compiled.vudfg,
            &compiled.assignment,
            &system,
            knobs.pnr_seed,
        )
        .unwrap();
        let out = plasticine_sim::simulate(
            &compiled.vudfg,
            &system.chip,
            &plasticine_sim::SimConfig::default(),
        )
        .unwrap();
        (digest, out)
    };
    let mut twins = 0;
    for name in sara_workloads::names() {
        let base = knobs_for(name, "8x8", 42);
        let (digest, out) = run(&base);
        for flag in FLAGS {
            let k = toggled(&base, flag);
            let (d, o) = run(&k);
            if d != digest {
                continue;
            }
            twins += 1;
            let what = format!("{name} {flag}");
            assert_eq!(o.cycles, out.cycles, "{what}: cycles");
            assert_eq!(o.stats.firings, out.stats.firings, "{what}: firings");
            assert_eq!(o.dram_final.len(), out.dram_final.len(), "{what}: DRAM tensors");
            for (m, a) in &out.dram_final {
                let b = &o.dram_final[m];
                assert_eq!(a.len(), b.len(), "{what}: DRAM {m:?} length");
                assert!(a.iter().zip(b).all(|(x, y)| x.bit_eq(*y)), "{what}: DRAM {m:?} image");
            }
        }
    }
    // All but `retime` on `pr` and `rf`: a compiler change that moves
    // this count changes how many simulations a `tune` pass saves.
    assert_eq!(twins, 46, "twins among the 48 single-flag toggles");
}
