//! Profiling invariants across the whole workload registry:
//!
//! * enabling the profiler changes nothing observable — cycles, firings,
//!   DRAM stats and final images are bit-identical with profiling on or
//!   off, under both schedulers;
//! * every cycle of every VCU is attributed to exactly one state, so the
//!   active/idle/stalled breakdown sums to the simulated cycle count;
//! * the dense and active-list schedulers produce identical profiles
//!   (same attributions, same stream counters, same DRAM timeline), on
//!   one chip and on two chips under the adversarial halved plan;
//! * structural sanity: high-water marks within slot bounds, segment
//!   timelines contiguous from cycle 1 to the end, DRAM epoch totals
//!   matching the aggregate DRAM stats.

use plasticine_arch::{ChipSpec, SystemSpec};
use plasticine_sim::{simulate, simulate_system, SimConfig, SimOutcome, SimProfile};
use sara_core::compile::{compile, CompilerOptions};
use sara_core::profile::StallReason;
use sara_core::shard::ShardPlan;

const ALL_WORKLOADS: [&str; 16] = [
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
];

/// Simulate a registry workload on `chip` itself (`chips == 1`) or on a
/// `chips`-chip system under the halved plan with 1-packet-per-cycle
/// links, where every stream between the halves crosses and contends.
fn run(name: &str, chip: &ChipSpec, chips: u32, cfg: &SimConfig) -> SimOutcome {
    let w = sara_workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let mut compiled = compile(&w.program, chip, &CompilerOptions::default())
        .unwrap_or_else(|e| panic!("compile {name}: {e}"));
    sara_pnr::place_and_route(&mut compiled.vudfg, &compiled.assignment, chip, 7)
        .unwrap_or_else(|e| panic!("pnr {name}: {e}"));
    let g = &compiled.vudfg;
    let out = if chips == 1 {
        simulate(g, chip, cfg)
    } else {
        let mut system = SystemSpec::grid(chip.clone(), chips);
        system.link.bandwidth = 1;
        simulate_system(g, &system, &ShardPlan::halved(g, chips), cfg)
    };
    out.unwrap_or_else(|e| panic!("sim {name} ({chips} chips): {e}"))
}

fn assert_outcomes_equal(name: &str, a: &SimOutcome, b: &SimOutcome) {
    assert_eq!(a.cycles, b.cycles, "{name}: cycle divergence");
    assert_eq!(a.stats.firings, b.stats.firings, "{name}: firings");
    assert_eq!(a.stats.unit_firings, b.stats.unit_firings, "{name}: per-unit firings");
    assert_eq!(a.stats.dram, b.stats.dram, "{name}: dram stats");
    assert_eq!(a.dram_final, b.dram_final, "{name}: dram image");
}

fn assert_profile_sane(name: &str, out: &SimOutcome) {
    let p = out.profile.as_ref().unwrap_or_else(|| panic!("{name}: profile missing"));
    assert_eq!(p.cycles, out.cycles, "{name}: profile cycle count");

    let mut firings = 0;
    for v in &p.vcus {
        assert_eq!(
            v.total_cycles(),
            p.cycles,
            "{name}/{}: active {} + idle {} + stalled {} != {} cycles",
            v.label,
            v.active_cycles,
            v.idle_cycles,
            v.stalled_total(),
            p.cycles
        );
        firings += v.firings;
        assert_eq!(
            v.firings,
            *out.stats.unit_firings.get(&v.label).unwrap_or(&0),
            "{name}/{}: profile firings vs stats",
            v.label
        );
        // The segment timeline must tile [1, cycles+1) without gaps and
        // agree with the counters segment by segment.
        if !v.segments_truncated {
            let mut expect_start = 1;
            let mut per_state = std::collections::HashMap::new();
            for s in &v.segments {
                assert_eq!(s.start, expect_start, "{name}/{}: segment gap", v.label);
                assert!(s.end > s.start, "{name}/{}: empty segment", v.label);
                *per_state.entry(s.state.label()).or_insert(0u64) += s.end - s.start;
                expect_start = s.end;
            }
            assert_eq!(expect_start, p.cycles + 1, "{name}/{}: timeline end", v.label);
            assert_eq!(
                per_state.get("active").copied().unwrap_or(0),
                v.active_cycles,
                "{name}/{}: active segment total",
                v.label
            );
            for r in StallReason::ALL {
                assert_eq!(
                    per_state.get(r.label()).copied().unwrap_or(0),
                    v.stalled(r),
                    "{name}/{}: {} segment total",
                    v.label,
                    r
                );
            }
        }
    }
    assert_eq!(firings, out.stats.firings, "{name}: total firings via profile");

    for s in &p.streams {
        assert!(
            s.occupancy_hwm <= s.slots,
            "{name}/{}: hwm {} exceeds {} slots",
            s.label,
            s.occupancy_hwm,
            s.slots
        );
        assert!(
            s.backpressure_cycles <= p.cycles,
            "{name}/{}: backpressure exceeds run length",
            s.label
        );
    }

    let (rb, wb, hits, misses) = p.dram_epochs.iter().fold((0, 0, 0, 0), |acc, e| {
        (acc.0 + e.read_bytes, acc.1 + e.write_bytes, acc.2 + e.row_hits, acc.3 + e.row_misses)
    });
    assert_eq!(rb, out.stats.dram.read_bytes, "{name}: epoch read bytes");
    assert_eq!(wb, out.stats.dram.write_bytes, "{name}: epoch write bytes");
    assert_eq!(hits, out.stats.dram.row_hits, "{name}: epoch row hits");
    assert_eq!(misses, out.stats.dram.row_misses, "{name}: epoch row misses");
    for e in &p.dram_epochs {
        assert_eq!(e.start_cycle % p.epoch_cycles, 0, "{name}: epoch alignment");
    }
}

fn assert_profiles_equal(name: &str, a: &SimProfile, b: &SimProfile) {
    assert_eq!(a.cycles, b.cycles, "{name}: profile cycles");
    assert_eq!(a.vcus.len(), b.vcus.len(), "{name}: vcu count");
    for (x, y) in a.vcus.iter().zip(&b.vcus) {
        assert_eq!(x.label, y.label, "{name}: vcu order");
        assert_eq!(x.firings, y.firings, "{name}/{}: firings", x.label);
        assert_eq!(x.active_cycles, y.active_cycles, "{name}/{}: active", x.label);
        assert_eq!(x.idle_cycles, y.idle_cycles, "{name}/{}: idle", x.label);
        assert_eq!(x.stalled_cycles, y.stalled_cycles, "{name}/{}: stalls", x.label);
        assert_eq!(x.segments, y.segments, "{name}/{}: segments", x.label);
    }
    assert_eq!(a.streams.len(), b.streams.len(), "{name}: stream count");
    for (x, y) in a.streams.iter().zip(&b.streams) {
        assert_eq!(x.label, y.label, "{name}: stream order");
        assert_eq!(x.occupancy_hwm, y.occupancy_hwm, "{name}/{}: hwm", x.label);
        assert_eq!(
            x.backpressure_cycles, y.backpressure_cycles,
            "{name}/{}: backpressure",
            x.label
        );
        assert_eq!((x.pushes, x.pops), (y.pushes, y.pops), "{name}/{}: traffic", x.label);
    }
    assert_eq!(a.dram_epochs, b.dram_epochs, "{name}: dram timeline");
}

fn check(name: &str, chip: &ChipSpec) {
    for chips in [1, 2] {
        let tag = &format!("{name} ({chips} chips)");
        let plain = run(name, chip, chips, &SimConfig::default());
        assert!(plain.profile.is_none(), "{tag}: profile must be absent when disabled");

        let profiled = run(name, chip, chips, &SimConfig::profiled());
        assert_outcomes_equal(tag, &plain, &profiled);
        assert_profile_sane(tag, &profiled);

        let dense = run(name, chip, chips, &SimConfig { dense: true, ..SimConfig::profiled() });
        assert_outcomes_equal(tag, &plain, &dense);
        assert_profile_sane(tag, &dense);
        assert_profiles_equal(
            tag,
            profiled.profile.as_ref().unwrap(),
            dense.profile.as_ref().unwrap(),
        );
    }
}

#[test]
fn profiling_is_invisible_and_exact_linalg_ml() {
    let chip = ChipSpec::small_8x8();
    for name in &ALL_WORKLOADS[..6] {
        check(name, &chip);
    }
}

#[test]
fn profiling_is_invisible_and_exact_streaming_graph() {
    let chip = ChipSpec::small_8x8();
    for name in &ALL_WORKLOADS[6..11] {
        check(name, &chip);
    }
}

#[test]
fn profiling_is_invisible_and_exact_stat() {
    let chip = ChipSpec::small_8x8();
    for name in &ALL_WORKLOADS[11..] {
        check(name, &chip);
    }
}

#[test]
fn every_registry_workload_is_profile_checked() {
    let covered: std::collections::HashSet<&str> = ALL_WORKLOADS.into_iter().collect();
    for w in sara_workloads::all_small() {
        assert!(covered.contains(w.name), "workload {} missing from profile coverage", w.name);
    }
}

#[test]
fn profile_surfaces_a_real_bottleneck() {
    // Whatever the workload, *something* must be attributed: a non-trivial
    // run has stalled or active cycles on every VCU, and the report layer
    // must render a summary naming at least one unit.
    let chip = ChipSpec::small_8x8();
    let out = run("gemm", &chip, 1, &SimConfig::profiled());
    let p = out.profile.as_ref().unwrap();
    assert!(!p.vcus.is_empty());
    assert!(p.vcus.iter().any(|v| v.active_cycles > 0), "no VCU ever active");
    assert!(p.vcus.iter().any(|v| v.stalled_total() > 0), "gemm at 8x8 should stall somewhere");
    let summary = sara_core::report::bottleneck_summary(p, 3);
    assert!(summary.contains("bottlenecks over"), "{summary}");
    assert!(summary.contains("worst-stalled VCUs"), "{summary}");
}
