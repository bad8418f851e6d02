//! Degenerate-system bit-identity: running every registry workload
//! through the *system* pipeline (`place_and_route_system` +
//! `simulate_system`) on a 1-chip [`SystemSpec`] must reproduce the
//! single-chip pipeline exactly — same cycle count under both
//! schedulers, same final DRAM image. The 1-chip system is
//! definitionally its chip, so any divergence is a bug in the
//! system-path plumbing, never a legitimate timing change.

use plasticine_arch::{ChipSpec, SystemSpec};
use plasticine_sim::{simulate, simulate_system, SimConfig};
use sara_core::compile::{compile, CompilerOptions};
use sara_core::shard::ShardPlan;
use sara_core::vudfg::Vudfg;
use sara_pnr::{place_and_route, place_and_route_system};
use sara_workloads::graph::RfParams;
use sara_workloads::linalg::GemmParams;

#[test]
fn one_chip_system_is_bit_identical_to_the_single_chip_path() {
    let chip = ChipSpec::small_8x8();
    let system = SystemSpec::single(chip.clone());
    let mut bad = Vec::new();
    for w in sara_workloads::all_small() {
        let name = w.name;
        let mut single = compile(&w.program, &chip, &CompilerOptions::default()).expect(name);
        place_and_route(&mut single.vudfg, &single.assignment, &chip, 7).expect(name);

        let mut sys = compile(&w.program, &chip, &CompilerOptions::default()).expect(name);
        let pnr = place_and_route_system(&mut sys.vudfg, &sys.assignment, &system, 7).expect(name);

        for (sched, cfg) in [("active", SimConfig::default()), ("dense", SimConfig::dense())] {
            let want = simulate(&single.vudfg, &chip, &cfg).expect(name);
            let got = simulate_system(&sys.vudfg, &system, &pnr.plan, &cfg).expect(name);
            if got.cycles != want.cycles {
                bad.push(format!(
                    "{name} ({sched}): system path {} cycles, single-chip {}",
                    got.cycles, want.cycles
                ));
            }
            if got.dram_final != want.dram_final {
                bad.push(format!("{name} ({sched}): final DRAM images differ"));
            }
        }
    }
    assert!(
        bad.is_empty(),
        "1-chip system path diverged from the single-chip path:\n{}",
        bad.join("\n")
    );
}

/// Cycle counts of every registry workload on `small_8x8` (default
/// compiler options, system PnR seed 7 on a 2-chip grid) simulated under
/// the adversarial [`ShardPlan::halved`] plan with 1-packet-per-cycle
/// links, so every stream between the two halves crosses and contends
/// for link slots. Captured from the dense multi-chip loop that
/// preceded the shared engine.
const HALVED_2CHIP_BW1: &[(&str, u64)] = &[
    ("dotprod", 608),
    ("outerprod", 804),
    ("gemm", 1176),
    ("mlp", 2316),
    ("lstm", 2342),
    ("snet", 3785),
    ("logreg", 1719),
    ("sgd", 1719),
    ("kmeans", 2320),
    ("gda", 4312),
    ("tpchq6", 658),
    ("bs", 511),
    ("sort", 7429),
    ("ms", 5220),
    ("pr", 3152),
    ("rf", 1217),
];

/// The two scheduler configurations every multi-chip golden must hold
/// under.
fn schedulers() -> [(&'static str, SimConfig); 2] {
    [("dense", SimConfig::dense()), ("active", SimConfig::default())]
}

/// Simulate `g` on `system` under `plan` with every scheduler, checking
/// the pinned cycle count and that the final DRAM image equals the
/// single-chip run of the same graph.
fn check_system(
    bad: &mut Vec<String>,
    name: &str,
    g: &Vudfg,
    system: &SystemSpec,
    plan: &ShardPlan,
    want: u64,
) {
    let single = simulate(g, &system.chip, &SimConfig::default()).expect(name);
    for (sched, cfg) in schedulers() {
        let got = simulate_system(g, system, plan, &cfg)
            .unwrap_or_else(|e| panic!("{name} ({sched}): {e}"));
        if got.cycles != want {
            bad.push(format!("{name} ({sched}): {} cycles, golden {want}", got.cycles));
        }
        if got.dram_final != single.dram_final {
            bad.push(format!("{name} ({sched}): final DRAM image differs from one chip"));
        }
    }
}

#[test]
fn halved_two_chip_crossings_match_goldens_under_every_scheduler() {
    let chip = ChipSpec::small_8x8();
    let mut system = SystemSpec::grid(chip.clone(), 2);
    system.link.bandwidth = 1;
    let mut bad = Vec::new();
    for &(name, want) in HALVED_2CHIP_BW1 {
        let w = sara_workloads::by_name(name).expect("registry workload");
        let mut c = compile(&w.program, &chip, &CompilerOptions::default()).expect(name);
        place_and_route_system(&mut c.vudfg, &c.assignment, &system, 7).expect(name);
        let plan = ShardPlan::halved(&c.vudfg, system.count);
        assert!(!plan.crossings.is_empty(), "{name}: the halved plan must cross");
        check_system(&mut bad, name, &c.vudfg, &system, &plan, want);
    }
    assert!(bad.is_empty(), "forced-crossing goldens drifted:\n{}", bad.join("\n"));
}

#[test]
fn naturally_sharded_designs_match_goldens_under_every_scheduler() {
    let system = SystemSpec::by_name("4x4x4").expect("4x4x4");
    let rf = sara_workloads::graph::rf(&RfParams {
        n: 128,
        d: 16,
        trees: 4,
        depth: 4,
        seed: 1,
        par_n: 1,
    });
    let gemm =
        sara_workloads::linalg::gemm(&GemmParams { m: 16, n: 16, k: 16, par_m: 2, par_k: 1 });
    // (name, program, crossings the sharder must produce, golden cycles)
    let cases = [("rf(128x16)", rf, 69, 24809), ("gemm(16^3)", gemm, 2, 6667)];
    let mut bad = Vec::new();
    for (name, program, crossings, want) in cases {
        let mut c = compile(&program, &system.chip, &CompilerOptions::default()).expect(name);
        let pnr = place_and_route_system(&mut c.vudfg, &c.assignment, &system, 7).expect(name);
        assert_eq!(pnr.plan.crossings.len(), crossings, "{name}: sharder crossings");
        check_system(&mut bad, name, &c.vudfg, &system, &pnr.plan, want);
    }
    assert!(bad.is_empty(), "naturally sharded goldens drifted:\n{}", bad.join("\n"));
}

/// `rf` puts 50 crossings under the halved plan; starving its links
/// must cost cycles and nothing else.
#[test]
fn starved_links_slow_the_crossings_down() {
    let chip = ChipSpec::small_8x8();
    let w = sara_workloads::by_name("rf").expect("registry workload");
    let mut system = SystemSpec::grid(chip.clone(), 2);
    let mut c = compile(&w.program, &chip, &CompilerOptions::default()).expect("rf");
    place_and_route_system(&mut c.vudfg, &c.assignment, &system, 7).expect("rf");
    let plan = ShardPlan::halved(&c.vudfg, 2);
    let mut run = |bandwidth| {
        system.link.bandwidth = bandwidth;
        simulate_system(&c.vudfg, &system, &plan, &SimConfig::default()).expect("rf")
    };
    let (fast, slow) = (run(64), run(1));
    assert_eq!(fast.dram_final, slow.dram_final, "bandwidth is a timing knob only");
    assert!(
        slow.cycles > fast.cycles,
        "1 pkt/cycle links ({}) must be slower than 64 pkt/cycle links ({})",
        slow.cycles,
        fast.cycles
    );
}

/// A 1-chip system run of one placed graph gives the same cycles and
/// DRAM image as `simulate` on its chip: one DRAM controller and no
/// crossings run the single-chip engine unchanged.
#[test]
fn one_chip_system_run_matches_simulate_in_cycles_and_dram_image() {
    let w = sara_workloads::by_name("dotprod").unwrap();
    let chip = ChipSpec::small_8x8();
    let system = SystemSpec::single(chip.clone());
    let mut compiled = compile(&w.program, &chip, &Default::default()).unwrap();
    let pnr =
        place_and_route_system(&mut compiled.vudfg, &compiled.assignment, &system, 7).unwrap();
    let single = simulate(&compiled.vudfg, &chip, &SimConfig::default()).unwrap();
    let sys = simulate_system(&compiled.vudfg, &system, &pnr.plan, &SimConfig::default()).unwrap();
    assert_eq!(sys.cycles, single.cycles);
    assert_eq!(sys.dram_final, single.dram_final);
}
