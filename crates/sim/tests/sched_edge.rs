//! Edge cases for the active scheduler's wake shortcuts. The wait-site
//! filter (one filter for every unit kind: a wake that finds none of the
//! counters a blocked unit waits on moved is dropped), the blocked-unit
//! self-wake suppression and done-VCU wake pruning drop wakes that
//! cannot change a step, so they must be observationally invisible: the
//! zero-trip, partial-trip and depth-1 programs run under the default
//! (active) scheduler and the dense reference, and both must agree
//! bit-for-bit. One case per non-VCU wait site — an AG with a full job
//! queue, an AG whose staleness probe finds its run still fresh, a VMU
//! read port out of output space, a crossbar collector short of one
//! bank — also runs with `SimConfig::profiled()`, which keeps every
//! shortcut, and pins the profile to dense. A fault injector or the
//! sanitizer turns the shortcuts off; the typed failure reports must
//! still match dense, and a clean sanitized run must keep the plain
//! run's timing.

use plasticine_arch::ChipSpec;
use plasticine_sim::{
    simulate, verify_dram, FaultKind, FaultPlan, SimConfig, SimError, SimOutcome,
};
use sara_core::compile::{compile, CompilerOptions};
use sara_core::vudfg::{StreamKind, Vudfg};
use sara_ir::interp::Interp;
use sara_ir::{BinOp, Bound, DType, Elem, LoopSpec, MemInit, Program};

/// Compile + place a program with the given compiler options.
fn build(p: &Program, opts: &CompilerOptions) -> (Vudfg, ChipSpec) {
    let chip = ChipSpec::small_8x8();
    let mut c = compile(p, &chip, opts).unwrap_or_else(|e| panic!("compile: {e}"));
    sara_pnr::place_and_route(&mut c.vudfg, &c.assignment, &chip, 7)
        .unwrap_or_else(|e| panic!("pnr: {e}"));
    (c.vudfg, chip)
}

/// Simulate with the default scheduler and with dense; assert both
/// outcomes are bit-identical and return the default one.
fn run_all_schedulers(g: &Vudfg, chip: &ChipSpec) -> SimOutcome {
    let active = simulate(g, chip, &SimConfig::default()).expect("active sim");
    let dense = simulate(g, chip, &SimConfig::dense()).expect("dense sim");
    assert_eq!(active.cycles, dense.cycles, "cycle divergence");
    assert_eq!(active.stats.firings, dense.stats.firings, "total firings");
    assert_eq!(active.stats.unit_firings, dense.stats.unit_firings, "per-unit firings");
    assert_eq!(active.stats.dram, dense.stats.dram, "dram stats");
    assert_eq!(active.dram_final, dense.dram_final, "dram image");
    active
}

/// Simulate active and dense, plain and profiled: the four outcomes must
/// be bit-identical and the two profiles equal. Returns the plain active
/// outcome.
fn run_plain_and_profiled(g: &Vudfg, chip: &ChipSpec) -> SimOutcome {
    let out = run_all_schedulers(g, chip);
    let profiled = simulate(g, chip, &SimConfig::profiled()).expect("profiled active sim");
    let dense = simulate(g, chip, &SimConfig { dense: true, ..SimConfig::profiled() })
        .expect("profiled dense sim");
    for (o, what) in [(&profiled, "profiled active"), (&dense, "profiled dense")] {
        assert_eq!(o.cycles, out.cycles, "{what}: cycle divergence");
        assert_eq!(o.stats.unit_firings, out.stats.unit_firings, "{what}: per-unit firings");
        assert_eq!(o.stats.dram, out.stats.dram, "{what}: dram stats");
        assert_eq!(o.dram_final, out.dram_final, "{what}: dram image");
    }
    assert_eq!(
        format!("{:?}", profiled.profile),
        format!("{:?}", dense.profile),
        "profiled active and dense disagree"
    );
    out
}

/// Compile, place and run `p` through [`run_plain_and_profiled`], then
/// check the image against the interpreter.
fn check_wait_sites(p: &Program) -> SimOutcome {
    p.validate().expect("valid program");
    let (g, chip) = build(p, &CompilerOptions::default());
    let out = run_plain_and_profiled(&g, &chip);
    let reference = Interp::new(p).run().expect("interpreter");
    verify_dram(p, &reference, &out).unwrap_or_else(|e| panic!("{e}"));
    out
}

/// A shuffled index vector `0..n` (a fixed-seed LCG permutation).
fn permutation(n: usize, seed: u64) -> Vec<Elem> {
    let mut v: Vec<i64> = (0..n as i64).collect();
    let mut x = seed;
    for i in (1..n).rev() {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        v.swap(i, (x >> 33) as usize % (i + 1));
    }
    v.into_iter().map(Elem::I64).collect()
}

/// A long unit-stride read: the read AG's 64 job slots fill long before
/// the first DRAM response returns, and its address producer keeps
/// pushing until the address stream is full. Those arrivals cannot help
/// an AG whose intake waits on a free job slot, so it waits on DRAM
/// responses and the arrivals' wakes are dropped.
#[test]
fn ag_with_full_job_queue_matches_dense() {
    let n = 1024;
    let mut p = Program::new("sched_ag_jobs_full");
    let src = p.dram("src", &[n], DType::F64, MemInit::RandomF { seed: 5 });
    let dst = p.dram("dst", &[n], DType::F64, MemInit::Zero);
    let root = p.root();
    let l = p.add_loop(root, "i", LoopSpec::new(0, n as i64, 1)).unwrap();
    let hb = p.add_leaf(l, "body").unwrap();
    let i = p.idx(hb, l).unwrap();
    let v = p.load(hb, src, &[i]).unwrap();
    let c = p.c_f64(hb, 3.0).unwrap();
    let w = p.bin(hb, BinOp::Mul, v, c).unwrap();
    p.store(hb, dst, &[i], w).unwrap();
    check_wait_sites(&p);
}

/// A gather: every address starts a new coalescing run, and addresses
/// arrive in bursts as the index stream returns from DRAM. After the
/// last address of a burst, the AG's pending staleness probe (armed for
/// an earlier run) finds the open run still fresh and the AG blocked, so
/// its wake is dropped. The dropped probe must re-arm the open run's own
/// deadline: without that the run is flushed late, or never.
#[test]
fn ag_stale_flush_probe_rearms_when_dropped() {
    let n = 256;
    let mut p = Program::new("sched_ag_probe");
    let idx = p.dram("idx", &[n], DType::I64, MemInit::Data(permutation(n, 9)));
    let src = p.dram("src", &[n], DType::F64, MemInit::RandomF { seed: 6 });
    let dst = p.dram("dst", &[n], DType::F64, MemInit::Zero);
    let root = p.root();
    let l = p.add_loop(root, "i", LoopSpec::new(0, n as i64, 1)).unwrap();
    let hb = p.add_leaf(l, "body").unwrap();
    let i = p.idx(hb, l).unwrap();
    let j = p.load(hb, idx, &[i]).unwrap();
    let v = p.load(hb, src, &[j]).unwrap();
    p.store(hb, dst, &[i], v).unwrap();
    check_wait_sites(&p);
}

/// A scratchpad read feeding a consumer that is also waiting on a DRAM
/// gather: the VMU's read port runs out of output space while its
/// address producer keeps pushing, so the port waits on the data stream's
/// freed slots and the address arrivals' wakes are dropped.
#[test]
fn vmu_read_port_blocked_on_output_matches_dense() {
    let n = 128;
    let mut p = Program::new("sched_vmu_out_full");
    let src = p.dram("src", &[n], DType::F64, MemInit::RandomF { seed: 7 });
    let idx = p.dram("idx", &[n], DType::I64, MemInit::Data(permutation(n, 11)));
    let far = p.dram("far", &[n], DType::F64, MemInit::RandomF { seed: 8 });
    let dst = p.dram("dst", &[n], DType::F64, MemInit::Zero);
    let buf = p.sram("buf", &[n], DType::F64);
    let root = p.root();
    let fill = p.add_loop(root, "fill", LoopSpec::new(0, n as i64, 1)).unwrap();
    let fb = p.add_leaf(fill, "fb").unwrap();
    let i = p.idx(fb, fill).unwrap();
    let v = p.load(fb, src, &[i]).unwrap();
    p.store(fb, buf, &[i], v).unwrap();
    let use_ = p.add_loop(root, "use", LoopSpec::new(0, n as i64, 1)).unwrap();
    let ub = p.add_leaf(use_, "ub").unwrap();
    let i = p.idx(ub, use_).unwrap();
    let x = p.load(ub, buf, &[i]).unwrap();
    let j = p.load(ub, idx, &[i]).unwrap();
    let y = p.load(ub, far, &[j]).unwrap();
    let z = p.bin(ub, BinOp::Add, x, y).unwrap();
    p.store(ub, dst, &[i], z).unwrap();
    check_wait_sites(&p);
}

/// A parallel gather from a banked scratchpad goes through a crossbar:
/// the distributor routes each lane to its bank's VMU and the collector
/// reassembles lanes in order, so whenever one bank answers later than
/// the others the collector waits on that bank alone.
#[test]
fn xbar_collector_waiting_on_one_bank_matches_dense() {
    let n = 64;
    let mut p = Program::new("sched_xbar_bank");
    let src = p.dram("src", &[n], DType::F64, MemInit::RandomF { seed: 12 });
    let idx = p.dram("idx", &[n], DType::I64, MemInit::Data(permutation(n, 13)));
    let dst = p.dram("dst", &[n], DType::F64, MemInit::Zero);
    let table = p.sram("table", &[n], DType::F64);
    let slot = p.sram("slot", &[n], DType::I64);
    let root = p.root();
    let fill = p.add_loop(root, "fill", LoopSpec::new(0, n as i64, 1)).unwrap();
    let fb = p.add_leaf(fill, "fb").unwrap();
    let i = p.idx(fb, fill).unwrap();
    let v = p.load(fb, src, &[i]).unwrap();
    p.store(fb, table, &[i], v).unwrap();
    let k = p.load(fb, idx, &[i]).unwrap();
    p.store(fb, slot, &[i], k).unwrap();
    let gather = p.add_loop(root, "gather", LoopSpec::new(0, n as i64, 1).par(4)).unwrap();
    let inner = p.add_loop(gather, "g1", LoopSpec::new(0, 1, 1)).unwrap();
    let gb = p.add_leaf(inner, "gb").unwrap();
    let i = p.idx(gb, gather).unwrap();
    let k = p.load(gb, slot, &[i]).unwrap();
    let x = p.load(gb, table, &[k]).unwrap();
    p.store(gb, dst, &[i], x).unwrap();
    check_wait_sites(&p);
}

/// Zero-trip dynamic loop bound: with `n = 0` loaded from a register, the
/// loop body never fires and every downstream unit sees only markers. The
/// stall filter must neither skip the marker epilogue nor stall on units
/// that will never receive data.
#[test]
fn zero_trip_dynamic_loop_matches_dense() {
    let mut p = Program::new("sched_zero_trip");
    let init: Vec<Elem> = (0..6).map(Elem::I64).collect();
    let src = p.dram("src", &[6], DType::I64, MemInit::Data(init));
    let dst = p.dram("dst", &[6], DType::I64, MemInit::Zero);
    let n = p.reg("n", DType::I64);
    let root = p.root();
    let setup = p.add_leaf(root, "setup").unwrap();
    let zero = p.c_i64(setup, 0).unwrap();
    let zaddr = p.c_i64(setup, 0).unwrap();
    p.store(setup, n, &[zaddr], zero).unwrap();
    let li = p.add_loop(root, "i", LoopSpec::new(0, Bound::Reg(n), 1)).unwrap();
    let hb = p.add_leaf(li, "body").unwrap();
    let i = p.idx(hb, li).unwrap();
    let v = p.load(hb, src, &[i]).unwrap();
    p.store(hb, dst, &[i], v).unwrap();
    p.validate().expect("valid program");

    let (g, chip) = build(&p, &CompilerOptions::default());
    let out = run_all_schedulers(&g, &chip);
    assert_eq!(out.dram_i64(dst), vec![0; 6], "zero-trip loop must leave dst untouched");
}

/// The live sibling of the zero-trip case: the dynamic bound covers only a
/// prefix, so the tail of `dst` stays untouched while the prefix flows —
/// the shortcuts must stop exactly where the data stops.
#[test]
fn partial_trip_dynamic_loop_matches_dense() {
    let mut p = Program::new("sched_partial_trip");
    let init: Vec<Elem> = (0..6).map(|x| Elem::I64(x * 10)).collect();
    let src = p.dram("src", &[6], DType::I64, MemInit::Data(init));
    let dst = p.dram("dst", &[6], DType::I64, MemInit::Zero);
    let n = p.reg("n", DType::I64);
    let root = p.root();
    let setup = p.add_leaf(root, "setup").unwrap();
    let four = p.c_i64(setup, 4).unwrap();
    let zaddr = p.c_i64(setup, 0).unwrap();
    p.store(setup, n, &[zaddr], four).unwrap();
    let li = p.add_loop(root, "i", LoopSpec::new(0, Bound::Reg(n), 1)).unwrap();
    let hb = p.add_leaf(li, "body").unwrap();
    let i = p.idx(hb, li).unwrap();
    let v = p.load(hb, src, &[i]).unwrap();
    let one = p.c_i64(hb, 1).unwrap();
    let w = p.bin(hb, BinOp::Add, v, one).unwrap();
    p.store(hb, dst, &[i], w).unwrap();
    p.validate().expect("valid program");

    let reference = Interp::new(&p).run().expect("interpreter");
    let (g, chip) = build(&p, &CompilerOptions::default());
    let out = run_all_schedulers(&g, &chip);
    assert_eq!(out.dram_i64(dst), vec![1, 11, 21, 31, 0, 0]);
    verify_dram(&p, &reference, &out).unwrap_or_else(|e| panic!("{e}"));
}

/// Depth-1 multibuffers at par = 1: with `CmmcOptions::multibuffer = 1`
/// the producer/consumer stages around every scratchpad run in strict
/// alternation (no epoch overlap), the worst case for the stall-wake
/// filter — every wake toggles between the two endpoints of one stream.
#[test]
fn depth1_multibuffer_par1_matches_dense() {
    let mut p = Program::new("sched_depth1");
    let n_elems = 24usize;
    let tile = 6i64;
    let src = p.dram("src", &[n_elems], DType::F64, MemInit::RandomF { seed: 11 });
    let dst = p.dram("dst", &[n_elems], DType::F64, MemInit::Zero);
    let buf = p.sram("buf", &[tile as usize], DType::F64);
    let root = p.root();
    let la = p.add_loop(root, "A", LoopSpec::new(0, n_elems as i64 / tile, 1)).unwrap();
    {
        let l = p.add_loop(la, "load", LoopSpec::new(0, tile, 1)).unwrap();
        let hb = p.add_leaf(l, "ld").unwrap();
        let ia = p.idx(hb, la).unwrap();
        let ij = p.idx(hb, l).unwrap();
        let t = p.c_i64(hb, tile).unwrap();
        let b = p.bin(hb, BinOp::Mul, ia, t).unwrap();
        let a = p.bin(hb, BinOp::Add, b, ij).unwrap();
        let v = p.load(hb, src, &[a]).unwrap();
        p.store(hb, buf, &[ij], v).unwrap();
    }
    {
        let l = p.add_loop(la, "store", LoopSpec::new(0, tile, 1)).unwrap();
        let hb = p.add_leaf(l, "st").unwrap();
        let ia = p.idx(hb, la).unwrap();
        let ij = p.idx(hb, l).unwrap();
        let x = p.load(hb, buf, &[ij]).unwrap();
        let c = p.c_f64(hb, 2.0).unwrap();
        let y = p.bin(hb, BinOp::Mul, x, c).unwrap();
        let t = p.c_i64(hb, tile).unwrap();
        let b = p.bin(hb, BinOp::Mul, ia, t).unwrap();
        let a = p.bin(hb, BinOp::Add, b, ij).unwrap();
        p.store(hb, dst, &[a], y).unwrap();
    }
    p.validate().expect("valid program");

    let mut opts = CompilerOptions::default();
    opts.lower.cmmc.multibuffer = 1;
    let (g, chip) = build(&p, &opts);
    let out = run_all_schedulers(&g, &chip);

    let reference = Interp::new(&p).run().expect("interpreter");
    verify_dram(&p, &reference, &out).unwrap_or_else(|e| panic!("{e}"));
}

/// First token stream carrying initial credits (as in the robustness
/// suite: a steal there starves a consumer deterministically).
fn credit_stream(g: &Vudfg) -> usize {
    g.streams
        .iter()
        .position(|s| matches!(s.kind, StreamKind::Token { init } if init > 0))
        .expect("no initial-credit token stream")
}

fn registry_graph(name: &str) -> (Vudfg, ChipSpec) {
    let w = sara_workloads::by_name(name).expect("registry workload");
    build(&w.program, &CompilerOptions::default())
}

/// Fault injection turns the wake shortcuts off, and the active scheduler
/// must still reach the dense scheduler's verdict on a faulted run: the
/// watchdog's deadlock diagnosis (cycle, members, attribution) is pinned
/// bit-identical across the two.
#[test]
fn watchdog_report_under_faults_matches_dense() {
    let (g, chip) = registry_graph("ms");
    let s = credit_stream(&g);
    let report_with = |dense: bool| {
        let plan = FaultPlan::empty().with(0, FaultKind::StealCredit { stream: s });
        let cfg =
            SimConfig { faults: Some(plan), deadlock_window: 2_000, dense, ..SimConfig::default() };
        match simulate(&g, &chip, &cfg).unwrap_err() {
            SimError::Deadlock { cycle, report, .. } => (cycle, report),
            other => panic!("expected watchdog diagnosis (dense={dense}), got {other}"),
        }
    };
    let active = report_with(false);
    assert_eq!(active, report_with(true), "dense scheduler diverged from active");
    assert!(!active.1.members.is_empty(), "watchdog produced no members");
}

/// Same pinning for the invariant sanitizer: a leaked credit must produce
/// the exact same typed `SanitizerReport` (cycle, invariant, edge, event
/// ring) under the active and the dense scheduler.
#[test]
fn sanitizer_report_matches_dense() {
    let (g, chip) = registry_graph("ms");
    let s = credit_stream(&g);
    let report_with = |dense: bool| {
        let plan = FaultPlan::empty().with(5, FaultKind::LeakCredit { stream: s });
        let cfg = SimConfig { faults: Some(plan), sanitize: true, dense, ..SimConfig::default() };
        match simulate(&g, &chip, &cfg).unwrap_err() {
            SimError::Sanitizer(r) => r,
            other => panic!("expected sanitizer report (dense={dense}), got {other}"),
        }
    };
    let active = report_with(false);
    assert_eq!(active, report_with(true), "dense scheduler diverged from active");
    assert_eq!(active.stream, Some(s));
}

/// A clean sanitizer pass (no faults) also bypasses the wake shortcuts;
/// cycle counts must match a plain run exactly, proving the bypass itself
/// is timing-neutral.
#[test]
fn clean_sanitized_run_matches_plain_timing() {
    let (g, chip) = registry_graph("kmeans");
    let plain = simulate(&g, &chip, &SimConfig::default()).expect("plain");
    let o = simulate(&g, &chip, &SimConfig::sanitized()).expect("sanitized");
    assert_eq!(o.cycles, plain.cycles, "the sanitizer perturbed timing");
    assert_eq!(o.dram_final, plain.dram_final);
}
