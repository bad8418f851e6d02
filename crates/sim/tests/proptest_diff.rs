//! Property-based differential testing: randomly generated multi-stage
//! producer/consumer pipelines (random loop shapes, elementwise op chains,
//! optional vectorization, optional reductions) are compiled, placed, and
//! simulated; the fabric's DRAM image must match the sequential
//! interpreter on every case, and the active-list scheduler must match
//! the dense reference scheduler bit-for-bit.
//!
//! Cases are drawn from a seeded RNG (no proptest in the offline build):
//! deterministic, reproducible by case index.

use plasticine_arch::ChipSpec;
use plasticine_sim::{simulate, verify_dram, SimConfig, SimOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sara_core::compile::{compile, CompilerOptions};
use sara_ir::interp::Interp;
use sara_ir::{BinOp, DType, Elem, LoopSpec, MemId, MemInit, Program, UnOp};

#[derive(Debug, Clone)]
struct PipelineCfg {
    outer_trip: i64,
    tile: i64,
    stages: usize,
    /// Per-stage op selector.
    ops: Vec<u8>,
    inner_par: u32,
    relax: bool,
    reduce_tail: bool,
    seed: u64,
}

fn sample_pipeline(rng: &mut SmallRng) -> PipelineCfg {
    PipelineCfg {
        outer_trip: rng.gen_range(2i64..5),
        tile: rng.gen_range(4i64..17),
        stages: rng.gen_range(1usize..4),
        ops: (0..3).map(|_| rng.gen_range(0u8..4)).collect(),
        inner_par: [1u32, 4, 8][rng.gen_range(0usize..3)],
        relax: rng.gen_bool(0.5),
        reduce_tail: rng.gen_bool(0.5),
        seed: rng.gen_range(0u64..1000),
    }
}

/// Build: load tile from DRAM → `stages` elementwise stages through
/// scratchpads → write back (optionally a reduction instead).
fn build(cfg: &PipelineCfg) -> Program {
    let n = (cfg.outer_trip * cfg.tile) as usize;
    let mut p = Program::new("prop");
    let root = p.root();
    let src = p.dram("src", &[n], DType::F64, MemInit::RandomF { seed: cfg.seed });
    let dst_len = if cfg.reduce_tail { cfg.outer_trip as usize } else { n };
    let dst = p.dram("dst", &[dst_len], DType::F64, MemInit::Zero);
    let bufs: Vec<MemId> = (0..=cfg.stages)
        .map(|i| p.sram(&format!("m{i}"), &[cfg.tile as usize], DType::F64))
        .collect();
    let la = p.add_loop(root, "A", LoopSpec::new(0, cfg.outer_trip, 1)).unwrap();
    // stage 0: load
    {
        let l = p.add_loop(la, "load", LoopSpec::new(0, cfg.tile, 1).par(cfg.inner_par)).unwrap();
        let hb = p.add_leaf(l, "ld").unwrap();
        let ia = p.idx(hb, la).unwrap();
        let ij = p.idx(hb, l).unwrap();
        let t = p.c_i64(hb, cfg.tile).unwrap();
        let b = p.bin(hb, BinOp::Mul, ia, t).unwrap();
        let a = p.bin(hb, BinOp::Add, b, ij).unwrap();
        let v = p.load(hb, src, &[a]).unwrap();
        p.store(hb, bufs[0], &[ij], v).unwrap();
    }
    // middle stages
    for s in 0..cfg.stages {
        let l = p
            .add_loop(la, &format!("s{s}"), LoopSpec::new(0, cfg.tile, 1).par(cfg.inner_par))
            .unwrap();
        let hb = p.add_leaf(l, &format!("b{s}")).unwrap();
        let ij = p.idx(hb, l).unwrap();
        let x = p.load(hb, bufs[s], &[ij]).unwrap();
        let y = match cfg.ops[s % cfg.ops.len()] {
            0 => {
                let c = p.c_f64(hb, 1.5).unwrap();
                p.bin(hb, BinOp::Mul, x, c).unwrap()
            }
            1 => {
                let c = p.c_f64(hb, 0.25).unwrap();
                p.bin(hb, BinOp::Add, x, c).unwrap()
            }
            2 => p.un(hb, UnOp::Relu, x).unwrap(),
            _ => {
                let ix = p.un(hb, UnOp::ToF, ij).unwrap();
                p.bin(hb, BinOp::Add, x, ix).unwrap()
            }
        };
        p.store(hb, bufs[s + 1], &[ij], y).unwrap();
    }
    // tail: write back or reduce per outer iteration
    {
        let l = p.add_loop(la, "tail", LoopSpec::new(0, cfg.tile, 1).par(cfg.inner_par)).unwrap();
        let hb = p.add_leaf(l, "wb").unwrap();
        let ia = p.idx(hb, la).unwrap();
        let ij = p.idx(hb, l).unwrap();
        let x = p.load(hb, bufs[cfg.stages], &[ij]).unwrap();
        if cfg.reduce_tail {
            let acc = p.reduce(hb, BinOp::Add, x, Elem::F64(0.0), l).unwrap();
            let last = p.is_last(hb, l).unwrap();
            p.store_if(hb, dst, &[ia], acc, last).unwrap();
        } else {
            let t = p.c_i64(hb, cfg.tile).unwrap();
            let b = p.bin(hb, BinOp::Mul, ia, t).unwrap();
            let a = p.bin(hb, BinOp::Add, b, ij).unwrap();
            p.store(hb, dst, &[a], x).unwrap();
        }
    }
    p
}

/// Simulate under both schedulers, assert bit-identical outcomes, return
/// the active-list outcome.
fn simulate_both(
    g: &sara_core::vudfg::Vudfg,
    chip: &ChipSpec,
    ctx: &dyn std::fmt::Debug,
) -> SimOutcome {
    let active = simulate(g, chip, &SimConfig::default()).unwrap();
    let dense = simulate(g, chip, &SimConfig::dense()).unwrap();
    assert_eq!(active.cycles, dense.cycles, "cycle divergence ({ctx:?})");
    assert_eq!(active.stats.firings, dense.stats.firings, "firing divergence ({ctx:?})");
    assert_eq!(
        active.stats.unit_firings, dense.stats.unit_firings,
        "per-unit firing divergence ({ctx:?})"
    );
    assert_eq!(active.stats.dram, dense.stats.dram, "dram stats divergence ({ctx:?})");
    assert_eq!(active.dram_final, dense.dram_final, "dram image divergence ({ctx:?})");
    active
}

fn check_against_interpreter(p: &Program, seed: u64, relax: bool, ctx: &dyn std::fmt::Debug) {
    p.validate().unwrap();
    let reference = Interp::new(p).run().unwrap();
    let mut opts = CompilerOptions::default();
    opts.lower.cmmc.relax_credits = relax;
    let chip = ChipSpec::small_8x8();
    let mut compiled = compile(p, &chip, &opts).unwrap();
    sara_pnr::place_and_route(&mut compiled.vudfg, &compiled.assignment, &chip, seed).unwrap();
    let outcome = simulate_both(&compiled.vudfg, &chip, ctx);
    verify_dram(p, &reference, &outcome).unwrap_or_else(|e| panic!("{e} ({ctx:?})"));
}

/// Replays corpus entry `d63f6fb2…` from
/// `proptest_diff.proptest-regressions` as an explicit named test: a
/// two-iteration outer loop over a 9-wide tile with a vectorized
/// (par = 4, non-divisible) reducing tail. The shrunken failure was a
/// reduction-lane masking bug in the ragged final vector; keep it
/// pinned independently of the seeded case loop below.
#[test]
fn corpus_ragged_vector_reduce_tail() {
    let cfg = PipelineCfg {
        outer_trip: 2,
        tile: 9,
        stages: 1,
        ops: vec![0, 0, 0],
        inner_par: 4,
        relax: false,
        reduce_tail: true,
        seed: 0,
    };
    let p = build(&cfg);
    check_against_interpreter(&p, cfg.seed, cfg.relax, &("corpus", &cfg));
}

#[test]
fn random_pipelines_match_interpreter() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    for case in 0..24 {
        let cfg = sample_pipeline(&mut rng);
        let p = build(&cfg);
        check_against_interpreter(&p, cfg.seed, cfg.relax, &(case, &cfg));
    }
}

/// Branchy variant: an outer loop whose iterations conditionally write or
/// read a shared scratchpad (the Fig 4 shape), with randomized trip
/// counts, tile sizes and branch predicates — exercising vacuous sweeps,
/// cross-arm tokens and gate-masked control streams.
#[derive(Debug, Clone)]
struct BranchyCfg {
    outer: i64,
    tile: i64,
    modulus: i64,
    inner_par: u32,
    seed: u64,
}

fn sample_branchy(rng: &mut SmallRng) -> BranchyCfg {
    BranchyCfg {
        outer: rng.gen_range(2i64..7),
        tile: rng.gen_range(4i64..13),
        modulus: rng.gen_range(2i64..4),
        inner_par: [1u32, 4][rng.gen_range(0usize..2)],
        seed: rng.gen_range(0u64..500),
    }
}

fn build_branchy(cfg: &BranchyCfg) -> Program {
    let mut p = Program::new("propbr");
    let root = p.root();
    let src = p.dram(
        "src",
        &[(cfg.outer * cfg.tile) as usize],
        DType::F64,
        MemInit::RandomF { seed: cfg.seed },
    );
    let dst = p.dram("dst", &[cfg.outer as usize], DType::F64, MemInit::Zero);
    let buf = p.sram("buf", &[cfg.tile as usize], DType::F64);
    let cond = p.reg("cond", DType::I64);
    let la = p.add_loop(root, "A", LoopSpec::new(0, cfg.outer, 1)).unwrap();
    // head: cond = (i % modulus == 0)
    let hh = p.add_leaf(la, "head").unwrap();
    let i = p.idx(hh, la).unwrap();
    let m = p.c_i64(hh, cfg.modulus).unwrap();
    let r = p.bin(hh, BinOp::Mod, i, m).unwrap();
    let z = p.c_i64(hh, 0).unwrap();
    let c = p.bin(hh, BinOp::Eq, r, z).unwrap();
    p.store(hh, cond, &[z], c).unwrap();
    let br = p.add_branch(la, "br", cond).unwrap();
    // then: refill buf from src
    let lt = p.add_loop(br, "fill", LoopSpec::new(0, cfg.tile, 1).par(cfg.inner_par)).unwrap();
    let ht = p.add_leaf(lt, "f").unwrap();
    let ia = p.idx(ht, la).unwrap();
    let j = p.idx(ht, lt).unwrap();
    let t = p.c_i64(ht, cfg.tile).unwrap();
    let b0 = p.bin(ht, BinOp::Mul, ia, t).unwrap();
    let a0 = p.bin(ht, BinOp::Add, b0, j).unwrap();
    let v = p.load(ht, src, &[a0]).unwrap();
    p.store(ht, buf, &[j], v).unwrap();
    // else: reduce buf into dst[i]
    let le = p.add_loop(br, "sum", LoopSpec::new(0, cfg.tile, 1).par(cfg.inner_par)).unwrap();
    let he = p.add_leaf(le, "s").unwrap();
    let k = p.idx(he, le).unwrap();
    let x = p.load(he, buf, &[k]).unwrap();
    let acc = p.reduce(he, BinOp::Add, x, Elem::F64(0.0), le).unwrap();
    let last = p.is_last(he, le).unwrap();
    let ia2 = p.idx(he, la).unwrap();
    p.store_if(he, dst, &[ia2], acc, last).unwrap();
    p
}

#[test]
fn random_branchy_programs_match_interpreter() {
    let mut rng = SmallRng::seed_from_u64(0xB4A2);
    for case in 0..16 {
        let cfg = sample_branchy(&mut rng);
        let p = build_branchy(&cfg);
        check_against_interpreter(&p, cfg.seed, false, &(case, &cfg));
    }
}
