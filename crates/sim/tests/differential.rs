//! Differential tests: every program is executed by the sequential
//! reference interpreter and by the full compile → place-and-route →
//! simulate pipeline; the final DRAM images must match bit-exactly.
//! This is the executable statement of CMMC's correctness guarantee
//! (paper §III-A1: "the final result will be identical to a sequentially
//! executed program").

use plasticine_arch::ChipSpec;
use plasticine_sim::{simulate, verify_dram, SimConfig};
use sara_core::compile::{compile, CompilerOptions};
use sara_ir::interp::Interp;
use sara_ir::{BinOp, Bound, DType, Elem, LoopSpec, MemId, MemInit, Program, UnOp};

/// Compile, PnR, simulate, and compare every DRAM tensor with the
/// interpreter.
fn check(p: &Program, chip: &ChipSpec, opts: &CompilerOptions) -> plasticine_sim::SimOutcome {
    p.validate().expect("valid program");
    let reference = Interp::new(p).run().expect("interpreter runs");
    let mut compiled = compile(p, chip, opts).unwrap_or_else(|e| panic!("compile {}: {e}", p.name));
    sara_pnr::place_and_route(&mut compiled.vudfg, &compiled.assignment, chip, 1)
        .unwrap_or_else(|e| panic!("pnr {}: {e}", p.name));
    let outcome = simulate(&compiled.vudfg, chip, &SimConfig::default())
        .unwrap_or_else(|e| panic!("sim {}: {e}", p.name));
    verify_dram(p, &reference, &outcome).unwrap_or_else(|e| panic!("{}: {e}", p.name));
    outcome
}

fn default_opts() -> CompilerOptions {
    CompilerOptions::default()
}

/// out[i] = a[i] + b[i] over DRAM.
fn vec_add(n: usize, par: u32) -> Program {
    let mut p = Program::new(format!("vecadd{n}p{par}"));
    let root = p.root();
    let a = p.dram("a", &[n], DType::F64, MemInit::LinSpace { start: 0.0, step: 1.0 });
    let b = p.dram("b", &[n], DType::F64, MemInit::LinSpace { start: 5.0, step: 0.5 });
    let o = p.dram("o", &[n], DType::F64, MemInit::Zero);
    let l = p.add_loop(root, "i", LoopSpec::new(0, n as i64, 1).par(par)).unwrap();
    let hb = p.add_leaf(l, "body").unwrap();
    let i = p.idx(hb, l).unwrap();
    let x = p.load(hb, a, &[i]).unwrap();
    let y = p.load(hb, b, &[i]).unwrap();
    let s = p.bin(hb, BinOp::Add, x, y).unwrap();
    p.store(hb, o, &[i], s).unwrap();
    p
}

#[test]
fn vecadd_scalar() {
    check(&vec_add(16, 1), &ChipSpec::tiny_4x4(), &default_opts());
}

#[test]
fn vecadd_vectorized() {
    check(&vec_add(37, 8), &ChipSpec::tiny_4x4(), &default_opts());
}

/// Dot product with a reduction stored on the last iteration.
fn dot(n: usize, par: u32) -> Program {
    let mut p = Program::new(format!("dot{n}p{par}"));
    let root = p.root();
    let a = p.dram("a", &[n], DType::F64, MemInit::LinSpace { start: 0.0, step: 1.0 });
    let b = p.dram("b", &[n], DType::F64, MemInit::LinSpace { start: 1.0, step: 0.0 });
    let o = p.dram("o", &[1], DType::F64, MemInit::Zero);
    let l = p.add_loop(root, "i", LoopSpec::new(0, n as i64, 1).par(par)).unwrap();
    let hb = p.add_leaf(l, "body").unwrap();
    let i = p.idx(hb, l).unwrap();
    let x = p.load(hb, a, &[i]).unwrap();
    let y = p.load(hb, b, &[i]).unwrap();
    let xy = p.bin(hb, BinOp::Mul, x, y).unwrap();
    let acc = p.reduce(hb, BinOp::Add, xy, Elem::F64(0.0), l).unwrap();
    let last = p.is_last(hb, l).unwrap();
    let z = p.c_i64(hb, 0).unwrap();
    p.store_if(hb, o, &[z], acc, last).unwrap();
    p
}

#[test]
fn dot_scalar() {
    check(&dot(24, 1), &ChipSpec::tiny_4x4(), &default_opts());
}

#[test]
fn dot_vectorized() {
    check(&dot(40, 8), &ChipSpec::tiny_4x4(), &default_opts());
}

/// The paper's Fig 2 shape: producer/consumer chain through on-chip
/// scratchpads under a two-deep loop nest — exercises CMMC tokens,
/// multibuffering and hierarchical pipelining.
fn fig2_chain(a_trip: i64, c_trip: i64) -> Program {
    let mut p = Program::new("fig2chain");
    let root = p.root();
    let src = p.dram(
        "src",
        &[(a_trip * c_trip) as usize],
        DType::F64,
        MemInit::LinSpace { start: 1.0, step: 1.0 },
    );
    let dst = p.dram("dst", &[(a_trip * c_trip) as usize], DType::F64, MemInit::Zero);
    let m1 = p.sram("m1", &[c_trip as usize], DType::F64);
    let m2 = p.sram("m2", &[c_trip as usize], DType::F64);
    let la = p.add_loop(root, "A", LoopSpec::new(0, a_trip, 1)).unwrap();
    // stage 1: load tile from DRAM into m1
    let lc = p.add_loop(la, "C", LoopSpec::new(0, c_trip, 1)).unwrap();
    let hc = p.add_leaf(lc, "c").unwrap();
    let ia = p.idx(hc, la).unwrap();
    let ic = p.idx(hc, lc).unwrap();
    let ct = p.c_i64(hc, c_trip).unwrap();
    let base = p.bin(hc, BinOp::Mul, ia, ct).unwrap();
    let addr = p.bin(hc, BinOp::Add, base, ic).unwrap();
    let v = p.load(hc, src, &[addr]).unwrap();
    p.store(hc, m1, &[ic], v).unwrap();
    // stage 2: m2[j] = 2 * m1[j]
    let ld = p.add_loop(la, "D", LoopSpec::new(0, c_trip, 1)).unwrap();
    let hd = p.add_leaf(ld, "d").unwrap();
    let id = p.idx(hd, ld).unwrap();
    let x = p.load(hd, m1, &[id]).unwrap();
    let two = p.c_f64(hd, 2.0).unwrap();
    let xx = p.bin(hd, BinOp::Mul, x, two).unwrap();
    p.store(hd, m2, &[id], xx).unwrap();
    // stage 3: write m2 back to DRAM
    let le = p.add_loop(la, "E", LoopSpec::new(0, c_trip, 1)).unwrap();
    let he = p.add_leaf(le, "e").unwrap();
    let ia2 = p.idx(he, la).unwrap();
    let ie = p.idx(he, le).unwrap();
    let ct2 = p.c_i64(he, c_trip).unwrap();
    let base2 = p.bin(he, BinOp::Mul, ia2, ct2).unwrap();
    let addr2 = p.bin(he, BinOp::Add, base2, ie).unwrap();
    let y = p.load(he, m2, &[ie]).unwrap();
    p.store(he, dst, &[addr2], y).unwrap();
    p
}

#[test]
fn fig2_pipeline_chain() {
    check(&fig2_chain(4, 8), &ChipSpec::tiny_4x4(), &default_opts());
}

#[test]
fn fig2_pipeline_chain_no_credit_relaxation() {
    let mut opts = default_opts();
    opts.lower.cmmc.relax_credits = false;
    check(&fig2_chain(4, 8), &ChipSpec::tiny_4x4(), &opts);
}

#[test]
fn fig2_pipeline_chain_no_reduction() {
    let mut opts = default_opts();
    opts.lower.cmmc.reduce = false;
    check(&fig2_chain(3, 6), &ChipSpec::tiny_4x4(), &opts);
}

/// Outer branch over loops (paper Fig 4): writes on even iterations, reads
/// on odd ones.
fn fig4_branch(n: i64) -> Program {
    let mut p = Program::new("fig4branch");
    let root = p.root();
    let mem = p.sram("mem", &[8], DType::F64);
    let out = p.dram("out", &[n as usize], DType::F64, MemInit::Zero);
    let cond = p.reg("even", DType::I64);
    let la = p.add_loop(root, "A", LoopSpec::new(0, n, 1)).unwrap();
    let hb_b = p.add_leaf(la, "B").unwrap();
    let i = p.idx(hb_b, la).unwrap();
    let two = p.c_i64(hb_b, 2).unwrap();
    let r = p.bin(hb_b, BinOp::Mod, i, two).unwrap();
    let z = p.c_i64(hb_b, 0).unwrap();
    let even = p.bin(hb_b, BinOp::Eq, r, z).unwrap();
    p.store(hb_b, cond, &[z], even).unwrap();
    let br = p.add_branch(la, "C", cond).unwrap();
    // then: for j in 0..8 { mem[j] = i + j }
    let ld = p.add_loop(br, "D", LoopSpec::new(0, 8, 1)).unwrap();
    let hd = p.add_leaf(ld, "d").unwrap();
    let ia = p.idx(hd, la).unwrap();
    let j = p.idx(hd, ld).unwrap();
    let s = p.bin(hd, BinOp::Add, ia, j).unwrap();
    let sf = p.un(hd, UnOp::ToF, s).unwrap();
    p.store(hd, mem, &[j], sf).unwrap();
    // else: for k in 0..8 { acc += mem[k] }; out[i] = acc at last
    let lf = p.add_loop(br, "F", LoopSpec::new(0, 8, 1)).unwrap();
    let hf = p.add_leaf(lf, "f").unwrap();
    let k = p.idx(hf, lf).unwrap();
    let mv = p.load(hf, mem, &[k]).unwrap();
    let acc = p.reduce(hf, BinOp::Add, mv, Elem::F64(0.0), lf).unwrap();
    let last = p.is_last(hf, lf).unwrap();
    let ia2 = p.idx(hf, la).unwrap();
    p.store_if(hf, out, &[ia2], acc, last).unwrap();
    p
}

#[test]
fn fig4_outer_branch() {
    check(&fig4_branch(6), &ChipSpec::tiny_4x4(), &default_opts());
}

/// Dynamic loop bound from a register.
#[test]
fn dynamic_bound() {
    let mut p = Program::new("dynbound");
    let root = p.root();
    let nreg = p.reg("n", DType::I64);
    let o = p.dram("o", &[16], DType::I64, MemInit::Zero);
    let setup = p.add_leaf(root, "setup").unwrap();
    let z = p.c_i64(setup, 0).unwrap();
    let ten = p.c_i64(setup, 10).unwrap();
    p.store(setup, nreg, &[z], ten).unwrap();
    let l = p.add_loop(root, "i", LoopSpec::new(0, Bound::Reg(nreg), 1)).unwrap();
    let hb = p.add_leaf(l, "body").unwrap();
    let i = p.idx(hb, l).unwrap();
    let sq = p.bin(hb, BinOp::Mul, i, i).unwrap();
    p.store(hb, o, &[i], sq).unwrap();
    check(&p, &ChipSpec::tiny_4x4(), &default_opts());
}

/// Do-while convergence: k doubles until exceeding a threshold.
#[test]
fn do_while_loop() {
    let mut p = Program::new("dowhile");
    let root = p.root();
    let kreg = p.reg_init("k", Elem::I64(1));
    let cond = p.reg("go", DType::I64);
    let o = p.dram("o", &[1], DType::I64, MemInit::Zero);
    let dw = p.add_do_while(root, "dw", cond, 64).unwrap();
    let hb = p.add_leaf(dw, "body").unwrap();
    let z = p.c_i64(hb, 0).unwrap();
    let k = p.load(hb, kreg, &[z]).unwrap();
    let two = p.c_i64(hb, 2).unwrap();
    let k2 = p.bin(hb, BinOp::Mul, k, two).unwrap();
    p.store(hb, kreg, &[z], k2).unwrap();
    let hundred = p.c_i64(hb, 100).unwrap();
    let c = p.bin(hb, BinOp::Lt, k2, hundred).unwrap();
    p.store(hb, cond, &[z], c).unwrap();
    // publish k into DRAM every iteration; last write wins
    p.store(hb, o, &[z], k2).unwrap();
    check(&p, &ChipSpec::tiny_4x4(), &default_opts());
}

/// Outer-loop spatial unrolling with a shared banked memory.
#[test]
fn unrolled_tile_rows() {
    let mut p = Program::new("unrolledrows");
    let root = p.root();
    let rows = 4usize;
    let cols = 8usize;
    let src =
        p.dram("src", &[rows * cols], DType::F64, MemInit::LinSpace { start: 0.0, step: 1.0 });
    let dst = p.dram("dst", &[rows * cols], DType::F64, MemInit::Zero);
    let tile = p.sram("tile", &[rows, cols], DType::F64);
    // writer: unrolled by 2 over rows
    let wi = p.add_loop(root, "wi", LoopSpec::new(0, rows as i64, 1).par(2)).unwrap();
    let wj = p.add_loop(wi, "wj", LoopSpec::new(0, cols as i64, 1)).unwrap();
    let wh = p.add_leaf(wj, "w").unwrap();
    let i1 = p.idx(wh, wi).unwrap();
    let j1 = p.idx(wh, wj).unwrap();
    let cc = p.c_i64(wh, cols as i64).unwrap();
    let flat = p.bin(wh, BinOp::Mul, i1, cc).unwrap();
    let flat2 = p.bin(wh, BinOp::Add, flat, j1).unwrap();
    let v = p.load(wh, src, &[flat2]).unwrap();
    p.store(wh, tile, &[i1, j1], v).unwrap();
    // reader: unrolled by 2 over rows, adds 1, writes back
    let ri = p.add_loop(root, "ri", LoopSpec::new(0, rows as i64, 1).par(2)).unwrap();
    let rj = p.add_loop(ri, "rj", LoopSpec::new(0, cols as i64, 1)).unwrap();
    let rh = p.add_leaf(rj, "r").unwrap();
    let i2 = p.idx(rh, ri).unwrap();
    let j2 = p.idx(rh, rj).unwrap();
    let x = p.load(rh, tile, &[i2, j2]).unwrap();
    let one = p.c_f64(rh, 1.0).unwrap();
    let y = p.bin(rh, BinOp::Add, x, one).unwrap();
    let cc2 = p.c_i64(rh, cols as i64).unwrap();
    let f1 = p.bin(rh, BinOp::Mul, i2, cc2).unwrap();
    let f2 = p.bin(rh, BinOp::Add, f1, j2).unwrap();
    p.store(rh, dst, &[f2], y).unwrap();
    check(&p, &ChipSpec::small_8x8(), &default_opts());
}

/// Cross-lane reduction: the reduction loop itself is unrolled, forcing
/// the combine-tree path.
#[test]
fn unrolled_reduction_combine_tree() {
    let n = 32usize;
    let mut p = Program::new("unrolledreduce");
    let root = p.root();
    let a = p.dram("a", &[n], DType::F64, MemInit::LinSpace { start: 1.0, step: 1.0 });
    let o = p.dram("o", &[1], DType::F64, MemInit::Zero);
    // par 32 on a 16-lane machine: vectorize 16 + unroll 2 lanes
    let l = p.add_loop(root, "i", LoopSpec::new(0, n as i64, 1).par(32)).unwrap();
    let hb = p.add_leaf(l, "body").unwrap();
    let i = p.idx(hb, l).unwrap();
    let x = p.load(hb, a, &[i]).unwrap();
    let acc = p.reduce(hb, BinOp::Add, x, Elem::F64(0.0), l).unwrap();
    let last = p.is_last(hb, l).unwrap();
    let z = p.c_i64(hb, 0).unwrap();
    p.store_if(hb, o, &[z], acc, last).unwrap();
    check(&p, &ChipSpec::small_8x8(), &default_opts());
}

/// Gather through an index tensor (dynamic bank routing).
#[test]
fn gather_dynamic_routing() {
    let n = 16usize;
    let mut p = Program::new("gather");
    let root = p.root();
    let idx = p.dram("idx", &[n], DType::I64, MemInit::RandomI { seed: 3, lo: 0, hi: n as i64 });
    let table = p.dram("table", &[n], DType::F64, MemInit::LinSpace { start: 0.0, step: 2.0 });
    let o = p.dram("o", &[n], DType::F64, MemInit::Zero);
    let stable = p.sram("stable", &[n], DType::F64);
    // preload table into sram
    let lp = p.add_loop(root, "pre", LoopSpec::new(0, n as i64, 1)).unwrap();
    let hp = p.add_leaf(lp, "p").unwrap();
    let ip = p.idx(hp, lp).unwrap();
    let tv = p.load(hp, table, &[ip]).unwrap();
    p.store(hp, stable, &[ip], tv).unwrap();
    // gather: o[i] = stable[idx[i]] with some parallelism to force banking
    let lg = p.add_loop(root, "g", LoopSpec::new(0, n as i64, 1).par(2)).unwrap();
    let li = p.add_loop(lg, "gi", LoopSpec::new(0, 1, 1)).unwrap();
    let hg = p.add_leaf(li, "gb").unwrap();
    let ig = p.idx(hg, lg).unwrap();
    let ix = p.load(hg, idx, &[ig]).unwrap();
    let val = p.load(hg, stable, &[ix]).unwrap();
    p.store(hg, o, &[ig], val).unwrap();
    check(&p, &ChipSpec::small_8x8(), &default_opts());
}

/// Performance sanity: hierarchical pipelining should overlap stages, so
/// doubling the outer trip should roughly double cycles (not explode), and
/// the pipelined version should beat a fully sequential schedule.
#[test]
fn pipelining_overlaps_stages() {
    let chip = ChipSpec::tiny_4x4();
    let o1 = check(&fig2_chain(4, 16), &chip, &default_opts());
    let o2 = check(&fig2_chain(8, 16), &chip, &default_opts());
    let ratio = o2.cycles as f64 / o1.cycles as f64;
    assert!(ratio < 2.6, "scaling ratio {ratio:.2}");
    // credit relaxation (double buffering) must help
    let mut seq = default_opts();
    seq.lower.cmmc.relax_credits = false;
    let o_seq = check(&fig2_chain(8, 16), &chip, &seq);
    assert!(
        o_seq.cycles > o2.cycles,
        "sequential credits {} should be slower than pipelined {}",
        o_seq.cycles,
        o2.cycles
    );
}

/// `verify_dram` accepts the fabric's image, forgives float noise within
/// 1e-9 relative, and names the tensor and the index of a planted
/// difference.
#[test]
fn verify_dram_names_a_planted_mismatch() {
    let p = vec_add(16, 1);
    let out = MemId(2);
    assert_eq!(p.mem(out).name, "o");
    let reference = Interp::new(&p).run().expect("interpreter runs");
    let good = check(&p, &ChipSpec::tiny_4x4(), &default_opts());
    assert_eq!(verify_dram(&p, &reference, &good), Ok(()));

    let planted = |f: &dyn Fn(&mut Vec<Elem>)| {
        let mut bad = good.clone();
        f(bad.dram_final.get_mut(&out).expect("o is in the image"));
        verify_dram(&p, &reference, &bad)
    };
    let nudge = |by: f64| move |img: &mut Vec<Elem>| img[5] = Elem::F64(img[5].as_f64() + by);
    assert_eq!(planted(&nudge(1e-12)), Ok(()));
    let e = planted(&nudge(1e-3)).unwrap_err();
    assert!(e.starts_with("DRAM o[5]: fabric F64("), "{e}");
    let e = planted(&|img| img[7] = Elem::I64(img[7].as_i64())).unwrap_err();
    assert!(e.starts_with("DRAM o[7]: fabric I64("), "{e}");
    let e = planted(&|img| {
        img.pop();
    })
    .unwrap_err();
    assert_eq!(e, "DRAM o: length 15 vs interpreter 16");
    let mut missing = good.clone();
    missing.dram_final.remove(&out);
    assert_eq!(
        verify_dram(&p, &reference, &missing).unwrap_err(),
        "DRAM o missing from fabric image"
    );
}
