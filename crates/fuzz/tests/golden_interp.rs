//! Interpreter contract: what `Interp::run` returns, pinned per case.
//!
//! Each case pins a stable digest of the run's outcome: every memory
//! image element by element (type tag and bits), then every
//! `InterpStats` field, the two per-controller maps sorted by
//! `CtrlId`. A case that fails pins the digest of its error value
//! instead. A change that claims to keep the interpreter's semantics,
//! such as a speed change, must leave every row as it is.
//!
//! The cases are the registry workloads, the fuzz regression corpus, a
//! fixed range of generated programs, one program built to reach the
//! corners of the control semantics (negative steps, do-while indices,
//! a one-armed branch, a zero-trip dynamic loop, a reduction over an
//! outer loop, a FIFO left holding elements), and the error paths: fuel exhaustion, a diverging
//! do-while, and out-of-bounds accesses on a 2-D tensor.

use sara_core::artifact::StableHasher;
use sara_fuzz::{gen, textio};
use sara_ir::interp::{Interp, InterpStats, RunOutcome};
use sara_ir::{BinOp, Bound, DType, Elem, IrError, LoopSpec, MemInit, Program};

/// Generated programs `gen::generate(s)` for `s` in this range.
const GEN_SEEDS: std::ops::Range<u64> = 0..48;

/// Fuel of the fuzz oracle, so generated cases behave as they do there.
const GEN_FUEL: u64 = 2_000_000;

/// `(case, digest)`, in the order [`cases`] produces them.
const GOLDEN: &[(&str, &str)] = &[
    ("registry dotprod", "1b2ecef19fe04bf9b96288c62731bf0a"),
    ("registry outerprod", "edaf61602f34a2d5742c89534ad5ca96"),
    ("registry gemm", "45654eea23c479283d95ff06837141a3"),
    ("registry mlp", "58bd04b875dfb7197f8e9edddd37bdb6"),
    ("registry lstm", "70d9055de34f8b985574b5bc1254a8ef"),
    ("registry snet", "a598e8557b724f78e99dff390176bb8b"),
    ("registry logreg", "8e9fa6db64aa22e4867e507addc78693"),
    ("registry sgd", "9c9da502a0793d1ee5867da726ef4b51"),
    ("registry kmeans", "54255b57969f38dd71d9f253bfb67ed6"),
    ("registry gda", "23ba8905dce3b3d1c11645c6d228c996"),
    ("registry tpchq6", "4ac534fe1fef2630066ed81dbda5d0a3"),
    ("registry bs", "ded3168979ee1ebab0da8f0a4c4f63b9"),
    ("registry sort", "8475470dd0107d7f5b68e4bc93e7447c"),
    ("registry ms", "ca6912b15c4d326d64cf7cd261db146a"),
    ("registry pr", "cafc2f8af6d229665c88cf081b7be56d"),
    ("registry rf", "1b4f2223617147494325d105bf23f83a"),
    ("regression branch_arm_token_reduction", "26df858d811a041437e72b0ea0e692a7"),
    ("regression conditional_copy_rtelm", "b9424da3f708d69951eaba1633e012aa"),
    ("regression multi_writer_fifo", "53688745a762f761fee56e4a5d84f5f2"),
    ("gen 0", "d2fdf2a1758b4eef5def0d6a3c8e721c"),
    ("gen 1", "75246ca66761506a64720457d65fe9f9"),
    ("gen 2", "cb9f51c3dda75b8d2dcba9cadd7a5a06"),
    ("gen 3", "1d958da659a9951748b15218e0d0c36c"),
    ("gen 4", "019eb83de034d965f5bcb8f322fb3636"),
    ("gen 5", "c1e4a2e0ad82764bad5f4f5f25dac270"),
    ("gen 6", "9531e4db398f77e01b72fc1efc957137"),
    ("gen 7", "90aa8ed067f539905416a13784d291e3"),
    ("gen 8", "5ee84fb85a86f7f109cfe7ce2634fcc2"),
    ("gen 9", "32a0a20475b4e7aa288bf3fa33458249"),
    ("gen 10", "159038643ea782c7162fa5295ef37bd8"),
    ("gen 11", "5e24c07ec07fbd803d2b573f159312a7"),
    ("gen 12", "147acf7f9f277b2ef3f70ff656ef46fd"),
    ("gen 13", "cac6c7e27010894f33921013ba878630"),
    ("gen 14", "99fbdd30f09e8e3552a093cb9d1259e2"),
    ("gen 15", "320d726f9e6408b2ff02797b7126d3bd"),
    ("gen 16", "bc244be5de6f28229e817647eefbe709"),
    ("gen 17", "02ddc57f9f9864e81feec6c885df59b3"),
    ("gen 18", "539055ed63ba92120beb328f92f6aec9"),
    ("gen 19", "0d9e91978e446e714d7277263e50c862"),
    ("gen 20", "26df37b5c585479bc47c319f11eff658"),
    ("gen 21", "5de5e637414800a34369f6596a148094"),
    ("gen 22", "f27a03b57755ea718dee79f469334502"),
    ("gen 23", "18787cbcbc8bfc7220a6838add75ee6d"),
    ("gen 24", "ffff80e17c7dfcb9e8fba94c2af587ba"),
    ("gen 25", "ed167a6c48138c5177b0608534ddccee"),
    ("gen 26", "ce9b5f6a166fc1072dfe314a4ddb4c3c"),
    ("gen 27", "5d6fe694e3566856d0dcffde432f0b3d"),
    ("gen 28", "618e8101e394b0dde516accf6c3acb96"),
    ("gen 29", "89c1329b7949f50700193c628308f02c"),
    ("gen 30", "a89108be4e3d115eeb375d175f3f8a95"),
    ("gen 31", "e6e656e53fac629fffe985ac32ed29ac"),
    ("gen 32", "35508ab8826fb9e9a89e77a18873b4da"),
    ("gen 33", "ce1d60f2782a1e6bad5fd61cce7545d4"),
    ("gen 34", "8776d5240a9f5b7a0973e3bf94f13d61"),
    ("gen 35", "e135091182189d85ba32b3304c6a5a26"),
    ("gen 36", "965ad589df2098896e31a5acc6ebeb8a"),
    ("gen 37", "81fc08a9435c57aa524942b50082d035"),
    ("gen 38", "eb02866a06592c1684b32846326e946d"),
    ("gen 39", "99c085fff5ee31d146e4aee8dd688c42"),
    ("gen 40", "c7a39b92bdf1f5fc58b4d9402d66f8bf"),
    ("gen 41", "81caa13161809de626488a4eb1899e91"),
    ("gen 42", "e6d34ff6aa592356fe59c08aab8b53a9"),
    ("gen 43", "f28af6000f2de21e81870712bcf0c8dd"),
    ("gen 44", "d6c80020a2a925c4518fc7f86bad5237"),
    ("gen 45", "b332fed8954dc27f7a922ed4a9d9876c"),
    ("gen 46", "c5ae2f5ccef1f6ac5f2f69e1f7cef6d7"),
    ("gen 47", "92f4582479a8bd3ce6a5b3d3788bd533"),
    ("edges", "021cc94505d57ae5fdc7be2f352bf89a"),
    ("fuel gemm exact", "45654eea23c479283d95ff06837141a3"),
    ("fuel gemm short", "ca45193a6637b03cf92bbfaf0d634c8f"),
    ("fuel gemm zero", "ca45193a6637b03cf92bbfaf0d634c8f"),
    ("error diverging do-while", "b825bf3a5bb9a296e73569af03084ac9"),
    ("error oob 2d load col", "a9771dec3915aa9252fe37cada1aa459"),
    ("error oob 2d load row", "5a7545899266763cf9503741b20d3913"),
    ("error oob 2d store col", "a9771dec3915aa9252fe37cada1aa459"),
    ("error oob 2d store row", "5a7545899266763cf9503741b20d3913"),
];

/// Digest of one interpreter result.
fn digest(r: &Result<RunOutcome, IrError>) -> String {
    let mut h = StableHasher::new();
    let o = match r {
        Ok(o) => o,
        Err(e) => {
            h.str("err").str(&format!("{e:?}"));
            return h.hex();
        }
    };
    h.str("ok").u64(o.mem.len() as u64);
    for image in &o.mem {
        h.u64(image.len() as u64);
        for e in image {
            match *e {
                Elem::I64(v) => h.u64(0).u64(v as u64),
                Elem::F64(v) => h.u64(1).u64(v.to_bits()),
            };
        }
    }
    let InterpStats {
        hb_execs,
        activations,
        flops,
        int_ops,
        loads,
        stores,
        dram_read_bytes,
        dram_write_bytes,
    } = &o.stats;
    for map in [hb_execs, activations] {
        let mut entries: Vec<_> = map.iter().collect();
        entries.sort();
        h.u64(entries.len() as u64);
        for (c, n) in entries {
            h.u64(u64::from(c.0)).u64(*n);
        }
    }
    for v in [flops, int_ops, loads, stores, dram_read_bytes, dram_write_bytes] {
        h.u64(*v);
    }
    h.hex()
}

/// Total hyperblock firings of a successful run.
fn firings(o: &RunOutcome) -> u64 {
    o.stats.hb_execs.values().sum()
}

/// A program that reaches the corners of the control semantics: a loop
/// with a negative step and its first/last flags, a do-while's index and
/// first flag, a one-armed branch, a loop whose dynamic bound reads zero,
/// a reduction over an outer loop, and a FIFO that keeps two of the three
/// elements pushed into it.
fn edges() -> Program {
    let mut p = Program::new("edges");
    let root = p.root();
    let out = p.dram("out", &[4, 3], DType::I64, MemInit::Zero);
    let acc = p.dram("acc", &[2], DType::F64, MemInit::Zero);
    let n = p.reg("n", DType::I64);
    let cond = p.reg("cond", DType::I64);
    let k = p.reg("k", DType::I64);

    // for i in (3..-1).step_by(-1): out[i][0..3] = [i, first, last]
    let li = p.add_loop(root, "i", LoopSpec::new(3, -1, -1)).unwrap();
    let hb = p.add_leaf(li, "down").unwrap();
    let i = p.idx(hb, li).unwrap();
    let first = p.is_first(hb, li).unwrap();
    let last = p.is_last(hb, li).unwrap();
    for (col, v) in [i, first, last].into_iter().enumerate() {
        let c = p.c_i64(hb, col as i64).unwrap();
        p.store(hb, out, &[i, c], v).unwrap();
    }

    // do { k += 1; out[k][0] += 10*idx + 2*first; cond = k < 3 } while cond
    let dw = p.add_do_while(root, "dw", cond, 8).unwrap();
    let hb = p.add_leaf(dw, "body").unwrap();
    let z = p.c_i64(hb, 0).unwrap();
    let kv = p.load(hb, k, &[z]).unwrap();
    let one = p.c_i64(hb, 1).unwrap();
    let k1 = p.bin(hb, BinOp::Add, kv, one).unwrap();
    p.store(hb, k, &[z], k1).unwrap();
    let d = p.idx(hb, dw).unwrap();
    let df = p.is_first(hb, dw).unwrap();
    let ten = p.c_i64(hb, 10).unwrap();
    let two = p.c_i64(hb, 2).unwrap();
    let a = p.bin(hb, BinOp::Mul, d, ten).unwrap();
    let b = p.bin(hb, BinOp::Mul, df, two).unwrap();
    let flags = p.bin(hb, BinOp::Add, a, b).unwrap();
    let old = p.load(hb, out, &[k1, z]).unwrap();
    let new = p.bin(hb, BinOp::Add, old, flags).unwrap();
    p.store(hb, out, &[k1, z], new).unwrap();
    let three = p.c_i64(hb, 3).unwrap();
    let more = p.bin(hb, BinOp::Lt, k1, three).unwrap();
    p.store(hb, cond, &[z], more).unwrap();

    // if cond { out[0][1] = 7 }   (cond is 0 here: the arm is skipped)
    let br = p.add_branch(root, "br", cond).unwrap();
    let hb = p.add_leaf(br, "then").unwrap();
    let z = p.c_i64(hb, 0).unwrap();
    let one = p.c_i64(hb, 1).unwrap();
    let seven = p.c_i64(hb, 7).unwrap();
    p.store(hb, out, &[z, one], seven).unwrap();

    // for j in 0..n (n == 0): out[0][2] = 9
    let lj = p.add_loop(root, "j", LoopSpec::new(0, Bound::Reg(n), 1)).unwrap();
    let hb = p.add_leaf(lj, "never").unwrap();
    let z = p.c_i64(hb, 0).unwrap();
    let two = p.c_i64(hb, 2).unwrap();
    let nine = p.c_i64(hb, 9).unwrap();
    p.store(hb, out, &[z, two], nine).unwrap();

    // for a in 0..2 { for b in 0..2 { for c in 0..3 { acc[b] = 0.5 + sum of a+c over this a } } }
    let la = p.add_loop(root, "a", LoopSpec::new(0, 2, 1)).unwrap();
    let lb = p.add_loop(la, "b", LoopSpec::new(0, 2, 1)).unwrap();
    let lc = p.add_loop(lb, "c", LoopSpec::new(0, 3, 1)).unwrap();
    let hb = p.add_leaf(lc, "sum").unwrap();
    let av = p.idx(hb, la).unwrap();
    let bv = p.idx(hb, lb).unwrap();
    let cv = p.idx(hb, lc).unwrap();
    let x = p.bin(hb, BinOp::Add, av, cv).unwrap();
    let s = p.reduce(hb, BinOp::Add, x, Elem::F64(0.5), lb).unwrap();
    p.store(hb, acc, &[bv], s).unwrap();

    // for q in 0..3 { f.push(q + 5) }; popped[0] = f.pop()
    let f = p.fifo("f", 4, DType::I64);
    let popped = p.dram("popped", &[1], DType::I64, MemInit::Zero);
    let lq = p.add_loop(root, "q", LoopSpec::new(0, 3, 1)).unwrap();
    let hb = p.add_leaf(lq, "push").unwrap();
    let z = p.c_i64(hb, 0).unwrap();
    let q = p.idx(hb, lq).unwrap();
    let five = p.c_i64(hb, 5).unwrap();
    let v = p.bin(hb, BinOp::Add, q, five).unwrap();
    p.store(hb, f, &[z], v).unwrap();
    let hb = p.add_leaf(root, "pop").unwrap();
    let z = p.c_i64(hb, 0).unwrap();
    let v = p.load(hb, f, &[z]).unwrap();
    p.store(hb, popped, &[z], v).unwrap();
    p.validate().unwrap();
    p
}

/// A do-while whose condition never clears.
fn diverging_do_while() -> Program {
    let mut p = Program::new("diverge");
    let root = p.root();
    let cond = p.reg_init("cond", Elem::I64(1));
    let l = p.add_loop(root, "l", LoopSpec::new(0, 2, 1)).unwrap();
    let dw = p.add_do_while(l, "dw", cond, 5).unwrap();
    let hb = p.add_leaf(dw, "body").unwrap();
    let z = p.c_i64(hb, 0).unwrap();
    let one = p.c_i64(hb, 1).unwrap();
    p.store(hb, cond, &[z], one).unwrap();
    p.validate().unwrap();
    p
}

/// `for i in 0..4 { m[row(i)][col(i)] = i }` on a 3x4 tensor, with one
/// coordinate running past its dimension on the last iteration.
fn oob_2d(store: bool, outer: bool) -> Program {
    let mut p = Program::new("oob");
    let root = p.root();
    let m = p.dram("m", &[3, 4], DType::I64, MemInit::Zero);
    let out = p.dram("out", &[4], DType::I64, MemInit::Zero);
    let l = p.add_loop(root, "i", LoopSpec::new(0, 4, 1)).unwrap();
    let hb = p.add_leaf(l, "b").unwrap();
    let i = p.idx(hb, l).unwrap();
    let two = p.c_i64(hb, 2).unwrap();
    let i2 = p.bin(hb, BinOp::Mul, i, two).unwrap();
    let one = p.c_i64(hb, 1).unwrap();
    // Outer: row i (3 rows), col 1. Inner: row 1, col 2*i (4 cols).
    let addr = if outer { [i, one] } else { [one, i2] };
    if store {
        p.store(hb, m, &addr, i).unwrap();
    } else {
        let v = p.load(hb, m, &addr).unwrap();
        p.store(hb, out, &[i], v).unwrap();
    }
    p.validate().unwrap();
    p
}

/// Every case in table order: its name and its interpreter result.
fn cases() -> Vec<(String, Result<RunOutcome, IrError>)> {
    let mut out = Vec::new();
    for w in sara_workloads::all_small() {
        out.push((format!("registry {}", w.name), Interp::new(&w.program).run()));
    }
    for (name, text) in [
        (
            "branch_arm_token_reduction",
            include_str!("fuzz_regressions/branch_arm_token_reduction.sara"),
        ),
        ("conditional_copy_rtelm", include_str!("fuzz_regressions/conditional_copy_rtelm.sara")),
        ("multi_writer_fifo", include_str!("fuzz_regressions/multi_writer_fifo.sara")),
    ] {
        let p = textio::from_text(text).expect("regression program parses");
        out.push((format!("regression {name}"), Interp::new(&p).run()));
    }
    for s in GEN_SEEDS {
        let case = gen::generate(s);
        out.push((format!("gen {s}"), Interp::new(&case.program).with_fuel(GEN_FUEL).run()));
    }
    out.push(("edges".to_string(), Interp::new(&edges()).run()));

    // Fuel: exactly enough passes and matches the unbounded run; one
    // firing less stops on the root.
    let gemm = sara_workloads::by_name("gemm").expect("registry workload").program;
    let full = Interp::new(&gemm).run().expect("gemm runs");
    let need = firings(&full);
    out.push(("fuel gemm exact".to_string(), Interp::new(&gemm).with_fuel(need).run()));
    out.push(("fuel gemm short".to_string(), Interp::new(&gemm).with_fuel(need - 1).run()));
    out.push(("fuel gemm zero".to_string(), Interp::new(&gemm).with_fuel(0).run()));

    out.push(("error diverging do-while".to_string(), Interp::new(&diverging_do_while()).run()));
    for (store, outer) in [(false, false), (false, true), (true, false), (true, true)] {
        let name = format!(
            "error oob 2d {} {}",
            if store { "store" } else { "load" },
            if outer { "row" } else { "col" }
        );
        out.push((name, Interp::new(&oob_2d(store, outer)).run()));
    }
    out
}

#[test]
fn interpreter_outcomes_match_the_golden_table() {
    let got: Vec<(String, String)> = cases().iter().map(|(c, r)| (c.clone(), digest(r))).collect();
    let want: Vec<(String, String)> =
        GOLDEN.iter().map(|(c, d)| (c.to_string(), d.to_string())).collect();
    if got != want {
        let table: String = got.iter().map(|(c, d)| format!("    ({c:?}, {d:?}),\n")).collect();
        panic!("interpreter outcomes moved; the table as it runs now:\n{table}");
    }
}

#[test]
fn edges_program_reaches_its_corners() {
    let p = edges();
    let o = Interp::new(&p).run().expect("edges runs");
    let mem = |name: &str| p.mems.iter().position(|m| m.name == name).unwrap();
    let out = [0, 0, 1, 3, 0, 0, 12, 0, 0, 23, 1, 0];
    assert_eq!(o.mem_i64(sara_ir::MemId(mem("out") as u32)), out);
    assert_eq!(o.mem_f64(sara_ir::MemId(mem("acc") as u32)), [6.5, 12.5]);
    assert_eq!(o.mem_i64(sara_ir::MemId(mem("f") as u32)), [6, 7, 0, 0]);
    assert_eq!(o.mem_i64(sara_ir::MemId(mem("popped") as u32)), [5]);
}

#[test]
fn error_paths_report_the_expected_errors() {
    let gemm = sara_workloads::by_name("gemm").expect("registry workload").program;
    let full = Interp::new(&gemm).run().expect("gemm runs");
    let need = firings(&full);
    let exact = Interp::new(&gemm).with_fuel(need).run().expect("exact fuel suffices");
    assert_eq!(digest(&Ok(exact)), digest(&Ok(full)));
    let root = gemm.root();
    assert_eq!(
        Interp::new(&gemm).with_fuel(need - 1).run().unwrap_err(),
        IrError::DoWhileDiverged(root)
    );

    let p = diverging_do_while();
    let dw = p.ctrls.iter().position(|c| c.name == "dw").unwrap();
    assert_eq!(
        Interp::new(&p).run().unwrap_err(),
        IrError::DoWhileDiverged(sara_ir::CtrlId(dw as u32))
    );

    // `Oob` names the first coordinate and the flat size.
    for store in [false, true] {
        let col = Interp::new(&oob_2d(store, false)).run().unwrap_err();
        assert_eq!(col, IrError::Oob { mem: sara_ir::MemId(0), addr: 1, size: 12 });
        let row = Interp::new(&oob_2d(store, true)).run().unwrap_err();
        assert_eq!(row, IrError::Oob { mem: sara_ir::MemId(0), addr: 3, size: 12 });
    }
}
