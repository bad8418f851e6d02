//! IR-level resource optimizations (paper §III-C).
//!
//! * **Route-through elimination (`rtelm`)**: when a hyperblock does
//!   nothing but copy one on-chip memory into another elementwise
//!   (`m2[i] = m1[i]` over the full extent), the intermediate memory and
//!   the copy stage are eliminated by rewiring every reader of `m2` to
//!   read `m1` directly. The legality conditions are checked
//!   conservatively: identity addressing over the whole (equal) extent,
//!   `m2` written nowhere else, every writer of `m1` preceding the copy
//!   and every reader of `m2` following it in program order.
//!
//! * **Memory strength reduction (`msr`)** — replacing scratchpads whose
//!   accessors all have constant addresses with FIFOs — arises in the
//!   paper from *full* loop unrolling, which materializes one access site
//!   per iteration. This reproduction unrolls spatially (lane counters,
//!   not expression cloning), so addresses stay affine and the same
//!   hardware saving is obtained structurally: constant-address accessors
//!   bank trivially and statically resolve to point-to-point streams at
//!   lowering time (see [`crate::mempart`]). `msr` therefore has no
//!   rewrite here and no switch in [`crate::opt::OptConfig`]; nor does
//!   `xbar-elm`, which lowering gives the same way (each lane's request
//!   unit computes its own bank address).

use sara_ir::{CtrlKind, Expr, MemId, MemKind, Program};

/// Statistics of the IR-level optimization pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IrOptStats {
    /// Route-through memories eliminated.
    pub rtelm_removed: usize,
}

/// Apply route-through elimination until a fixed point. Returns the
/// rewritten program (the input is not modified) and statistics.
pub fn rtelm(p: &Program) -> (Program, IrOptStats) {
    let mut q = p.clone();
    let mut stats = IrOptStats::default();
    while let Some((copy_hb, m1, m2)) = find_route_through(&q) {
        apply_elimination(&mut q, copy_hb, m1, m2);
        stats.rtelm_removed += 1;
    }
    (q, stats)
}

/// A candidate: hyperblock `hb` whose only effect is `m2[i] = m1[i]`.
fn find_route_through(p: &Program) -> Option<(sara_ir::CtrlId, MemId, MemId)> {
    let accesses = p.accesses();
    for hb in p.leaves() {
        let Some(h) = p.ctrl(hb).hyperblock() else { continue };
        // shape: idx, load m1[idx], store m2[idx] = load — exactly one
        // load and one unconditional store, addresses the parent loop's
        // index directly.
        let parent = p.ctrl(hb).parent?;
        if !matches!(p.ctrl(parent).kind, CtrlKind::Loop(_)) {
            continue;
        }
        // The copy must execute unconditionally: under a branch (or a
        // do-while) the readers of `m2` must see *stale* data on
        // iterations where the copy is skipped, but after rewiring they
        // would read `m1`'s fresh values. Found by differential fuzzing.
        let conditional = p
            .ancestors(hb)
            .into_iter()
            .any(|c| matches!(p.ctrl(c).kind, CtrlKind::Branch { .. } | CtrlKind::DoWhile { .. }));
        if conditional {
            continue;
        }
        let mut load: Option<(usize, MemId, Vec<sara_ir::ExprId>)> = None;
        let mut store: Option<(MemId, Vec<sara_ir::ExprId>, sara_ir::ExprId)> = None;
        let mut other_effects = false;
        for (eid, e) in h.iter() {
            match e {
                Expr::Load { mem, addr } => {
                    if load.is_some() {
                        other_effects = true;
                    }
                    load = Some((eid.index(), *mem, addr.clone()));
                }
                Expr::Store { mem, addr, value, cond } => {
                    if store.is_some() || cond.is_some() {
                        other_effects = true;
                    }
                    store = Some((*mem, addr.clone(), *value));
                }
                _ => {}
            }
        }
        if other_effects {
            continue;
        }
        let (Some((lslot, m1, laddr)), Some((m2, saddr, sval))) = (load, store) else { continue };
        if sval.index() != lslot || m1 == m2 {
            continue;
        }
        // both on-chip SRAMs of equal size
        let (d1, d2) = (p.mem(m1), p.mem(m2));
        if d1.kind != MemKind::Sram || d2.kind != MemKind::Sram || d1.size() != d2.size() {
            continue;
        }
        // identity addressing over the full extent
        let spec = p.ctrl(parent).loop_spec().expect("checked loop");
        let full = spec.trip_count() == Some(d2.size() as u64)
            && spec.min.as_const() == Some(0)
            && spec.step == 1;
        let idx_direct = |addr: &[sara_ir::ExprId]| {
            addr.len() == 1 && matches!(h.get(addr[0]), Some(Expr::Idx(c)) if *c == parent)
        };
        if !full || !idx_direct(&laddr) || !idx_direct(&saddr) {
            continue;
        }
        // m2 written only here; program order: writers(m1) < copy <
        // readers(m2); no reader of m2 inside the copy's own loop nest.
        let copy_pos = accesses
            .iter()
            .position(|a| a.id.hb == hb && a.mem == m2 && a.is_write)
            .expect("store enumerated");
        let m2_ok = accesses.iter().enumerate().all(|(i, a)| {
            if a.mem != m2 {
                return true;
            }
            if a.is_write {
                a.id.hb == hb
            } else {
                i > copy_pos && a.id.hb != hb
            }
        });
        let m1_ok = accesses.iter().enumerate().all(|(i, a)| {
            if a.mem != m1 || !a.is_write {
                return true;
            }
            i < copy_pos
        });
        if m2_ok && m1_ok {
            return Some((hb, m1, m2));
        }
    }
    None
}

fn apply_elimination(p: &mut Program, copy_hb: sara_ir::CtrlId, m1: MemId, m2: MemId) {
    // rewire readers of m2 to m1
    for ctrl in p.ctrls.iter_mut() {
        let CtrlKind::Leaf(h) = &mut ctrl.kind else { continue };
        for e in h.exprs.iter_mut() {
            if let Expr::Load { mem, .. } = e {
                if *mem == m2 {
                    *mem = m1;
                }
            }
        }
    }
    // empty the copy hyperblock (its loop becomes a no-op spinner that
    // lowering drops entirely: leaves without effects produce no units)
    if let CtrlKind::Leaf(h) = &mut p.ctrl_mut(copy_hb).kind {
        h.exprs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sara_ir::interp::Interp;
    use sara_ir::{BinOp, DType, LoopSpec, MemInit};

    /// src(DRAM) → a(SRAM) → [copy] → b(SRAM) → dst(DRAM): the copy stage
    /// and memory `b` disappear; results are unchanged.
    fn route_through_program() -> (Program, MemId) {
        let mut p = Program::new("rt");
        let root = p.root();
        let n = 8usize;
        let src = p.dram("src", &[n], DType::F64, MemInit::LinSpace { start: 1.0, step: 1.0 });
        let dst = p.dram("dst", &[n], DType::F64, MemInit::Zero);
        let a = p.sram("a", &[n], DType::F64);
        let b = p.sram("b", &[n], DType::F64);
        let l1 = p.add_loop(root, "fill", LoopSpec::new(0, n as i64, 1)).unwrap();
        let h1 = p.add_leaf(l1, "f").unwrap();
        let i1 = p.idx(h1, l1).unwrap();
        let v1 = p.load(h1, src, &[i1]).unwrap();
        let two = p.c_f64(h1, 2.0).unwrap();
        let v2 = p.bin(h1, BinOp::Mul, v1, two).unwrap();
        p.store(h1, a, &[i1], v2).unwrap();
        // pure copy a -> b
        let l2 = p.add_loop(root, "copy", LoopSpec::new(0, n as i64, 1)).unwrap();
        let h2 = p.add_leaf(l2, "c").unwrap();
        let i2 = p.idx(h2, l2).unwrap();
        let v = p.load(h2, a, &[i2]).unwrap();
        p.store(h2, b, &[i2], v).unwrap();
        // drain b -> dst
        let l3 = p.add_loop(root, "drain", LoopSpec::new(0, n as i64, 1)).unwrap();
        let h3 = p.add_leaf(l3, "d").unwrap();
        let i3 = p.idx(h3, l3).unwrap();
        let v3 = p.load(h3, b, &[i3]).unwrap();
        p.store(h3, dst, &[i3], v3).unwrap();
        p.validate().unwrap();
        (p, dst)
    }

    #[test]
    fn eliminates_pure_copy_and_preserves_semantics() {
        let (p, dst) = route_through_program();
        let (q, stats) = rtelm(&p);
        assert_eq!(stats.rtelm_removed, 1);
        q.validate().unwrap();
        let want = Interp::new(&p).run().unwrap().mem_f64(dst);
        let got = Interp::new(&q).run().unwrap().mem_f64(dst);
        assert_eq!(want, got);
        // memory `b` (MemId 3) lost all its accessors
        assert!(q.accesses_of(MemId(3)).is_empty());
    }

    #[test]
    fn keeps_copies_with_computation() {
        // the fill stage multiplies, so it is not a route-through
        let (p, _) = route_through_program();
        let (q, _) = rtelm(&p);
        // only the pure copy was removed; fill and drain remain effective
        assert_eq!(q.accesses_of(MemId(2)).len(), 2); // a: write + rewired read
    }

    #[test]
    fn refuses_partial_extent_copies() {
        let mut p = Program::new("rt2");
        let root = p.root();
        let n = 8usize;
        let a = p.sram("a", &[n], DType::F64);
        let b = p.sram("b", &[n], DType::F64);
        let out = p.dram("out", &[n], DType::F64, MemInit::Zero);
        // copy only half of a into b
        let l = p.add_loop(root, "copy", LoopSpec::new(0, (n / 2) as i64, 1)).unwrap();
        let h = p.add_leaf(l, "c").unwrap();
        let i = p.idx(h, l).unwrap();
        let v = p.load(h, a, &[i]).unwrap();
        p.store(h, b, &[i], v).unwrap();
        let l2 = p.add_loop(root, "drain", LoopSpec::new(0, n as i64, 1)).unwrap();
        let h2 = p.add_leaf(l2, "d").unwrap();
        let i2 = p.idx(h2, l2).unwrap();
        let v2 = p.load(h2, b, &[i2]).unwrap();
        p.store(h2, out, &[i2], v2).unwrap();
        p.validate().unwrap();
        let (_, stats) = rtelm(&p);
        assert_eq!(stats.rtelm_removed, 0);
    }

    #[test]
    fn refuses_conditional_copies() {
        // A pure copy under a branch arm must NOT be eliminated: readers
        // of the destination depend on the copy being *skipped* some
        // iterations (fuzz-found bug; see crates/fuzz/tests/regressions.rs).
        let mut p = Program::new("rtc");
        let root = p.root();
        let n = 4usize;
        let a = p.sram("a", &[n], DType::F64);
        let b = p.sram("b", &[n], DType::F64);
        let out = p.dram("out", &[n], DType::F64, MemInit::Zero);
        let cond = p.reg("cond", DType::I64);
        let head = p.add_leaf(root, "head").unwrap();
        let z = p.c_i64(head, 0).unwrap();
        let one = p.c_i64(head, 1).unwrap();
        p.store(head, cond, &[z], one).unwrap();
        let br = p.add_branch(root, "br", cond).unwrap();
        let l = p.add_loop(br, "copy", LoopSpec::new(0, n as i64, 1)).unwrap();
        let h = p.add_leaf(l, "c").unwrap();
        let i = p.idx(h, l).unwrap();
        let v = p.load(h, a, &[i]).unwrap();
        p.store(h, b, &[i], v).unwrap();
        let l2 = p.add_loop(root, "drain", LoopSpec::new(0, n as i64, 1)).unwrap();
        let h2 = p.add_leaf(l2, "d").unwrap();
        let i2 = p.idx(h2, l2).unwrap();
        let v2 = p.load(h2, b, &[i2]).unwrap();
        p.store(h2, out, &[i2], v2).unwrap();
        p.validate().unwrap();
        let (_, stats) = rtelm(&p);
        assert_eq!(stats.rtelm_removed, 0);
    }

    #[test]
    fn refuses_when_m2_has_other_writers() {
        let (mut p, _) = route_through_program();
        // add a second writer to b
        let root = p.root();
        let b = MemId(3);
        let l = p.add_loop(root, "extra", LoopSpec::new(0, 8, 1)).unwrap();
        let h = p.add_leaf(l, "e").unwrap();
        let i = p.idx(h, l).unwrap();
        let c = p.c_f64(h, 9.0).unwrap();
        p.store(h, b, &[i], c).unwrap();
        p.validate().unwrap();
        let (_, stats) = rtelm(&p);
        assert_eq!(stats.rtelm_removed, 0);
    }
}
