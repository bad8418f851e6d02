//! Compiler-managed memory consistency (CMMC), paper §III-A1 and §III-A3.
//!
//! For every data structure, CMMC builds a dependency graph over its access
//! sites (nodes = accessors in program order; solid forward edges =
//! same-activation dependencies; dashed backward edges = loop-carried
//! dependencies), reduces it (transitive reduction on the forward graph,
//! subsumption pruning on the backward graph), and converts each surviving
//! edge into a **token** exchanged between the request/response units of
//! the two accessors:
//!
//! * a forward edge `A -> B` sends a token when the controller
//!   `child_toward(LCA, A)` completes and is consumed before each
//!   activation of `child_toward(LCA, B)` starts (zero initial credits);
//! * a backward edge `B -> A` over loop `L` is a **credit**: initialized to
//!   the multibuffer depth so that `A` may run ahead of `B` by that many
//!   activations of `L` before back-pressuring.

use crate::depgraph::DiGraph;
use sara_ir::affine::access_affine;
use sara_ir::{Access, AccessId, CtrlId, CtrlKind, MemId, MemKind, Program, Schedule};
use serde::{Deserialize, Serialize};

/// Dependency classification of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DepKind {
    Raw,
    War,
    Waw,
}

/// A synchronization edge to realize with a token stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenEdge {
    /// Token source access (its response/completion side pushes).
    pub src: AccessId,
    /// Token destination access (its request side pops).
    pub dst: AccessId,
    /// Controller whose completion triggers the push: `child_toward(lca,
    /// src)`; when equal to the source's own hyperblock the exchange is
    /// per firing.
    pub src_level: CtrlId,
    /// Controller whose activation start pops the token.
    pub dst_level: CtrlId,
    /// Initial credits at the destination (0 for forward edges).
    pub init: u32,
    /// Dependency kind.
    pub dep: DepKind,
    /// For backward edges: the loop carrying the dependency.
    pub lcd_loop: Option<CtrlId>,
}

/// Reduction statistics (how much synchronization the analysis removed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CmmcStats {
    pub forward_before: usize,
    pub forward_after: usize,
    pub backward_before: usize,
    pub backward_after: usize,
}

impl CmmcStats {
    /// Total edges before reduction.
    pub fn before(&self) -> usize {
        self.forward_before + self.backward_before
    }

    /// Total edges after reduction.
    pub fn after(&self) -> usize {
        self.forward_after + self.backward_after
    }
}

/// Options controlling CMMC synthesis (ablation knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CmmcOptions {
    /// Apply transitive reduction + LCD subsumption (paper §III-A3). When
    /// off, every dependency edge gets its own token (the naive scheme).
    pub reduce: bool,
    /// Relax backward credits to the multibuffer depth when the enclosing
    /// schedule is pipelined and the address analysis allows it. When off,
    /// all credits are 1 (sequential-consistent hierarchical execution).
    pub relax_credits: bool,
    /// Multibuffer depth granted when relaxation applies (classic double
    /// buffering = 2).
    pub multibuffer: u32,
}

impl Default for CmmcOptions {
    fn default() -> Self {
        CmmcOptions { reduce: true, relax_credits: true, multibuffer: 2 }
    }
}

/// The synthesized synchronization plan for a whole program.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CmmcPlan {
    /// Token edges to materialize, across all memories.
    pub edges: Vec<TokenEdge>,
    /// Per-memory multibuffering chosen by credit relaxation:
    /// `(memory, buffer-switch loop, depth)`. The loop is the LCD loop
    /// whose activations delimit buffer epochs.
    pub multibuffer: Vec<(MemId, CtrlId, u32)>,
    /// Aggregate reduction statistics.
    pub stats: CmmcStats,
}

impl CmmcPlan {
    /// Multibuffer depth and epoch loop chosen for a memory, if any.
    pub fn multibuffer_of(&self, mem: MemId) -> Option<(CtrlId, u32)> {
        self.multibuffer.iter().find(|(m, _, d)| *m == mem && *d > 1).map(|(_, l, d)| (*l, *d))
    }
}

/// One backward (loop-carried) dependency before reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BackEdge {
    /// Index of the later accessor (source of the backward edge).
    from: usize,
    /// Index of the earlier accessor.
    to: usize,
    lcd_loop: CtrlId,
    dep: DepKind,
}

/// Synthesize the CMMC plan for a validated program.
pub fn synthesize(p: &Program, opts: &CmmcOptions) -> CmmcPlan {
    let mut plan = CmmcPlan::default();
    for mem_idx in 0..p.mems.len() {
        let mem = MemId(mem_idx as u32);
        synthesize_mem(p, mem, opts, &mut plan);
    }
    plan
}

/// Innermost iterative controller that is a common ancestor of both
/// accesses (if any).
fn common_loop(p: &Program, a: CtrlId, b: CtrlId) -> Option<CtrlId> {
    let lca = p.lca(a, b);
    p.ancestors(lca).into_iter().find(|c| p.ctrl(*c).is_iterative())
}

/// Whether two hyperblocks are mutually exclusive (their LCA is a branch
/// and they live in different arms).
fn mutually_exclusive(p: &Program, a: CtrlId, b: CtrlId) -> bool {
    let lca = p.lca(a, b);
    matches!(p.ctrl(lca).kind, CtrlKind::Branch { .. }) && a != lca && b != lca
}

fn dep_kind(a_write: bool, b_write: bool) -> Option<DepKind> {
    match (a_write, b_write) {
        (true, true) => Some(DepKind::Waw),
        (true, false) => Some(DepKind::Raw),
        (false, true) => Some(DepKind::War),
        // Reads need no token: the Plasticine PMU serves one read stream
        // at a time, and the simulated VMU models that with its single
        // read port.
        (false, false) => None,
    }
}

fn synthesize_mem(p: &Program, mem: MemId, opts: &CmmcOptions, plan: &mut CmmcPlan) {
    let accs: Vec<Access> = p.accesses_of(mem);
    if accs.len() < 2 {
        return;
    }
    let kind = p.mem(mem).kind;
    // FIFOs are inherently ordered streams: producers/consumers pair
    // elementwise, and the lowering maps them to input buffers; ordering
    // tokens would deadlock genuinely streaming producers/consumers.
    if kind == MemKind::Fifo {
        return;
    }

    let n = accs.len();
    let mut fwd = DiGraph::new(n);
    let mut back: Vec<BackEdge> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = (&accs[i], &accs[j]);
            let Some(dep) = dep_kind(a.is_write, b.is_write) else { continue };
            // Mutually exclusive accesses (different branch arms, Fig 5b)
            // cannot conflict within one iteration, but their streams
            // still need cross-iteration ordering: the forward token is
            // kept and released *vacuously* by skipped activations (the
            // Fig 4 mechanism, "tokens are immediately released to the
            // downstream consumer"). The sequential baseline thus remains
            // safe while skipped arms add no delay.
            let _excl = mutually_exclusive(p, a.id.hb, b.id.hb);
            fwd.add_edge(i, j);
            if let Some(l) = common_loop(p, a.id.hb, b.id.hb) {
                // The backward edge carries the reversed hazard: if the
                // forward dependency is RAW (write then read), the
                // loop-carried one is WAR (the next write must wait for
                // this read), and vice versa. WAW stays symmetric.
                let back_dep = match dep {
                    DepKind::Raw => DepKind::War,
                    DepKind::War => DepKind::Raw,
                    DepKind::Waw => DepKind::Waw,
                };
                back.push(BackEdge { from: j, to: i, lcd_loop: l, dep: back_dep });
            }
        }
    }

    plan.stats.forward_before += fwd.edge_count();
    plan.stats.backward_before += back.len();

    // ---- reduction (§III-A3b) ----
    // An access under a branch arm releases its tokens *vacuously* on
    // skipped activations, before its upstream dependencies complete — a
    // token chain through it enforces nothing that iteration. Only
    // unconditional accesses may relay ordering for a removed edge
    // (found by differential fuzzing: then-arm → else-arm → reader
    // chains let the reader run before the then-arm's writes landed).
    let relay: Vec<bool> = accs
        .iter()
        .map(|a| {
            !p.ancestors(a.id.hb)
                .into_iter()
                .any(|c| matches!(p.ctrl(c).kind, CtrlKind::Branch { .. }))
        })
        .collect();
    let fwd_red = if opts.reduce { fwd.transitive_reduction_relaying(&relay) } else { fwd.clone() };
    let back_red: Vec<BackEdge> =
        if opts.reduce { reduce_backward(&fwd, &back, &relay) } else { back.clone() };

    plan.stats.forward_after += fwd_red.edge_count();
    plan.stats.backward_after += back_red.len();

    // ---- credits ----
    // Loop-carried *flow* (a backward RAW edge: some read observes the
    // previous iteration's writes) rules out multibuffering entirely — a
    // buffer switch would hand readers a stale copy. Accumulator tensors
    // (weights, running sums) hit this; producer/consumer tiles do not.
    let has_lcd_flow =
        back_red.iter().any(|b| b.dep == DepKind::Raw && accs[b.from].id.hb != accs[b.to].id.hb);
    let mut mem_multibuffer: Option<(CtrlId, u32)> = None;
    let mut edges: Vec<TokenEdge> = Vec::new();
    for (i, j) in fwd_red.edges() {
        let (a, b) = (&accs[i], &accs[j]);
        // Reduction only removes edges, so every survivor has a kind.
        let Some(dep) = dep_kind(a.is_write, b.is_write) else { continue };
        let lca = p.lca(a.id.hb, b.id.hb);
        edges.push(TokenEdge {
            src: a.id,
            dst: b.id,
            src_level: p.child_toward(lca, a.id.hb),
            dst_level: p.child_toward(lca, b.id.hb),
            init: 0,
            dep,
            lcd_loop: None,
        });
    }
    for be in &back_red {
        let (a, b) = (&accs[be.from], &accs[be.to]);
        let l = be.lcd_loop;
        // Cross-hyperblock credits above 1 require real multibuffering in
        // the backing VMU; a VMU supports one buffer-switch dimension, so
        // only the first relaxed loop gets depth > 1 and later edges over
        // *different* loops fall back to credit 1.
        // Multibuffering switches buffers at activation boundaries of the
        // LCD loop's children; an accessor whose hyperblock sits
        // *directly* under the loop would need per-firing epochs, which
        // the buffer-switch protocol cannot express — force credit 1.
        let leaf_epoch = accs
            .iter()
            .filter(|x| p.is_ancestor(l, x.id.hb))
            .any(|x| p.child_toward(l, x.id.hb) == x.id.hb);
        let mut credit = if (has_lcd_flow || leaf_epoch) && a.id.hb != b.id.hb {
            1
        } else {
            credit_for(p, a, b, l, opts)
        };
        if credit > 1 && a.id.hb != b.id.hb {
            match mem_multibuffer {
                None => mem_multibuffer = Some((l, credit)),
                Some((ml, md)) if ml == l => {
                    mem_multibuffer = Some((ml, md.max(credit)));
                }
                Some(_) => credit = 1,
            }
        }
        edges.push(TokenEdge {
            src: a.id,
            dst: b.id,
            src_level: p.child_toward(l, a.id.hb),
            dst_level: p.child_toward(l, b.id.hb),
            init: credit,
            dep: be.dep,
            lcd_loop: Some(l),
        });
    }
    if kind == MemKind::Sram || kind == MemKind::Reg {
        if let Some((l, d)) = mem_multibuffer {
            plan.multibuffer.push((mem, l, d.min(opts.multibuffer.max(1))));
        }
    }
    plan.edges.extend(edges);
}

/// Backward-edge subsumption (paper §III-A3b): a backward edge `a -> b`
/// with `X` initial tokens is removable if an alternative path from `a` to
/// `b` exists that contains exactly one backward edge of the same loop with
/// the same credit — i.e. forward path `a ->* c`, backward edge `c -> d` of
/// the same loop, forward path `d ->* b`.
fn reduce_backward(fwd: &DiGraph, back: &[BackEdge], relay: &[bool]) -> Vec<BackEdge> {
    let mut keep: Vec<bool> = vec![true; back.len()];
    for (ei, e) in back.iter().enumerate() {
        for (oi, o) in back.iter().enumerate() {
            if ei == oi || !keep[oi] {
                continue;
            }
            if o.lcd_loop != e.lcd_loop {
                continue;
            }
            // `o`'s endpoints act as intermediates of the implied chain
            // e.from ->* o.from ~> o.to ->* e.to, so unless they coincide
            // with `e`'s endpoints they must be reliable relays (an access
            // in a skipped branch arm releases its backward token
            // vacuously and enforces nothing).
            let reach_src =
                e.from == o.from || (relay[o.from] && fwd.reaches_via(e.from, o.from, relay));
            let reach_dst = o.to == e.to || (relay[o.to] && fwd.reaches_via(o.to, e.to, relay));
            if reach_src && reach_dst {
                keep[ei] = false;
                break;
            }
        }
    }
    back.iter().zip(&keep).filter(|(_, k)| **k).map(|(e, _)| *e).collect()
}

/// Initial credits for a backward edge over loop `l` (paper §III-A1:
/// "the initial credit often matches the VMU's multibuffer depth").
fn credit_for(p: &Program, a: &Access, b: &Access, l: CtrlId, opts: &CmmcOptions) -> u32 {
    if !opts.relax_credits {
        return 1;
    }
    // Sequential schedules admit no overlap across children.
    if p.ctrl(l).schedule == Schedule::Sequential {
        return 1;
    }
    // Mutually exclusive accessors (different branch arms) exchange data
    // *across* iterations of the branch's parent loop: producer epoch e is
    // consumed at epoch e+1, so same-epoch multibuffering would pair the
    // consumer with the wrong buffer. Keep the credit at 1.
    if mutually_exclusive(p, a.id.hb, b.id.hb) {
        return 1;
    }
    // Same-hyperblock (leaf-LCA) fine-grained exchange: allow deep
    // pipelining when both accesses follow the *same* affine address
    // pattern with nonzero movement per iteration — then the write of
    // firing n+k can never clobber a location an outstanding read has not
    // yet consumed.
    if a.id.hb == b.id.hb {
        let fa = access_affine(p, a.id.hb, a.id.expr);
        let fb = access_affine(p, b.id.hb, b.id.expr);
        let inner = p.loop_ancestors(a.id.hb).first().copied();
        return match (fa, fb, inner) {
            (Some(fa), Some(fb), Some(il)) if fa == fb && fa.coeff(il) != 0 => {
                opts.multibuffer.max(2)
            }
            _ => 1,
        };
    }
    // Cross-hyperblock: relax to the multibuffer depth when the producer's
    // address span analysis succeeds (affine accessors). This mirrors the
    // paper's reliance on Spatial's address analysis for A(R) ⊆ A(W).
    let fa = access_affine(p, a.id.hb, a.id.expr);
    let fb = access_affine(p, b.id.hb, b.id.expr);
    if fa.is_some() && fb.is_some() {
        opts.multibuffer.max(1)
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sara_ir::{BinOp, DType, Elem, LoopSpec, MemInit};

    /// Build the paper's Fig 2a-like program:
    /// A { B { C: w m1; D: r m1, w m2; E: r m2, w m3 }, F: r m3 w m4, G: r m4 }
    fn fig2_like() -> (Program, Vec<MemId>) {
        let mut p = Program::new("fig2");
        let root = p.root();
        let m1 = p.sram("m1", &[16], DType::F64);
        let m2 = p.sram("m2", &[16], DType::F64);
        let m3 = p.sram("m3", &[16], DType::F64);
        let m4 = p.sram("m4", &[16], DType::F64);
        let a = p.add_loop(root, "A", LoopSpec::new(0, 4, 1)).unwrap();
        let b = p.add_loop(a, "B", LoopSpec::new(0, 2, 1)).unwrap();
        let c = p.add_loop(b, "C", LoopSpec::new(0, 8, 1)).unwrap();
        let chb = p.add_leaf(c, "c").unwrap();
        let ci = p.idx(chb, c).unwrap();
        let cv = p.c_f64(chb, 1.0).unwrap();
        p.store(chb, m1, &[ci], cv).unwrap();
        let d = p.add_loop(b, "D", LoopSpec::new(0, 8, 1)).unwrap();
        let dhb = p.add_leaf(d, "d").unwrap();
        let di = p.idx(dhb, d).unwrap();
        let dv = p.load(dhb, m1, &[di]).unwrap();
        p.store(dhb, m2, &[di], dv).unwrap();
        let e = p.add_loop(b, "E", LoopSpec::new(0, 8, 1)).unwrap();
        let ehb = p.add_leaf(e, "e").unwrap();
        let ei = p.idx(ehb, e).unwrap();
        let ev = p.load(ehb, m2, &[ei]).unwrap();
        p.store(ehb, m3, &[ei], ev).unwrap();
        let f = p.add_loop(a, "F", LoopSpec::new(0, 8, 1)).unwrap();
        let fhb = p.add_leaf(f, "f").unwrap();
        let fi = p.idx(fhb, f).unwrap();
        let fv = p.load(fhb, m3, &[fi]).unwrap();
        p.store(fhb, m4, &[fi], fv).unwrap();
        let g = p.add_loop(a, "G", LoopSpec::new(0, 8, 1)).unwrap();
        let ghb = p.add_leaf(g, "g").unwrap();
        let gi = p.idx(ghb, g).unwrap();
        let gv = p.load(ghb, m4, &[gi]).unwrap();
        let acc = p.reduce(ghb, BinOp::Add, gv, Elem::F64(0.0), g).unwrap();
        let last = p.is_last(ghb, g).unwrap();
        let out = p.dram("out", &[1], DType::F64, MemInit::Zero);
        let z = p.c_i64(ghb, 0).unwrap();
        p.store_if(ghb, out, &[z], acc, last).unwrap();
        p.validate().unwrap();
        (p, vec![m1, m2, m3, m4])
    }

    #[test]
    fn fig2_tokens_per_memory() {
        let (p, mems) = fig2_like();
        let plan = synthesize(&p, &CmmcOptions::default());
        for m in &mems {
            let fwd: Vec<_> = plan
                .edges
                .iter()
                .filter(|e| e.init == 0 && p.accesses_of(*m).iter().any(|a| a.id == e.src))
                .collect();
            // each intermediate memory has exactly one forward (RAW) edge
            assert_eq!(fwd.len(), 1, "mem {m}");
            let bwd: Vec<_> = plan
                .edges
                .iter()
                .filter(|e| e.lcd_loop.is_some() && p.accesses_of(*m).iter().any(|a| a.id == e.src))
                .collect();
            // and exactly one backward WAR credit edge
            assert_eq!(bwd.len(), 1, "mem {m}");
            assert!(bwd[0].init >= 1);
        }
    }

    #[test]
    fn fig2_m4_levels_are_children_of_lca() {
        let (p, mems) = fig2_like();
        let plan = synthesize(&p, &CmmcOptions::default());
        let m4 = mems[3];
        let accs = p.accesses_of(m4);
        let w = accs.iter().find(|a| a.is_write).unwrap();
        let r = accs.iter().find(|a| !a.is_write).unwrap();
        let fwd = plan
            .edges
            .iter()
            .find(|e| e.src == w.id && e.dst == r.id && e.init == 0)
            .expect("W->R token");
        // LCA of F and G is loop A; the push/pop levels are loops F and G.
        let f_loop = p.ctrl(w.id.hb).parent.unwrap();
        let g_loop = p.ctrl(r.id.hb).parent.unwrap();
        assert_eq!(fwd.src_level, f_loop);
        assert_eq!(fwd.dst_level, g_loop);
    }

    /// Fig 5c/d/e: three accessors W1, R1, W2 on one memory inside a loop.
    /// Forward: W1->R1, R1->W2 (W1->W2 removed by TR). Backward edges
    /// reduced to a single cycle-closing credit.
    #[test]
    fn fig5_reduction() {
        let mut p = Program::new("fig5");
        let root = p.root();
        let m = p.sram("m", &[8], DType::F64);
        let a = p.add_loop(root, "A", LoopSpec::new(0, 4, 1)).unwrap();
        for (i, name) in ["w1", "r1", "w2"].iter().enumerate() {
            let l = p.add_loop(a, name, LoopSpec::new(0, 8, 1)).unwrap();
            let hb = p.add_leaf(l, name).unwrap();
            let ix = p.idx(hb, l).unwrap();
            if i == 1 {
                p.load(hb, m, &[ix]).unwrap();
            } else {
                let v = p.c_f64(hb, 1.0).unwrap();
                p.store(hb, m, &[ix], v).unwrap();
            }
        }
        p.validate().unwrap();

        let raw = synthesize(&p, &CmmcOptions { reduce: false, ..CmmcOptions::default() });
        let red = synthesize(&p, &CmmcOptions::default());
        // Before: forward W1->R1, W1->W2, R1->W2 (3); backward R1->W1,
        // W2->W1, W2->R1 (3).
        assert_eq!(raw.stats.forward_before, 3);
        assert_eq!(raw.stats.backward_before, 3);
        assert_eq!(raw.stats.forward_after, 3);
        // After TR: W1->W2 pruned. After LCD subsumption: only one
        // backward edge survives.
        assert_eq!(red.stats.forward_after, 2);
        assert_eq!(red.stats.backward_after, 1);
        assert!(red.stats.after() < raw.stats.after());
    }

    /// Fig 5a/b: W0,R0 under `then`, W1,R1 under `else` of a branch inside
    /// a loop. Cross-arm accesses must have no forward edges (mutually
    /// exclusive) but keep LCDs.
    #[test]
    fn branch_mutual_exclusion() {
        let mut p = Program::new("fig5ab");
        let root = p.root();
        let m = p.sram("m", &[8], DType::F64);
        let cond = p.reg("c", DType::I64);
        let a = p.add_loop(root, "A", LoopSpec::new(0, 4, 1)).unwrap();
        let chb = p.add_leaf(a, "cond").unwrap();
        let i = p.idx(chb, a).unwrap();
        let two = p.c_i64(chb, 2).unwrap();
        let r = p.bin(chb, BinOp::Mod, i, two).unwrap();
        let z = p.c_i64(chb, 0).unwrap();
        let even = p.bin(chb, BinOp::Eq, r, z).unwrap();
        p.store(chb, cond, &[z], even).unwrap();
        let br = p.add_branch(a, "br", cond).unwrap();
        let t = p.add_leaf(br, "then").unwrap();
        let ti = p.c_i64(t, 0).unwrap();
        let tv = p.c_f64(t, 1.0).unwrap();
        p.store(t, m, &[ti], tv).unwrap(); // W0
        let e = p.add_leaf(br, "else").unwrap();
        let ei = p.c_i64(e, 0).unwrap();
        p.load(e, m, &[ei]).unwrap(); // R1
        p.validate().unwrap();

        let plan = synthesize(&p, &CmmcOptions::default());
        let m_edges: Vec<_> = plan
            .edges
            .iter()
            .filter(|ed| p.accesses_of(m).iter().any(|ac| ac.id == ed.src || ac.id == ed.dst))
            .collect();
        // one forward token (released vacuously by skipped arms) plus one
        // LCD backward credit over loop A
        assert_eq!(m_edges.len(), 2);
        let fwd = m_edges.iter().find(|e| e.lcd_loop.is_none()).expect("forward edge");
        assert_eq!(fwd.init, 0);
        let bwd = m_edges.iter().find(|e| e.lcd_loop.is_some()).expect("backward edge");
        assert_eq!(bwd.lcd_loop, Some(a));
    }

    #[test]
    fn no_relax_forces_unit_credits() {
        let (p, _) = fig2_like();
        let plan = synthesize(&p, &CmmcOptions { relax_credits: false, ..CmmcOptions::default() });
        assert!(plan.edges.iter().filter(|e| e.lcd_loop.is_some()).all(|e| e.init == 1));
    }

    #[test]
    fn sequential_schedule_forces_unit_credits() {
        let (mut p, _) = fig2_like();
        // Make every controller sequential.
        for i in 0..p.ctrls.len() {
            p.set_schedule(CtrlId(i as u32), Schedule::Sequential);
        }
        let plan = synthesize(&p, &CmmcOptions::default());
        assert!(plan.edges.iter().filter(|e| e.lcd_loop.is_some()).all(|e| e.init == 1));
    }

    #[test]
    fn single_accessor_memories_need_no_tokens() {
        let mut p = Program::new("single");
        let root = p.root();
        let m = p.sram("m", &[8], DType::F64);
        let l = p.add_loop(root, "l", LoopSpec::new(0, 8, 1)).unwrap();
        let hb = p.add_leaf(l, "b").unwrap();
        let i = p.idx(hb, l).unwrap();
        let v = p.c_f64(hb, 1.0).unwrap();
        p.store(hb, m, &[i], v).unwrap();
        p.validate().unwrap();
        let plan = synthesize(&p, &CmmcOptions::default());
        assert!(plan.edges.is_empty());
    }

    use sara_ir::CtrlId;
}
