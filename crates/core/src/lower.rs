//! Imperative → dataflow lowering (paper §III-A).
//!
//! Converts a validated [`Program`] into a [`Vudfg`]:
//!
//! * one **main VCU** per hyperblock per unrolled lane, carrying the
//!   hyperblock's datapath and the counter chain of its enclosing loops
//!   (spatially unrolled cyclically; innermost loops vectorize onto SIMD
//!   lanes);
//! * one **request VCU** per memory-access site per lane (the backward
//!   slice of the address and predicate expressions), so that round-trip
//!   latency between compute and memory never stalls the main datapath;
//! * one **response VCU** per access site that sources CMMC tokens,
//!   counting completion events (write acks / read responses);
//! * one **VMU** per bank per private copy of each on-chip memory, with
//!   point-to-point wiring when the bank address statically resolves and
//!   distribute/collect crossbar units otherwise (paper Fig 8);
//! * **AG units** for DRAM access streams;
//! * **token streams** realizing the CMMC plan, with sync units
//!   aggregating lanes after unrolling;
//! * **combine VCUs** implementing cross-lane reduction trees when a
//!   reduction loop is spatially unrolled.
//!
//! Each wiring step is one `Builder` method: `send` connects a stream and
//! emits a value on it, `stream_in` reads a broadcast stream as a node,
//! `request_vcu` builds an access's request unit, `wire_access` routes
//! its streams to an AG ([`Builder::wire_ag`]) or to VMU banks, and
//! `token_stream` connects one CMMC token stream.

use crate::cmmc::{self, CmmcOptions, CmmcPlan, TokenEdge};
use crate::error::CompileError;
use crate::mempart::{self, BankFn, BankRoute, BankingPlan, UnrollInfo};
use crate::vudfg::{
    AgDir, AgUnit, CBound, DfgNode, DramTensor, Level, NodeOp, StreamKind, SyncUnit, TokenRule,
    UnitId, UnitKind, Vcu, VcuRole, Vmu, VmuReadPort, VmuWritePort, Vudfg, XbarColl, XbarDist,
};
use plasticine_arch::ChipSpec;
use sara_ir::affine::access_affine;
use sara_ir::{
    AccessId, BinOp, Bound, CtrlId, CtrlKind, Elem, Expr, ExprId, Hyperblock, MemId, MemKind,
    Program,
};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Options for the lowering phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerOptions {
    /// CMMC synthesis options.
    pub cmmc: CmmcOptions,
    /// Enable the memory partitioner (banking + privatization). The
    /// vanilla Plasticine compiler baseline disables it.
    pub banking: bool,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions { cmmc: CmmcOptions::default(), banking: true }
    }
}

/// A lane assignment: for each unrolled ancestor loop (outermost first),
/// which spatial lane this unit instance occupies.
pub type LaneKey = Vec<u32>;

/// The lowering result.
#[derive(Debug, Clone)]
pub struct Lowered {
    pub vudfg: Vudfg,
    pub cmmc: CmmcPlan,
}

/// Lower a validated program for a chip.
///
/// # Errors
///
/// Fails when the program violates lowering restrictions: control
/// registers with multiple writers, reductions over unrolled loops that do
/// not match the `store-if-last` pattern, or memories too large for the
/// chip.
pub fn lower(p: &Program, chip: &ChipSpec, opts: &LowerOptions) -> Result<Lowered, CompileError> {
    p.validate()?;
    check_fifo_streams(p)?;
    let unroll = mempart::unroll_info(p, chip.pcu.lanes);
    let plan = cmmc::synthesize(p, &opts.cmmc);
    let banking = mempart::plan_banking(p, chip, &unroll, opts.banking)?;
    Builder::new(p, chip, unroll, plan, banking)?.run()
}

/// FIFOs lower to a single producer stream wired point-to-point into a
/// single consumer. More than one writer (or reader) hyperblock, or a
/// FIFO access inside a spatially unrolled loop, would need an order
/// arbiter the fabric does not model — found by differential fuzzing,
/// where the second writer silently overwrote the first in
/// `fifo_writers` and starved the consumer into a deadlock.
fn check_fifo_streams(p: &Program) -> Result<(), CompileError> {
    for (mi, m) in p.mems.iter().enumerate() {
        if m.kind != MemKind::Fifo {
            continue;
        }
        let mem = MemId(mi as u32);
        let accs = p.accesses_of(mem);
        let writers: HashSet<CtrlId> =
            accs.iter().filter(|a| a.is_write).map(|a| a.id.hb).collect();
        let readers: HashSet<CtrlId> =
            accs.iter().filter(|a| !a.is_write).map(|a| a.id.hb).collect();
        if writers.len() > 1 {
            return Err(CompileError::Unpartitionable(format!(
                "fifo {mem} has {} writer hyperblocks; spatial lowering supports one producer stream",
                writers.len()
            )));
        }
        if readers.len() > 1 {
            return Err(CompileError::Unpartitionable(format!(
                "fifo {mem} has {} reader hyperblocks; spatial lowering supports one consumer stream",
                readers.len()
            )));
        }
        for a in &accs {
            let unrolled = p
                .ancestors(a.id.hb)
                .into_iter()
                .any(|c| p.ctrl(c).loop_spec().is_some_and(|s| s.par > 1));
            if unrolled {
                return Err(CompileError::Unpartitionable(format!(
                    "fifo {mem} accessed inside a parallelized loop; lane order is undefined"
                )));
            }
        }
    }
    Ok(())
}

/// Per-level spec before port wiring.
#[derive(Debug, Clone)]
enum LSpec {
    Ctr { ctrl: CtrlId, min: Bound, max: Bound, step: i64, unroll: u32, vec: u32 },
    Gate { ctrl: CtrlId, cond: MemId, expect: bool },
    Whl { ctrl: CtrlId, cond: MemId },
}

impl LSpec {
    fn ctrl(&self) -> CtrlId {
        match self {
            LSpec::Ctr { ctrl, .. } | LSpec::Gate { ctrl, .. } | LSpec::Whl { ctrl, .. } => *ctrl,
        }
    }
}

/// A pending control-stream wire: `unit` needs the value of control
/// register `mem` at level `level_idx` in `role`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendRole {
    CtrMin,
    CtrMax,
    GateCond,
    WhlCond,
}

#[derive(Debug, Clone)]
struct Pending {
    unit: UnitId,
    level_idx: usize,
    mem: MemId,
    role: PendRole,
    /// Lane binding of the consuming unit (to project the writer's lane).
    binding: BTreeMap<CtrlId, u32>,
}

/// Where a unit instance sits: its lane, the lane each enclosing
/// unrolled loop is bound to, and the specs of its level chain.
#[derive(Debug, Clone)]
struct Site {
    lane: LaneKey,
    binding: BTreeMap<CtrlId, u32>,
    specs: Vec<LSpec>,
}

/// A value computed at `node` of VCU `unit`, kept only where `cond`
/// holds when given.
#[derive(Debug, Clone, Copy)]
struct Val {
    unit: UnitId,
    node: usize,
    cond: Option<usize>,
}

/// A cross-lane reduction: the combine VCU at `site` (the loops above
/// the reduction loop) that tree-combines the partials arriving on
/// `partial_ports` with `op`, then performs the store `access`.
#[derive(Debug)]
struct CombineBuild {
    access: AccessId,
    unit: UnitId,
    partial_ports: Vec<usize>,
    op: BinOp,
    site: Site,
}

struct Builder<'a> {
    p: &'a Program,
    chip: &'a ChipSpec,
    unroll: HashMap<CtrlId, UnrollInfo>,
    plan: CmmcPlan,
    banking: BankingPlan,
    g: Vudfg,
    /// Control registers (used as bounds/conditions) -> single writer site.
    ctrl_writers: HashMap<MemId, AccessId>,
    /// Value of each control-register store by `(mem, writer lane)`, with
    /// its broadcast out-port once made.
    ctrl_value: HashMap<(MemId, LaneKey), (Val, Option<usize>)>,
    request: HashMap<(AccessId, LaneKey), UnitId>,
    response: HashMap<(AccessId, LaneKey), UnitId>,
    access_lanes: HashMap<AccessId, Vec<LaneKey>>,
    vmu: HashMap<(MemId, LaneKey, u32), UnitId>,
    /// Data-producing `(unit, out_port)` of each load access (for
    /// broadcast to main VCUs, address slices and response units).
    data_srcs: HashMap<(AccessId, LaneKey), (UnitId, usize)>,
    fifo_writers: HashMap<MemId, Val>,
    /// Broadcast out-port of each fifo writer's value.
    fifo_ports: HashMap<MemId, usize>,
    /// Cross-lane reductions, in the order they were created.
    combines: Vec<CombineBuild>,
    pendings: Vec<Pending>,
    token_srcs: HashSet<AccessId>,
    dram_base: HashMap<MemId, u64>,
}

impl<'a> Builder<'a> {
    fn new(
        p: &'a Program,
        chip: &'a ChipSpec,
        unroll: HashMap<CtrlId, UnrollInfo>,
        plan: CmmcPlan,
        banking: BankingPlan,
    ) -> Result<Self, CompileError> {
        // Control registers must have exactly one writer.
        let mut ctrl_writers = HashMap::new();
        for ci in 0..p.ctrls.len() {
            for m in p.control_inputs(CtrlId(ci as u32)) {
                let writers: Vec<_> = p.accesses_of(m).into_iter().filter(|a| a.is_write).collect();
                if writers.len() != 1 {
                    return Err(CompileError::ControlRegWriters { mem: m, writers: writers.len() });
                }
                ctrl_writers.insert(m, writers[0].id);
            }
        }
        let token_srcs: HashSet<AccessId> = plan.edges.iter().map(|e| e.src).collect();
        let mut g = Vudfg::new(&p.name);
        // Assign DRAM bases, 4 KiB aligned.
        let mut dram_base = HashMap::new();
        let mut base = 0u64;
        for (i, m) in p.mems.iter().enumerate() {
            if m.kind == MemKind::Dram {
                let id = MemId(i as u32);
                dram_base.insert(id, base);
                g.drams.push(DramTensor {
                    mem: id,
                    base,
                    words: m.size(),
                    init: m.init.materialize(m.size(), m.dtype),
                });
                base += (m.size() as u64 * 4).div_ceil(4096) * 4096;
            }
        }
        Ok(Builder {
            p,
            chip,
            unroll,
            plan,
            banking,
            g,
            ctrl_writers,
            ctrl_value: HashMap::new(),
            request: HashMap::new(),
            response: HashMap::new(),
            access_lanes: HashMap::new(),
            vmu: HashMap::new(),
            data_srcs: HashMap::new(),
            fifo_writers: HashMap::new(),
            fifo_ports: HashMap::new(),
            combines: Vec::new(),
            pendings: Vec::new(),
            token_srcs,
            dram_base,
        })
    }

    fn run(mut self) -> Result<Lowered, CompileError> {
        for hb in self.p.leaves() {
            for lane in self.lane_combos(hb) {
                self.build_hb(hb, &lane)?;
            }
        }
        self.finalize_combines()?;
        self.resolve_pendings()?;
        self.wire_tokens()?;
        self.finalize_vmus();
        Ok(Lowered { vudfg: self.g, cmmc: self.plan })
    }

    // ---------------------------------------------------------------- lanes

    /// Unrolled iterative ancestors of a controller, outermost first, with
    /// their factors.
    fn unrolled_loops(&self, c: CtrlId) -> Vec<(CtrlId, u32)> {
        let mut v: Vec<(CtrlId, u32)> = self
            .p
            .ancestors(c)
            .into_iter()
            .filter_map(|a| {
                let u = self.unroll.get(&a).copied().unwrap_or(UnrollInfo::ONE);
                (u.unroll > 1).then_some((a, u.unroll))
            })
            .collect();
        v.reverse();
        v
    }

    fn lane_combos(&self, hb: CtrlId) -> Vec<LaneKey> {
        cartesian(self.unrolled_loops(hb).iter().map(|&(_, f)| (0..f).collect()))
    }

    fn binding_of(&self, hb: CtrlId, lane: &LaneKey) -> BTreeMap<CtrlId, u32> {
        self.unrolled_loops(hb).iter().zip(lane).map(|((c, _), u)| (*c, *u)).collect()
    }

    /// Project a binding onto the unrolled-loop list of another controller.
    fn project_lane(
        &self,
        target: CtrlId,
        binding: &BTreeMap<CtrlId, u32>,
    ) -> Result<LaneKey, CompileError> {
        self.unrolled_loops(target)
            .iter()
            .map(|(c, _)| {
                binding.get(c).copied().ok_or_else(|| {
                    CompileError::Internal(format!(
                        "cannot project lane: {target} unrolled over {c} outside consumer scope"
                    ))
                })
            })
            .collect()
    }

    // --------------------------------------------------------------- levels

    fn level_specs(&self, hb: CtrlId) -> Vec<LSpec> {
        let mut specs = Vec::new();
        let mut path = self.p.ancestors(hb);
        path.reverse(); // root .. hb
        for (i, c) in path.iter().enumerate() {
            match &self.p.ctrl(*c).kind {
                CtrlKind::Loop(spec) => {
                    let u = self.unroll.get(c).copied().unwrap_or(UnrollInfo::ONE);
                    specs.push(LSpec::Ctr {
                        ctrl: *c,
                        min: spec.min,
                        max: spec.max,
                        step: spec.step,
                        unroll: u.unroll,
                        vec: u.vec,
                    });
                }
                CtrlKind::Branch { cond } => {
                    // which arm contains hb?
                    let arm = path[i + 1];
                    let expect = self.p.ctrl(*c).children[0] == arm;
                    specs.push(LSpec::Gate { ctrl: *c, cond: *cond, expect });
                }
                CtrlKind::DoWhile { cond, .. } => {
                    specs.push(LSpec::Whl { ctrl: *c, cond: *cond });
                }
                CtrlKind::Root | CtrlKind::Leaf(_) => {}
            }
        }
        specs
    }

    /// Create a VCU unit with instantiated levels. Dynamic bounds and
    /// conditions become pending wires resolved at the end of lowering.
    fn new_vcu(&mut self, label: String, site: &Site, role: VcuRole) -> UnitId {
        // SIMD width: the innermost counter's vectorization.
        let width = match site.specs.last() {
            Some(LSpec::Ctr { vec, .. }) => *vec,
            _ => 1,
        };
        let mut levels = Vec::with_capacity(site.specs.len());
        let unit = self.g.add_unit(
            label,
            UnitKind::Vcu(Vcu {
                levels: Vec::new(),
                dfg: Vec::new(),
                width,
                role,
                token_pops: Vec::new(),
                token_pushes: Vec::new(),
                producer_gate_mask: Vec::new(),
                epoch_emit: None,
            }),
        );
        let pend = |level_idx: usize, mem: MemId, role: PendRole| Pending {
            unit,
            level_idx,
            mem,
            role,
            binding: site.binding.clone(),
        };
        for (li, s) in site.specs.iter().enumerate() {
            match s {
                LSpec::Ctr { ctrl, min, max, step, unroll, vec } => {
                    let u = site.binding.get(ctrl).copied().unwrap_or(0);
                    // Blocked lane distribution when bounds are static and
                    // the step positive (keeps per-lane DRAM streams
                    // contiguous and coalescable); cyclic otherwise.
                    if let (Bound::Const(lo), Bound::Const(hi), true) =
                        (*min, *max, *unroll > 1 && *step > 0)
                    {
                        let trip = ((hi - lo).max(0) + step - 1) / step;
                        let chunk = (trip + *unroll as i64 - 1) / *unroll as i64;
                        let min_u = lo + u as i64 * chunk * step;
                        let max_u = hi.min(lo + (u as i64 + 1) * chunk * step);
                        levels.push(Level::Counter {
                            min: CBound::Const(min_u),
                            max: CBound::Const(max_u.max(min_u)),
                            step: *step * (*vec as i64),
                            lane_offset: 0,
                            lane_stride: *step,
                            ctrl: *ctrl,
                        });
                        continue;
                    }
                    let mut bound = |b: &Bound, role| match b {
                        Bound::Const(v) => CBound::Const(*v),
                        Bound::Reg(m) => {
                            self.pendings.push(pend(li, *m, role));
                            CBound::Port(usize::MAX)
                        }
                    };
                    levels.push(Level::Counter {
                        min: bound(min, PendRole::CtrMin),
                        max: bound(max, PendRole::CtrMax),
                        step: *step * (*unroll as i64) * (*vec as i64),
                        lane_offset: u as i64 * (*vec as i64) * *step,
                        lane_stride: *step,
                        ctrl: *ctrl,
                    });
                }
                LSpec::Gate { ctrl, cond, expect } => {
                    self.pendings.push(pend(li, *cond, PendRole::GateCond));
                    levels.push(Level::Gate { cond_in: usize::MAX, expect: *expect, ctrl: *ctrl });
                }
                LSpec::Whl { ctrl, cond } => {
                    self.pendings.push(pend(li, *cond, PendRole::WhlCond));
                    levels.push(Level::While { cond_in: usize::MAX, ctrl: *ctrl });
                }
            }
        }
        self.vcu_mut(unit).levels = levels;
        unit
    }

    fn vcu_mut(&mut self, u: UnitId) -> &mut Vcu {
        self.g.unit_mut(u).as_vcu_mut().expect("vcu unit")
    }

    fn vmu_mut(&mut self, u: UnitId) -> &mut Vmu {
        match &mut self.g.unit_mut(u).kind {
            UnitKind::Vmu(v) => v,
            _ => panic!("vmu unit"),
        }
    }

    fn push_node(&mut self, u: UnitId, op: NodeOp, ins: Vec<usize>) -> usize {
        let v = self.vcu_mut(u);
        v.dfg.push(DfgNode { op, ins });
        v.dfg.len() - 1
    }

    /// Record the producer-gate mask of input port `in_port` of `unit`
    /// given the producer's hyperblock.
    fn note_gate_mask(&mut self, unit: UnitId, in_port: usize, producer_hb: CtrlId) {
        let p = self.p;
        let v = self.vcu_mut(unit);
        let mut mask = 0u64;
        for (i, l) in v.levels.iter().enumerate() {
            if let Level::Gate { ctrl, .. } = l {
                if p.is_ancestor(*ctrl, producer_hb) && i < 64 {
                    mask |= 1 << i;
                }
            }
        }
        if v.producer_gate_mask.len() <= in_port {
            v.producer_gate_mask.resize(in_port + 1, 0);
        }
        v.producer_gate_mask[in_port] = mask;
    }

    /// Translate the pure expression `e` into a node of `unit`, with
    /// `node` giving the node of each operand.
    fn push_pure(
        &mut self,
        unit: UnitId,
        e: &Expr,
        node: impl Fn(ExprId) -> usize,
    ) -> Result<usize, CompileError> {
        let (op, ins) = match e {
            Expr::Const(v) => (NodeOp::Const(*v), vec![]),
            Expr::Idx(c) => (NodeOp::CounterIdx { level: self.level_of(unit, *c)? }, vec![]),
            Expr::IsFirst(c) => (NodeOp::IsFirst { level: self.level_of(unit, *c)? }, vec![]),
            Expr::IsLast(c) => (NodeOp::IsLast { level: self.level_of(unit, *c)? }, vec![]),
            Expr::Un(op, a) => (NodeOp::Un(*op), vec![node(*a)]),
            Expr::Bin(op, a, b) => (NodeOp::Bin(*op), vec![node(*a), node(*b)]),
            Expr::Mux { c, t, f } => (NodeOp::Mux, vec![node(*c), node(*t), node(*f)]),
            Expr::Load { .. } | Expr::Store { .. } | Expr::Reduce { .. } => {
                return Err(CompileError::Internal(format!("{e:?} is not a pure expression")))
            }
        };
        Ok(self.push_node(unit, op, ins))
    }

    // ------------------------------------------------------------- streams

    /// The kind of a lane-wide stream of VCU `unit`: a vector of its SIMD
    /// width, or a scalar.
    fn lane_kind(&mut self, unit: UnitId) -> StreamKind {
        match self.vcu_mut(unit).width {
            w if w > 1 => StreamKind::Vector(w),
            _ => StreamKind::Scalar,
        }
    }

    /// Emit `v` on out-port `port` of its unit each firing, filtered by
    /// `v.cond` when given; `empty_pred` as in [`NodeOp::StreamOut`].
    fn stream_out(&mut self, port: usize, v: Val, empty_pred: bool) -> usize {
        let ins = match v.cond {
            Some(c) => vec![v.node, c],
            None => vec![v.node],
        };
        self.push_node(v.unit, NodeOp::StreamOut { port, pred: v.cond.is_some(), empty_pred }, ins)
    }

    /// Connect `v.unit` to `dst` with a lane-wide stream on a new out-port
    /// and emit `v` on it; returns `(out port, dst input port)`.
    fn send(
        &mut self,
        v: Val,
        dst: UnitId,
        depth: u32,
        label: String,
        empty_pred: bool,
    ) -> (usize, usize) {
        let kind = self.lane_kind(v.unit);
        let (_, out_port, in_port) = self.g.connect(v.unit, dst, kind, depth, label);
        self.stream_out(out_port, v, empty_pred);
        (out_port, in_port)
    }

    /// Send the write stream `v` to `dst` through `port`: the first call
    /// opens the port, later calls broadcast on it. Returns `dst`'s input.
    fn send_shared(
        &mut self,
        port: &mut Option<usize>,
        v: Val,
        dst: UnitId,
        label: String,
    ) -> usize {
        let depth = self.chip.pmu.fifo_depth;
        match *port {
            None => {
                let (out_port, in_port) = self.send(v, dst, depth, label, true);
                *port = Some(out_port);
                in_port
            }
            Some(p) => {
                let kind = self.lane_kind(v.unit);
                self.g.connect_bcast(v.unit, p, dst, kind, depth, label).1
            }
        }
    }

    /// A new out-port of `v.unit` emitting `v`, for consumers to attach to
    /// with `connect_bcast`.
    fn open_port(&mut self, v: Val) -> usize {
        let port = self.ensure_out_port(v.unit);
        self.stream_out(port, v, false);
        port
    }

    /// Broadcast out-port `src` into VCU `unit` with a lane-wide stream
    /// from a producer in hyperblock `hb`, and read it as a node.
    fn stream_in(
        &mut self,
        src: (UnitId, usize),
        unit: UnitId,
        hb: CtrlId,
        label: String,
    ) -> usize {
        let kind = self.lane_kind(unit);
        let (_, in_port) =
            self.g.connect_bcast(src.0, src.1, unit, kind, self.chip.pcu.fifo_depth, label);
        self.note_gate_mask(unit, in_port, hb);
        self.push_node(unit, NodeOp::StreamIn { port: in_port }, vec![])
    }

    // ----------------------------------------------------------- main build

    fn build_hb(&mut self, hb: CtrlId, lane: &LaneKey) -> Result<(), CompileError> {
        let site = Site {
            lane: lane.clone(),
            binding: self.binding_of(hb, lane),
            specs: self.level_specs(hb),
        };
        let label = format!("{}@{:?}", self.p.ctrl(hb).name, lane);
        let main = self.new_vcu(label, &site, VcuRole::Main { hb, lane: lane_tag(lane) });
        let p = self.p;
        let h = p
            .ctrl(hb)
            .hyperblock()
            .ok_or_else(|| CompileError::Internal(format!("build_hb on non-leaf {hb}")))?;

        // Pre-scan: reductions that need cross-lane combining, and their
        // consuming stores: store slot -> (reduce slot, op, over).
        let mut combined_stores: HashMap<usize, (usize, BinOp, CtrlId)> = HashMap::new();
        for (eid, e) in h.iter() {
            if let Expr::Reduce { op, over, .. } = e {
                let needs_combine = p
                    .ancestors(hb)
                    .into_iter()
                    // loops at-or-below `over`
                    .take_while(|c| p.is_ancestor(*over, *c))
                    .any(|c| self.unroll.get(&c).map(|u| u.unroll > 1).unwrap_or(false));
                if !needs_combine {
                    continue;
                }
                // find the unique consuming store-if-last
                let mut consumer: Option<usize> = None;
                for (sid, s) in h.iter() {
                    if s.operands().contains(&eid) {
                        match s {
                            Expr::Store { value, cond: Some(c), .. }
                                if *value == eid
                                    && matches!(h.get(*c), Some(Expr::IsLast(l)) if l == over) =>
                            {
                                if consumer.is_some() {
                                    return Err(CompileError::Unpartitionable(format!(
                                        "reduction over unrolled loop {over} has multiple consumers in {hb}"
                                    )));
                                }
                                consumer = Some(sid.index());
                            }
                            _ => {
                                return Err(CompileError::Unpartitionable(format!(
                                    "reduction over unrolled loop {over} in {hb} must only feed a store predicated on is_last"
                                )))
                            }
                        }
                    }
                }
                let store = consumer.ok_or_else(|| {
                    CompileError::Unpartitionable(format!(
                        "reduction over unrolled loop {over} in {hb} has no store-if-last consumer"
                    ))
                })?;
                combined_stores.insert(store, (eid.index(), *op, *over));
            }
        }

        // Translate expressions.
        let mut nodes: Vec<usize> = Vec::with_capacity(h.len());
        for (eid, e) in h.iter() {
            let access = AccessId { hb, expr: eid };
            let n = match e {
                Expr::Reduce { op, value, init, over } => {
                    let reset_level = self.level_of(main, *over).unwrap_or(0);
                    let acc = self.push_node(
                        main,
                        NodeOp::Reduce { op: *op, init: *init, reset_level },
                        vec![nodes[value.index()]],
                    );
                    // Vectorized units keep per-SIMD-lane accumulators;
                    // the IR-level value is the lane-combined total, so
                    // every consumer sees the reduction-tree output.
                    if self.vcu_mut(main).width > 1 {
                        self.push_node(main, NodeOp::VecReduce(*op), vec![acc])
                    } else {
                        acc
                    }
                }
                Expr::Load { mem, .. } => {
                    let src = self.build_access(access, *mem, &site, h)?;
                    self.stream_in(src, main, hb, format!("resp:{access}"))
                }
                Expr::Store { value, cond, .. } => match combined_stores.get(&eid.index()) {
                    // Cross-lane reduction: push the SIMD-combined partial
                    // (the reduce node is already the lane-combined total)
                    // to the combine unit at the end of each local
                    // activation of `over`.
                    Some(&(reduce_slot, op, over)) => {
                        let pred = self.emission_pred(main, over)?;
                        let ci = self.get_combine(access, over, op, &site.binding)?;
                        let combine = self.combines[ci].unit;
                        let (_, out_port, in_port) = self.g.connect(
                            main,
                            combine,
                            StreamKind::Scalar,
                            self.chip.pcu.fifo_depth,
                            format!("partial:{access}"),
                        );
                        self.note_gate_mask(combine, in_port, hb);
                        self.combines[ci].partial_ports.push(in_port);
                        let partial =
                            Val { unit: main, node: nodes[reduce_slot], cond: Some(pred) };
                        self.stream_out(out_port, partial, false)
                    }
                    None => {
                        let data = Val {
                            unit: main,
                            node: nodes[value.index()],
                            cond: cond.map(|c| nodes[c.index()]),
                        };
                        self.build_store(access, &site, h, data)?;
                        data.node
                    }
                },
                _ => self.push_pure(main, e, |x| nodes[x.index()])?,
            };
            nodes.push(n);
        }
        Ok(())
    }

    /// Predicate node: conjunction of `IsLast` over all counter levels from
    /// `over` (inclusive) to the innermost, i.e. "local activation of
    /// `over` completes after this firing".
    fn emission_pred(&mut self, unit: UnitId, over: CtrlId) -> Result<usize, CompileError> {
        let li = self.level_of(unit, over)?;
        let n_levels = self.vcu_mut(unit).levels.len();
        let mut acc: Option<usize> = None;
        for l in li..n_levels {
            let is_counter = matches!(self.vcu_mut(unit).levels[l], Level::Counter { .. });
            if !is_counter {
                return Err(CompileError::Unpartitionable(format!(
                    "gate/do-while between reduction loop {over} and its hyperblock is unsupported with unrolling"
                )));
            }
            let n = self.push_node(unit, NodeOp::IsLast { level: l }, vec![]);
            acc = Some(match acc {
                None => n,
                Some(a) => self.push_node(unit, NodeOp::Bin(BinOp::And), vec![a, n]),
            });
        }
        acc.ok_or_else(|| CompileError::Internal("emission_pred on empty level range".into()))
    }

    /// The combine of the store `access` for the lane of the loops above
    /// `over`, created on first use; returns its index in `combines`.
    fn get_combine(
        &mut self,
        access: AccessId,
        over: CtrlId,
        op: BinOp,
        binding: &BTreeMap<CtrlId, u32>,
    ) -> Result<usize, CompileError> {
        let p = self.p;
        let above = |c: &CtrlId| p.is_ancestor(*c, over) && *c != over;
        let lane: LaneKey = self
            .unrolled_loops(access.hb)
            .iter()
            .filter(|(c, _)| above(c))
            .map(|(c, _)| binding.get(c).copied().unwrap_or(0))
            .collect();
        if let Some(i) =
            self.combines.iter().position(|cb| cb.access == access && cb.site.lane == lane)
        {
            return Ok(i);
        }
        // Levels strictly above `over`.
        let mut specs = self.level_specs(access.hb);
        let cut = specs
            .iter()
            .position(|s| s.ctrl() == over)
            .ok_or_else(|| CompileError::Internal(format!("loop {over} missing in specs")))?;
        specs.truncate(cut);
        let binding = binding.iter().filter(|(c, _)| above(c)).map(|(c, u)| (*c, *u)).collect();
        let site = Site { lane, binding, specs };
        let unit = self.new_vcu(format!("combine:{access}"), &site, VcuRole::Merge);
        self.combines.push(CombineBuild { access, unit, partial_ports: Vec::new(), op, site });
        Ok(self.combines.len() - 1)
    }

    /// Tree-combine each combine's partials and store the total, in the
    /// order the combines were created, so that every compile of a
    /// program builds one design.
    fn finalize_combines(&mut self) -> Result<(), CompileError> {
        for CombineBuild { access, unit, partial_ports, op, site } in
            std::mem::take(&mut self.combines)
        {
            let mut vals: Vec<usize> = partial_ports
                .iter()
                .map(|&port| self.push_node(unit, NodeOp::StreamIn { port }, vec![]))
                .collect();
            while vals.len() > 1 {
                let mut next = Vec::with_capacity(vals.len().div_ceil(2));
                for pair in vals.chunks(2) {
                    if pair.len() == 2 {
                        next.push(self.push_node(unit, NodeOp::Bin(op), vec![pair[0], pair[1]]));
                    } else {
                        next.push(pair[0]);
                    }
                }
                vals = next;
            }
            // Perform the store from here, through a request unit that
            // translates its address slice in the combine context.
            let hb = access.hb;
            let h =
                self.p.ctrl(hb).hyperblock().ok_or_else(|| {
                    CompileError::Internal(format!("combine hb {hb} is not a leaf"))
                })?;
            let Some(Expr::Store { mem, addr, .. }) = h.get(access.expr) else {
                return Err(CompileError::Internal("combine store is not a store".into()));
            };
            let addr = self.request_vcu(access, *mem, &site, h, addr, None)?;
            let total = Val { unit, node: vals[0], cond: None };
            self.wire_access(access, *mem, &site, addr, Some(total))?;
        }
        Ok(())
    }

    // -------------------------------------------------------------- accesses

    /// Backward-slice translation of the `needed` expressions of `h` into
    /// `unit`. Loads inside the slice consume the broadcast response
    /// streams of accesses already built for this hyperblock lane.
    fn translate_slice(
        &mut self,
        unit: UnitId,
        hb: CtrlId,
        h: &Hyperblock,
        needed: &HashSet<usize>,
        binding: &BTreeMap<CtrlId, u32>,
    ) -> Result<HashMap<usize, usize>, CompileError> {
        let mut map: HashMap<usize, usize> = HashMap::new();
        for (eid, e) in h.iter().filter(|(eid, _)| needed.contains(&eid.index())) {
            let n = match e {
                Expr::Load { .. } => {
                    let access = AccessId { hb, expr: eid };
                    let lane = self.project_lane(hb, binding)?;
                    let src = *self.data_srcs.get(&(access, lane)).ok_or_else(|| {
                        CompileError::Internal(format!(
                            "slice load {access} has no data source yet"
                        ))
                    })?;
                    self.stream_in(src, unit, hb, format!("resp:{access}->slice"))
                }
                Expr::Store { .. } | Expr::Reduce { .. } => {
                    return Err(CompileError::Unpartitionable(format!(
                        "address/predicate slice in {hb} depends on a store or reduction"
                    )))
                }
                _ => self.push_pure(unit, e, |x| map[&x.index()])?,
            };
            map.insert(eid.index(), n);
        }
        Ok(map)
    }

    /// The request VCU of `access` at `site`: the backward slice of the
    /// address `addr` and of `cond`, ending in the flat word address.
    /// Returns that address, kept where `cond` holds.
    fn request_vcu(
        &mut self,
        access: AccessId,
        mem: MemId,
        site: &Site,
        h: &Hyperblock,
        addr: &[ExprId],
        cond: Option<ExprId>,
    ) -> Result<Val, CompileError> {
        let lane = &site.lane;
        let role = VcuRole::Request { access, lane: lane_tag(lane) };
        let unit = self.new_vcu(format!("req:{access}@{lane:?}"), site, role);
        self.request.insert((access, lane.clone()), unit);
        self.access_lanes.entry(access).or_default().push(lane.clone());
        let roots: Vec<ExprId> = addr.iter().copied().chain(cond).collect();
        let needed = closure_of(h, &roots);
        let nodes = self.translate_slice(unit, access.hb, h, &needed, &site.binding)?;
        let node = self.flatten_addr(unit, mem, addr, &nodes)?;
        Ok(Val { unit, node, cond: cond.map(|c| nodes[&c.index()]) })
    }

    /// Build the machinery of a *load* access and return the `(unit,
    /// out_port)` that produces its response data.
    fn build_access(
        &mut self,
        access: AccessId,
        mem: MemId,
        site: &Site,
        h: &Hyperblock,
    ) -> Result<(UnitId, usize), CompileError> {
        let src = if self.p.mem(mem).kind == MemKind::Fifo {
            // Direct stream from the writer unit's broadcast port; the
            // caller attaches the consuming stream.
            let w = *self.fifo_writers.get(&mem).ok_or_else(|| {
                CompileError::Unpartitionable(format!("fifo {mem} read before any write"))
            })?;
            let port = match self.fifo_ports.get(&mem) {
                Some(&port) => port,
                None => {
                    let port = self.open_port(w);
                    self.fifo_ports.insert(mem, port);
                    port
                }
            };
            (w.unit, port)
        } else {
            let Some(Expr::Load { addr, .. }) = h.get(access.expr) else {
                return Err(CompileError::Internal("build_access on non-load".into()));
            };
            let addr = self.request_vcu(access, mem, site, h, addr, None)?;
            self.wire_access(access, mem, site, addr, None)?
        };
        self.data_srcs.insert((access, site.lane.clone()), src);
        Ok(src)
    }

    /// Wiring of a *store* access of `data`.
    fn build_store(
        &mut self,
        access: AccessId,
        site: &Site,
        h: &Hyperblock,
        data: Val,
    ) -> Result<(), CompileError> {
        let Some(Expr::Store { mem, addr, cond, .. }) = h.get(access.expr) else {
            return Err(CompileError::Internal("build_store on non-store".into()));
        };
        let mem = *mem;

        // Control-register stores feed broadcast value streams instead of
        // (or in addition to) memory.
        if self.ctrl_writers.get(&mem) == Some(&access) {
            if data.cond.is_some() {
                return Err(CompileError::Unpartitionable(format!(
                    "store to control register {mem} must be unconditional"
                )));
            }
            self.ctrl_value.insert((mem, site.lane.clone()), (data, None));
            // If nothing reads the register as data, we are done.
            let has_data_reads = self.p.accesses_of(mem).iter().any(|a| !a.is_write);
            if !has_data_reads {
                return Ok(());
            }
        }

        if self.p.mem(mem).kind == MemKind::Fifo {
            if let Some(prev) = self.fifo_writers.get(&mem) {
                if prev.unit != data.unit {
                    return Err(CompileError::Internal(format!(
                        "fifo {mem} has multiple writer units; check_fifo_streams should have rejected this"
                    )));
                }
            }
            self.fifo_writers.insert(mem, data);
            return Ok(());
        }

        let addr = self.request_vcu(access, mem, site, h, addr, *cond)?;
        self.wire_access(access, mem, site, addr, Some(data))?;
        Ok(())
    }

    /// Route `access`'s request stream `addr`, and a store's `data`, to
    /// its memory; set the request unit's epoch markers and build the
    /// response unit when the access sources tokens. Returns the `(unit,
    /// out_port)` producing read data or write completions.
    fn wire_access(
        &mut self,
        access: AccessId,
        mem: MemId,
        site: &Site,
        addr: Val,
        data: Option<Val>,
    ) -> Result<(UnitId, usize), CompileError> {
        let done = match (self.p.mem(mem).kind, data) {
            (MemKind::Dram, _) => self.wire_ag(access, &site.lane, mem, addr, data),
            (_, None) => self.wire_onchip_read(access, mem, &site.binding, addr),
            (_, Some(data)) => self.wire_onchip_write(access, mem, &site.binding, addr, data)?,
        };
        self.set_epoch_emit(addr.unit, mem, access.hb)?;
        if self.token_srcs.contains(&access) {
            self.make_response(access, site, done)?;
        }
        Ok(done)
    }

    /// An AG streaming `access` to or from DRAM `mem`: it takes `addr`
    /// and, for a store, `data`. Returns its out-port (read data or write
    /// acks).
    fn wire_ag(
        &mut self,
        access: AccessId,
        lane: &LaneKey,
        mem: MemId,
        addr: Val,
        data: Option<Val>,
    ) -> (UnitId, usize) {
        let write = data.is_some();
        let mut ag = AgUnit {
            mem,
            dir: if write { AgDir::Write } else { AgDir::Read },
            addr_in: 0,
            data_in: None,
            out: 0,
            width: self.vcu_mut(addr.unit).width,
            base_addr: self.dram_base[&mem],
        };
        let unit = self.g.add_unit(format!("ag:{access}@{lane:?}"), UnitKind::Ag(ag.clone()));
        let depth = self.chip.pcu.fifo_depth;
        let label = if write { format!("waddr:{access}") } else { format!("addr:{access}") };
        ag.addr_in = self.send(addr, unit, depth, label, write).1;
        if let Some(data) = data {
            ag.data_in = Some(self.send(data, unit, depth, format!("wdata:{access}"), true).1);
        }
        let out = self.ensure_out_port(unit);
        ag.out = out;
        self.g.unit_mut(unit).kind = UnitKind::Ag(ag);
        (unit, out)
    }

    // ------------------------------------------------------- on-chip wiring

    /// Banking of `mem`: its bank function, its privatizing loops, and how
    /// `access` reaches its banks.
    fn mem_plan(&self, mem: MemId, access: AccessId) -> (BankFn, Vec<(CtrlId, u32)>, BankRoute) {
        match self.banking.of(mem) {
            Some(mp) => (
                mp.bank_fn,
                mp.private_loops.clone(),
                mp.routes.get(&access).copied().unwrap_or(BankRoute::Static),
            ),
            None => (BankFn::None, Vec::new(), BankRoute::Static),
        }
    }

    fn get_vmu(&mut self, mem: MemId, copy: &LaneKey, bank: u32) -> UnitId {
        if let Some(u) = self.vmu.get(&(mem, copy.clone(), bank)) {
            return *u;
        }
        let u = self.g.add_unit(
            format!("vmu:{}[{bank}]@{copy:?}", self.p.mem(mem).name),
            UnitKind::Vmu(Vmu {
                mem,
                bank: (bank, 1), // bank count fixed in finalize
                lane: lane_tag(copy),
                words: 0,
                init: Vec::new(),
                multibuffer: 1,
                write_ports: Vec::new(),
                read_ports: Vec::new(),
                read_latency: self.chip.pmu.read_latency,
            }),
        );
        self.vmu.insert((mem, copy.clone(), bank), u);
        u
    }

    /// A read port of `vmu` taking addresses on input `addr_in`; returns
    /// the port's data out-port.
    fn read_port(&mut self, vmu: UnitId, addr_in: usize) -> usize {
        let data_out = self.ensure_out_port(vmu);
        self.vmu_mut(vmu).read_ports.push(VmuReadPort { addr_in, data_out });
        data_out
    }

    fn add_xdist(&mut self, label: String) -> UnitId {
        let empty = XbarDist { bank_in: 0, payload_in: 0, bank_outs: Vec::new(), ba_out: None };
        self.g.add_unit(label, UnitKind::XbarDist(empty))
    }

    fn add_xcoll(&mut self, label: String) -> UnitId {
        self.g.add_unit(
            label,
            UnitKind::XbarColl(XbarColl { ba_in: 0, bank_ins: Vec::new(), out: 0 }),
        )
    }

    /// Evaluate the static bank of an access for a lane binding. Lane
    /// index substitution follows the same blocked-vs-cyclic distribution
    /// as counter instantiation.
    fn static_bank(
        &self,
        access: AccessId,
        bank_fn: BankFn,
        binding: &BTreeMap<CtrlId, u32>,
    ) -> Option<u32> {
        let f = access_affine(self.p, access.hb, access.expr)?;
        let mut vals: BTreeMap<CtrlId, i64> = BTreeMap::new();
        for (v, _) in f.terms.iter() {
            let spec = self.p.ctrl(*v).loop_spec()?;
            let min = spec.min.as_const()?;
            let u = self.unroll.get(v).copied().unwrap_or(UnrollInfo::ONE);
            let lane = binding.get(v).copied().unwrap_or(0) as i64;
            let idx = match mempart::chunk_elems(self.p, &self.unroll, *v) {
                Some(chunk) if u.unroll > 1 => min + lane * chunk * spec.step,
                _ => min + lane * (u.vec as i64) * spec.step,
            };
            vals.insert(*v, idx);
        }
        Some(bank_fn.bank_of(f.eval(&vals)))
    }

    /// Emit nodes computing the bank-local address from the flat address.
    fn local_addr_nodes(&mut self, unit: UnitId, flat: usize, bank_fn: BankFn) -> usize {
        match bank_fn {
            BankFn::None => flat,
            BankFn::Cyclic { banks } => {
                let b = self.push_node(unit, NodeOp::Const(Elem::I64(banks as i64)), vec![]);
                self.push_node(unit, NodeOp::Bin(BinOp::Div), vec![flat, b])
            }
            BankFn::Blocked { banks, block } => {
                let blk = self.push_node(unit, NodeOp::Const(Elem::I64(block as i64)), vec![]);
                let b = self.push_node(unit, NodeOp::Const(Elem::I64(banks as i64)), vec![]);
                let grp = self.push_node(unit, NodeOp::Bin(BinOp::Div), vec![flat, blk]);
                let grpb = self.push_node(unit, NodeOp::Bin(BinOp::Div), vec![grp, b]);
                let hi = self.push_node(unit, NodeOp::Bin(BinOp::Mul), vec![grpb, blk]);
                let lo = self.push_node(unit, NodeOp::Bin(BinOp::Mod), vec![flat, blk]);
                self.push_node(unit, NodeOp::Bin(BinOp::Add), vec![hi, lo])
            }
        }
    }

    /// Emit nodes computing the bank index from the flat address.
    fn bank_nodes(&mut self, unit: UnitId, flat: usize, bank_fn: BankFn) -> usize {
        match bank_fn {
            BankFn::None => self.push_node(unit, NodeOp::Const(Elem::I64(0)), vec![]),
            BankFn::Cyclic { banks } => {
                let b = self.push_node(unit, NodeOp::Const(Elem::I64(banks as i64)), vec![]);
                self.push_node(unit, NodeOp::Bin(BinOp::Mod), vec![flat, b])
            }
            BankFn::Blocked { banks, block } => {
                let blk = self.push_node(unit, NodeOp::Const(Elem::I64(block as i64)), vec![]);
                let b = self.push_node(unit, NodeOp::Const(Elem::I64(banks as i64)), vec![]);
                let grp = self.push_node(unit, NodeOp::Bin(BinOp::Div), vec![flat, blk]);
                self.push_node(unit, NodeOp::Bin(BinOp::Mod), vec![grp, b])
            }
        }
    }

    fn wire_onchip_read(
        &mut self,
        access: AccessId,
        mem: MemId,
        binding: &BTreeMap<CtrlId, u32>,
        addr: Val,
    ) -> (UnitId, usize) {
        let (bank_fn, private_loops, route) = self.mem_plan(mem, access);
        let copy: LaneKey =
            private_loops.iter().map(|(c, _)| binding.get(c).copied().unwrap_or(0)).collect();
        let req = addr.unit;
        let pmu_depth = self.chip.pmu.fifo_depth;
        if route == BankRoute::Static {
            let bank = self.static_bank(access, bank_fn, binding).unwrap_or(0);
            let local = Val { node: self.local_addr_nodes(req, addr.node, bank_fn), ..addr };
            let vmu = self.get_vmu(mem, &copy, bank);
            let (_, addr_in) = self.send(local, vmu, pmu_depth, format!("raddr:{access}"), false);
            return (vmu, self.read_port(vmu, addr_in));
        }
        // Dynamic: request -> dist -> banks -> coll -> consumer.
        let kind = self.lane_kind(req);
        let pcu_depth = self.chip.pcu.fifo_depth;
        let local = Val { node: self.local_addr_nodes(req, addr.node, bank_fn), ..addr };
        let bank = Val { node: self.bank_nodes(req, addr.node, bank_fn), ..addr };
        let dist = self.add_xdist(format!("xdist:{access}"));
        let (_, bank_in) = self.send(bank, dist, pcu_depth, format!("ba:{access}"), false);
        let (_, payload_in) = self.send(local, dist, pcu_depth, format!("la:{access}"), false);
        let coll = self.add_xcoll(format!("xcoll:{access}"));
        let (_, ba_out, ba_in) =
            self.g.connect(dist, coll, kind, pcu_depth, format!("bafwd:{access}"));
        let mut bank_outs = Vec::new();
        let mut bank_ins = Vec::new();
        for b in 0..bank_fn.banks() {
            let vmu = self.get_vmu(mem, &copy, b);
            let (_, out_p, addr_in) =
                self.g.connect(dist, vmu, kind, pmu_depth, format!("raddr:{access}#{b}"));
            bank_outs.push(out_p);
            let data_port = self.read_port(vmu, addr_in);
            let label = format!("rdata:{access}#{b}->coll");
            bank_ins.push(self.g.connect_bcast(vmu, data_port, coll, kind, pmu_depth, label).1);
        }
        let out = self.ensure_out_port(coll);
        let ba_out = Some(ba_out);
        self.g.unit_mut(dist).kind =
            UnitKind::XbarDist(XbarDist { bank_in, payload_in, bank_outs, ba_out });
        self.g.unit_mut(coll).kind = UnitKind::XbarColl(XbarColl { ba_in, bank_ins, out });
        (coll, out)
    }

    fn wire_onchip_write(
        &mut self,
        access: AccessId,
        mem: MemId,
        binding: &BTreeMap<CtrlId, u32>,
        addr: Val,
        data: Val,
    ) -> Result<(UnitId, usize), CompileError> {
        let (bank_fn, private_loops, route) = self.mem_plan(mem, access);
        // Writes to privatized memories: a writer outside the private
        // scope must broadcast to every copy; common case is writer inside
        // (single copy).
        let copies = cartesian(private_loops.iter().map(|(c, f)| match binding.get(c) {
            Some(u) => vec![*u],
            None => (0..*f).collect(),
        }));
        if copies.len() > 1 && route == BankRoute::Dynamic {
            return Err(CompileError::Unpartitionable(format!(
                "dynamic-routed write {access} to privatized memory {mem}"
            )));
        }
        let need_ack = self.token_srcs.contains(&access);
        let req = addr.unit;
        let pmu_depth = self.chip.pmu.fifo_depth;
        let local = Val { node: self.local_addr_nodes(req, addr.node, bank_fn), ..addr };
        if route == BankRoute::Static {
            let bank = self.static_bank(access, bank_fn, binding).unwrap_or(0);
            // Reuse one addr out-port and one data out-port broadcast
            // across all copies; the first copy acks.
            let (mut addr_port, mut data_port, mut completion) = (None, None, None);
            for copy in &copies {
                let vmu = self.get_vmu(mem, copy, bank);
                let addr_in =
                    self.send_shared(&mut addr_port, local, vmu, format!("waddr:{access}"));
                let data_in =
                    self.send_shared(&mut data_port, data, vmu, format!("wdata:{access}"));
                let ack_out = (need_ack && completion.is_none()).then(|| self.ensure_out_port(vmu));
                completion = completion.or(ack_out.map(|p| (vmu, p)));
                self.vmu_mut(vmu).write_ports.push(VmuWritePort { addr_in, data_in, ack_out });
            }
            return Ok(completion.unwrap_or((req, usize::MAX)));
        }
        let kind = self.lane_kind(req);
        let pcu_depth = self.chip.pcu.fifo_depth;
        let bank = Val { node: self.bank_nodes(req, addr.node, bank_fn), ..addr };
        let dist_a = self.add_xdist(format!("xdist-a:{access}"));
        let dist_d = self.add_xdist(format!("xdist-d:{access}"));
        let (ba_port, a_bank_in) = self.send(bank, dist_a, pcu_depth, format!("ba:{access}"), true);
        let label = format!("ba:{access}->d");
        let (_, d_bank_in) = self.g.connect_bcast(req, ba_port, dist_d, kind, pcu_depth, label);
        let (_, a_payload_in) = self.send(local, dist_a, pcu_depth, format!("la:{access}"), true);
        let (_, d_payload_in) = self.send(data, dist_d, pcu_depth, format!("wdata:{access}"), true);
        // ack collector
        let coll = need_ack.then(|| self.add_xcoll(format!("xcoll-ack:{access}")));
        let (mut ba_out, mut coll_ba_in) = (None, 0);
        if let Some(c) = coll {
            let (_, p, cin) = self.g.connect(dist_a, c, kind, pcu_depth, format!("bafwd:{access}"));
            (ba_out, coll_ba_in) = (Some(p), cin);
        }
        let (mut a_outs, mut d_outs, mut coll_ins) = (Vec::new(), Vec::new(), Vec::new());
        for b in 0..bank_fn.banks() {
            let vmu = self.get_vmu(mem, &copies[0], b);
            let (_, ap, addr_in) =
                self.g.connect(dist_a, vmu, kind, pmu_depth, format!("waddr:{access}#{b}"));
            a_outs.push(ap);
            let (_, dp, data_in) =
                self.g.connect(dist_d, vmu, kind, pmu_depth, format!("wdata:{access}#{b}"));
            d_outs.push(dp);
            let ack_out = coll.map(|c| {
                let p = self.ensure_out_port(vmu);
                let label = format!("ack:{access}#{b}->coll");
                let (_, cin) =
                    self.g.connect_bcast(vmu, p, c, StreamKind::Scalar, pmu_depth, label);
                coll_ins.push(cin);
                p
            });
            self.vmu_mut(vmu).write_ports.push(VmuWritePort { addr_in, data_in, ack_out });
        }
        self.g.unit_mut(dist_a).kind = UnitKind::XbarDist(XbarDist {
            bank_in: a_bank_in,
            payload_in: a_payload_in,
            bank_outs: a_outs,
            ba_out,
        });
        self.g.unit_mut(dist_d).kind = UnitKind::XbarDist(XbarDist {
            bank_in: d_bank_in,
            payload_in: d_payload_in,
            bank_outs: d_outs,
            ba_out: None,
        });
        let Some(c) = coll else { return Ok((req, usize::MAX)) };
        let out = self.ensure_out_port(c);
        self.g.unit_mut(c).kind =
            UnitKind::XbarColl(XbarColl { ba_in: coll_ba_in, bank_ins: coll_ins, out });
        Ok((c, out))
    }

    // ---------------------------------------------------------- token layer

    fn make_response(
        &mut self,
        access: AccessId,
        site: &Site,
        completion: (UnitId, usize),
    ) -> Result<(), CompileError> {
        if completion.1 == usize::MAX {
            return Err(CompileError::Internal(format!(
                "access {access} sources tokens but has no completion stream"
            )));
        }
        let lane = &site.lane;
        let role = VcuRole::Response { access, lane: lane_tag(lane) };
        let resp = self.new_vcu(format!("resp:{access}@{lane:?}"), site, role);
        self.stream_in(completion, resp, access.hb, format!("done:{access}"));
        self.response.insert((access, lane.clone()), resp);
        Ok(())
    }

    fn wire_tokens(&mut self) -> Result<(), CompileError> {
        let edges = self.plan.edges.clone();
        for e in &edges {
            let Some(src_lanes) = self.access_lanes.get(&e.src).cloned() else { continue };
            let Some(dst_lanes) = self.access_lanes.get(&e.dst).cloned() else { continue };
            let srcs: Vec<UnitId> = src_lanes
                .iter()
                .filter_map(|l| self.response.get(&(e.src, l.clone())).copied())
                .collect();
            let dsts: Vec<UnitId> = dst_lanes
                .iter()
                .filter_map(|l| self.request.get(&(e.dst, l.clone())).copied())
                .collect();
            if srcs.is_empty() || dsts.is_empty() {
                continue;
            }
            // Same-hyperblock exchanges are per-firing; lanes fire
            // independently (and possibly unequally — an over-parallelized
            // lane can be empty), so each lane pairs with itself instead
            // of aggregating through a sync barrier.
            if e.src.hb == e.dst.hb && src_lanes == dst_lanes {
                for l in &src_lanes {
                    let (Some(&s), Some(&d)) = (
                        self.response.get(&(e.src, l.clone())),
                        self.request.get(&(e.dst, l.clone())),
                    ) else {
                        continue;
                    };
                    self.token_stream(e, s, d, e.init, format!("tok:{}->{}@lane", e.src, e.dst))?;
                }
            } else if srcs.len() == 1 && dsts.len() == 1 {
                self.token_stream(
                    e,
                    srcs[0],
                    dsts[0],
                    e.init,
                    format!("tok:{}->{}", e.src, e.dst),
                )?;
            } else {
                let sync =
                    self.g.add_unit(format!("sync:{}->{}", e.src, e.dst), UnitKind::Sync(SyncUnit));
                for &s in &srcs {
                    self.token_stream(e, s, sync, 0, format!("tok:{}->sync", e.src))?;
                }
                for &d in &dsts {
                    self.token_stream(e, sync, d, e.init, format!("tok:sync->{}", e.dst))?;
                }
            }
        }
        Ok(())
    }

    /// A token stream of edge `e` from `src` to `dst` holding `init`
    /// tokens. A VCU source pushes it at the edge's source level, a VCU
    /// destination pops it at the destination level; a sync unit neither.
    fn token_stream(
        &mut self,
        e: &TokenEdge,
        src: UnitId,
        dst: UnitId,
        init: u32,
        label: String,
    ) -> Result<(), CompileError> {
        let depth = (e.init + 4).max(8);
        let (_, out_port, in_port) =
            self.g.connect(src, dst, StreamKind::Token { init }, depth, label);
        if self.g.unit(src).as_vcu().is_some() {
            let level = self.token_level(src, e.src_level, e.src.hb)?;
            self.vcu_mut(src).token_pushes.push(TokenRule { port: out_port, level });
        }
        if self.g.unit(dst).as_vcu().is_some() {
            let level = self.token_level(dst, e.dst_level, e.dst.hb)?;
            self.vcu_mut(dst).token_pops.push(TokenRule { port: in_port, level });
        }
        Ok(())
    }

    /// Map a token-exchange controller to a level index within a unit:
    /// the unit's own hyperblock means per-firing (sentinel = levels.len()).
    ///
    /// Combine-context units (cross-lane reduction stores) have chains
    /// ending *above* the reduction loop; an exchange controller that lies
    /// below the whole chain maps to per-firing — the combine fires
    /// exactly once per activation of that controller's parent context.
    fn token_level(
        &mut self,
        unit: UnitId,
        ctrl: CtrlId,
        hb: CtrlId,
    ) -> Result<usize, CompileError> {
        let chain: Vec<CtrlId> = self.level_specs_of_unit(unit);
        if ctrl == hb {
            return Ok(chain.len());
        }
        if let Some(pos) = chain.iter().position(|c| *c == ctrl) {
            return Ok(pos);
        }
        if chain.iter().all(|c| self.p.is_ancestor(*c, ctrl)) {
            return Ok(chain.len());
        }
        Err(CompileError::Unpartitionable(format!(
            "token level {ctrl} not present in unit level chain"
        )))
    }

    // -------------------------------------------------------------- helpers

    /// Controller chain of a unit's instantiated levels.
    fn level_specs_of_unit(&mut self, unit: UnitId) -> Vec<CtrlId> {
        self.vcu_mut(unit).levels.iter().map(|l| l.ctrl()).collect()
    }

    fn level_of(&mut self, unit: UnitId, ctrl: CtrlId) -> Result<usize, CompileError> {
        let v = self.vcu_mut(unit);
        v.levels
            .iter()
            .position(|l| l.ctrl() == ctrl)
            .ok_or_else(|| CompileError::Internal(format!("controller {ctrl} not in level chain")))
    }

    /// Flatten a multi-dimensional address into a single flat word address
    /// inside `unit`.
    fn flatten_addr(
        &mut self,
        unit: UnitId,
        mem: MemId,
        addr_exprs: &[ExprId],
        nodes: &HashMap<usize, usize>,
    ) -> Result<usize, CompileError> {
        let strides = self.p.mem(mem).strides();
        let mut acc: Option<usize> = None;
        for (a, s) in addr_exprs.iter().zip(strides) {
            let an = nodes[&a.index()];
            let term = if s == 1 {
                an
            } else {
                let c = self.push_node(unit, NodeOp::Const(Elem::I64(s as i64)), vec![]);
                self.push_node(unit, NodeOp::Bin(BinOp::Mul), vec![an, c])
            };
            acc = Some(match acc {
                None => term,
                Some(p) => self.push_node(unit, NodeOp::Bin(BinOp::Add), vec![p, term]),
            });
        }
        acc.ok_or_else(|| CompileError::Internal("empty address".into()))
    }

    /// Create a fresh output port on a unit with no stream yet; streams are
    /// attached by consumers via `connect_bcast`.
    fn ensure_out_port(&mut self, unit: UnitId) -> usize {
        self.g.unit_mut(unit).outputs.push(crate::vudfg::OutPort { streams: Vec::new() });
        self.g.unit(unit).outputs.len() - 1
    }

    fn set_epoch_emit(&mut self, req: UnitId, mem: MemId, hb: CtrlId) -> Result<(), CompileError> {
        if let Some((epoch_loop, _)) = self.plan.multibuffer_of(mem) {
            let lvl_ctrl = self.p.child_toward(epoch_loop, hb);
            if lvl_ctrl == hb {
                // per-firing epochs are meaningless; skip
                return Ok(());
            }
            let li = self.level_of(req, lvl_ctrl)?;
            self.vcu_mut(req).epoch_emit = Some(li);
        }
        Ok(())
    }

    // -------------------------------------------------------- control wires

    fn resolve_pendings(&mut self) -> Result<(), CompileError> {
        let pendings = std::mem::take(&mut self.pendings);
        for pend in pendings {
            let writer = *self.ctrl_writers.get(&pend.mem).ok_or_else(|| {
                CompileError::Internal(format!("control reg {} has no writer", pend.mem))
            })?;
            let wlane = self.project_lane(writer.hb, &pend.binding).map_err(|_| {
                CompileError::Unpartitionable(format!(
                    "control register {} written under unrolled loops outside the consumer scope",
                    pend.mem
                ))
            })?;
            // Rate check: the writer must fire exactly once per
            // activation of the consuming level, i.e. the writer's level
            // chain must equal the consumer's chain *above* the level
            // (conditions of while-levels include the level itself, since
            // they are consumed once per iteration).
            {
                // Gate levels don't multiply activation rates: a branch
                // activates exactly once per parent iteration (taken or
                // vacuously), so only counters and do-whiles count.
                let iterative = |c: CtrlId| self.p.ctrl(c).is_iterative();
                let consumer_specs: Vec<CtrlId> =
                    self.level_specs_of_unit(pend.unit).into_iter().collect();
                let writer_specs: Vec<CtrlId> = self
                    .level_specs(writer.hb)
                    .iter()
                    .map(|s| s.ctrl())
                    .filter(|c| iterative(*c))
                    .collect();
                let cut = match pend.role {
                    PendRole::WhlCond => pend.level_idx + 1,
                    _ => pend.level_idx,
                };
                let consumer_prefix: Vec<CtrlId> = consumer_specs[..cut.min(consumer_specs.len())]
                    .iter()
                    .copied()
                    .filter(|c| iterative(*c))
                    .collect();
                if writer_specs != consumer_prefix {
                    return Err(CompileError::Unpartitionable(format!(
                        "control register {} is written at a different rate than its consumer level",
                        pend.mem
                    )));
                }
            }
            let key = (pend.mem, wlane);
            let (value, port) = *self.ctrl_value.get(&key).ok_or_else(|| {
                CompileError::Internal(format!(
                    "control value for {} lane {:?} not recorded",
                    pend.mem, key.1
                ))
            })?;
            // Ensure the writer has a broadcast out-port for this value.
            let out_port = match port {
                Some(p) => p,
                None => {
                    let p = self.open_port(value);
                    self.ctrl_value.insert(key, (value, Some(p)));
                    p
                }
            };
            let (_, in_port) = self.g.connect_bcast(
                value.unit,
                out_port,
                pend.unit,
                StreamKind::Scalar,
                8,
                format!("ctrl:{}", pend.mem),
            );
            self.note_gate_mask(pend.unit, in_port, writer.hb);
            let v = self.vcu_mut(pend.unit);
            match (&mut v.levels[pend.level_idx], pend.role) {
                (Level::Counter { min, .. }, PendRole::CtrMin) => *min = CBound::Port(in_port),
                (Level::Counter { max, .. }, PendRole::CtrMax) => *max = CBound::Port(in_port),
                (Level::Gate { cond_in, .. }, PendRole::GateCond) => *cond_in = in_port,
                (Level::While { cond_in, .. }, PendRole::WhlCond) => *cond_in = in_port,
                _ => {
                    return Err(CompileError::Internal(
                        "pending control wire role/level mismatch".into(),
                    ))
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------- finalize

    /// Size and initialize every VMU bank.
    fn finalize_vmus(&mut self) {
        for (&(mem, _, bank), &unit) in &self.vmu {
            let decl = self.p.mem(mem);
            let bank_fn = self.banking.of(mem).map_or(BankFn::None, |mp| mp.bank_fn);
            let words = bank_fn.bank_words(decl.size());
            let full = decl.init.materialize(decl.size(), decl.dtype);
            let mut init = vec![decl.dtype.zero(); words];
            for (flat, v) in full.iter().enumerate() {
                if bank_fn.bank_of(flat as i64) == bank {
                    let local = bank_fn.local_of(flat as i64) as usize;
                    if local < words {
                        init[local] = *v;
                    }
                }
            }
            let multibuffer = self.plan.multibuffer_of(mem).map(|(_, d)| d).unwrap_or(1);
            if let UnitKind::Vmu(v) = &mut self.g.unit_mut(unit).kind {
                v.bank = (bank, bank_fn.banks());
                v.words = words;
                v.init = init;
                v.multibuffer = multibuffer;
            }
        }
    }
}

/// Every lane key that picks one of `choices[i]` at each position `i`,
/// the first position varying slowest.
fn cartesian(choices: impl IntoIterator<Item = Vec<u32>>) -> Vec<LaneKey> {
    let mut keys: Vec<LaneKey> = vec![vec![]];
    for choice in choices {
        keys = keys
            .iter()
            .flat_map(|k| {
                choice.iter().map(move |&u| {
                    let mut k = k.clone();
                    k.push(u);
                    k
                })
            })
            .collect();
    }
    keys
}

/// Backward closure of a set of root expressions within a hyperblock.
fn closure_of(h: &Hyperblock, roots: &[ExprId]) -> HashSet<usize> {
    let mut needed: HashSet<usize> = HashSet::new();
    let mut stack: Vec<usize> = roots.iter().map(|r| r.index()).collect();
    while let Some(i) = stack.pop() {
        if !needed.insert(i) {
            continue;
        }
        if let Some(e) = h.get(ExprId(i as u32)) {
            for op in e.operands() {
                stack.push(op.index());
            }
        }
    }
    needed
}

/// Compact numeric tag of a lane key (for labels/roles).
fn lane_tag(lane: &LaneKey) -> u32 {
    let mut tag = 0u32;
    for u in lane {
        tag = tag.wrapping_mul(64).wrapping_add(*u);
    }
    tag
}

#[cfg(test)]
mod tests {
    use crate::artifact::design_digest;
    use crate::compile::{compile, CompilerOptions};
    use plasticine_arch::ChipSpec;
    use sara_ir::{BinOp, DType, Elem, LoopSpec, MemInit, Program};

    /// One loop at `par` 64 feeding three cross-lane reductions, each
    /// stored under `is_last`: three combine units.
    fn three_combines() -> Program {
        let mut p = Program::new("combines");
        let root = p.root();
        let a = p.dram("a", &[256], DType::F64, MemInit::RandomF { seed: 5 });
        let o = p.dram("o", &[3], DType::F64, MemInit::Zero);
        let l = p.add_loop(root, "i", LoopSpec::new(0, 256, 1).par(64)).unwrap();
        let hb = p.add_leaf(l, "sums").unwrap();
        let i = p.idx(hb, l).unwrap();
        let x = p.load(hb, a, &[i]).unwrap();
        let last = p.is_last(hb, l).unwrap();
        for (k, op) in [BinOp::Add, BinOp::Max, BinOp::Min].into_iter().enumerate() {
            let r = p.reduce(hb, op, x, Elem::F64(0.0), l).unwrap();
            let at = p.c_i64(hb, k as i64).unwrap();
            p.store_if(hb, o, &[at], r, last).unwrap();
        }
        p
    }

    #[test]
    fn combines_lower_in_creation_order() {
        let p = three_combines();
        let chip = ChipSpec::small_8x8();
        let digest = || {
            let c = compile(&p, &chip, &CompilerOptions::default()).expect("compiles");
            assert_eq!(c.vudfg.count_units(|u| u.label.starts_with("combine:")), 3);
            design_digest(&c)
        };
        let first = digest();
        for _ in 1..8 {
            assert_eq!(digest(), first, "one program lowered to two designs");
        }
    }
}
