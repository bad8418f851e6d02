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

use crate::cmmc::{self, CmmcOptions, CmmcPlan};
use crate::error::CompileError;
use crate::mempart::{self, BankFn, BankRoute, BankingPlan, UnrollInfo};
use crate::vudfg::DramTensor;
use crate::vudfg::{
    AgDir, AgUnit, CBound, DfgNode, Level, NodeOp, StreamKind, SyncUnit, TokenRule, UnitId,
    UnitKind, Vcu, VcuRole, Vmu, VmuReadPort, VmuWritePort, Vudfg, XbarColl, XbarDist,
};
use plasticine_arch::ChipSpec;
use sara_ir::affine::access_affine;
use sara_ir::{
    AccessId, BinOp, Bound, CtrlId, CtrlKind, Elem, Expr, ExprId, MemId, MemKind, Program,
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
    pub banking: BankingPlan,
    pub unroll: HashMap<CtrlId, UnrollInfo>,
    /// Main VCU of each (hyperblock, lane).
    pub main_units: HashMap<(CtrlId, LaneKey), UnitId>,
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
    let b = Builder::new(p, chip, unroll, plan, banking)?;
    b.run()
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

#[derive(Debug, Default)]
struct VmuBuild {
    write_ports: Vec<VmuWritePort>,
    read_ports: Vec<VmuReadPort>,
}

#[derive(Debug)]
struct CombineBuild {
    unit: UnitId,
    /// Number of partial-input streams connected so far (ports 0..n are
    /// level control ports first, then partials — we track partial input
    /// port indices explicitly).
    partial_ports: Vec<usize>,
    op: BinOp,
    /// Original store expression (for addr slice translation).
    hb: CtrlId,
    store_expr: ExprId,
    binding: BTreeMap<CtrlId, u32>,
    lane: LaneKey,
    specs: Vec<LSpec>,
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
    /// Value-node index (+ out-port once created) of control-reg stores:
    /// `(mem, writer lane) -> (writer unit, value node, out port if made)`.
    ctrl_value: HashMap<(MemId, LaneKey), (UnitId, usize, Option<usize>)>,
    main: HashMap<(CtrlId, LaneKey), UnitId>,
    request: HashMap<(AccessId, LaneKey), UnitId>,
    response: HashMap<(AccessId, LaneKey), UnitId>,
    access_lanes: HashMap<AccessId, Vec<LaneKey>>,
    vmu: HashMap<(MemId, LaneKey, u32), UnitId>,
    vmu_build: HashMap<UnitId, VmuBuild>,
    /// Data-producing `(unit, out_port)` of each load access (for
    /// broadcast to main VCUs, address slices and response units).
    data_srcs: HashMap<(AccessId, LaneKey), (UnitId, usize)>,
    fifo_writers: HashMap<MemId, (UnitId, usize, Option<usize>)>,
    /// Broadcast out-port of each fifo writer's value.
    fifo_ports: HashMap<MemId, usize>,
    combines: HashMap<(AccessId, LaneKey), CombineBuild>,
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
            main: HashMap::new(),
            request: HashMap::new(),
            response: HashMap::new(),
            access_lanes: HashMap::new(),
            vmu: HashMap::new(),
            vmu_build: HashMap::new(),
            data_srcs: HashMap::new(),
            fifo_writers: HashMap::new(),
            fifo_ports: HashMap::new(),
            combines: HashMap::new(),
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
        Ok(Lowered {
            vudfg: self.g,
            cmmc: self.plan,
            banking: self.banking,
            unroll: self.unroll,
            main_units: self.main,
        })
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
        let loops = self.unrolled_loops(hb);
        let mut combos: Vec<LaneKey> = vec![vec![]];
        for (_, f) in &loops {
            let mut next = Vec::with_capacity(combos.len() * *f as usize);
            for c in &combos {
                for u in 0..*f {
                    let mut c2 = c.clone();
                    c2.push(u);
                    next.push(c2);
                }
            }
            combos = next;
        }
        combos
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

    /// SIMD width of a unit instantiated from these specs.
    fn specs_width(&self, specs: &[LSpec]) -> u32 {
        match specs.last() {
            Some(LSpec::Ctr { vec, .. }) => *vec,
            _ => 1,
        }
    }

    /// Create a VCU unit with instantiated levels. Dynamic bounds and
    /// conditions become pending wires resolved at the end of lowering.
    fn new_vcu(
        &mut self,
        label: String,
        specs: &[LSpec],
        binding: &BTreeMap<CtrlId, u32>,
        role: VcuRole,
    ) -> UnitId {
        let width = self.specs_width(specs);
        let mut levels = Vec::with_capacity(specs.len());
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
        for (li, s) in specs.iter().enumerate() {
            match s {
                LSpec::Ctr { ctrl, min, max, step, unroll, vec } => {
                    let u = binding.get(ctrl).copied().unwrap_or(0);
                    // Blocked lane distribution when bounds are static and
                    // the step positive (keeps per-lane DRAM streams
                    // contiguous and coalescable); cyclic otherwise.
                    let blocked = *unroll > 1
                        && *step > 0
                        && matches!((min, max), (Bound::Const(_), Bound::Const(_)));
                    if blocked {
                        let (Bound::Const(lo), Bound::Const(hi)) = (*min, *max) else {
                            unreachable!("blocked requires const bounds")
                        };
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
                    let step2 = *step * (*unroll as i64) * (*vec as i64);
                    let lane_offset = u as i64 * (*vec as i64) * *step;
                    let min2 = match min {
                        Bound::Const(v) => CBound::Const(*v),
                        Bound::Reg(m) => {
                            self.pendings.push(Pending {
                                unit,
                                level_idx: li,
                                mem: *m,
                                role: PendRole::CtrMin,
                                binding: binding.clone(),
                            });
                            CBound::Port(usize::MAX)
                        }
                    };
                    let max2 = match max {
                        Bound::Const(v) => CBound::Const(*v),
                        Bound::Reg(m) => {
                            self.pendings.push(Pending {
                                unit,
                                level_idx: li,
                                mem: *m,
                                role: PendRole::CtrMax,
                                binding: binding.clone(),
                            });
                            CBound::Port(usize::MAX)
                        }
                    };
                    levels.push(Level::Counter {
                        min: min2,
                        max: max2,
                        step: step2,
                        lane_offset,
                        lane_stride: *step,
                        ctrl: *ctrl,
                    });
                }
                LSpec::Gate { ctrl, cond, expect } => {
                    self.pendings.push(Pending {
                        unit,
                        level_idx: li,
                        mem: *cond,
                        role: PendRole::GateCond,
                        binding: binding.clone(),
                    });
                    levels.push(Level::Gate { cond_in: usize::MAX, expect: *expect, ctrl: *ctrl });
                }
                LSpec::Whl { ctrl, cond } => {
                    self.pendings.push(Pending {
                        unit,
                        level_idx: li,
                        mem: *cond,
                        role: PendRole::WhlCond,
                        binding: binding.clone(),
                    });
                    levels.push(Level::While { cond_in: usize::MAX, ctrl: *ctrl });
                }
            }
        }
        self.g.unit_mut(unit).as_vcu_mut().expect("vcu").levels = levels;
        unit
    }

    fn vcu_mut(&mut self, u: UnitId) -> &mut Vcu {
        self.g.unit_mut(u).as_vcu_mut().expect("vcu unit")
    }

    fn push_node(&mut self, u: UnitId, op: NodeOp, ins: Vec<usize>) -> usize {
        let v = self.vcu_mut(u);
        v.dfg.push(DfgNode { op, ins });
        v.dfg.len() - 1
    }

    /// Record the producer-gate mask for the most recently added input
    /// port of `unit` given the producer's hyperblock.
    fn note_gate_mask(&mut self, unit: UnitId, in_port: usize, producer_hb: Option<CtrlId>) {
        let gates: Vec<(usize, CtrlId)> = {
            let v = self.vcu_mut(unit);
            v.levels
                .iter()
                .enumerate()
                .filter_map(|(i, l)| match l {
                    Level::Gate { ctrl, .. } => Some((i, *ctrl)),
                    _ => None,
                })
                .collect()
        };
        let mut mask = 0u64;
        if let Some(ph) = producer_hb {
            for (i, g) in gates {
                if self.p.is_ancestor(g, ph) && i < 64 {
                    mask |= 1 << i;
                }
            }
        }
        let v = self.vcu_mut(unit);
        while v.producer_gate_mask.len() <= in_port {
            v.producer_gate_mask.push(0);
        }
        v.producer_gate_mask[in_port] = mask;
    }

    // ----------------------------------------------------------- main build

    fn build_hb(&mut self, hb: CtrlId, lane: &LaneKey) -> Result<(), CompileError> {
        let specs = self.level_specs(hb);
        let binding = self.binding_of(hb, lane);
        let label = format!("{}@{:?}", self.p.ctrl(hb).name, lane);
        let main =
            self.new_vcu(label, &specs, &binding, VcuRole::Main { hb, lane: lane_tag(lane) });
        self.main.insert((hb, lane.clone()), main);

        let h = self
            .p
            .ctrl(hb)
            .hyperblock()
            .ok_or_else(|| CompileError::Internal(format!("build_hb on non-leaf {hb}")))?
            .clone();
        let width = self.specs_width(&specs);

        // Pre-scan: reductions that need cross-lane combining, and their
        // consuming stores.
        let mut combined_stores: HashMap<usize, (usize, CtrlId)> = HashMap::new(); // store slot -> (reduce slot, over)
        for (eid, e) in h.iter() {
            if let Expr::Reduce { over, .. } = e {
                let needs_combine = self
                    .p
                    .ancestors(hb)
                    .into_iter()
                    .take_while(|c| {
                        // loops at-or-below `over`
                        self.p.is_ancestor(*over, *c)
                    })
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
                combined_stores.insert(store, (eid.index(), *over));
            }
        }

        // Translate expressions.
        let mut nodes: Vec<usize> = Vec::with_capacity(h.len());
        for (eid, e) in h.iter() {
            let n = match e {
                Expr::Const(v) => self.push_node(main, NodeOp::Const(*v), vec![]),
                Expr::Idx(c) => {
                    let li = self.level_of(main, *c)?;
                    self.push_node(main, NodeOp::CounterIdx { level: li }, vec![])
                }
                Expr::IsFirst(c) => {
                    let li = self.level_of(main, *c)?;
                    self.push_node(main, NodeOp::IsFirst { level: li }, vec![])
                }
                Expr::IsLast(c) => {
                    let li = self.level_of(main, *c)?;
                    self.push_node(main, NodeOp::IsLast { level: li }, vec![])
                }
                Expr::Un(op, a) => {
                    let ia = nodes[a.index()];
                    self.push_node(main, NodeOp::Un(*op), vec![ia])
                }
                Expr::Bin(op, a, b) => {
                    let (ia, ib) = (nodes[a.index()], nodes[b.index()]);
                    self.push_node(main, NodeOp::Bin(*op), vec![ia, ib])
                }
                Expr::Mux { c, t, f } => {
                    let ins = vec![nodes[c.index()], nodes[t.index()], nodes[f.index()]];
                    self.push_node(main, NodeOp::Mux, ins)
                }
                Expr::Reduce { op, value, init, over } => {
                    let li = self.level_of(main, *over).unwrap_or(usize::MAX);
                    let reset = if li == usize::MAX { 0 } else { li };
                    let acc = self.push_node(
                        main,
                        NodeOp::Reduce { op: *op, init: *init, reset_level: reset },
                        vec![nodes[value.index()]],
                    );
                    // Vectorized units keep per-SIMD-lane accumulators;
                    // the IR-level value is the lane-combined total, so
                    // every consumer sees the reduction-tree output.
                    if width > 1 {
                        self.push_node(main, NodeOp::VecReduce(*op), vec![acc])
                    } else {
                        acc
                    }
                }
                Expr::Load { mem, .. } => {
                    let access = AccessId { hb, expr: eid };
                    let (src_unit, src_port) =
                        self.build_access(access, *mem, lane, &binding, &specs, &h)?;
                    let (_, in_port) = self.g.connect_bcast(
                        src_unit,
                        src_port,
                        main,
                        if width > 1 { StreamKind::Vector(width) } else { StreamKind::Scalar },
                        self.chip.pcu.fifo_depth,
                        format!("resp:{access}"),
                    );
                    self.note_gate_mask(main, in_port, Some(hb));
                    self.push_node(main, NodeOp::StreamIn { port: in_port }, vec![])
                }
                Expr::Store { mem, value, cond, .. } => {
                    let access = AccessId { hb, expr: eid };
                    if let Some((reduce_slot, over)) = combined_stores.get(&eid.index()) {
                        // Cross-lane reduction: push the SIMD-combined
                        // partial to the combine unit at the end of each
                        // local activation of `over`.
                        // nodes[reduce_slot] is already the lane-combined
                        // total (VecReduce inserted at translation).
                        let scalar = nodes[*reduce_slot];
                        let op = match h.get(ExprId(*reduce_slot as u32)) {
                            Some(Expr::Reduce { op, .. }) => *op,
                            _ => {
                                return Err(CompileError::Internal(
                                    "combined_stores slot is not a reduce".into(),
                                ))
                            }
                        };
                        let pred = self.emission_pred(main, *over)?;
                        let combine = self.get_combine(access, *over, op, hb, eid, &binding)?;
                        let (_, out_port, in_port) = self.g.connect(
                            main,
                            combine,
                            StreamKind::Scalar,
                            self.chip.pcu.fifo_depth,
                            format!("partial:{access}"),
                        );
                        self.note_gate_mask(combine, in_port, Some(hb));
                        let ckey = self.project_combine_lane(hb, *over, &binding)?;
                        self.combines
                            .get_mut(&(access, ckey))
                            .ok_or_else(|| {
                                CompileError::Internal(format!(
                                    "combine for {access} not registered"
                                ))
                            })?
                            .partial_ports
                            .push(in_port);
                        self.push_node(
                            main,
                            NodeOp::StreamOut { port: out_port, pred: true, empty_pred: false },
                            vec![scalar, pred],
                        )
                    } else {
                        let data_node = nodes[value.index()];
                        let cond_node = cond.map(|c| nodes[c.index()]);
                        self.build_store(
                            access, *mem, lane, &binding, &specs, &h, &nodes, main, data_node,
                            cond_node,
                        )?;
                        data_node
                    }
                }
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

    fn project_combine_lane(
        &self,
        hb: CtrlId,
        over: CtrlId,
        binding: &BTreeMap<CtrlId, u32>,
    ) -> Result<LaneKey, CompileError> {
        // Lane over loops strictly above `over`.
        let loops = self.unrolled_loops(hb);
        Ok(loops
            .iter()
            .filter(|(c, _)| self.p.is_ancestor(*c, over) && *c != over)
            .map(|(c, _)| binding.get(c).copied().unwrap_or(0))
            .collect())
    }

    fn get_combine(
        &mut self,
        access: AccessId,
        over: CtrlId,
        op: BinOp,
        hb: CtrlId,
        store_expr: ExprId,
        binding: &BTreeMap<CtrlId, u32>,
    ) -> Result<UnitId, CompileError> {
        let lane = self.project_combine_lane(hb, over, binding)?;
        if let Some(cb) = self.combines.get(&(access, lane.clone())) {
            return Ok(cb.unit);
        }
        // Levels strictly above `over`.
        let specs_all = self.level_specs(hb);
        let cut = specs_all
            .iter()
            .position(|s| s.ctrl() == over)
            .ok_or_else(|| CompileError::Internal(format!("loop {over} missing in specs")))?;
        let specs: Vec<LSpec> = specs_all[..cut].to_vec();
        let cbind: BTreeMap<CtrlId, u32> = binding
            .iter()
            .filter(|(c, _)| self.p.is_ancestor(**c, over) && **c != over)
            .map(|(c, u)| (*c, *u))
            .collect();
        let unit = self.new_vcu(format!("combine:{access}"), &specs, &cbind, VcuRole::Merge);
        self.combines.insert(
            (access, lane.clone()),
            CombineBuild {
                unit,
                partial_ports: Vec::new(),
                op,
                hb,
                store_expr,
                binding: cbind,
                lane,
                specs,
            },
        );
        Ok(unit)
    }

    fn finalize_combines(&mut self) -> Result<(), CompileError> {
        let keys: Vec<(AccessId, LaneKey)> = self.combines.keys().cloned().collect();
        for key in keys {
            let (unit, ports, op, hb, store_expr, binding, lane, specs) = {
                let cb = self
                    .combines
                    .get(&key)
                    .ok_or_else(|| CompileError::Internal("combine key vanished".into()))?;
                (
                    cb.unit,
                    cb.partial_ports.clone(),
                    cb.op,
                    cb.hb,
                    cb.store_expr,
                    cb.binding.clone(),
                    cb.lane.clone(),
                    cb.specs.clone(),
                )
            };
            // Tree-combine the partials.
            let mut vals: Vec<usize> = ports
                .iter()
                .map(|p| self.push_node(unit, NodeOp::StreamIn { port: *p }, vec![]))
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
            let total = vals[0];
            // Translate the store's address slice in the combine context
            // and perform the store from here.
            let h = self
                .p
                .ctrl(hb)
                .hyperblock()
                .ok_or_else(|| CompileError::Internal(format!("combine hb {hb} is not a leaf")))?
                .clone();
            let (mem, addr_exprs) = match h.get(store_expr) {
                Some(Expr::Store { mem, addr, .. }) => (*mem, addr.clone()),
                _ => return Err(CompileError::Internal("combine store is not a store".into())),
            };
            let access = key.0;
            self.access_lanes.entry(access).or_default().push(lane.clone());
            // Build a request unit for the store in the combine context.
            let needed = closure_of(&h, &addr_exprs);
            let req = self.new_vcu(
                format!("req:{access}@{lane:?}"),
                &specs,
                &binding,
                VcuRole::Request { access, lane: lane_tag(&lane) },
            );
            self.request.insert((access, lane.clone()), req);
            let req_nodes = self.translate_slice(req, hb, &h, &needed, &binding)?;
            self.finish_store_wiring(
                access,
                mem,
                &lane,
                &binding,
                req,
                &req_nodes,
                &addr_exprs,
                None,
                unit,
                total,
                None,
                &specs,
            )?;
        }
        Ok(())
    }

    // -------------------------------------------------------------- accesses

    /// Backward-slice translation of selected expressions into `unit`.
    /// Loads inside the slice consume the broadcast response streams of
    /// accesses already built for this hyperblock lane.
    #[allow(clippy::too_many_arguments)]
    fn translate_slice(
        &mut self,
        unit: UnitId,
        hb: CtrlId,
        h: &sara_ir::Hyperblock,
        needed: &HashSet<usize>,
        binding: &BTreeMap<CtrlId, u32>,
    ) -> Result<HashMap<usize, usize>, CompileError> {
        let mut map: HashMap<usize, usize> = HashMap::new();
        let width = { self.vcu_mut(unit).width };
        for (eid, e) in h.iter() {
            if !needed.contains(&eid.index()) {
                continue;
            }
            let n = match e {
                Expr::Const(v) => self.push_node(unit, NodeOp::Const(*v), vec![]),
                Expr::Idx(c) => {
                    let li = self.level_of(unit, *c)?;
                    self.push_node(unit, NodeOp::CounterIdx { level: li }, vec![])
                }
                Expr::IsFirst(c) => {
                    let li = self.level_of(unit, *c)?;
                    self.push_node(unit, NodeOp::IsFirst { level: li }, vec![])
                }
                Expr::IsLast(c) => {
                    let li = self.level_of(unit, *c)?;
                    self.push_node(unit, NodeOp::IsLast { level: li }, vec![])
                }
                Expr::Un(op, a) => {
                    let ia = map[&a.index()];
                    self.push_node(unit, NodeOp::Un(*op), vec![ia])
                }
                Expr::Bin(op, a, b) => {
                    let ins = vec![map[&a.index()], map[&b.index()]];
                    self.push_node(unit, NodeOp::Bin(*op), ins)
                }
                Expr::Mux { c, t, f } => {
                    let ins = vec![map[&c.index()], map[&t.index()], map[&f.index()]];
                    self.push_node(unit, NodeOp::Mux, ins)
                }
                Expr::Load { .. } => {
                    let access = AccessId { hb, expr: eid };
                    let lane = self.project_lane(hb, binding)?;
                    let (src_unit, src_port) = *self.data_src(&access, &lane).ok_or_else(|| {
                        CompileError::Internal(format!(
                            "slice load {access} has no data source yet"
                        ))
                    })?;
                    let (_, in_port) = self.g.connect_bcast(
                        src_unit,
                        src_port,
                        unit,
                        if width > 1 { StreamKind::Vector(width) } else { StreamKind::Scalar },
                        self.chip.pcu.fifo_depth,
                        format!("resp:{access}->slice"),
                    );
                    self.note_gate_mask(unit, in_port, Some(hb));
                    self.push_node(unit, NodeOp::StreamIn { port: in_port }, vec![])
                }
                Expr::Store { .. } | Expr::Reduce { .. } => {
                    return Err(CompileError::Unpartitionable(format!(
                        "address/predicate slice in {hb} depends on a store or reduction"
                    )))
                }
            };
            map.insert(eid.index(), n);
        }
        Ok(map)
    }

    fn data_src(&self, access: &AccessId, lane: &LaneKey) -> Option<&(UnitId, usize)> {
        self.data_srcs.get(&(*access, lane.clone()))
    }

    /// Build the machinery of a *load* access and return the `(unit,
    /// out_port)` that produces its response data.
    fn build_access(
        &mut self,
        access: AccessId,
        mem: MemId,
        lane: &LaneKey,
        binding: &BTreeMap<CtrlId, u32>,
        specs: &[LSpec],
        h: &sara_ir::Hyperblock,
    ) -> Result<(UnitId, usize), CompileError> {
        let decl = self.p.mem(mem);
        let hb = access.hb;
        let width = self.specs_width(specs);
        let kind_vec = if width > 1 { StreamKind::Vector(width) } else { StreamKind::Scalar };

        if decl.kind == MemKind::Fifo {
            // Direct stream from the writer unit's broadcast port; the
            // caller attaches the consuming stream.
            let (wu, vnode, cnode) = *self.fifo_writers.get(&mem).ok_or_else(|| {
                CompileError::Unpartitionable(format!("fifo {mem} read before any write"))
            })?;
            let out_port = self.fifo_out_port(mem, wu, vnode, cnode);
            let access = AccessId { hb, expr: access.expr };
            self.data_srcs.insert((access, lane.clone()), (wu, out_port));
            return Ok((wu, out_port));
        }

        let addr_exprs = match h.get(access.expr) {
            Some(Expr::Load { addr, .. }) => addr.clone(),
            _ => return Err(CompileError::Internal("build_access on non-load".into())),
        };
        let needed = closure_of(h, &addr_exprs);
        let req = self.new_vcu(
            format!("req:{access}@{lane:?}"),
            specs,
            binding,
            VcuRole::Request { access, lane: lane_tag(lane) },
        );
        self.request.insert((access, lane.clone()), req);
        self.access_lanes.entry(access).or_default().push(lane.clone());
        let req_nodes = self.translate_slice(req, hb, h, &needed, binding)?;
        let flat = self.flatten_addr(req, mem, &addr_exprs, &req_nodes)?;

        let (src_unit, src_port) = if decl.kind == MemKind::Dram {
            // AG read
            let base = self.dram_base[&mem];
            let ag = self.g.add_unit(
                format!("ag:{access}@{lane:?}"),
                UnitKind::Ag(AgUnit {
                    mem,
                    dir: AgDir::Read,
                    addr_in: 0,
                    data_in: None,
                    out: 0,
                    width,
                    base_addr: base,
                }),
            );
            let (_, addr_out, ag_in) = self.g.connect(
                req,
                ag,
                kind_vec,
                self.chip.pcu.fifo_depth,
                format!("addr:{access}"),
            );
            self.push_node(
                req,
                NodeOp::StreamOut { port: addr_out, pred: false, empty_pred: false },
                vec![flat],
            );
            // AG data out: create a port by connecting to a throwaway? We
            // create the port lazily at first consumer via connect_bcast
            // from port 0 — so make the port now against the response unit
            // or the main unit; simplest: the caller broadcasts from the
            // port we create toward the first consumer. Create the port
            // with the response unit if needed, else leave for caller.
            if let UnitKind::Ag(a) = &mut self.g.unit_mut(ag).kind {
                a.addr_in = ag_in;
            }
            let out_port = self.ensure_out_port(ag);
            if let UnitKind::Ag(a) = &mut self.g.unit_mut(ag).kind {
                a.out = out_port;
            }
            (ag, out_port)
        } else {
            self.wire_onchip_read(access, mem, binding, req, flat, width)?
        };
        self.data_srcs.insert((access, lane.clone()), (src_unit, src_port));
        // Epoch markers for multibuffered memories.
        self.set_epoch_emit(req, mem, hb)?;
        // Response unit if this access sources tokens.
        if self.token_srcs.contains(&access) {
            self.make_response(access, lane, binding, specs, (src_unit, src_port))?;
        }
        Ok((src_unit, src_port))
    }

    /// Wiring of a *store* access (data computed in `data_unit` at node
    /// `data_node`).
    #[allow(clippy::too_many_arguments)]
    fn build_store(
        &mut self,
        access: AccessId,
        mem: MemId,
        lane: &LaneKey,
        binding: &BTreeMap<CtrlId, u32>,
        specs: &[LSpec],
        h: &sara_ir::Hyperblock,
        main_nodes: &[usize],
        data_unit: UnitId,
        data_node: usize,
        cond_node: Option<usize>,
    ) -> Result<(), CompileError> {
        let decl = self.p.mem(mem);
        let hb = access.hb;

        // Control-register stores feed broadcast value streams instead of
        // (or in addition to) memory.
        if self.ctrl_writers.get(&mem) == Some(&access) {
            if cond_node.is_some() {
                return Err(CompileError::Unpartitionable(format!(
                    "store to control register {mem} must be unconditional"
                )));
            }
            self.ctrl_value.insert((mem, lane.clone()), (data_unit, data_node, None));
            // If nothing reads the register as data, we are done.
            let has_data_reads = self.p.accesses_of(mem).iter().any(|a| !a.is_write);
            if !has_data_reads {
                return Ok(());
            }
        }

        if decl.kind == MemKind::Fifo {
            if let Some(&(prev, _, _)) = self.fifo_writers.get(&mem) {
                if prev != data_unit {
                    return Err(CompileError::Internal(format!(
                        "fifo {mem} has multiple writer units; check_fifo_streams should have rejected this"
                    )));
                }
            }
            self.fifo_writers.insert(mem, (data_unit, data_node, cond_node));
            return Ok(());
        }

        let addr_exprs = match h.get(access.expr) {
            Some(Expr::Store { addr, .. }) => addr.clone(),
            _ => return Err(CompileError::Internal("build_store on non-store".into())),
        };
        let cond_expr = match h.get(access.expr) {
            Some(Expr::Store { cond, .. }) => *cond,
            _ => None,
        };
        let mut roots = addr_exprs.clone();
        if let Some(c) = cond_expr {
            roots.push(c);
        }
        let needed = closure_of(h, &roots);
        let req = self.new_vcu(
            format!("req:{access}@{lane:?}"),
            specs,
            binding,
            VcuRole::Request { access, lane: lane_tag(lane) },
        );
        self.request.insert((access, lane.clone()), req);
        self.access_lanes.entry(access).or_default().push(lane.clone());
        let req_nodes = self.translate_slice(req, hb, h, &needed, binding)?;
        let req_cond = cond_expr.map(|c| req_nodes[&c.index()]);
        let _ = main_nodes;
        self.finish_store_wiring(
            access,
            mem,
            lane,
            binding,
            req,
            &req_nodes,
            &addr_exprs,
            req_cond,
            data_unit,
            data_node,
            cond_node,
            specs,
        )
    }

    /// Shared tail of store wiring: flatten the address in the request
    /// unit, route addr + data to the VMU/AG, wire acks and epochs.
    #[allow(clippy::too_many_arguments)]
    fn finish_store_wiring(
        &mut self,
        access: AccessId,
        mem: MemId,
        lane: &LaneKey,
        binding: &BTreeMap<CtrlId, u32>,
        req: UnitId,
        req_nodes: &HashMap<usize, usize>,
        addr_exprs: &[ExprId],
        req_cond: Option<usize>,
        data_unit: UnitId,
        data_node: usize,
        data_cond: Option<usize>,
        specs: &[LSpec],
    ) -> Result<(), CompileError> {
        let decl = self.p.mem(mem);
        let hb = access.hb;
        let width = self.specs_width(specs);
        let kind_vec = if width > 1 { StreamKind::Vector(width) } else { StreamKind::Scalar };
        let flat = self.flatten_addr(req, mem, addr_exprs, req_nodes)?;

        let completion: (UnitId, usize);
        if decl.kind == MemKind::Dram {
            let base = self.dram_base[&mem];
            let ag = self.g.add_unit(
                format!("ag:{access}@{lane:?}"),
                UnitKind::Ag(AgUnit {
                    mem,
                    dir: AgDir::Write,
                    addr_in: 0,
                    data_in: None,
                    out: 0,
                    width,
                    base_addr: base,
                }),
            );
            let (_, addr_out, ag_addr_in) = self.g.connect(
                req,
                ag,
                kind_vec,
                self.chip.pcu.fifo_depth,
                format!("waddr:{access}"),
            );
            let addr_ins = match req_cond {
                Some(c) => vec![flat, c],
                None => vec![flat],
            };
            self.push_node(
                req,
                NodeOp::StreamOut { port: addr_out, pred: req_cond.is_some(), empty_pred: true },
                addr_ins,
            );
            let (_, data_out, ag_data_in) = self.g.connect(
                data_unit,
                ag,
                kind_vec,
                self.chip.pcu.fifo_depth,
                format!("wdata:{access}"),
            );
            let data_ins = match data_cond {
                Some(c) => vec![data_node, c],
                None => vec![data_node],
            };
            self.push_node(
                data_unit,
                NodeOp::StreamOut { port: data_out, pred: data_cond.is_some(), empty_pred: true },
                data_ins,
            );
            if let UnitKind::Ag(a) = &mut self.g.unit_mut(ag).kind {
                a.addr_in = ag_addr_in;
                a.data_in = Some(ag_data_in);
            }
            let ack_port = self.ensure_out_port(ag);
            if let UnitKind::Ag(a) = &mut self.g.unit_mut(ag).kind {
                a.out = ack_port;
            }
            completion = (ag, ack_port);
        } else {
            completion = self.wire_onchip_write(
                access, mem, binding, req, flat, req_cond, data_unit, data_node, data_cond, width,
            )?;
        }
        self.set_epoch_emit(req, mem, hb)?;
        if self.token_srcs.contains(&access) {
            self.make_response(access, lane, binding, specs, completion)?;
        }
        Ok(())
    }

    // ------------------------------------------------------- on-chip wiring

    fn mem_plan(&self, mem: MemId) -> (BankFn, Vec<(CtrlId, u32)>, HashMap<AccessId, BankRoute>) {
        match self.banking.of(mem) {
            Some(mp) => (mp.bank_fn, mp.private_loops.clone(), mp.routes.clone()),
            None => (BankFn::None, Vec::new(), HashMap::new()),
        }
    }

    /// Private-copy key of a memory for a lane binding.
    fn copy_key(
        &self,
        private_loops: &[(CtrlId, u32)],
        binding: &BTreeMap<CtrlId, u32>,
    ) -> LaneKey {
        private_loops.iter().map(|(c, _)| binding.get(c).copied().unwrap_or(0)).collect()
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
        self.vmu_build.insert(u, VmuBuild::default());
        u
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
        req: UnitId,
        flat: usize,
        width: u32,
    ) -> Result<(UnitId, usize), CompileError> {
        let kind_vec = if width > 1 { StreamKind::Vector(width) } else { StreamKind::Scalar };
        let (bank_fn, private_loops, routes) = self.mem_plan(mem);
        let copy = self.copy_key(&private_loops, binding);
        let route = routes.get(&access).copied().unwrap_or(BankRoute::Static);
        let static_bank = match route {
            BankRoute::Static => self.static_bank(access, bank_fn, binding).or(Some(0)),
            BankRoute::Dynamic => None,
        };
        if let Some(bank) = static_bank {
            let local = self.local_addr_nodes(req, flat, bank_fn);
            let vmu = self.get_vmu(mem, &copy, bank);
            let (_, addr_out, addr_in) = self.g.connect(
                req,
                vmu,
                kind_vec,
                self.chip.pmu.fifo_depth,
                format!("raddr:{access}"),
            );
            self.push_node(
                req,
                NodeOp::StreamOut { port: addr_out, pred: false, empty_pred: false },
                vec![local],
            );
            let data_port = self.ensure_out_port(vmu);
            self.vmu_build
                .get_mut(&vmu)
                .ok_or_else(|| CompileError::Internal("vmu build state missing".into()))?
                .read_ports
                .push(VmuReadPort { addr_in, data_out: data_port });
            Ok((vmu, data_port))
        } else {
            // Dynamic: request -> dist -> banks -> coll -> consumer.
            let banks = bank_fn.banks();
            let local = self.local_addr_nodes(req, flat, bank_fn);
            let bank = self.bank_nodes(req, flat, bank_fn);
            let dist = self.g.add_unit(
                format!("xdist:{access}"),
                UnitKind::XbarDist(XbarDist {
                    bank_in: 0,
                    payload_in: 0,
                    bank_outs: Vec::new(),
                    ba_out: None,
                }),
            );
            let (_, bank_out, dist_bank_in) = self.g.connect(
                req,
                dist,
                kind_vec,
                self.chip.pcu.fifo_depth,
                format!("ba:{access}"),
            );
            self.push_node(
                req,
                NodeOp::StreamOut { port: bank_out, pred: false, empty_pred: false },
                vec![bank],
            );
            let (_, addr_out, dist_addr_in) = self.g.connect(
                req,
                dist,
                kind_vec,
                self.chip.pcu.fifo_depth,
                format!("la:{access}"),
            );
            self.push_node(
                req,
                NodeOp::StreamOut { port: addr_out, pred: false, empty_pred: false },
                vec![local],
            );
            let coll = self.g.add_unit(
                format!("xcoll:{access}"),
                UnitKind::XbarColl(XbarColl { ba_in: 0, bank_ins: Vec::new(), out: 0 }),
            );
            let (_, ba_fwd_port, coll_ba_in) = self.g.connect(
                dist,
                coll,
                kind_vec,
                self.chip.pcu.fifo_depth,
                format!("bafwd:{access}"),
            );
            let mut bank_outs = Vec::new();
            let mut coll_bank_ins = Vec::new();
            for b in 0..banks {
                let vmu = self.get_vmu(mem, &copy, b);
                let (_, out_p, addr_in) = self.g.connect(
                    dist,
                    vmu,
                    kind_vec,
                    self.chip.pmu.fifo_depth,
                    format!("raddr:{access}#{b}"),
                );
                bank_outs.push(out_p);
                let data_port = self.ensure_out_port(vmu);
                self.vmu_build
                    .get_mut(&vmu)
                    .ok_or_else(|| CompileError::Internal("vmu build state missing".into()))?
                    .read_ports
                    .push(VmuReadPort { addr_in, data_out: data_port });
                let (_, coll_in) = self.g.connect_bcast(
                    vmu,
                    data_port,
                    coll,
                    kind_vec,
                    self.chip.pmu.fifo_depth,
                    format!("rdata:{access}#{b}->coll"),
                );
                coll_bank_ins.push(coll_in);
            }
            let out_port = self.ensure_out_port(coll);
            if let UnitKind::XbarDist(d) = &mut self.g.unit_mut(dist).kind {
                d.bank_in = dist_bank_in;
                d.payload_in = dist_addr_in;
                d.bank_outs = bank_outs;
                d.ba_out = Some(ba_fwd_port);
            }
            if let UnitKind::XbarColl(c) = &mut self.g.unit_mut(coll).kind {
                c.ba_in = coll_ba_in;
                c.bank_ins = coll_bank_ins;
                c.out = out_port;
            }
            Ok((coll, out_port))
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn wire_onchip_write(
        &mut self,
        access: AccessId,
        mem: MemId,
        binding: &BTreeMap<CtrlId, u32>,
        req: UnitId,
        flat: usize,
        req_cond: Option<usize>,
        data_unit: UnitId,
        data_node: usize,
        data_cond: Option<usize>,
        width: u32,
    ) -> Result<(UnitId, usize), CompileError> {
        let kind_vec = if width > 1 { StreamKind::Vector(width) } else { StreamKind::Scalar };
        let (bank_fn, private_loops, routes) = self.mem_plan(mem);
        let route = routes.get(&access).copied().unwrap_or(BankRoute::Static);
        // Writes to privatized memories: a writer outside the private
        // scope must broadcast to every copy; common case is writer inside
        // (single copy).
        let copies = self.copies_for(&private_loops, binding);
        if copies.len() > 1 && route == BankRoute::Dynamic {
            return Err(CompileError::Unpartitionable(format!(
                "dynamic-routed write {access} to privatized memory {mem}"
            )));
        }
        let mut completion: Option<(UnitId, usize)> = None;
        match route {
            BankRoute::Static => {
                let bank = self.static_bank(access, bank_fn, binding).unwrap_or(0);
                let local = self.local_addr_nodes(req, flat, bank_fn);
                // Reuse one addr out-port and one data out-port broadcast
                // across all copies.
                let mut addr_port: Option<usize> = None;
                let mut data_port: Option<usize> = None;
                for copy in &copies {
                    let vmu = self.get_vmu(mem, copy, bank);
                    let addr_in = match addr_port {
                        None => {
                            let (_, p, i) = self.g.connect(
                                req,
                                vmu,
                                kind_vec,
                                self.chip.pmu.fifo_depth,
                                format!("waddr:{access}"),
                            );
                            let ins = match req_cond {
                                Some(c) => vec![local, c],
                                None => vec![local],
                            };
                            self.push_node(
                                req,
                                NodeOp::StreamOut {
                                    port: p,
                                    pred: req_cond.is_some(),
                                    empty_pred: true,
                                },
                                ins,
                            );
                            addr_port = Some(p);
                            i
                        }
                        Some(p) => {
                            let (_, i) = self.g.connect_bcast(
                                req,
                                p,
                                vmu,
                                kind_vec,
                                self.chip.pmu.fifo_depth,
                                format!("waddr:{access}"),
                            );
                            i
                        }
                    };
                    let data_in = match data_port {
                        None => {
                            let (_, p, i) = self.g.connect(
                                data_unit,
                                vmu,
                                kind_vec,
                                self.chip.pmu.fifo_depth,
                                format!("wdata:{access}"),
                            );
                            let ins = match data_cond {
                                Some(c) => vec![data_node, c],
                                None => vec![data_node],
                            };
                            self.push_node(
                                data_unit,
                                NodeOp::StreamOut {
                                    port: p,
                                    pred: data_cond.is_some(),
                                    empty_pred: true,
                                },
                                ins,
                            );
                            data_port = Some(p);
                            i
                        }
                        Some(p) => {
                            let (_, i) = self.g.connect_bcast(
                                data_unit,
                                p,
                                vmu,
                                kind_vec,
                                self.chip.pmu.fifo_depth,
                                format!("wdata:{access}"),
                            );
                            i
                        }
                    };
                    let ack_port = if self.token_srcs.contains(&access) && completion.is_none() {
                        let p = self.ensure_out_port(vmu);
                        completion = Some((vmu, p));
                        Some(p)
                    } else {
                        None
                    };
                    self.vmu_build
                        .get_mut(&vmu)
                        .ok_or_else(|| CompileError::Internal("vmu build state missing".into()))?
                        .write_ports
                        .push(VmuWritePort { addr_in, data_in, ack_out: ack_port });
                }
            }
            BankRoute::Dynamic => {
                let copy = copies[0].clone();
                let banks = bank_fn.banks();
                let local = self.local_addr_nodes(req, flat, bank_fn);
                let bank = self.bank_nodes(req, flat, bank_fn);
                // addr dist
                let dist_a = self.g.add_unit(
                    format!("xdist-a:{access}"),
                    UnitKind::XbarDist(XbarDist {
                        bank_in: 0,
                        payload_in: 0,
                        bank_outs: Vec::new(),
                        ba_out: None,
                    }),
                );
                // data dist
                let dist_d = self.g.add_unit(
                    format!("xdist-d:{access}"),
                    UnitKind::XbarDist(XbarDist {
                        bank_in: 0,
                        payload_in: 0,
                        bank_outs: Vec::new(),
                        ba_out: None,
                    }),
                );
                let (_, ba_port, a_bank_in) = self.g.connect(
                    req,
                    dist_a,
                    kind_vec,
                    self.chip.pcu.fifo_depth,
                    format!("ba:{access}"),
                );
                let ba_ins = match req_cond {
                    Some(c) => vec![bank, c],
                    None => vec![bank],
                };
                self.push_node(
                    req,
                    NodeOp::StreamOut { port: ba_port, pred: req_cond.is_some(), empty_pred: true },
                    ba_ins,
                );
                let (_, d_bank_in) = self.g.connect_bcast(
                    req,
                    ba_port,
                    dist_d,
                    kind_vec,
                    self.chip.pcu.fifo_depth,
                    format!("ba:{access}->d"),
                );
                let (_, la_port, a_payload_in) = self.g.connect(
                    req,
                    dist_a,
                    kind_vec,
                    self.chip.pcu.fifo_depth,
                    format!("la:{access}"),
                );
                let la_ins = match req_cond {
                    Some(c) => vec![local, c],
                    None => vec![local],
                };
                self.push_node(
                    req,
                    NodeOp::StreamOut { port: la_port, pred: req_cond.is_some(), empty_pred: true },
                    la_ins,
                );
                let (_, data_port, d_payload_in) = self.g.connect(
                    data_unit,
                    dist_d,
                    kind_vec,
                    self.chip.pcu.fifo_depth,
                    format!("wdata:{access}"),
                );
                let d_ins = match data_cond {
                    Some(c) => vec![data_node, c],
                    None => vec![data_node],
                };
                self.push_node(
                    data_unit,
                    NodeOp::StreamOut {
                        port: data_port,
                        pred: data_cond.is_some(),
                        empty_pred: true,
                    },
                    d_ins,
                );
                // ack collector
                let need_ack = self.token_srcs.contains(&access);
                let coll = if need_ack {
                    Some(self.g.add_unit(
                        format!("xcoll-ack:{access}"),
                        UnitKind::XbarColl(XbarColl { ba_in: 0, bank_ins: Vec::new(), out: 0 }),
                    ))
                } else {
                    None
                };
                let mut coll_ba_in = 0usize;
                if let Some(c) = coll {
                    let (_, ba_fwd, cin) = self.g.connect(
                        dist_a,
                        c,
                        kind_vec,
                        self.chip.pcu.fifo_depth,
                        format!("bafwd:{access}"),
                    );
                    coll_ba_in = cin;
                    if let UnitKind::XbarDist(d) = &mut self.g.unit_mut(dist_a).kind {
                        d.ba_out = Some(ba_fwd);
                    }
                }
                let mut a_outs = Vec::new();
                let mut d_outs = Vec::new();
                let mut coll_ins = Vec::new();
                for b in 0..banks {
                    let vmu = self.get_vmu(mem, &copy, b);
                    let (_, ap, ai) = self.g.connect(
                        dist_a,
                        vmu,
                        kind_vec,
                        self.chip.pmu.fifo_depth,
                        format!("waddr:{access}#{b}"),
                    );
                    a_outs.push(ap);
                    let (_, dp, di) = self.g.connect(
                        dist_d,
                        vmu,
                        kind_vec,
                        self.chip.pmu.fifo_depth,
                        format!("wdata:{access}#{b}"),
                    );
                    d_outs.push(dp);
                    let ack = if let Some(c) = coll {
                        let p = self.ensure_out_port(vmu);
                        let (_, cin) = self.g.connect_bcast(
                            vmu,
                            p,
                            c,
                            StreamKind::Scalar,
                            self.chip.pmu.fifo_depth,
                            format!("ack:{access}#{b}->coll"),
                        );
                        coll_ins.push(cin);
                        Some(p)
                    } else {
                        None
                    };
                    self.vmu_build
                        .get_mut(&vmu)
                        .ok_or_else(|| CompileError::Internal("vmu build state missing".into()))?
                        .write_ports
                        .push(VmuWritePort { addr_in: ai, data_in: di, ack_out: ack });
                }
                if let UnitKind::XbarDist(d) = &mut self.g.unit_mut(dist_a).kind {
                    d.bank_in = a_bank_in;
                    d.payload_in = a_payload_in;
                    d.bank_outs = a_outs;
                }
                if let UnitKind::XbarDist(d) = &mut self.g.unit_mut(dist_d).kind {
                    d.bank_in = d_bank_in;
                    d.payload_in = d_payload_in;
                    d.bank_outs = d_outs;
                }
                if let Some(c) = coll {
                    let out = self.ensure_out_port(c);
                    if let UnitKind::XbarColl(cc) = &mut self.g.unit_mut(c).kind {
                        cc.ba_in = coll_ba_in;
                        cc.bank_ins = coll_ins;
                        cc.out = out;
                    }
                    completion = Some((c, out));
                }
            }
        }
        Ok(completion.unwrap_or((req, usize::MAX)))
    }

    /// Copies of a privatized memory a writer must reach given its lane
    /// binding: one per unbound private loop lane.
    fn copies_for(
        &self,
        private_loops: &[(CtrlId, u32)],
        binding: &BTreeMap<CtrlId, u32>,
    ) -> Vec<LaneKey> {
        let mut combos: Vec<LaneKey> = vec![vec![]];
        for (c, f) in private_loops {
            let choices: Vec<u32> = match binding.get(c) {
                Some(u) => vec![*u],
                None => (0..*f).collect(),
            };
            let mut next = Vec::new();
            for base in &combos {
                for ch in &choices {
                    let mut b2 = base.clone();
                    b2.push(*ch);
                    next.push(b2);
                }
            }
            combos = next;
        }
        combos
    }

    // ---------------------------------------------------------- token layer

    fn make_response(
        &mut self,
        access: AccessId,
        lane: &LaneKey,
        binding: &BTreeMap<CtrlId, u32>,
        specs: &[LSpec],
        completion: (UnitId, usize),
    ) -> Result<(), CompileError> {
        if completion.1 == usize::MAX {
            return Err(CompileError::Internal(format!(
                "access {access} sources tokens but has no completion stream"
            )));
        }
        let resp = self.new_vcu(
            format!("resp:{access}@{lane:?}"),
            specs,
            binding,
            VcuRole::Response { access, lane: lane_tag(lane) },
        );
        let width = self.specs_width(specs);
        let (_, in_port) = self.g.connect_bcast(
            completion.0,
            completion.1,
            resp,
            if width > 1 { StreamKind::Vector(width) } else { StreamKind::Scalar },
            self.chip.pcu.fifo_depth,
            format!("done:{access}"),
        );
        self.note_gate_mask(resp, in_port, Some(access.hb));
        self.push_node(resp, NodeOp::StreamIn { port: in_port }, vec![]);
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
            let depth = (e.init + 4).max(8);
            // Same-hyperblock exchanges are per-firing; lanes fire
            // independently (and possibly unequally — an over-parallelized
            // lane can be empty), so each lane pairs with itself instead
            // of aggregating through a sync barrier.
            if e.src.hb == e.dst.hb && src_lanes == dst_lanes {
                for (sl, l) in src_lanes.iter().enumerate() {
                    let (Some(&s), Some(&d)) = (
                        self.response.get(&(e.src, l.clone())),
                        self.request.get(&(e.dst, l.clone())),
                    ) else {
                        continue;
                    };
                    let _ = sl;
                    let (_, out_p, in_p) = self.g.connect(
                        s,
                        d,
                        StreamKind::Token { init: e.init },
                        depth,
                        format!("tok:{}->{}@lane", e.src, e.dst),
                    );
                    let slv = self.token_level(s, e.src_level, e.src.hb)?;
                    let dlv = self.token_level(d, e.dst_level, e.dst.hb)?;
                    self.vcu_mut(s).token_pushes.push(TokenRule { port: out_p, level: slv });
                    self.vcu_mut(d).token_pops.push(TokenRule { port: in_p, level: dlv });
                }
                continue;
            }
            if srcs.len() == 1 && dsts.len() == 1 {
                let (_, out_p, in_p) = self.g.connect(
                    srcs[0],
                    dsts[0],
                    StreamKind::Token { init: e.init },
                    depth,
                    format!("tok:{}->{}", e.src, e.dst),
                );
                let sl = self.token_level(srcs[0], e.src_level, e.src.hb)?;
                let dl = self.token_level(dsts[0], e.dst_level, e.dst.hb)?;
                self.vcu_mut(srcs[0]).token_pushes.push(TokenRule { port: out_p, level: sl });
                self.vcu_mut(dsts[0]).token_pops.push(TokenRule { port: in_p, level: dl });
            } else {
                let sync =
                    self.g.add_unit(format!("sync:{}->{}", e.src, e.dst), UnitKind::Sync(SyncUnit));
                for s in &srcs {
                    let (_, out_p, _) = self.g.connect(
                        *s,
                        sync,
                        StreamKind::Token { init: 0 },
                        depth,
                        format!("tok:{}->sync", e.src),
                    );
                    let sl = self.token_level(*s, e.src_level, e.src.hb)?;
                    self.vcu_mut(*s).token_pushes.push(TokenRule { port: out_p, level: sl });
                }
                for d in &dsts {
                    let (_, _, in_p) = self.g.connect(
                        sync,
                        *d,
                        StreamKind::Token { init: e.init },
                        depth,
                        format!("tok:sync->{}", e.dst),
                    );
                    let dl = self.token_level(*d, e.dst_level, e.dst.hb)?;
                    self.vcu_mut(*d).token_pops.push(TokenRule { port: in_p, level: dl });
                }
            }
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

    /// Get or create the broadcast out-port of a fifo writer's value.
    fn fifo_out_port(
        &mut self,
        mem: MemId,
        wu: UnitId,
        vnode: usize,
        cnode: Option<usize>,
    ) -> usize {
        if let Some(port) = self.fifo_ports.get(&mem) {
            return *port;
        }
        let port = self.ensure_out_port(wu);
        let ins = match cnode {
            Some(c) => vec![vnode, c],
            None => vec![vnode],
        };
        self.push_node(
            wu,
            NodeOp::StreamOut { port, pred: cnode.is_some(), empty_pred: false },
            ins,
        );
        self.fifo_ports.insert(mem, port);
        port
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
            let (wunit, vnode, port) =
                *self.ctrl_value.get(&(pend.mem, wlane.clone())).ok_or_else(|| {
                    CompileError::Internal(format!(
                        "control value for {} lane {wlane:?} not recorded",
                        pend.mem
                    ))
                })?;
            // Ensure the writer has a broadcast out-port for this value.
            let out_port = match port {
                Some(p) => p,
                None => {
                    let p = self.ensure_out_port(wunit);
                    self.push_node(
                        wunit,
                        NodeOp::StreamOut { port: p, pred: false, empty_pred: false },
                        vec![vnode],
                    );
                    self.ctrl_value.insert((pend.mem, wlane.clone()), (wunit, vnode, Some(p)));
                    p
                }
            };
            let (_, in_port) = self.g.connect_bcast(
                wunit,
                out_port,
                pend.unit,
                StreamKind::Scalar,
                8,
                format!("ctrl:{}", pend.mem),
            );
            self.note_gate_mask(pend.unit, in_port, Some(writer.hb));
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

    fn finalize_vmus(&mut self) {
        let keys: Vec<((MemId, LaneKey, u32), UnitId)> =
            self.vmu.iter().map(|(k, v)| (k.clone(), *v)).collect();
        for ((mem, _copy, bank), unit) in keys {
            let decl = self.p.mem(mem);
            let (bank_fn, _, _) = self.mem_plan(mem);
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
            let build = self.vmu_build.remove(&unit).unwrap_or_default();
            if let UnitKind::Vmu(v) = &mut self.g.unit_mut(unit).kind {
                v.bank = (bank, bank_fn.banks());
                v.words = words;
                v.init = init;
                v.multibuffer = multibuffer;
                v.write_ports = build.write_ports;
                v.read_ports = build.read_ports;
            }
        }
    }
}

/// Backward closure of a set of root expressions within a hyperblock.
fn closure_of(h: &sara_ir::Hyperblock, roots: &[ExprId]) -> HashSet<usize> {
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
