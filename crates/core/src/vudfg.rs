//! The virtual unit dataflow graph (VUDFG): SARA's hierarchical dataflow
//! representation (paper §III).
//!
//! The top level is a graph of **virtual units** (compute, memory, address
//! generator, token-sync and crossbar units) connected by **streams**; the
//! inner level is the dataflow graph inside each compute unit. Virtual
//! units carry no physical-resource assumptions until partitioning,
//! merging and assignment run.

use sara_ir::{AccessId, BinOp, CtrlId, Elem, MemId, UnOp};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a virtual unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UnitId(pub u32);

impl UnitId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Identifier of a stream (an edge of the VUDFG).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StreamId(pub u32);

impl StreamId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// What a stream carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamKind {
    /// Vector data of the given SIMD width.
    Vector(u32),
    /// Scalar data (width 1).
    Scalar,
    /// Single-bit synchronization tokens, initialized with `init` credits
    /// available at the destination (paper §III-A1).
    Token { init: u32 },
}

impl StreamKind {
    /// SIMD width of the payload (tokens count as width 0).
    pub fn width(self) -> u32 {
        match self {
            StreamKind::Vector(w) => w,
            StreamKind::Scalar => 1,
            StreamKind::Token { .. } => 0,
        }
    }

    /// Whether this is a token stream.
    pub fn is_token(self) -> bool {
        matches!(self, StreamKind::Token { .. })
    }
}

/// A stream: a point-to-point FIFO channel between two units.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct Stream {
    pub src: UnitId,
    pub dst: UnitId,
    pub kind: StreamKind,
    /// Receive-FIFO depth in elements.
    pub depth: u32,
    /// Network latency in cycles; refined by place-and-route.
    pub latency: u32,
    /// Debug label.
    pub label: String,
}

/// A control level of a unit's control context, outermost first. The chain
/// mirrors the unit's ancestor controllers in the original program.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Level {
    /// Counted loop level. Bounds are constants or values consumed from an
    /// input port once per activation of this level (dynamic bounds,
    /// §III-A2a). `lane_offset` is added to the resolved `min` — the
    /// spatial-unrolling lane shift of a cyclically distributed counter —
    /// and `lane_stride` is the per-SIMD-lane index increment within one
    /// vectorized firing (the original loop step).
    Counter {
        min: CBound,
        max: CBound,
        step: i64,
        lane_offset: i64,
        lane_stride: i64,
        ctrl: CtrlId,
    },
    /// Branch-arm gate: one value is consumed from the cond input per
    /// activation; if it differs from `expect`, the activation is skipped
    /// (vacuously completing inner levels and still exchanging tokens,
    /// §III-A2b).
    Gate { cond_in: usize, expect: bool, ctrl: CtrlId },
    /// Do-while level: after each iteration one value is consumed from the
    /// cond input; iteration repeats while it is true (§III-A2c).
    While { cond_in: usize, ctrl: CtrlId },
}

impl Level {
    /// The program controller this level mirrors.
    pub fn ctrl(&self) -> CtrlId {
        match self {
            Level::Counter { ctrl, .. } | Level::Gate { ctrl, .. } | Level::While { ctrl, .. } => {
                *ctrl
            }
        }
    }

    /// Static trip count of a counter level, if known.
    pub fn static_trip(&self) -> Option<u64> {
        match self {
            Level::Counter { min: CBound::Const(a), max: CBound::Const(b), step, .. } => {
                if *step > 0 {
                    Some(((b - a).max(0) as u64).div_ceil(*step as u64))
                } else if *step < 0 {
                    Some(((a - b).max(0) as u64).div_ceil((-*step) as u64))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// A counter bound: constant or streamed from an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CBound {
    Const(i64),
    /// Index into the unit's input list; one value consumed per activation
    /// of the level.
    Port(usize),
}

/// Inner dataflow-node operation of a compute unit.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum NodeOp {
    /// Constant (broadcast across lanes).
    Const(Elem),
    /// Current index of control level `level` (per-lane value for the
    /// vectorized innermost level).
    CounterIdx { level: usize },
    /// First-iteration predicate of a counter level.
    IsFirst { level: usize },
    /// Last-iteration predicate of a counter level.
    IsLast { level: usize },
    /// Unary ALU op.
    Un(UnOp),
    /// Binary ALU op.
    Bin(BinOp),
    /// Select (operands: cond, then, else).
    Mux,
    /// Pop one element per firing from input port `port`.
    StreamIn { port: usize },
    /// Push operand 0 to output port `port` each firing. With `pred`, the
    /// last operand is a predicate filtering lanes. `empty_pred` controls
    /// what a fully-disabled firing pushes: `true` emits a zero-length
    /// packet (memory-port streams: keeps request/ack counts aligned with
    /// firings for predicated stores), `false` emits nothing (partial
    /// reduction emissions, control values).
    StreamOut { port: usize, pred: bool, empty_pred: bool },
    /// Loop-carried accumulator: reset to `init` at each activation of
    /// level `reset_level`, updated with `op(acc, operand)` per firing.
    /// In a vectorized unit each SIMD lane keeps its own accumulator.
    Reduce { op: BinOp, init: Elem, reset_level: usize },
    /// Tree-combine the SIMD lanes of the operand into one scalar (the
    /// PCU's reduction tree).
    VecReduce(BinOp),
}

impl NodeOp {
    /// Pipeline-stage cost of this node on a PCU (constants, counters and
    /// stream I/O are free; transcendental ops cost extra stages).
    pub fn stage_cost(&self, transcendental_stages: u32) -> u32 {
        match self {
            NodeOp::Const(_)
            | NodeOp::CounterIdx { .. }
            | NodeOp::IsFirst { .. }
            | NodeOp::IsLast { .. }
            | NodeOp::StreamIn { .. }
            | NodeOp::StreamOut { .. } => 0,
            NodeOp::Un(op) if op.is_transcendental() => transcendental_stages,
            NodeOp::Un(_)
            | NodeOp::Bin(_)
            | NodeOp::Mux
            | NodeOp::Reduce { .. }
            | NodeOp::VecReduce(_) => 1,
        }
    }
}

/// One node of a compute unit's inner dataflow graph.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct DfgNode {
    pub op: NodeOp,
    /// Operand node indices (must be earlier nodes: SSA order).
    pub ins: Vec<usize>,
}

/// Role of a compute unit, for reports and debugging.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VcuRole {
    /// Main datapath of a hyperblock (one per unrolled lane).
    Main { hb: CtrlId, lane: u32 },
    /// Address/request generation for one access site.
    Request { access: AccessId, lane: u32 },
    /// Completion counting for one access site (token source).
    Response { access: AccessId, lane: u32 },
    /// Retiming buffer inserted to balance path delays.
    Retime,
    /// Crossbar distribute/collect or token fan-in/fan-out helper.
    Merge,
    /// A partition split out of an oversized unit.
    Split { of: CtrlId, index: u32 },
}

/// Token push/pop rule: exchange one token per activation of `level`
/// (pop at activation start, push at activation end). `level == 0` refers
/// to the outermost level; `usize::MAX` means "once for the whole
/// execution" (accesses whose LCA path has no iterative level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TokenRule {
    /// Index into the unit's inputs (pop) or outputs (push).
    pub port: usize,
    /// Level index in the unit's chain at which the exchange happens; the
    /// token is popped before the first firing of an activation of this
    /// level and pushed after its last firing.
    pub level: usize,
}

/// A virtual compute unit.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct Vcu {
    /// Control context, outermost first. Empty = fires exactly once.
    pub levels: Vec<Level>,
    /// Inner dataflow graph in SSA order.
    pub dfg: Vec<DfgNode>,
    /// SIMD width of the innermost (vectorized) level; 1 if unvectorized.
    pub width: u32,
    /// Role.
    pub role: VcuRole,
    /// Token pops (input ports).
    pub token_pops: Vec<TokenRule>,
    /// Token pushes (output ports).
    pub token_pushes: Vec<TokenRule>,
    /// For each input port: a bitmask over this unit's gate levels whose
    /// gating also silences the port's *producer*. During the vacuous sweep
    /// of a skipped gate at level `k`, a bound/cond port is consumed only
    /// if bit `k` is clear (the producer keeps producing when this gate
    /// skips); token pops are always exchanged (their producers push
    /// vacuously too).
    pub producer_gate_mask: Vec<u64>,
    /// When `Some(level)`, the unit emits an epoch-end marker on all its
    /// outputs whenever the activation of that level completes (including
    /// vacuously skipped activations, which emit an empty marker packet).
    /// Multibuffered VMUs switch buffers on these markers.
    pub epoch_emit: Option<usize>,
}

impl Vcu {
    /// Pipeline-stage cost of the unit's datapath.
    pub fn stage_cost(&self, transcendental_stages: u32) -> u32 {
        self.dfg.iter().map(|n| n.op.stage_cost(transcendental_stages)).sum()
    }
}

/// A write port of a memory unit: paired address and data input streams
/// (values pair up elementwise in firing order), plus an ack output feeding
/// the response unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VmuWritePort {
    pub addr_in: usize,
    pub data_in: usize,
    /// Output port for write acknowledgements (one pulse per committed
    /// vector write).
    pub ack_out: Option<usize>,
}

/// A read port of a memory unit: an address input stream and a response
/// data output stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VmuReadPort {
    pub addr_in: usize,
    pub data_out: usize,
}

/// A virtual memory unit: one bank of one logical on-chip memory.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct Vmu {
    /// Logical memory this bank belongs to.
    pub mem: MemId,
    /// `(bank index, bank count)` of cyclic banking over flattened
    /// addresses; `(0, 1)` when unbanked.
    pub bank: (u32, u32),
    /// Unroll-lane tag when this is a lane-private copy.
    pub lane: u32,
    /// Words stored in this bank.
    pub words: usize,
    /// Initial contents of this bank (local addresses).
    pub init: Vec<Elem>,
    /// Multibuffer depth (coarse-grain pipelining across accessor stages).
    pub multibuffer: u32,
    pub write_ports: Vec<VmuWritePort>,
    pub read_ports: Vec<VmuReadPort>,
    /// Read latency in cycles (request to response).
    pub read_latency: u32,
}

/// Direction of a DRAM access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AgDir {
    Read,
    Write,
}

/// A virtual address-generator unit: the on-chip endpoint of one DRAM
/// access site (per lane). Reads consume an address stream and produce a
/// data stream; writes consume address+data streams and produce an ack
/// stream.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct AgUnit {
    /// The DRAM tensor accessed.
    pub mem: MemId,
    pub dir: AgDir,
    /// Address input port.
    pub addr_in: usize,
    /// Data input port (writes only).
    pub data_in: Option<usize>,
    /// Data output (reads) or ack output (writes).
    pub out: usize,
    /// SIMD width of one request (elements per firing).
    pub width: u32,
    /// Byte offset of this tensor in the flat DRAM address space.
    pub base_addr: u64,
}

/// Token fan-in/fan-out synchronization unit: waits for one token on every
/// input, then emits one token on every output. Realizes the lane
/// aggregation of token edges after spatial unrolling.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct SyncUnit;

/// Crossbar distributor (paper Fig 8): consumes a `(bank, payload)` pair
/// per firing — bank from `bank_in`, payload from `payload_in` — and routes
/// the payload to output `bank`; also forwards the bank id on `ba_out` so a
/// collector can restore response order.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct XbarDist {
    pub bank_in: usize,
    pub payload_in: usize,
    /// Per-bank payload outputs, indexed by bank.
    pub bank_outs: Vec<usize>,
    /// Bank-id forwarding output (for the response collector), if any.
    pub ba_out: Option<usize>,
}

/// Crossbar collector: consumes the forwarded bank-id stream and, per bank
/// id, pops one element from that bank's response input and emits it in
/// order.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct XbarColl {
    pub ba_in: usize,
    /// Per-bank response inputs, indexed by bank.
    pub bank_ins: Vec<usize>,
    pub out: usize,
}

/// The kind (and behaviour) of a virtual unit.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum UnitKind {
    Vcu(Vcu),
    Vmu(Vmu),
    Ag(AgUnit),
    Sync(SyncUnit),
    XbarDist(XbarDist),
    XbarColl(XbarColl),
}

/// An output port: one value source broadcast onto one or more streams.
/// A push replicates the value to every stream; backpressure requires
/// space on all of them. Out-degree accounting counts the port once —
/// "the number of broadcast edges with unique sources" (paper §III-B1).
#[derive(Debug, Clone, Default, PartialEq, Hash, Serialize, Deserialize)]
pub struct OutPort {
    pub streams: Vec<StreamId>,
}

/// A virtual unit.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct Unit {
    pub label: String,
    pub kind: UnitKind,
    /// Input streams, in port order (one stream per input port).
    pub inputs: Vec<StreamId>,
    /// Output ports, each broadcasting to one or more streams.
    pub outputs: Vec<OutPort>,
}

impl Unit {
    /// The compute payload, if this is a VCU.
    pub fn as_vcu(&self) -> Option<&Vcu> {
        match &self.kind {
            UnitKind::Vcu(v) => Some(v),
            _ => None,
        }
    }

    /// Mutable compute payload.
    pub fn as_vcu_mut(&mut self) -> Option<&mut Vcu> {
        match &mut self.kind {
            UnitKind::Vcu(v) => Some(v),
            _ => None,
        }
    }
}

/// An off-chip tensor and its location in the flat DRAM address space.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct DramTensor {
    pub mem: MemId,
    /// Byte base address.
    pub base: u64,
    /// Size in words (elements).
    pub words: usize,
    /// Initial contents.
    pub init: Vec<Elem>,
}

/// The virtual unit dataflow graph.
#[derive(Debug, Clone, Default, PartialEq, Hash, Serialize, Deserialize)]
pub struct Vudfg {
    pub units: Vec<Unit>,
    pub streams: Vec<Stream>,
    /// Off-chip tensors, with assigned DRAM base addresses.
    pub drams: Vec<DramTensor>,
    /// Name of the source program.
    pub name: String,
}

impl Vudfg {
    /// Empty graph for a named program.
    pub fn new(name: impl Into<String>) -> Self {
        Vudfg { units: Vec::new(), streams: Vec::new(), drams: Vec::new(), name: name.into() }
    }

    /// Add a unit and return its id.
    pub fn add_unit(&mut self, label: impl Into<String>, kind: UnitKind) -> UnitId {
        let id = UnitId(self.units.len() as u32);
        self.units.push(Unit {
            label: label.into(),
            kind,
            inputs: Vec::new(),
            outputs: Vec::new(),
        });
        id
    }

    /// Connect `src` to `dst` with a new stream on a *new* source output
    /// port; returns `(stream, src output port index, dst input port
    /// index)`.
    pub fn connect(
        &mut self,
        src: UnitId,
        dst: UnitId,
        kind: StreamKind,
        depth: u32,
        label: impl Into<String>,
    ) -> (StreamId, usize, usize) {
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(Stream { src, dst, kind, depth, latency: 1, label: label.into() });
        self.units[src.index()].outputs.push(OutPort { streams: vec![id] });
        let out_port = self.units[src.index()].outputs.len() - 1;
        self.units[dst.index()].inputs.push(id);
        let in_port = self.units[dst.index()].inputs.len() - 1;
        (id, out_port, in_port)
    }

    /// Attach another destination to an existing source output port
    /// (hardware broadcast); returns `(stream, dst input port index)`.
    pub fn connect_bcast(
        &mut self,
        src: UnitId,
        out_port: usize,
        dst: UnitId,
        kind: StreamKind,
        depth: u32,
        label: impl Into<String>,
    ) -> (StreamId, usize) {
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(Stream { src, dst, kind, depth, latency: 1, label: label.into() });
        self.units[src.index()].outputs[out_port].streams.push(id);
        self.units[dst.index()].inputs.push(id);
        let in_port = self.units[dst.index()].inputs.len() - 1;
        (id, in_port)
    }

    /// Unit lookup.
    pub fn unit(&self, id: UnitId) -> &Unit {
        &self.units[id.index()]
    }

    /// Mutable unit lookup.
    pub fn unit_mut(&mut self, id: UnitId) -> &mut Unit {
        &mut self.units[id.index()]
    }

    /// Stream lookup.
    pub fn stream(&self, id: StreamId) -> &Stream {
        &self.streams[id.index()]
    }

    /// Mutable stream lookup.
    pub fn stream_mut(&mut self, id: StreamId) -> &mut Stream {
        &mut self.streams[id.index()]
    }

    /// Iterate unit ids.
    pub fn unit_ids(&self) -> impl Iterator<Item = UnitId> {
        (0..self.units.len() as u32).map(UnitId)
    }

    /// Count of units matching a predicate.
    pub fn count_units(&self, f: impl Fn(&Unit) -> bool) -> usize {
        self.units.iter().filter(|u| f(u)).count()
    }

    /// Number of token streams (a CMMC cost metric).
    pub fn token_stream_count(&self) -> usize {
        self.streams.iter().filter(|s| s.kind.is_token()).count()
    }

    /// Dump a concise structural summary for debugging.
    pub fn summary(&self) -> String {
        let vcus = self.count_units(|u| matches!(u.kind, UnitKind::Vcu(_)));
        let vmus = self.count_units(|u| matches!(u.kind, UnitKind::Vmu(_)));
        let ags = self.count_units(|u| matches!(u.kind, UnitKind::Ag(_)));
        let syncs = self.count_units(|u| matches!(u.kind, UnitKind::Sync(_)));
        let xbars =
            self.count_units(|u| matches!(u.kind, UnitKind::XbarDist(_) | UnitKind::XbarColl(_)));
        format!(
            "{}: {} vcus, {} vmus, {} ags, {} syncs, {} xbars, {} streams ({} tokens)",
            self.name,
            vcus,
            vmus,
            ags,
            syncs,
            xbars,
            self.streams.len(),
            self.token_stream_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_vcu(role: VcuRole) -> UnitKind {
        UnitKind::Vcu(Vcu {
            levels: vec![],
            dfg: vec![],
            width: 1,
            role,
            token_pops: vec![],
            token_pushes: vec![],
            producer_gate_mask: vec![],
            epoch_emit: None,
        })
    }

    #[test]
    fn connect_assigns_ports_in_order() {
        let mut g = Vudfg::new("t");
        let a = g.add_unit("a", empty_vcu(VcuRole::Retime));
        let b = g.add_unit("b", empty_vcu(VcuRole::Retime));
        let (s0, op0, ip0) = g.connect(a, b, StreamKind::Scalar, 4, "x");
        let (s1, op1, ip1) = g.connect(a, b, StreamKind::Token { init: 1 }, 2, "t");
        assert_eq!((op0, ip0), (0, 0));
        assert_eq!((op1, ip1), (1, 1));
        assert_eq!(g.unit(a).outputs[0].streams, vec![s0]);
        assert_eq!(g.unit(a).outputs[1].streams, vec![s1]);
        assert_eq!(g.unit(b).inputs, vec![s0, s1]);
        assert_eq!(g.token_stream_count(), 1);
    }

    #[test]
    fn broadcast_shares_a_port() {
        let mut g = Vudfg::new("t");
        let a = g.add_unit("a", empty_vcu(VcuRole::Retime));
        let b = g.add_unit("b", empty_vcu(VcuRole::Retime));
        let c = g.add_unit("c", empty_vcu(VcuRole::Retime));
        let (_, op, _) = g.connect(a, b, StreamKind::Scalar, 4, "x");
        let (s2, ip2) = g.connect_bcast(a, op, c, StreamKind::Scalar, 4, "x2");
        assert_eq!(g.unit(a).outputs.len(), 1);
        assert_eq!(g.unit(a).outputs[0].streams.len(), 2);
        assert_eq!(g.unit(c).inputs[ip2], s2);
    }

    #[test]
    fn stage_costs() {
        assert_eq!(NodeOp::Const(Elem::I64(0)).stage_cost(2), 0);
        assert_eq!(NodeOp::Bin(BinOp::Add).stage_cost(2), 1);
        assert_eq!(NodeOp::Un(UnOp::Exp).stage_cost(2), 2);
        assert_eq!(NodeOp::Un(UnOp::Neg).stage_cost(2), 1);
    }

    #[test]
    fn level_static_trip() {
        let l = Level::Counter {
            min: CBound::Const(0),
            max: CBound::Const(10),
            step: 2,
            lane_offset: 0,
            lane_stride: 1,
            ctrl: CtrlId(1),
        };
        assert_eq!(l.static_trip(), Some(5));
        let d = Level::Counter {
            min: CBound::Port(0),
            max: CBound::Const(10),
            step: 1,
            lane_offset: 0,
            lane_stride: 1,
            ctrl: CtrlId(1),
        };
        assert_eq!(d.static_trip(), None);
    }

    #[test]
    fn summary_mentions_counts() {
        let mut g = Vudfg::new("demo");
        g.add_unit("a", empty_vcu(VcuRole::Retime));
        let s = g.summary();
        assert!(s.contains("demo"));
        assert!(s.contains("1 vcus"));
    }
}
