//! Stage-boundary artifacts: stable content hashing and a bit-exact
//! JSON serialization of the [`Vudfg`].
//!
//! The `sarad` compile-and-simulate service treats each pipeline stage's
//! output as a cacheable, verifiable artifact. That needs two things
//! from the compiler crate:
//!
//! * **Stable hashing** — [`StableHasher`] derives a deterministic
//!   128-bit content key from a stage's inputs (program text, compiler
//!   options, chip, PnR seed). The hash is *not* `std::hash::Hasher`
//!   (whose output is explicitly unstable across releases); it is a
//!   fixed FNV-1a construction whose values may be persisted in on-disk
//!   cache indexes. Domain separation comes from length-prefixing every
//!   field, so `("ab", "c")` and `("a", "bc")` never collide.
//! * **A bit-exact VUDFG wire form** — [`vudfg_json`] /
//!   [`vudfg_from_json`] round-trip the full graph, including every
//!   float of initial tensor data (encoded by IEEE-754 bit pattern, not
//!   decimal text), so a cached lowered or placed graph deserializes to
//!   a `Vudfg` that compares equal to the freshly compiled one and
//!   simulates to bit-identical cycle counts.
//!
//! Canonical-text helpers ([`program_canon`], [`options_canon`]) define
//! what "the same program, the same flags" means for cache keys: any
//! semantic difference must change the text (and therefore the hash);
//! spurious differences only cost a recompute, never a wrong hit.

use crate::compile::CompilerOptions;
use crate::shard::ShardPlan;
use crate::vudfg::{
    AgDir, AgUnit, CBound, DfgNode, DramTensor, Level, NodeOp, OutPort, Stream, StreamId,
    StreamKind, SyncUnit, TokenRule, Unit, UnitId, UnitKind, Vcu, VcuRole, Vmu, VmuReadPort,
    VmuWritePort, Vudfg, XbarColl, XbarDist,
};
use plasticine_arch::SystemSpec;
use sara_ir::{AccessId, BinOp, CtrlId, Elem, ExprId, MemId, Program, UnOp};
use sara_util::Json;

// ---------------------------------------------------------------------------
// Stable hashing
// ---------------------------------------------------------------------------

/// Deterministic 128-bit content hasher (two independent FNV-1a 64-bit
/// lanes) with length-prefixed field framing. Stable across processes,
/// platforms, and releases — safe to persist in cache indexes.
#[derive(Debug, Clone)]
pub struct StableHasher {
    lo: u64,
    hi: u64,
}

const FNV_OFFSET_LO: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_HI: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher.
    pub fn new() -> StableHasher {
        StableHasher { lo: FNV_OFFSET_LO, hi: FNV_OFFSET_HI }
    }

    /// Absorb raw bytes (no framing; see [`StableHasher::field`]).
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.lo = (self.lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.hi = (self.hi ^ u64::from(b ^ 0x5a)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorb one length-prefixed field: concatenation-ambiguity-proof.
    pub fn field(&mut self, bytes: &[u8]) -> &mut Self {
        self.bytes(&(bytes.len() as u64).to_le_bytes());
        self.bytes(bytes)
    }

    /// Absorb a string field.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.field(s.as_bytes())
    }

    /// Absorb an integer field.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.field(&v.to_le_bytes())
    }

    /// The 32-hex-character digest.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// One-shot digest of a byte string.
pub fn stable_hash_hex(bytes: &[u8]) -> String {
    let mut h = StableHasher::new();
    h.field(bytes);
    h.hex()
}

// ---------------------------------------------------------------------------
// Canonical key texts
// ---------------------------------------------------------------------------

/// Canonical text of a program for content addressing: the pretty-printed
/// control tree plus every memory's initial-contents spec (which the
/// pretty printer omits but which changes simulation results).
pub fn program_canon(p: &Program) -> String {
    use std::fmt::Write as _;
    let mut out = p.pretty();
    for (i, m) in p.mems.iter().enumerate() {
        let _ = writeln!(out, "init m{i} {:?}", m.init);
    }
    out
}

/// Canonical text of the full compiler-option set. Derived `Debug`
/// rendering: deterministic, and total over every field — renaming a
/// field invalidates old cache entries (a safe miss), while two distinct
/// option sets always render differently.
pub fn options_canon(opts: &CompilerOptions) -> String {
    format!("{opts:?}")
}

/// Content key of a compile stage: program, options, and the *full*
/// system/topology description ([`SystemSpec::canon`] covers every chip
/// and link field), so cached artifacts can never alias across two
/// topologies that happen to share a display name.
pub fn compile_key(p: &Program, opts: &CompilerOptions, system: &SystemSpec) -> String {
    let mut h = StableHasher::new();
    h.str("sarad-compile-v2").str(&program_canon(p)).str(&options_canon(opts)).str(&system.canon());
    h.hex()
}

// ---------------------------------------------------------------------------
// Shard-plan wire form
// ---------------------------------------------------------------------------

/// Serialize a [`ShardPlan`] so a multi-chip placement artifact carries
/// the unit→chip mapping and crossing set the linked simulation needs
/// (`cut_traffic` is encoded by IEEE-754 bit pattern, like tensor data).
pub fn shard_plan_json(p: &ShardPlan) -> Json {
    Json::object()
        .set("count", p.count)
        .set("chip_of", Json::Array(p.chip_of.iter().map(|&c| Json::from(c)).collect()))
        .set("crossings", Json::Array(p.crossings.iter().map(|s| Json::from(s.0)).collect()))
        .set("cut_traffic", f64_bits(p.cut_traffic))
}

/// Deserialize a [`ShardPlan`] from its JSON wire form.
///
/// # Errors
///
/// A one-line description of the first missing or ill-typed field.
pub fn shard_plan_from_json(v: &Json) -> Result<ShardPlan, String> {
    let u32_of = |e: &Json, what: &str| {
        e.as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| format!("shard plan: bad {what}"))
    };
    let chip_of = get_arr(v, "chip_of")?
        .iter()
        .map(|e| u32_of(e, "chip index"))
        .collect::<Result<Vec<u32>, String>>()?;
    let crossings = get_arr(v, "crossings")?
        .iter()
        .map(|e| u32_of(e, "crossing stream id").map(StreamId))
        .collect::<Result<Vec<StreamId>, String>>()?;
    let cut = get_str(v, "cut_traffic")?;
    let cut_traffic =
        f64_from_bits(cut).ok_or_else(|| format!("shard plan: bad cut_traffic {cut:?}"))?;
    Ok(ShardPlan { count: get_u32(v, "count")?, chip_of, crossings, cut_traffic })
}

// ---------------------------------------------------------------------------
// Elem / operator encoding
// ---------------------------------------------------------------------------

/// Bit-exact float encoding, `"f<16-hex IEEE-754 bits>"`: round-trips
/// NaN payloads and -0.0, which a decimal rendering would not.
pub fn f64_bits(v: f64) -> String {
    format!("f{:016x}", v.to_bits())
}

/// Read back a float written by [`f64_bits`]; `None` for any other
/// text.
pub fn f64_from_bits(s: &str) -> Option<f64> {
    s.strip_prefix('f').and_then(|hex| u64::from_str_radix(hex, 16).ok()).map(f64::from_bits)
}

/// Bit-exact element encoding: integers as `"i<decimal>"`, floats as
/// [`f64_bits`].
fn elem_str(e: Elem) -> String {
    match e {
        Elem::I64(v) => format!("i{v}"),
        Elem::F64(v) => f64_bits(v),
    }
}

fn elem_from(s: &str) -> Result<Elem, String> {
    if let Some(rest) = s.strip_prefix('i') {
        rest.parse::<i64>().map(Elem::I64).map_err(|_| format!("bad int element {s:?}"))
    } else if s.starts_with('f') {
        f64_from_bits(s).map(Elem::F64).ok_or_else(|| format!("bad float element {s:?}"))
    } else {
        Err(format!("bad element {s:?}"))
    }
}

fn elems_json(v: &[Elem]) -> Json {
    Json::Array(v.iter().map(|&e| Json::Str(elem_str(e))).collect())
}

fn elems_from(v: &Json, what: &str) -> Result<Vec<Elem>, String> {
    v.as_array()
        .ok_or_else(|| format!("{what}: expected element array"))?
        .iter()
        .map(|e| elem_from(e.as_str().ok_or_else(|| format!("{what}: non-string element"))?))
        .collect()
}

fn binop_from(s: &str) -> Result<BinOp, String> {
    use BinOp::*;
    Ok(match s {
        "Add" => Add,
        "Sub" => Sub,
        "Mul" => Mul,
        "Div" => Div,
        "Mod" => Mod,
        "Min" => Min,
        "Max" => Max,
        "And" => And,
        "Or" => Or,
        "Xor" => Xor,
        "Shl" => Shl,
        "Shr" => Shr,
        "Lt" => Lt,
        "Le" => Le,
        "Gt" => Gt,
        "Ge" => Ge,
        "Eq" => Eq,
        "Ne" => Ne,
        other => return Err(format!("unknown binop {other:?}")),
    })
}

fn unop_from(s: &str) -> Result<UnOp, String> {
    use UnOp::*;
    Ok(match s {
        "Neg" => Neg,
        "Not" => Not,
        "Abs" => Abs,
        "Exp" => Exp,
        "Log" => Log,
        "Sqrt" => Sqrt,
        "Sigmoid" => Sigmoid,
        "Tanh" => Tanh,
        "Relu" => Relu,
        "Floor" => Floor,
        "ToF" => ToF,
        "ToI" => ToI,
        other => return Err(format!("unknown unop {other:?}")),
    })
}

// ---------------------------------------------------------------------------
// Field-access helpers for decoding
// ---------------------------------------------------------------------------

fn get<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    get(v, key)?.as_u64().ok_or_else(|| format!("field {key:?} must be a non-negative integer"))
}

fn get_u32(v: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(get_u64(v, key)?).map_err(|_| format!("field {key:?} exceeds u32"))
}

fn get_usize(v: &Json, key: &str) -> Result<usize, String> {
    usize::try_from(get_u64(v, key)?).map_err(|_| format!("field {key:?} exceeds usize"))
}

fn get_i64(v: &Json, key: &str) -> Result<i64, String> {
    get(v, key)?.as_i64().ok_or_else(|| format!("field {key:?} must be an integer"))
}

fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    get(v, key)?.as_str().ok_or_else(|| format!("field {key:?} must be a string"))
}

fn get_bool(v: &Json, key: &str) -> Result<bool, String> {
    get(v, key)?.as_bool().ok_or_else(|| format!("field {key:?} must be a boolean"))
}

fn get_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    get(v, key)?.as_array().ok_or_else(|| format!("field {key:?} must be an array"))
}

fn opt_usize(v: &Json, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be null or a non-negative integer")),
    }
}

fn usize_arr(v: &Json, key: &str) -> Result<Vec<usize>, String> {
    get_arr(v, key)?
        .iter()
        .map(|e| {
            e.as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| format!("field {key:?}: non-integer entry"))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// VUDFG -> JSON
// ---------------------------------------------------------------------------

fn kind_json(k: StreamKind) -> Json {
    match k {
        StreamKind::Vector(w) => Json::object().set("t", "vec").set("w", w),
        StreamKind::Scalar => Json::object().set("t", "scalar"),
        StreamKind::Token { init } => Json::object().set("t", "tok").set("init", init),
    }
}

fn cbound_json(b: CBound) -> Json {
    match b {
        CBound::Const(v) => Json::object().set("c", v),
        CBound::Port(p) => Json::object().set("port", p),
    }
}

fn level_json(l: &Level) -> Json {
    match l {
        Level::Counter { min, max, step, lane_offset, lane_stride, ctrl } => Json::object()
            .set("t", "ctr")
            .set("min", cbound_json(*min))
            .set("max", cbound_json(*max))
            .set("step", *step)
            .set("off", *lane_offset)
            .set("stride", *lane_stride)
            .set("ctrl", ctrl.0),
        Level::Gate { cond_in, expect, ctrl } => Json::object()
            .set("t", "gate")
            .set("cond", *cond_in)
            .set("expect", *expect)
            .set("ctrl", ctrl.0),
        Level::While { cond_in, ctrl } => {
            Json::object().set("t", "while").set("cond", *cond_in).set("ctrl", ctrl.0)
        }
    }
}

fn node_json(n: &DfgNode) -> Json {
    let op = match &n.op {
        NodeOp::Const(e) => Json::object().set("t", "const").set("v", elem_str(*e)),
        NodeOp::CounterIdx { level } => Json::object().set("t", "cidx").set("level", *level),
        NodeOp::IsFirst { level } => Json::object().set("t", "isfirst").set("level", *level),
        NodeOp::IsLast { level } => Json::object().set("t", "islast").set("level", *level),
        NodeOp::Un(op) => Json::object().set("t", "un").set("op", format!("{op:?}")),
        NodeOp::Bin(op) => Json::object().set("t", "bin").set("op", format!("{op:?}")),
        NodeOp::Mux => Json::object().set("t", "mux"),
        NodeOp::StreamIn { port } => Json::object().set("t", "in").set("port", *port),
        NodeOp::StreamOut { port, pred, empty_pred } => Json::object()
            .set("t", "out")
            .set("port", *port)
            .set("pred", *pred)
            .set("empty", *empty_pred),
        NodeOp::Reduce { op, init, reset_level } => Json::object()
            .set("t", "red")
            .set("op", format!("{op:?}"))
            .set("init", elem_str(*init))
            .set("reset", *reset_level),
        NodeOp::VecReduce(op) => Json::object().set("t", "vred").set("op", format!("{op:?}")),
    };
    Json::object().set("op", op).set("ins", Json::from(n.ins.clone()))
}

fn access_json(a: AccessId) -> Json {
    Json::object().set("hb", a.hb.0).set("expr", a.expr.0)
}

fn role_json(r: &VcuRole) -> Json {
    match r {
        VcuRole::Main { hb, lane } => {
            Json::object().set("t", "main").set("hb", hb.0).set("lane", *lane)
        }
        VcuRole::Request { access, lane } => {
            Json::object().set("t", "req").set("access", access_json(*access)).set("lane", *lane)
        }
        VcuRole::Response { access, lane } => {
            Json::object().set("t", "resp").set("access", access_json(*access)).set("lane", *lane)
        }
        VcuRole::Retime => Json::object().set("t", "retime"),
        VcuRole::Merge => Json::object().set("t", "merge"),
        VcuRole::Split { of, index } => {
            Json::object().set("t", "split").set("of", of.0).set("index", *index)
        }
    }
}

/// `usize::MAX` (the "once for the whole execution" token level) encodes
/// as `-1`; everything else as itself.
fn token_level_json(level: usize) -> Json {
    if level == usize::MAX {
        Json::Int(-1)
    } else {
        Json::from(level)
    }
}

fn token_rule_json(r: &TokenRule) -> Json {
    Json::object().set("port", r.port).set("level", token_level_json(r.level))
}

fn token_rules_from(v: &Json, key: &str) -> Result<Vec<TokenRule>, String> {
    get_arr(v, key)?
        .iter()
        .map(|r| {
            let level = match get_i64(r, "level")? {
                -1 => usize::MAX,
                n if n >= 0 => usize::try_from(n).map_err(|_| "token level overflow")?,
                n => return Err(format!("bad token level {n}")),
            };
            Ok(TokenRule { port: get_usize(r, "port")?, level })
        })
        .collect()
}

fn vcu_json(v: &Vcu) -> Json {
    // Gate masks are u64 bit sets; hex strings sidestep the i64 ceiling
    // of the JSON integer type.
    let masks: Vec<Json> =
        v.producer_gate_mask.iter().map(|m| Json::Str(format!("{m:x}"))).collect();
    Json::object()
        .set("t", "vcu")
        .set("levels", Json::Array(v.levels.iter().map(level_json).collect()))
        .set("dfg", Json::Array(v.dfg.iter().map(node_json).collect()))
        .set("width", v.width)
        .set("role", role_json(&v.role))
        .set("pops", Json::Array(v.token_pops.iter().map(token_rule_json).collect()))
        .set("pushes", Json::Array(v.token_pushes.iter().map(token_rule_json).collect()))
        .set("gate_masks", Json::Array(masks))
        .set("epoch", v.epoch_emit)
}

fn unit_kind_json(k: &UnitKind) -> Json {
    match k {
        UnitKind::Vcu(v) => vcu_json(v),
        UnitKind::Vmu(m) => Json::object()
            .set("t", "vmu")
            .set("mem", m.mem.0)
            .set("bank", Json::Array(vec![Json::from(m.bank.0), Json::from(m.bank.1)]))
            .set("lane", m.lane)
            .set("words", m.words)
            .set("init", elems_json(&m.init))
            .set("multibuffer", m.multibuffer)
            .set(
                "wports",
                Json::Array(
                    m.write_ports
                        .iter()
                        .map(|p| {
                            Json::object()
                                .set("addr", p.addr_in)
                                .set("data", p.data_in)
                                .set("ack", p.ack_out)
                        })
                        .collect(),
                ),
            )
            .set(
                "rports",
                Json::Array(
                    m.read_ports
                        .iter()
                        .map(|p| Json::object().set("addr", p.addr_in).set("data", p.data_out))
                        .collect(),
                ),
            )
            .set("read_latency", m.read_latency),
        UnitKind::Ag(a) => Json::object()
            .set("t", "ag")
            .set("mem", a.mem.0)
            .set("dir", if a.dir == AgDir::Read { "r" } else { "w" })
            .set("addr", a.addr_in)
            .set("data", a.data_in)
            .set("out", a.out)
            .set("width", a.width)
            .set("base", i64::try_from(a.base_addr).unwrap_or(i64::MAX)),
        UnitKind::Sync(SyncUnit) => Json::object().set("t", "sync"),
        UnitKind::XbarDist(x) => Json::object()
            .set("t", "xd")
            .set("bank_in", x.bank_in)
            .set("payload_in", x.payload_in)
            .set("outs", Json::from(x.bank_outs.clone()))
            .set("ba", x.ba_out),
        UnitKind::XbarColl(x) => Json::object()
            .set("t", "xc")
            .set("ba_in", x.ba_in)
            .set("ins", Json::from(x.bank_ins.clone()))
            .set("out", x.out),
    }
}

/// Serialize a VUDFG (lowered or placed — stream latencies are included)
/// to its bit-exact JSON wire form.
pub fn vudfg_json(g: &Vudfg) -> Json {
    let streams: Vec<Json> = g
        .streams
        .iter()
        .map(|s| {
            Json::object()
                .set("src", s.src.0)
                .set("dst", s.dst.0)
                .set("kind", kind_json(s.kind))
                .set("depth", s.depth)
                .set("latency", s.latency)
                .set("label", s.label.as_str())
        })
        .collect();
    let units: Vec<Json> = g
        .units
        .iter()
        .map(|u| {
            let outputs: Vec<Json> = u
                .outputs
                .iter()
                .map(|p| Json::Array(p.streams.iter().map(|s| Json::from(s.0)).collect()))
                .collect();
            Json::object()
                .set("label", u.label.as_str())
                .set("kind", unit_kind_json(&u.kind))
                .set("inputs", Json::Array(u.inputs.iter().map(|s| Json::from(s.0)).collect()))
                .set("outputs", Json::Array(outputs))
        })
        .collect();
    let drams: Vec<Json> = g
        .drams
        .iter()
        .map(|d| {
            Json::object()
                .set("mem", d.mem.0)
                .set("base", i64::try_from(d.base).unwrap_or(i64::MAX))
                .set("words", d.words)
                .set("init", elems_json(&d.init))
        })
        .collect();
    Json::object()
        .set("format", "sara-vudfg-v1")
        .set("name", g.name.as_str())
        .set("units", Json::Array(units))
        .set("streams", Json::Array(streams))
        .set("drams", Json::Array(drams))
}

// ---------------------------------------------------------------------------
// JSON -> VUDFG
// ---------------------------------------------------------------------------

fn kind_from(v: &Json) -> Result<StreamKind, String> {
    match get_str(v, "t")? {
        "vec" => Ok(StreamKind::Vector(get_u32(v, "w")?)),
        "scalar" => Ok(StreamKind::Scalar),
        "tok" => Ok(StreamKind::Token { init: get_u32(v, "init")? }),
        other => Err(format!("unknown stream kind {other:?}")),
    }
}

fn cbound_from(v: &Json) -> Result<CBound, String> {
    if let Some(c) = v.get("c") {
        c.as_i64().map(CBound::Const).ok_or_else(|| "bad const bound".to_string())
    } else {
        Ok(CBound::Port(get_usize(v, "port")?))
    }
}

fn level_from(v: &Json) -> Result<Level, String> {
    match get_str(v, "t")? {
        "ctr" => Ok(Level::Counter {
            min: cbound_from(get(v, "min")?)?,
            max: cbound_from(get(v, "max")?)?,
            step: get_i64(v, "step")?,
            lane_offset: get_i64(v, "off")?,
            lane_stride: get_i64(v, "stride")?,
            ctrl: CtrlId(get_u32(v, "ctrl")?),
        }),
        "gate" => Ok(Level::Gate {
            cond_in: get_usize(v, "cond")?,
            expect: get_bool(v, "expect")?,
            ctrl: CtrlId(get_u32(v, "ctrl")?),
        }),
        "while" => {
            Ok(Level::While { cond_in: get_usize(v, "cond")?, ctrl: CtrlId(get_u32(v, "ctrl")?) })
        }
        other => Err(format!("unknown level kind {other:?}")),
    }
}

fn node_from(v: &Json) -> Result<DfgNode, String> {
    let op = get(v, "op")?;
    let parsed = match get_str(op, "t")? {
        "const" => NodeOp::Const(elem_from(get_str(op, "v")?)?),
        "cidx" => NodeOp::CounterIdx { level: get_usize(op, "level")? },
        "isfirst" => NodeOp::IsFirst { level: get_usize(op, "level")? },
        "islast" => NodeOp::IsLast { level: get_usize(op, "level")? },
        "un" => NodeOp::Un(unop_from(get_str(op, "op")?)?),
        "bin" => NodeOp::Bin(binop_from(get_str(op, "op")?)?),
        "mux" => NodeOp::Mux,
        "in" => NodeOp::StreamIn { port: get_usize(op, "port")? },
        "out" => NodeOp::StreamOut {
            port: get_usize(op, "port")?,
            pred: get_bool(op, "pred")?,
            empty_pred: get_bool(op, "empty")?,
        },
        "red" => NodeOp::Reduce {
            op: binop_from(get_str(op, "op")?)?,
            init: elem_from(get_str(op, "init")?)?,
            reset_level: get_usize(op, "reset")?,
        },
        "vred" => NodeOp::VecReduce(binop_from(get_str(op, "op")?)?),
        other => return Err(format!("unknown node op {other:?}")),
    };
    Ok(DfgNode { op: parsed, ins: usize_arr(v, "ins")? })
}

fn access_from(v: &Json) -> Result<AccessId, String> {
    Ok(AccessId { hb: CtrlId(get_u32(v, "hb")?), expr: ExprId(get_u32(v, "expr")?) })
}

fn role_from(v: &Json) -> Result<VcuRole, String> {
    match get_str(v, "t")? {
        "main" => Ok(VcuRole::Main { hb: CtrlId(get_u32(v, "hb")?), lane: get_u32(v, "lane")? }),
        "req" => Ok(VcuRole::Request {
            access: access_from(get(v, "access")?)?,
            lane: get_u32(v, "lane")?,
        }),
        "resp" => Ok(VcuRole::Response {
            access: access_from(get(v, "access")?)?,
            lane: get_u32(v, "lane")?,
        }),
        "retime" => Ok(VcuRole::Retime),
        "merge" => Ok(VcuRole::Merge),
        "split" => {
            Ok(VcuRole::Split { of: CtrlId(get_u32(v, "of")?), index: get_u32(v, "index")? })
        }
        other => Err(format!("unknown vcu role {other:?}")),
    }
}

fn vcu_from(v: &Json) -> Result<Vcu, String> {
    let masks = get_arr(v, "gate_masks")?
        .iter()
        .map(|m| {
            m.as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| "bad gate mask".to_string())
        })
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(Vcu {
        levels: get_arr(v, "levels")?.iter().map(level_from).collect::<Result<_, _>>()?,
        dfg: get_arr(v, "dfg")?.iter().map(node_from).collect::<Result<_, _>>()?,
        width: get_u32(v, "width")?,
        role: role_from(get(v, "role")?)?,
        token_pops: token_rules_from(v, "pops")?,
        token_pushes: token_rules_from(v, "pushes")?,
        producer_gate_mask: masks,
        epoch_emit: opt_usize(v, "epoch")?,
    })
}

fn unit_kind_from(v: &Json) -> Result<UnitKind, String> {
    match get_str(v, "t")? {
        "vcu" => Ok(UnitKind::Vcu(vcu_from(v)?)),
        "vmu" => {
            let bank = get_arr(v, "bank")?;
            let bank_of = |i: usize| {
                bank.get(i)
                    .and_then(Json::as_u64)
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| "bad bank pair".to_string())
            };
            Ok(UnitKind::Vmu(Vmu {
                mem: MemId(get_u32(v, "mem")?),
                bank: (bank_of(0)?, bank_of(1)?),
                lane: get_u32(v, "lane")?,
                words: get_usize(v, "words")?,
                init: elems_from(get(v, "init")?, "vmu init")?,
                multibuffer: get_u32(v, "multibuffer")?,
                write_ports: get_arr(v, "wports")?
                    .iter()
                    .map(|p| {
                        Ok(VmuWritePort {
                            addr_in: get_usize(p, "addr")?,
                            data_in: get_usize(p, "data")?,
                            ack_out: opt_usize(p, "ack")?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
                read_ports: get_arr(v, "rports")?
                    .iter()
                    .map(|p| {
                        Ok(VmuReadPort {
                            addr_in: get_usize(p, "addr")?,
                            data_out: get_usize(p, "data")?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
                read_latency: get_u32(v, "read_latency")?,
            }))
        }
        "ag" => Ok(UnitKind::Ag(AgUnit {
            mem: MemId(get_u32(v, "mem")?),
            dir: match get_str(v, "dir")? {
                "r" => AgDir::Read,
                "w" => AgDir::Write,
                other => return Err(format!("unknown ag dir {other:?}")),
            },
            addr_in: get_usize(v, "addr")?,
            data_in: opt_usize(v, "data")?,
            out: get_usize(v, "out")?,
            width: get_u32(v, "width")?,
            base_addr: get_u64(v, "base")?,
        })),
        "sync" => Ok(UnitKind::Sync(SyncUnit)),
        "xd" => Ok(UnitKind::XbarDist(XbarDist {
            bank_in: get_usize(v, "bank_in")?,
            payload_in: get_usize(v, "payload_in")?,
            bank_outs: usize_arr(v, "outs")?,
            ba_out: opt_usize(v, "ba")?,
        })),
        "xc" => Ok(UnitKind::XbarColl(XbarColl {
            ba_in: get_usize(v, "ba_in")?,
            bank_ins: usize_arr(v, "ins")?,
            out: get_usize(v, "out")?,
        })),
        other => Err(format!("unknown unit kind {other:?}")),
    }
}

/// Deserialize a VUDFG from its JSON wire form.
///
/// # Errors
///
/// A one-line description of the first missing, ill-typed, or
/// unrecognized field.
pub fn vudfg_from_json(v: &Json) -> Result<Vudfg, String> {
    let format = get_str(v, "format")?;
    if format != "sara-vudfg-v1" {
        return Err(format!("unsupported vudfg format {format:?}"));
    }
    let stream_ids = |u: &Json, key: &str| -> Result<Vec<StreamId>, String> {
        get_arr(u, key)?
            .iter()
            .map(|s| {
                s.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .map(StreamId)
                    .ok_or_else(|| format!("bad stream id in {key:?}"))
            })
            .collect()
    };
    let units = get_arr(v, "units")?
        .iter()
        .map(|u| {
            let outputs = get_arr(u, "outputs")?
                .iter()
                .enumerate()
                .map(|(i, port)| {
                    let ids = port
                        .as_array()
                        .ok_or_else(|| format!("output port {i} must be an array"))?
                        .iter()
                        .map(|s| {
                            s.as_u64()
                                .and_then(|n| u32::try_from(n).ok())
                                .map(StreamId)
                                .ok_or_else(|| "bad output stream id".to_string())
                        })
                        .collect::<Result<Vec<StreamId>, String>>()?;
                    Ok(OutPort { streams: ids })
                })
                .collect::<Result<Vec<OutPort>, String>>()?;
            Ok(Unit {
                label: get_str(u, "label")?.to_string(),
                kind: unit_kind_from(get(u, "kind")?)?,
                inputs: stream_ids(u, "inputs")?,
                outputs,
            })
        })
        .collect::<Result<Vec<Unit>, String>>()?;
    let streams = get_arr(v, "streams")?
        .iter()
        .map(|s| {
            Ok(Stream {
                src: UnitId(get_u32(s, "src")?),
                dst: UnitId(get_u32(s, "dst")?),
                kind: kind_from(get(s, "kind")?)?,
                depth: get_u32(s, "depth")?,
                latency: get_u32(s, "latency")?,
                label: get_str(s, "label")?.to_string(),
            })
        })
        .collect::<Result<Vec<Stream>, String>>()?;
    let drams = get_arr(v, "drams")?
        .iter()
        .map(|d| {
            Ok(DramTensor {
                mem: MemId(get_u32(d, "mem")?),
                base: get_u64(d, "base")?,
                words: get_usize(d, "words")?,
                init: elems_from(get(d, "init")?, "dram init")?,
            })
        })
        .collect::<Result<Vec<DramTensor>, String>>()?;
    Ok(Vudfg { units, streams, drams, name: get_str(v, "name")?.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use plasticine_arch::ChipSpec;

    #[test]
    fn hashes_are_stable_and_framed() {
        // Pinned value: a change here silently invalidates every on-disk
        // cache in the wild, so it must be deliberate.
        assert_eq!(stable_hash_hex(b"sara"), "024aed4baab923ffe9dbf3d9d387586c");
        assert_eq!(stable_hash_hex(b"sara"), stable_hash_hex(b"sara"));
        assert_ne!(stable_hash_hex(b"sara"), stable_hash_hex(b"saraa"));
        // Length prefixing: shifting bytes between fields changes the hash.
        let ab_c = StableHasher::new().str("ab").str("c").hex();
        let a_bc = StableHasher::new().str("a").str("bc").hex();
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn canon_texts_cover_options_and_init_data() {
        let mut opts = CompilerOptions::default();
        let base = options_canon(&opts);
        opts.opt.retime = false;
        assert_ne!(base, options_canon(&opts), "flag flip must change the canon text");

        let w = sara_workloads::by_name("dotprod").unwrap();
        let mut p = w.program.clone();
        let canon = program_canon(&p);
        assert!(canon.contains("program"));
        // Mutate initial data only: pretty() alone would not see it.
        p.mems[0].init = sara_ir::MemInit::LinSpace { start: 99.0, step: 0.5 };
        assert_ne!(canon, program_canon(&p), "init change must change the canon text");
    }

    #[test]
    fn elems_round_trip_bit_exactly() {
        for e in [
            Elem::I64(-7),
            Elem::I64(i64::MAX),
            Elem::F64(0.1),
            Elem::F64(-0.0),
            Elem::F64(f64::INFINITY),
            Elem::F64(f64::from_bits(0x7ff8_0000_0000_1234)), // NaN payload
        ] {
            let back = elem_from(&elem_str(e)).unwrap();
            match (e, back) {
                (Elem::F64(a), Elem::F64(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => assert_eq!(a, b),
            }
        }
        assert!(elem_from("x1").is_err());
        assert!(elem_from("fzz").is_err());
    }

    // Full round-trip + bit-identical-simulation coverage lives in
    // `tests/artifact_roundtrip.rs`: PnR and the simulator link the lib
    // build of this crate, whose types differ from the `cfg(test)` build.

    #[test]
    fn vudfg_round_trips_lowered_graph() {
        let chip = ChipSpec::small_8x8();
        let w = sara_workloads::by_name("dotprod").unwrap();
        let compiled =
            compile(&w.program, &chip, &crate::compile::CompilerOptions::default()).unwrap();
        let doc = vudfg_json(&compiled.vudfg);
        let back = vudfg_from_json(&doc).unwrap();
        assert_eq!(back, compiled.vudfg, "lowered round trip");
        // The serialized text is canonical: same bytes again.
        assert_eq!(doc.pretty(), vudfg_json(&back).pretty(), "canonical text");
    }

    #[test]
    fn shard_plan_round_trips_bit_exactly() {
        let plan = ShardPlan {
            count: 4,
            chip_of: vec![0, 0, 1, 3, 2],
            crossings: vec![StreamId(1), StreamId(7)],
            cut_traffic: 405.5,
        };
        let back = shard_plan_from_json(&shard_plan_json(&plan)).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.cut_traffic.to_bits(), plan.cut_traffic.to_bits());
        assert!(shard_plan_from_json(&Json::object()).is_err());
    }

    #[test]
    fn vudfg_decode_rejects_malformed_documents() {
        assert!(vudfg_from_json(&Json::object()).is_err());
        let wrong = Json::object().set("format", "sara-vudfg-v99");
        assert!(vudfg_from_json(&wrong).unwrap_err().contains("unsupported"));
        let w = sara_workloads::by_name("dotprod").unwrap();
        let chip = ChipSpec::small_8x8();
        let compiled =
            compile(&w.program, &chip, &crate::compile::CompilerOptions::default()).unwrap();
        let doc = vudfg_json(&compiled.vudfg);
        // Corrupt one field: decoding must fail loudly, not mis-parse.
        let text = doc.pretty().replace("\"t\": \"vcu\"", "\"t\": \"vXu\"");
        let reparsed = Json::parse(&text).unwrap();
        assert!(vudfg_from_json(&reparsed).is_err());
    }
}
