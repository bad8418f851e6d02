//! Runtime steppers for every virtual-unit kind.
//!
//! Hot-loop layout notes: unit state is stored struct-of-arrays in
//! [`Units`] (one dense vector per unit kind, indexed through the
//! [`UKind`] tag vector), stream payloads live in the shared
//! [`PacketArena`], and every stepper reuses per-unit scratch buffers so
//! the steady-state firing path performs no heap allocation.
//!
//! Every step also leaves a [`WaitSite`]: whether the unit's next step
//! could act without an outside change, and if not, the monotonic
//! counters whose change can unblock it. The active scheduler drops a
//! wake that finds none of them moved.

use crate::packet::{PacketArena, PacketRef};
use crate::stream::StreamRt;
use ramulator_lite::{DramSim, Request};
use sara_core::vudfg::{
    AgDir, AgUnit, CBound, Level, NodeOp, OutPort, StreamId, SyncUnit, Vcu, Vmu, XbarColl, XbarDist,
};
use sara_ir::Elem;
use std::collections::{HashMap, VecDeque};

/// A monotonic counter whose change can unblock a waiting unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    /// Packets delivered on an input stream ([`StreamRt::arrived`]).
    Arrived(StreamId),
    /// Slots released on an output stream ([`StreamRt::freed`]).
    Freed(StreamId),
    /// DRAM responses matched by the waiting AG ([`AgRt::responses`]).
    Responses,
}

/// What a unit's next step waits for, as its last step left it.
///
/// A blocked unit's next step changes nothing until one of the `on`
/// counters moves past the value it had when the step ended, or until
/// `deadline` (an AG's coalescing-run staleness flush). The conditions a
/// blocked step already passed cannot un-pass while it waits: its inputs
/// only gain packets and its outputs only gain space.
#[derive(Debug, Clone, Default)]
pub struct WaitSite {
    /// The next step is a no-op until a counter moves or the deadline
    /// passes. A blocked site with no counters (a done VCU) never acts
    /// again.
    pub(crate) blocked: bool,
    /// Each counter with its value at the end of the step.
    pub(crate) on: Vec<(Wait, u64)>,
    /// Cycle at which the unit acts whatever the counters say.
    pub(crate) deadline: Option<u64>,
}

impl WaitSite {
    fn clear(&mut self) {
        self.blocked = false;
        self.on.clear();
        self.deadline = None;
    }

    /// Whether the unit's step at `now` may act: it is not blocked, its
    /// deadline has come, or a counter it waits on moved. `responses`
    /// reads the unit's matched-response count (AGs only).
    #[inline]
    pub(crate) fn may_act(
        &self,
        now: u64,
        streams: &mut [StreamRt],
        responses: impl Fn() -> u64,
    ) -> bool {
        if !self.blocked || self.deadline.is_some_and(|t| now >= t) {
            return true;
        }
        self.on.iter().any(|&(w, seen)| match w {
            Wait::Arrived(s) => {
                let s = &mut streams[s.index()];
                s.tick(now);
                s.arrived != seen
            }
            Wait::Freed(s) => streams[s.index()].freed != seen,
            Wait::Responses => responses() != seen,
        })
    }
}

/// Per-cycle stepping context shared by all units.
pub struct Ctx<'a> {
    pub now: u64,
    pub streams: &'a mut [StreamRt],
    pub arena: &'a mut PacketArena,
    /// Incremented on any state change (deadlock detection).
    pub progress: &'a mut u64,
    /// Filled by the step: what the unit's next step waits for.
    pub site: &'a mut WaitSite,
}

impl Ctx<'_> {
    fn s(&mut self, id: StreamId) -> &mut StreamRt {
        &mut self.streams[id.index()]
    }

    /// The first of `ids` with no room for a push.
    fn first_full(&self, ids: &[StreamId]) -> Option<StreamId> {
        ids.iter().copied().find(|s| !self.streams[s.index()].can_push())
    }

    /// Record a stream counter the next step waits on, at its current
    /// value.
    fn wait_on(&mut self, w: Wait) {
        let seen = match w {
            Wait::Arrived(s) => self.streams[s.index()].arrived,
            Wait::Freed(s) => self.streams[s.index()].freed,
            Wait::Responses => unreachable!("an AG records its own response count"),
        };
        self.site.on.push((w, seen));
    }

    /// End the step blocked on one stream counter.
    fn block_on(&mut self, w: Wait) {
        self.wait_on(w);
        self.site.blocked = true;
    }

    fn push(&mut self, id: StreamId, p: PacketRef) {
        let now = self.now;
        self.streams[id.index()].push(now, p);
    }

    /// Pop and discard, releasing any payload back to the arena.
    fn pop_free(&mut self, id: StreamId) -> bool {
        match self.streams[id.index()].pop() {
            Some(p) => {
                self.arena.free(p);
                true
            }
            None => false,
        }
    }

    /// Pop a packet and read its first element as i64 (0 when empty),
    /// releasing the payload.
    fn pop_first_i64(&mut self, id: StreamId) -> Option<i64> {
        let p = self.streams[id.index()].pop()?;
        let v = self.arena.vals(p).first().map(|e| e.as_i64()).unwrap_or(0);
        self.arena.free(p);
        Some(v)
    }

    /// Pop a packet and read its first element as bool (false when
    /// empty), releasing the payload.
    fn pop_first_bool(&mut self, id: StreamId) -> Option<bool> {
        let p = self.streams[id.index()].pop()?;
        let v = self.arena.vals(p).first().map(|e| e.as_bool()).unwrap_or(false);
        self.arena.free(p);
        Some(v)
    }
}

/// A lane-vector value (length 1 = scalar broadcast).
type Val = Vec<Elem>;

fn lane(v: &[Elem], i: usize) -> Elem {
    v[i.min(v.len() - 1)]
}

// ---------------------------------------------------------------- VCU

#[derive(Debug, Clone, Copy, PartialEq)]
enum LvlRt {
    /// Not currently active.
    Idle,
    /// Active counter at the given index with resolved bounds.
    Counter { idx: i64, init: i64, max: i64 },
    /// Active gate (taken or skipped is handled at entry).
    Gate,
    /// Active do-while at iteration `iter`.
    While { iter: i64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Resume {
    /// Exit level `k` (push its tokens/markers), then advance `k-1`.
    Exit(usize),
    /// Bump level `k`'s counter / re-evaluate its while condition.
    Advance(usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Sweep {
    /// The gate level that evaluated false.
    gate: usize,
    /// Next inner level to process.
    at: usize,
    /// false = entering (pops), true = exiting (pushes).
    exiting: bool,
}

/// Machine-readable category of the site where a VCU last stalled. The
/// profiler maps these (plus the stalling stream's producer kind) onto
/// the public stall taxonomy; the human-readable [`VcuRt::stall`] string
/// stays the deadlock-diagnostic counterpart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StallClass {
    /// No stall recorded (fresh unit, or cleared by a firing).
    #[default]
    None,
    /// Blocked popping a CMMC credit/token.
    CreditPop,
    /// Blocked waiting for a data value, dynamic bound, or condition.
    InputData,
    /// Blocked on output stream space.
    OutputSpace,
}

/// Runtime state of a virtual compute unit.
#[derive(Debug, Clone)]
pub struct VcuRt {
    pub spec: Vcu,
    pub inputs: Vec<StreamId>,
    pub outputs: Vec<OutPort>,
    pub label: String,
    lvl: Vec<LvlRt>,
    serial: Vec<u64>,
    /// Per-dfg-node reduction accumulators: `(reset serial, lanes)`.
    reduce: Vec<Option<(u64, Val)>>,
    sweep: Option<Sweep>,
    resume: Option<Resume>,
    /// Token-pop ports per level (index `levels.len()` = per-firing).
    token_pops_by_level: Vec<Vec<usize>>,
    /// Token-push ports per level (index `levels.len()` = per-firing).
    token_pushes_by_level: Vec<Vec<usize>>,
    /// StreamIn ports in dfg order (availability scan).
    data_in_ports: Vec<usize>,
    /// StreamOut target streams in dfg order (space scan).
    data_out_streams: Vec<StreamId>,
    /// Per-node value scratch, reused across firings.
    fire_vals: Vec<Val>,
    /// Predicated-lane packing scratch, reused across firings.
    push_scratch: Val,
    pub done: bool,
    pub firings: u64,
    /// Human-readable reason the unit last stalled (diagnostics).
    pub stall: &'static str,
    /// Category of the last stall site (profiling).
    pub stall_class: StallClass,
    /// The stream whose state caused the last stall, when one did.
    pub stall_stream: Option<StreamId>,
}

impl VcuRt {
    pub fn new(spec: Vcu, inputs: Vec<StreamId>, outputs: Vec<OutPort>, label: String) -> Self {
        let n = spec.levels.len();
        let mut token_pops_by_level = vec![Vec::new(); n + 1];
        for r in &spec.token_pops {
            if r.level <= n {
                token_pops_by_level[r.level].push(r.port);
            }
        }
        let mut token_pushes_by_level = vec![Vec::new(); n + 1];
        for r in &spec.token_pushes {
            if r.level <= n {
                token_pushes_by_level[r.level].push(r.port);
            }
        }
        let mut data_in_ports = Vec::new();
        let mut data_out_streams = Vec::new();
        for node in &spec.dfg {
            match &node.op {
                NodeOp::StreamIn { port } => data_in_ports.push(*port),
                NodeOp::StreamOut { port, .. } => {
                    data_out_streams.extend(outputs[*port].streams.iter().copied())
                }
                _ => {}
            }
        }
        // Each DFG node value holds at most `width` lanes; pre-sizing the
        // scratch avoids regrowing it on the first firings of every run.
        let width = spec.width.max(1) as usize;
        let fire_vals = vec![Vec::with_capacity(width); spec.dfg.len()];
        let reduce = spec.dfg.iter().map(|_| None).collect();
        VcuRt {
            spec,
            inputs,
            outputs,
            label,
            lvl: vec![LvlRt::Idle; n],
            serial: vec![0; n],
            reduce,
            sweep: None,
            resume: None,
            token_pops_by_level,
            token_pushes_by_level,
            data_in_ports,
            data_out_streams,
            fire_vals,
            push_scratch: Vec::with_capacity(width),
            done: false,
            firings: 0,
            stall: "",
            stall_class: StallClass::None,
            stall_stream: None,
        }
    }

    fn width(&self) -> usize {
        self.spec.width.max(1) as usize
    }

    /// A done VCU never acts again; a stalled one waits on the stream its
    /// stall site recorded.
    fn record_wait(&self, ctx: &mut Ctx<'_>) {
        if self.done {
            ctx.site.blocked = true;
            return;
        }
        let Some(s) = self.stall_stream else { return };
        match self.stall_class {
            StallClass::CreditPop | StallClass::InputData => ctx.block_on(Wait::Arrived(s)),
            StallClass::OutputSpace => ctx.block_on(Wait::Freed(s)),
            StallClass::None => {}
        }
    }

    /// Valid lane count of the current innermost counter state.
    fn w_eff(&self) -> usize {
        let w = self.width();
        if w == 1 {
            return 1;
        }
        match self.lvl.last() {
            Some(LvlRt::Counter { idx, max, .. }) => {
                if let Some(Level::Counter { lane_stride, .. }) = self.spec.levels.last() {
                    let mut n = 0usize;
                    let mut v = *idx;
                    while n < w
                        && ((*lane_stride > 0 && v < *max) || (*lane_stride < 0 && v > *max))
                    {
                        n += 1;
                        v += *lane_stride;
                    }
                    n.max(1)
                } else {
                    w
                }
            }
            _ => w,
        }
    }

    fn can_pop_tokens(&mut self, ctx: &mut Ctx<'_>, level: usize) -> bool {
        for idx in 0..self.token_pops_by_level[level].len() {
            let p = self.token_pops_by_level[level][idx];
            if ctx.s(self.inputs[p]).peek().is_none() {
                self.stall = "token pop";
                self.stall_class = StallClass::CreditPop;
                self.stall_stream = Some(self.inputs[p]);
                return false;
            }
        }
        true
    }

    fn pop_tokens(&mut self, ctx: &mut Ctx<'_>, level: usize) {
        for &p in &self.token_pops_by_level[level] {
            ctx.pop_free(self.inputs[p]);
            *ctx.progress += 1;
        }
    }

    /// Whether all token pushes and epoch markers of an exit at `level`
    /// have space.
    fn can_exit(&mut self, ctx: &mut Ctx<'_>, level: usize) -> bool {
        for idx in 0..self.token_pushes_by_level[level].len() {
            let p = self.token_pushes_by_level[level][idx];
            for si in 0..self.outputs[p].streams.len() {
                let s = self.outputs[p].streams[si];
                if !ctx.s(s).can_push() {
                    self.stall = "token push space";
                    self.stall_class = StallClass::OutputSpace;
                    self.stall_stream = Some(s);
                    return false;
                }
            }
        }
        if self.spec.epoch_emit == Some(level) {
            for pi in 0..self.outputs.len() {
                if self.token_pushes_by_level[level].contains(&pi) {
                    continue;
                }
                for si in 0..self.outputs[pi].streams.len() {
                    let s = self.outputs[pi].streams[si];
                    if !ctx.s(s).can_push() {
                        self.stall = "marker space";
                        self.stall_class = StallClass::OutputSpace;
                        self.stall_stream = Some(s);
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Push tokens and epoch markers for the completed activation of
    /// `level`. Caller must have checked [`VcuRt::can_exit`].
    fn do_exit(&mut self, ctx: &mut Ctx<'_>, level: usize) {
        for &p in &self.token_pushes_by_level[level] {
            for &s in &self.outputs[p].streams {
                ctx.push(s, PacketRef::token());
                *ctx.progress += 1;
            }
        }
        if self.spec.epoch_emit == Some(level) {
            for (pi, port) in self.outputs.iter().enumerate() {
                if self.token_pushes_by_level[level].contains(&pi) {
                    continue;
                }
                for &s in &port.streams {
                    ctx.push(s, PacketRef::marker());
                    *ctx.progress += 1;
                }
            }
        }
        self.lvl[level] = LvlRt::Idle;
    }

    /// Resolve a counter bound; pops one value from a port bound.
    /// Returns `None` when the value has not arrived yet.
    fn resolve_bound(&mut self, ctx: &mut Ctx<'_>, b: &CBound) -> Option<i64> {
        match b {
            CBound::Const(v) => Some(*v),
            CBound::Port(p) => {
                let sid = self.inputs[*p];
                if !ctx.s(sid).skip_markers_and_peek() {
                    self.stall = "dynamic bound";
                    self.stall_class = StallClass::InputData;
                    self.stall_stream = Some(sid);
                    return None;
                }
                let v = ctx.pop_first_i64(sid).expect("peeked");
                *ctx.progress += 1;
                Some(v)
            }
        }
    }

    /// Try to enter level `k`. Returns false when blocked.
    fn try_enter(&mut self, ctx: &mut Ctx<'_>, k: usize) -> bool {
        if !self.can_pop_tokens(ctx, k) {
            return false;
        }
        // Peek-ability of bounds/conds must be checked before any pop to
        // keep entry atomic; bounds pop in order min,max, so check both.
        let level = self.spec.levels[k].clone();
        match &level {
            Level::Counter { min, max, .. } => {
                for b in [min, max] {
                    if let CBound::Port(p) = b {
                        if !ctx.s(self.inputs[*p]).skip_markers_and_peek() {
                            self.stall = "dynamic bound";
                            self.stall_class = StallClass::InputData;
                            self.stall_stream = Some(self.inputs[*p]);
                            return false;
                        }
                    }
                }
            }
            Level::Gate { cond_in, .. } => {
                if !ctx.s(self.inputs[*cond_in]).skip_markers_and_peek() {
                    self.stall = "condition value";
                    self.stall_class = StallClass::InputData;
                    self.stall_stream = Some(self.inputs[*cond_in]);
                    return false;
                }
            }
            // Do-while conditions are consumed *after* each iteration (in
            // `advance`), not at entry: the body always runs once.
            Level::While { .. } => {}
        }
        self.pop_tokens(ctx, k);
        self.serial[k] += 1;
        match level {
            Level::Counter { min, max, lane_offset, .. } => {
                let minv = self.resolve_bound(ctx, &min).expect("checked") + lane_offset;
                let maxv = self.resolve_bound(ctx, &max).expect("checked");
                self.lvl[k] = LvlRt::Counter { idx: minv, init: minv, max: maxv };
                let step = match &self.spec.levels[k] {
                    Level::Counter { step, .. } => *step,
                    _ => unreachable!(),
                };
                let empty = !((step > 0 && minv < maxv) || (step < 0 && minv > maxv));
                if empty {
                    // zero-trip activation: exit immediately, then advance
                    // the parent.
                    self.resume = Some(Resume::Exit(k));
                }
            }
            Level::Gate { cond_in, expect, .. } => {
                let taken = ctx.pop_first_bool(self.inputs[cond_in]).expect("checked") == expect;
                *ctx.progress += 1;
                self.lvl[k] = LvlRt::Gate;
                if !taken {
                    self.sweep = Some(Sweep { gate: k, at: k + 1, exiting: false });
                }
            }
            Level::While { .. } => {
                // The while condition is consumed *after* each iteration.
                self.lvl[k] = LvlRt::While { iter: 0 };
            }
        }
        true
    }

    /// Continue a vacuous sweep of a skipped gate. Returns true when the
    /// sweep completed this cycle.
    fn continue_sweep(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let Some(mut sw) = self.sweep else { return true };
        let n = self.spec.levels.len();
        if !sw.exiting {
            while sw.at < n {
                let j = sw.at;
                if !self.can_pop_tokens(ctx, j) {
                    self.sweep = Some(sw);
                    return false;
                }
                // Consume bounds/conds whose producers are *not* silenced
                // by the sweeping gate.
                let mask_ok = |m: &VcuRt, port: usize| {
                    m.spec
                        .producer_gate_mask
                        .get(port)
                        .map(|mask| mask & (1u64 << sw.gate.min(63)) == 0)
                        .unwrap_or(true)
                };
                let mut ports: Vec<usize> = Vec::new();
                match &self.spec.levels[j] {
                    Level::Counter { min, max, .. } => {
                        for b in [min, max] {
                            if let CBound::Port(p) = b {
                                if mask_ok(self, *p) {
                                    ports.push(*p);
                                }
                            }
                        }
                    }
                    Level::Gate { cond_in, .. } | Level::While { cond_in, .. } => {
                        if mask_ok(self, *cond_in) {
                            ports.push(*cond_in);
                        }
                    }
                }
                for p in &ports {
                    if !ctx.s(self.inputs[*p]).skip_markers_and_peek() {
                        self.stall = "sweep control value";
                        self.stall_class = StallClass::InputData;
                        self.stall_stream = Some(self.inputs[*p]);
                        self.sweep = Some(sw);
                        return false;
                    }
                }
                self.pop_tokens(ctx, j);
                for p in ports {
                    ctx.pop_free(self.inputs[p]);
                    *ctx.progress += 1;
                }
                sw.at += 1;
            }
            sw.exiting = true;
            sw.at = n;
        }
        // Exit phase: push tokens/markers for levels n-1 ..= gate+1.
        while sw.at > sw.gate + 1 {
            let j = sw.at - 1;
            if !self.can_exit(ctx, j) {
                self.sweep = Some(sw);
                return false;
            }
            // do_exit resets lvl[j], which was never entered; fine.
            self.do_exit(ctx, j);
            sw.at -= 1;
        }
        // Finally exit the gate itself and advance the parent.
        if !self.can_exit(ctx, sw.gate) {
            self.sweep = Some(sw);
            return false;
        }
        self.do_exit(ctx, sw.gate);
        self.sweep = None;
        self.resume = if sw.gate == 0 {
            self.done = true;
            None
        } else {
            Some(Resume::Advance(sw.gate - 1))
        };
        true
    }

    /// Advance after a completed inner activation: bump `k`'s counter or
    /// re-evaluate its condition; cascade exits outward. Returns false
    /// when blocked (state saved in `resume`).
    fn advance(&mut self, ctx: &mut Ctx<'_>, from: Resume) -> bool {
        let mut cur = from;
        loop {
            match cur {
                Resume::Exit(k) => {
                    if !self.can_exit(ctx, k) {
                        self.resume = Some(cur);
                        return false;
                    }
                    self.do_exit(ctx, k);
                    if k == 0 {
                        self.done = true;
                        self.resume = None;
                        return true;
                    }
                    cur = Resume::Advance(k - 1);
                }
                Resume::Advance(k) => {
                    match (&self.spec.levels[k], self.lvl[k]) {
                        (Level::Counter { step, .. }, LvlRt::Counter { idx, init, max }) => {
                            let nidx = idx + *step;
                            let in_range = (*step > 0 && nidx < max) || (*step < 0 && nidx > max);
                            if in_range {
                                self.lvl[k] = LvlRt::Counter { idx: nidx, init, max };
                                self.resume = None;
                                return true;
                            }
                            cur = Resume::Exit(k);
                        }
                        (Level::Gate { .. }, _) => {
                            // gates do not iterate
                            cur = Resume::Exit(k);
                        }
                        (Level::While { cond_in, .. }, LvlRt::While { iter }) => {
                            let sid = self.inputs[*cond_in];
                            if !ctx.s(sid).skip_markers_and_peek() {
                                self.stall = "while condition";
                                self.stall_class = StallClass::InputData;
                                self.stall_stream = Some(sid);
                                self.resume = Some(cur);
                                return false;
                            }
                            let again = ctx.pop_first_bool(sid).expect("peeked");
                            *ctx.progress += 1;
                            if again {
                                self.lvl[k] = LvlRt::While { iter: iter + 1 };
                                self.serial[k] += 1;
                                self.resume = None;
                                return true;
                            }
                            cur = Resume::Exit(k);
                        }
                        (l, s) => {
                            unreachable!("level/state mismatch in {}: {l:?} vs {s:?}", self.label)
                        }
                    }
                }
            }
        }
    }

    /// One simulation step: enter levels, fire at most once, advance.
    pub fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<(), String> {
        if self.done {
            return Ok(());
        }
        if let Some(r) = self.resume {
            self.resume = None;
            if !self.advance(ctx, r) || self.done {
                return Ok(());
            }
        }
        if self.sweep.is_some() {
            if !self.continue_sweep(ctx) || self.done {
                return Ok(());
            }
            if let Some(r) = self.resume {
                self.resume = None;
                if !self.advance(ctx, r) || self.done {
                    return Ok(());
                }
            }
        }
        // Enter pending levels outermost-first.
        while let Some(k) = self.lvl.iter().position(|l| *l == LvlRt::Idle) {
            // Only enter k if all outer levels are active.
            if !self.try_enter(ctx, k) {
                return Ok(());
            }
            if self.sweep.is_some() {
                if !self.continue_sweep(ctx) || self.done {
                    return Ok(());
                }
                if let Some(r) = self.resume {
                    self.resume = None;
                    if !self.advance(ctx, r) || self.done {
                        return Ok(());
                    }
                }
                continue;
            }
            if let Some(r) = self.resume {
                // empty counter activation
                self.resume = None;
                if !self.advance(ctx, r) || self.done {
                    return Ok(());
                }
            }
        }
        self.try_fire(ctx)
    }

    fn try_fire(&mut self, ctx: &mut Ctx<'_>) -> Result<(), String> {
        let n = self.spec.levels.len();
        // sentinel-level token pops (per firing)
        if !self.can_pop_tokens(ctx, n) {
            return Ok(());
        }
        // data inputs available?
        for idx in 0..self.data_in_ports.len() {
            let port = self.data_in_ports[idx];
            if !ctx.s(self.inputs[port]).skip_markers_and_peek() {
                self.stall = "data input";
                self.stall_class = StallClass::InputData;
                self.stall_stream = Some(self.inputs[port]);
                return Ok(());
            }
        }
        // output space: StreamOut ports and sentinel token pushes
        for idx in 0..self.data_out_streams.len() {
            let s = self.data_out_streams[idx];
            if !ctx.s(s).can_push() {
                self.stall = "output space";
                self.stall_class = StallClass::OutputSpace;
                self.stall_stream = Some(s);
                return Ok(());
            }
        }
        for idx in 0..self.token_pushes_by_level[n].len() {
            let p = self.token_pushes_by_level[n][idx];
            for si in 0..self.outputs[p].streams.len() {
                let s = self.outputs[p].streams[si];
                if !ctx.s(s).can_push() {
                    self.stall = "sentinel token space";
                    self.stall_class = StallClass::OutputSpace;
                    self.stall_stream = Some(s);
                    return Ok(());
                }
            }
        }

        // ---- fire ----
        self.pop_tokens(ctx, n);
        let w_eff = self.w_eff();
        self.eval_dfg(ctx, n, w_eff)?;
        // sentinel pushes
        for &p in &self.token_pushes_by_level[n] {
            for &s in &self.outputs[p].streams {
                ctx.push(s, PacketRef::token());
            }
        }
        self.firings += 1;
        *ctx.progress += 1;
        self.stall = "";
        self.stall_class = StallClass::None;
        self.stall_stream = None;

        // advance the innermost level (or finish for level-less units)
        if n == 0 {
            self.done = true;
            return Ok(());
        }
        // advance the innermost by step (vector firings advance by the
        // combined step already encoded in Level::Counter::step)
        let r = Resume::Advance(n - 1);
        let _ = self.advance(ctx, r);
        Ok(())
    }

    /// Evaluate the firing dataflow graph into `fire_vals` (availability
    /// already checked by the caller).
    fn eval_dfg(&mut self, ctx: &mut Ctx<'_>, n: usize, w_eff: usize) -> Result<(), String> {
        let VcuRt {
            spec,
            inputs,
            outputs,
            label,
            lvl,
            serial,
            reduce,
            fire_vals,
            push_scratch,
            ..
        } = self;
        let width = spec.width.max(1) as usize;
        // Index loop: `ni` drives both the `split_at_mut` view of
        // `fire_vals` and the parallel `reduce` table.
        #[allow(clippy::needless_range_loop)]
        for ni in 0..spec.dfg.len() {
            let node = &spec.dfg[ni];
            let (prev, rest) = fire_vals.split_at_mut(ni);
            let cur = &mut rest[0];
            cur.clear();
            match &node.op {
                NodeOp::Const(c) => cur.push(*c),
                NodeOp::CounterIdx { level } => {
                    let innermost = *level + 1 == n;
                    match lvl[*level] {
                        LvlRt::Counter { idx, .. } => {
                            if innermost && width > 1 {
                                let stride = match &spec.levels[*level] {
                                    Level::Counter { lane_stride, .. } => *lane_stride,
                                    _ => 1,
                                };
                                for l in 0..w_eff {
                                    cur.push(Elem::I64(idx + l as i64 * stride));
                                }
                            } else {
                                cur.push(Elem::I64(idx));
                            }
                        }
                        LvlRt::While { iter } => cur.push(Elem::I64(iter)),
                        _ => cur.push(Elem::I64(0)),
                    }
                }
                NodeOp::IsFirst { level } => {
                    let v = match lvl[*level] {
                        LvlRt::Counter { idx, init, .. } => idx == init,
                        LvlRt::While { iter } => iter == 0,
                        _ => true,
                    };
                    cur.push(Elem::from_bool(v));
                }
                NodeOp::IsLast { level } => {
                    let v = match (&spec.levels[*level], lvl[*level]) {
                        (Level::Counter { step, .. }, LvlRt::Counter { idx, max, .. }) => {
                            let nidx = idx + *step;
                            !((*step > 0 && nidx < max) || (*step < 0 && nidx > max))
                        }
                        _ => true,
                    };
                    cur.push(Elem::from_bool(v));
                }
                NodeOp::Un(op) => {
                    for e in &prev[node.ins[0]] {
                        cur.push(op.eval(*e));
                    }
                }
                NodeOp::Bin(op) => {
                    let (a, b) = (&prev[node.ins[0]], &prev[node.ins[1]]);
                    if a.len() == b.len() {
                        // Exact-width fast path: no per-lane broadcast
                        // clamping or bounds checks.
                        cur.extend(a.iter().zip(b).map(|(&x, &y)| op.eval(x, y)));
                    } else {
                        let w = a.len().max(b.len());
                        for i in 0..w {
                            cur.push(op.eval(lane(a, i), lane(b, i)));
                        }
                    }
                }
                NodeOp::Mux => {
                    let (c, t, f) = (&prev[node.ins[0]], &prev[node.ins[1]], &prev[node.ins[2]]);
                    if c.len() == t.len() && t.len() == f.len() {
                        cur.extend(c.iter().zip(t.iter().zip(f)).map(|(&cv, (&tv, &fv))| {
                            if cv.as_bool() {
                                tv
                            } else {
                                fv
                            }
                        }));
                    } else {
                        let w = c.len().max(t.len()).max(f.len());
                        for i in 0..w {
                            cur.push(if lane(c, i).as_bool() { lane(t, i) } else { lane(f, i) });
                        }
                    }
                }
                NodeOp::StreamIn { port } => {
                    let pk = ctx
                        .s(inputs[*port])
                        .pop()
                        .ok_or_else(|| format!("{label}: stream-in port {port} empty at fire"))?;
                    *ctx.progress += 1;
                    ctx.arena.consume(pk, cur);
                    if cur.is_empty() {
                        // zero-length no-op packet from a disabled
                        // predicated producer (count-preserving)
                        cur.push(Elem::I64(0));
                    }
                }
                NodeOp::StreamOut { port, pred, empty_pred } => {
                    let data = &prev[node.ins[0]];
                    let pvals: Option<&Val> = if *pred { Some(&prev[node.ins[1]]) } else { None };
                    // Push at the data's natural lane count (scalars stay
                    // scalar — memory ports broadcast single-element data
                    // across vector addresses); per-lane predicates widen.
                    let w = data.len().max(pvals.map(|p| p.len()).unwrap_or(1));
                    push_scratch.clear();
                    for i in 0..w {
                        let en = pvals.map(|p| lane(p, i).as_bool()).unwrap_or(true);
                        if en {
                            push_scratch.push(lane(data, i));
                        }
                    }
                    if !push_scratch.is_empty() || (*empty_pred && pvals.is_some()) {
                        for &s in &outputs[*port].streams {
                            let r = ctx.arena.data(push_scratch);
                            ctx.push(s, r);
                            *ctx.progress += 1;
                        }
                    }
                    cur.extend_from_slice(data);
                }
                NodeOp::Reduce { op, init, reset_level } => {
                    let serial_now = serial.get(*reset_level).copied().unwrap_or(0);
                    let entry = reduce[ni].get_or_insert_with(|| (u64::MAX, vec![*init; width]));
                    if entry.0 != serial_now {
                        entry.0 = serial_now;
                        entry.1.clear();
                        entry.1.resize(width, *init);
                    }
                    for (i, v) in prev[node.ins[0]].iter().enumerate() {
                        entry.1[i] = op.eval(entry.1[i], *v);
                    }
                    // Expose *all* lane accumulators (untouched lanes hold
                    // the identity): a partial final vector must not drop
                    // the other lanes before the reduction tree combines
                    // them.
                    cur.extend_from_slice(&entry.1);
                }
                NodeOp::VecReduce(op) => {
                    let in_v = &prev[node.ins[0]];
                    let mut acc = in_v[0];
                    for v in &in_v[1..] {
                        acc = op.eval(acc, *v);
                    }
                    cur.push(acc);
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- Sync

/// Token fan-in/fan-out barrier.
#[derive(Debug, Clone)]
pub struct SyncRt {
    pub spec: SyncUnit,
    pub inputs: Vec<StreamId>,
    pub outputs: Vec<OutPort>,
    pub fired: u64,
}

impl SyncRt {
    pub fn step(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            for &i in &self.inputs {
                if ctx.s(i).peek().is_none() {
                    ctx.block_on(Wait::Arrived(i));
                    return;
                }
            }
            for o in &self.outputs {
                if let Some(s) = ctx.first_full(&o.streams) {
                    ctx.block_on(Wait::Freed(s));
                    return;
                }
            }
            for i in &self.inputs {
                ctx.pop_free(*i);
            }
            for o in &self.outputs {
                for s in &o.streams {
                    ctx.push(*s, PacketRef::token());
                }
            }
            self.fired += 1;
            *ctx.progress += 1;
        }
    }
}

// ---------------------------------------------------------------- VMU

/// Runtime state of a memory unit: multibuffered banks with per-port
/// epochs.
#[derive(Debug, Clone)]
pub struct VmuRt {
    pub spec: Vmu,
    pub inputs: Vec<StreamId>,
    pub outputs: Vec<OutPort>,
    pub label: String,
    buffers: Vec<Vec<Elem>>,
    wr_epoch: Vec<u64>,
    rd_epoch: Vec<u64>,
    rr_w: usize,
    rr_r: usize,
    /// Read-response assembly scratch, reused across cycles.
    out_scratch: Val,
    pub writes: u64,
    pub reads: u64,
}

impl VmuRt {
    pub fn new(spec: Vmu, inputs: Vec<StreamId>, outputs: Vec<OutPort>, label: String) -> Self {
        let m = spec.multibuffer.max(1) as usize;
        let buffers = vec![spec.init.clone(); m];
        let wr = vec![0; spec.write_ports.len()];
        let rd = vec![0; spec.read_ports.len()];
        VmuRt {
            spec,
            inputs,
            outputs,
            label,
            buffers,
            wr_epoch: wr,
            rd_epoch: rd,
            rr_w: 0,
            rr_r: 0,
            out_scratch: Vec::new(),
            writes: 0,
            reads: 0,
        }
    }

    /// Multibuffer depth `m` (number of rotating buffers).
    pub fn multibuffer(&self) -> u64 {
        self.buffers.len() as u64
    }

    /// Per-port write and read epoch counters (sanitizer: the epoch-
    /// ordering invariant bounds their skew by the multibuffer depth).
    pub fn epochs(&self) -> (&[u64], &[u64]) {
        (&self.wr_epoch, &self.rd_epoch)
    }

    /// Final contents of buffer 0 joined with the most recently written
    /// epoch (for result extraction, the last write epoch wins).
    pub fn image(&self) -> &[Elem] {
        let e = self.wr_epoch.iter().copied().max().unwrap_or(0);
        let m = self.buffers.len() as u64;
        // Last *written* buffer is (e-1) % m when e > 0, else buffer 0.
        let idx = if e == 0 { 0 } else { ((e - 1) % m) as usize };
        &self.buffers[idx]
    }

    /// The counter write port `i` waits on, or `None` when a step could
    /// act on it (a data head that is an epoch marker counts: the step
    /// skips it).
    fn write_wait(&self, ctx: &Ctx<'_>, i: usize) -> Option<Wait> {
        let port = self.spec.write_ports[i];
        let addr_sid = self.inputs[port.addr_in];
        let Some(head) = ctx.streams[addr_sid.index()].peek() else {
            return Some(Wait::Arrived(addr_sid));
        };
        if let Some(s) = port.ack_out.and_then(|p| ctx.first_full(&self.outputs[p].streams)) {
            return Some(Wait::Freed(s));
        }
        let data_sid = self.inputs[port.data_in];
        let starved = !head.is_marker() && ctx.streams[data_sid.index()].peek().is_none();
        starved.then_some(Wait::Arrived(data_sid))
    }

    /// The counter read port `i` waits on, or `None` when a step could
    /// serve it.
    fn read_wait(&self, ctx: &Ctx<'_>, i: usize) -> Option<Wait> {
        let port = self.spec.read_ports[i];
        let addr_sid = self.inputs[port.addr_in];
        if ctx.streams[addr_sid.index()].peek().is_none() {
            return Some(Wait::Arrived(addr_sid));
        }
        ctx.first_full(&self.outputs[port.data_out].streams).map(Wait::Freed)
    }

    /// Blocked only when no port could act on the next step, each port
    /// waiting on its one counter.
    fn record_wait(&self, ctx: &mut Ctx<'_>) {
        for i in 0..self.spec.write_ports.len() {
            let Some(w) = self.write_wait(ctx, i) else { return };
            ctx.wait_on(w);
        }
        for i in 0..self.spec.read_ports.len() {
            let Some(w) = self.read_wait(ctx, i) else { return };
            ctx.wait_on(w);
        }
        ctx.site.blocked = true;
    }

    pub fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<(), String> {
        let m = self.buffers.len() as u64;
        // one write port per cycle, round robin
        let nw = self.spec.write_ports.len();
        for off in 0..nw {
            let i = (self.rr_w + off) % nw;
            if self.write_wait(ctx, i).is_some() {
                continue;
            }
            let port = self.spec.write_ports[i];
            let addr_sid = self.inputs[port.addr_in];
            let head = ctx.s(addr_sid).peek().expect("checked");
            if head.is_marker() {
                ctx.s(addr_sid).pop();
                self.wr_epoch[i] += 1;
                if let Some(p) = port.ack_out {
                    for &s in &self.outputs[p].streams {
                        ctx.push(s, PacketRef::marker());
                    }
                }
                *ctx.progress += 1;
                self.rr_w = (i + 1) % nw;
                break;
            }
            let data_sid = self.inputs[port.data_in];
            if !ctx.s(data_sid).skip_markers_and_peek() {
                continue;
            }
            let addr = ctx
                .s(addr_sid)
                .pop()
                .ok_or_else(|| format!("{}: write addr vanished", self.label))?;
            let data = ctx
                .s(data_sid)
                .pop()
                .ok_or_else(|| format!("{}: write data vanished", self.label))?;
            let buf = ((self.wr_epoch[i]) % m) as usize;
            let alen;
            {
                let avals = ctx.arena.vals(addr);
                let dvals = ctx.arena.vals(data);
                alen = avals.len();
                let broadcast = dvals.len() == 1 && alen > 1;
                if !broadcast && alen != dvals.len() {
                    return Err(format!(
                        "{}: write addr/data length mismatch {} vs {}",
                        self.label,
                        alen,
                        dvals.len()
                    ));
                }
                for j in 0..alen {
                    let w = avals[j].as_i64();
                    if w < 0 || w as usize >= self.buffers[buf].len() {
                        return Err(format!("{}: write address {w} out of bank range", self.label));
                    }
                    self.buffers[buf][w as usize] = if broadcast { dvals[0] } else { dvals[j] };
                }
            }
            ctx.arena.free(addr);
            ctx.arena.free(data);
            self.writes += alen as u64;
            if let Some(p) = port.ack_out {
                for si in 0..self.outputs[p].streams.len() {
                    let s = self.outputs[p].streams[si];
                    let r = ctx.arena.splat(Elem::I64(1), alen);
                    ctx.push(s, r);
                }
            }
            *ctx.progress += 1;
            self.rr_w = (i + 1) % nw;
            break;
        }
        // one read port per cycle, round robin
        let nr = self.spec.read_ports.len();
        for off in 0..nr {
            let i = (self.rr_r + off) % nr;
            if self.read_wait(ctx, i).is_some() {
                continue;
            }
            let port = self.spec.read_ports[i];
            let addr_sid = self.inputs[port.addr_in];
            let head = ctx.s(addr_sid).peek().expect("checked");
            if head.is_marker() {
                ctx.s(addr_sid).pop();
                self.rd_epoch[i] += 1;
                for &s in &self.outputs[port.data_out].streams {
                    ctx.push(s, PacketRef::marker());
                }
                *ctx.progress += 1;
                self.rr_r = (i + 1) % nr;
                break;
            }
            let addr = ctx
                .s(addr_sid)
                .pop()
                .ok_or_else(|| format!("{}: read addr vanished", self.label))?;
            let buf = ((self.rd_epoch[i]) % m) as usize;
            let alen;
            {
                let avals = ctx.arena.vals(addr);
                alen = avals.len();
                self.out_scratch.clear();
                for a in avals {
                    let w = a.as_i64();
                    if w < 0 || w as usize >= self.buffers[buf].len() {
                        return Err(format!("{}: read address {w} out of bank range", self.label));
                    }
                    self.out_scratch.push(self.buffers[buf][w as usize]);
                }
            }
            ctx.arena.free(addr);
            self.reads += alen as u64;
            for si in 0..self.outputs[port.data_out].streams.len() {
                let s = self.outputs[port.data_out].streams[si];
                let r = ctx.arena.data(&self.out_scratch);
                ctx.push(s, r);
            }
            *ctx.progress += 1;
            self.rr_r = (i + 1) % nr;
            break;
        }
        self.record_wait(ctx);
        Ok(())
    }
}

// ---------------------------------------------------------------- Xbar

/// Distributor: routes payload lanes to per-bank outputs by bank id.
#[derive(Debug, Clone)]
pub struct DistRt {
    pub spec: XbarDist,
    pub inputs: Vec<StreamId>,
    pub outputs: Vec<OutPort>,
    /// Per-bank lane-grouping scratch, reused across routings.
    groups: Vec<Val>,
    pub routed: u64,
}

impl DistRt {
    pub fn new(spec: XbarDist, inputs: Vec<StreamId>, outputs: Vec<OutPort>) -> Self {
        let n = spec.bank_outs.len();
        DistRt { spec, inputs, outputs, groups: vec![Vec::new(); n], routed: 0 }
    }

    pub fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<(), String> {
        loop {
            let bank_sid = self.inputs[self.spec.bank_in];
            let Some(bank_pk) = ctx.s(bank_sid).peek() else {
                ctx.block_on(Wait::Arrived(bank_sid));
                return Ok(());
            };
            let pay_sid = self.inputs[self.spec.payload_in];
            // markers travel on both input streams; forward once
            if bank_pk.is_marker() {
                let Some(pp) = ctx.s(pay_sid).peek() else {
                    ctx.block_on(Wait::Arrived(pay_sid));
                    return Ok(());
                };
                if !pp.is_marker() {
                    return Err("xbar-dist: marker misalignment".into());
                }
                let full = self
                    .spec
                    .bank_outs
                    .iter()
                    .chain(self.spec.ba_out.iter())
                    .find_map(|p| ctx.first_full(&self.outputs[*p].streams));
                if let Some(s) = full {
                    ctx.block_on(Wait::Freed(s));
                    return Ok(());
                }
                ctx.s(bank_sid).pop();
                ctx.s(pay_sid).pop();
                for p in self.spec.bank_outs.iter().chain(self.spec.ba_out.iter()) {
                    for &s in &self.outputs[*p].streams {
                        ctx.push(s, PacketRef::marker());
                    }
                }
                *ctx.progress += 1;
                continue;
            }
            if ctx.s(pay_sid).peek().map(|p| p.is_marker()).unwrap_or(true) {
                ctx.block_on(Wait::Arrived(pay_sid));
                return Ok(());
            }
            let pay_pk =
                ctx.s(pay_sid).peek().ok_or_else(|| "xbar-dist: payload vanished".to_string())?;
            // group lanes by bank
            let nbanks = self.spec.bank_outs.len();
            for g in &mut self.groups {
                g.clear();
            }
            {
                let bvals = ctx.arena.vals(bank_pk);
                let pvals = ctx.arena.vals(pay_pk);
                if pvals.len() != bvals.len() {
                    return Err(format!(
                        "xbar-dist: bank/payload width mismatch {} vs {}",
                        bvals.len(),
                        pvals.len()
                    ));
                }
                for (b, v) in bvals.iter().zip(pvals) {
                    let bi = b.as_i64();
                    if bi < 0 || bi as usize >= nbanks {
                        return Err(format!("xbar-dist: bank {bi} out of range"));
                    }
                    self.groups[bi as usize].push(*v);
                }
            }
            let full = self
                .groups
                .iter()
                .zip(&self.spec.bank_outs)
                .filter(|(g, _)| !g.is_empty())
                .map(|(_, p)| p)
                .chain(self.spec.ba_out.iter())
                .find_map(|p| ctx.first_full(&self.outputs[*p].streams));
            if let Some(s) = full {
                ctx.block_on(Wait::Freed(s));
                return Ok(());
            }
            let bank_owned = ctx.s(bank_sid).pop().expect("peeked");
            let pay_owned = ctx.s(pay_sid).pop().expect("peeked");
            ctx.arena.free(pay_owned);
            for bi in 0..nbanks {
                if self.groups[bi].is_empty() {
                    continue;
                }
                for si in 0..self.outputs[self.spec.bank_outs[bi]].streams.len() {
                    let s = self.outputs[self.spec.bank_outs[bi]].streams[si];
                    let r = ctx.arena.data(&self.groups[bi]);
                    ctx.push(s, r);
                }
            }
            if let Some(p) = self.spec.ba_out {
                for si in 0..self.outputs[p].streams.len() {
                    let s = self.outputs[p].streams[si];
                    let r = ctx.arena.duplicate(bank_owned);
                    ctx.push(s, r);
                }
            }
            ctx.arena.free(bank_owned);
            self.routed += 1;
            *ctx.progress += 1;
        }
    }
}

/// Collector: reassembles per-bank responses into firing order using the
/// forwarded bank-address stream.
#[derive(Debug, Clone)]
pub struct CollRt {
    pub spec: XbarColl,
    pub inputs: Vec<StreamId>,
    pub outputs: Vec<OutPort>,
    /// Element buffers per bank input (flattened packets).
    elems: Vec<VecDeque<Elem>>,
    /// Marker counts per bank input, interleaved positionally: markers are
    /// rare (epoch ends), so we require element buffers to be empty when
    /// consuming one.
    markers: Vec<u64>,
    /// Per-bank element-count scratch, reused across assemblies.
    need: Vec<usize>,
    /// Assembly output scratch, reused across assemblies.
    out_scratch: Val,
    pub assembled: u64,
}

impl CollRt {
    pub fn new(spec: XbarColl, inputs: Vec<StreamId>, outputs: Vec<OutPort>) -> Self {
        let n = spec.bank_ins.len();
        CollRt {
            spec,
            inputs,
            outputs,
            elems: vec![VecDeque::new(); n],
            markers: vec![0; n],
            need: vec![0; n],
            out_scratch: Vec::new(),
            assembled: 0,
        }
    }

    fn drain_banks(&mut self, ctx: &mut Ctx<'_>) {
        for bi in 0..self.spec.bank_ins.len() {
            let sid = self.inputs[self.spec.bank_ins[bi]];
            while let Some(pk) = ctx.s(sid).peek() {
                if pk.is_marker() {
                    if self.elems[bi].is_empty() {
                        ctx.s(sid).pop();
                        self.markers[bi] += 1;
                        continue;
                    }
                    break;
                }
                let pk = ctx.s(sid).pop().expect("peeked");
                self.elems[bi].extend(ctx.arena.vals(pk).iter().copied());
                ctx.arena.free(pk);
            }
        }
    }

    /// End the step blocked: on `also`, and on an arrival at every empty
    /// bank input, which the next step would drain. (A bank whose head
    /// is a marker behind buffered elements cannot drain before this
    /// unit assembles.)
    fn block(&self, ctx: &mut Ctx<'_>, also: Option<Wait>) {
        for &b in &self.spec.bank_ins {
            let sid = self.inputs[b];
            if ctx.s(sid).peek().is_none() {
                ctx.wait_on(Wait::Arrived(sid));
            }
        }
        if let Some(w) = also {
            ctx.wait_on(w);
        }
        ctx.site.blocked = true;
    }

    pub fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<(), String> {
        loop {
            self.drain_banks(ctx);
            let ba_sid = self.inputs[self.spec.ba_in];
            let Some(ba) = ctx.s(ba_sid).peek() else {
                self.block(ctx, Some(Wait::Arrived(ba_sid)));
                return Ok(());
            };
            if let Some(s) = ctx.first_full(&self.outputs[self.spec.out].streams) {
                self.block(ctx, Some(Wait::Freed(s)));
                return Ok(());
            }
            if ba.is_marker() {
                // consume one marker from every bank
                if self.markers.contains(&0) {
                    self.block(ctx, None);
                    return Ok(());
                }
                ctx.s(ba_sid).pop();
                for m in &mut self.markers {
                    *m -= 1;
                }
                for &s in &self.outputs[self.spec.out].streams {
                    ctx.push(s, PacketRef::marker());
                }
                *ctx.progress += 1;
                continue;
            }
            // need per-bank element counts
            let nbanks = self.spec.bank_ins.len();
            for n in &mut self.need {
                *n = 0;
            }
            {
                let bvals = ctx.arena.vals(ba);
                for b in bvals {
                    let bi = b.as_i64() as usize;
                    if bi >= nbanks {
                        return Err(format!("xbar-coll: bank {bi} out of range"));
                    }
                    self.need[bi] += 1;
                }
            }
            if self.need.iter().enumerate().any(|(bi, n)| self.elems[bi].len() < *n) {
                self.block(ctx, None);
                return Ok(());
            }
            let ba = ctx.s(ba_sid).pop().expect("peeked");
            self.out_scratch.clear();
            {
                let bvals = ctx.arena.vals(ba);
                for b in bvals {
                    let bi = b.as_i64() as usize;
                    let e = self
                        .elems
                        .get_mut(bi)
                        .and_then(|q| q.pop_front())
                        .ok_or_else(|| format!("xbar-coll: bank {bi} underflow on collect"))?;
                    self.out_scratch.push(e);
                }
            }
            ctx.arena.free(ba);
            for si in 0..self.outputs[self.spec.out].streams.len() {
                let s = self.outputs[self.spec.out].streams[si];
                let r = ctx.arena.data(&self.out_scratch);
                ctx.push(s, r);
            }
            self.assembled += 1;
            *ctx.progress += 1;
        }
    }
}

// ---------------------------------------------------------------- AG

#[derive(Debug, Clone)]
enum JobKind {
    Read { words: Vec<u64> },
    Write { count: usize },
    Marker,
}

#[derive(Debug, Clone)]
struct Job {
    seq: u64,
    kind: JobKind,
    /// Elements whose DRAM transfer has not completed yet.
    pending: usize,
}

/// A contiguous run being coalesced across packets into one DRAM burst.
#[derive(Debug, Clone)]
struct RunAcc {
    start: u64,
    len: u64,
    /// `(job seq, element count)` covered by this run.
    jobs: Vec<(u64, u64)>,
    /// Cycle of the last append (staleness flush).
    touched: u64,
}

/// An issued run awaiting its DRAM response, kept reissuable so lost or
/// badly delayed responses can be recovered by retry.
#[derive(Debug, Clone)]
struct InflightRun {
    /// `(job seq, element count)` covered by this run.
    jobs: Vec<(u64, u64)>,
    /// The request, verbatim, for reissue.
    req: Request,
    /// Cycle the request was last accepted by the DRAM queue
    /// (`u64::MAX` while still waiting in `to_issue`).
    issued_at: u64,
    /// Reissue count so far.
    retries: u32,
}

/// How [`AgRt::complete`] classified a DRAM response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompleteKind {
    /// Matched an outstanding run; jobs were credited.
    Matched,
    /// A re-delivery for a run that was retried (or already credited) —
    /// benign, absorbed.
    Duplicate,
    /// Matches no outstanding or retried run of this unit: a protocol
    /// violation the sanitizer reports.
    Unknown,
}

/// Runtime state of an address-generator unit.
///
/// Requests are **coalesced across packets**: consecutive word addresses
/// from back-to-back firings merge into bursts of up to 64 words (256 B),
/// flushed on discontinuity, on reaching the burst cap, or after a short
/// staleness window — this is what lets streaming kernels saturate DRAM
/// bandwidth instead of paying full latency per element.
#[derive(Debug, Clone)]
pub struct AgRt {
    pub spec: AgUnit,
    pub inputs: Vec<StreamId>,
    pub outputs: Vec<OutPort>,
    pub label: String,
    pub unit_index: usize,
    jobs: VecDeque<Job>,
    run: Option<RunAcc>,
    /// Flushed requests not yet accepted by the DRAM model.
    to_issue: VecDeque<Request>,
    /// In-flight runs by run id.
    inflight: HashMap<u64, InflightRun>,
    /// Run ids that completed or were reissued; late re-deliveries for
    /// them are benign duplicates, not protocol violations.
    retired_runs: std::collections::HashSet<u64>,
    next_seq: u64,
    next_run: u64,
    /// Maximum outstanding jobs (from the AG spec).
    max_jobs: usize,
    /// Read-retirement assembly scratch, reused across jobs.
    read_scratch: Val,
    /// DRAM responses matched so far ([`Wait::Responses`]).
    pub(crate) responses: u64,
}

/// Burst coalescing cap in words (256 bytes).
const RUN_CAP_WORDS: u64 = 64;
/// Cycles a run may sit un-appended before it is flushed.
const RUN_STALE_CYCLES: u64 = 8;

impl AgRt {
    pub fn new(
        spec: AgUnit,
        inputs: Vec<StreamId>,
        outputs: Vec<OutPort>,
        label: String,
        unit_index: usize,
    ) -> Self {
        AgRt {
            spec,
            inputs,
            outputs,
            label,
            unit_index,
            jobs: VecDeque::with_capacity(64),
            run: None,
            to_issue: VecDeque::with_capacity(64),
            inflight: HashMap::with_capacity(64),
            retired_runs: std::collections::HashSet::new(),
            next_seq: 0,
            next_run: 0,
            max_jobs: 64,
            read_scratch: Vec::new(),
            responses: 0,
        }
    }

    /// Whether all work is drained.
    pub fn idle(&self) -> bool {
        self.jobs.is_empty() && self.run.is_none() && self.to_issue.is_empty()
    }

    /// Whether flushed requests are still waiting for DRAM queue space.
    pub fn wants_issue(&self) -> bool {
        !self.to_issue.is_empty()
    }

    /// Cycle at which the open coalescing run goes stale and must be
    /// flushed (the unit has to be stepped then for the flush to happen).
    pub fn flush_due(&self) -> Option<u64> {
        self.run.as_ref().map(|r| r.touched + RUN_STALE_CYCLES)
    }

    fn flush_run(&mut self) {
        let Some(run) = self.run.take() else { return };
        let is_write = self.spec.dir == AgDir::Write;
        let run_id = self.next_run;
        self.next_run += 1;
        let tag = ((self.unit_index as u64) << 32) | (run_id & 0xFFFF_FFFF);
        let req = Request {
            id: tag,
            addr: self.spec.base_addr + run.start * 4,
            bytes: (run.len * 4) as u32,
            is_write,
        };
        self.to_issue.push_back(req);
        self.inflight
            .insert(run_id, InflightRun { jobs: run.jobs, req, issued_at: u64::MAX, retries: 0 });
    }

    /// Append one word address of job `seq` to the coalescing run.
    fn append_word(&mut self, now: u64, seq: u64, w: u64) {
        match &mut self.run {
            Some(run) if run.start + run.len == w && run.len < RUN_CAP_WORDS => {
                run.len += 1;
                run.touched = now;
                match run.jobs.last_mut() {
                    Some((s, c)) if *s == seq => *c += 1,
                    _ => run.jobs.push((seq, 1)),
                }
            }
            Some(_) => {
                self.flush_run();
                self.run = Some(RunAcc { start: w, len: 1, jobs: vec![(seq, 1)], touched: now });
            }
            None => {
                self.run = Some(RunAcc { start: w, len: 1, jobs: vec![(seq, 1)], touched: now });
            }
        }
    }

    /// Intake + issue + retire. `image` is the global DRAM word image.
    pub fn step(
        &mut self,
        ctx: &mut Ctx<'_>,
        dram: &mut DramSim,
        image: &mut [Elem],
    ) -> Result<(), String> {
        // ---- intake ----
        while self.jobs.len() < self.max_jobs {
            let addr_sid = self.inputs[self.spec.addr_in];
            let Some(head) = ctx.s(addr_sid).peek() else { break };
            if head.is_marker() {
                ctx.s(addr_sid).pop();
                self.jobs.push_back(Job { seq: self.next_seq, kind: JobKind::Marker, pending: 0 });
                self.next_seq += 1;
                *ctx.progress += 1;
                continue;
            }
            let is_write = self.spec.dir == AgDir::Write;
            let words: Vec<u64> =
                ctx.arena.vals(head).iter().map(|e| e.as_i64().max(0) as u64).collect();
            if is_write {
                let data_in = self
                    .spec
                    .data_in
                    .ok_or_else(|| format!("{}: write AG has no data port", self.label))?;
                let data_sid = self.inputs[data_in];
                if !ctx.s(data_sid).skip_markers_and_peek() {
                    break;
                }
                let data_pk = ctx
                    .s(data_sid)
                    .peek()
                    .ok_or_else(|| format!("{}: write data vanished", self.label))?;
                {
                    let dlen = ctx.arena.vals(data_pk).len();
                    if dlen != words.len() && !(dlen == 1 && words.len() > 1) {
                        return Err(format!(
                            "{}: DRAM write addr/data mismatch {} vs {}",
                            self.label,
                            words.len(),
                            dlen
                        ));
                    }
                }
                ctx.s(addr_sid).pop();
                ctx.s(data_sid).pop();
                // commit at issue; acks gate any dependent reader
                {
                    let dvals = ctx.arena.vals(data_pk);
                    let broadcast = dvals.len() == 1 && words.len() > 1;
                    for (j, w) in words.iter().enumerate() {
                        let gw = (self.spec.base_addr / 4 + w) as usize;
                        if gw >= image.len() {
                            return Err(format!("{}: DRAM write beyond image ({gw})", self.label));
                        }
                        image[gw] = if broadcast { dvals[0] } else { dvals[j] };
                    }
                }
                ctx.arena.free(head);
                ctx.arena.free(data_pk);
                let seq = self.next_seq;
                for w in &words {
                    self.append_word(ctx.now, seq, *w);
                }
                self.jobs.push_back(Job {
                    seq,
                    kind: JobKind::Write { count: words.len() },
                    pending: words.len(),
                });
            } else {
                ctx.s(addr_sid).pop();
                ctx.arena.free(head);
                let seq = self.next_seq;
                for w in &words {
                    self.append_word(ctx.now, seq, *w);
                }
                let pending = words.len();
                self.jobs.push_back(Job { seq, kind: JobKind::Read { words }, pending });
            }
            self.next_seq += 1;
            *ctx.progress += 1;
        }
        // staleness / cap flush
        let stale = self
            .run
            .as_ref()
            .map(|r| {
                r.len >= RUN_CAP_WORDS || ctx.now.saturating_sub(r.touched) >= RUN_STALE_CYCLES
            })
            .unwrap_or(false);
        if stale {
            self.flush_run();
        }
        // ---- issue ----
        while let Some(req) = self.to_issue.front() {
            if dram.push(*req) {
                let run_id = req.id & 0xFFFF_FFFF;
                if let Some(fl) = self.inflight.get_mut(&run_id) {
                    fl.issued_at = ctx.now;
                }
                self.to_issue.pop_front();
                *ctx.progress += 1;
            } else {
                break;
            }
        }
        // ---- retire (in order) ----
        while let Some(front) = self.jobs.front() {
            if front.pending > 0 {
                break;
            }
            let mut ok = true;
            for s in &self.outputs[self.spec.out].streams {
                ok &= ctx.s(*s).can_push();
            }
            if !ok {
                break;
            }
            let Some(job) = self.jobs.pop_front() else { break };
            match job.kind {
                JobKind::Marker => {
                    for &s in &self.outputs[self.spec.out].streams {
                        ctx.push(s, PacketRef::marker());
                    }
                }
                JobKind::Write { count } => {
                    for si in 0..self.outputs[self.spec.out].streams.len() {
                        let s = self.outputs[self.spec.out].streams[si];
                        let r = ctx.arena.splat(Elem::I64(1), count);
                        ctx.push(s, r);
                    }
                }
                JobKind::Read { words } => {
                    self.read_scratch.clear();
                    for w in &words {
                        let gw = (self.spec.base_addr / 4 + w) as usize;
                        if gw >= image.len() {
                            return Err(format!("{}: DRAM read beyond image ({gw})", self.label));
                        }
                        self.read_scratch.push(image[gw]);
                    }
                    for si in 0..self.outputs[self.spec.out].streams.len() {
                        let s = self.outputs[self.spec.out].streams[si];
                        let r = ctx.arena.data(&self.read_scratch);
                        ctx.push(s, r);
                    }
                }
            }
            *ctx.progress += 1;
        }
        self.record_wait(ctx);
        Ok(())
    }

    /// What the next step waits on: nothing while flushed requests wait
    /// for DRAM queue space (they retry next cycle), else the intake's
    /// next input and the front job's DRAM responses or output space,
    /// plus the open run's staleness deadline. An intake blocked on a
    /// full job queue waits on the front job like the retire stage.
    fn record_wait(&self, ctx: &mut Ctx<'_>) {
        ctx.site.deadline = self.flush_due();
        if self.wants_issue() {
            return;
        }
        if self.jobs.len() < self.max_jobs {
            let addr_sid = self.inputs[self.spec.addr_in];
            let wait = match (ctx.s(addr_sid).peek(), self.spec.data_in) {
                (None, _) => addr_sid,
                (Some(head), Some(data_in))
                    if !head.is_marker() && self.spec.dir == AgDir::Write =>
                {
                    // A queued data head (or marker to skip) lets the
                    // intake act.
                    let data_sid = self.inputs[data_in];
                    if ctx.s(data_sid).peek().is_some() {
                        return;
                    }
                    data_sid
                }
                (Some(_), _) => return,
            };
            ctx.wait_on(Wait::Arrived(wait));
        }
        if let Some(front) = self.jobs.front() {
            if front.pending > 0 {
                ctx.site.on.push((Wait::Responses, self.responses));
            } else {
                let Some(s) = ctx.first_full(&self.outputs[self.spec.out].streams) else { return };
                ctx.wait_on(Wait::Freed(s));
            }
        }
        ctx.site.blocked = true;
    }

    /// Record a DRAM completion for a tagged request, classifying it.
    ///
    /// Retries make duplicate deliveries possible (a delayed original plus
    /// its reissue): the first match credits the jobs, later copies are
    /// absorbed as [`CompleteKind::Duplicate`]. A tag matching neither an
    /// outstanding nor a retired run is [`CompleteKind::Unknown`] — the
    /// sanitizer turns that into a `dram-response-mismatch` report.
    pub fn complete(&mut self, tag: u64) -> CompleteKind {
        let run_id = tag & 0xFFFF_FFFF;
        let Some(fl) = self.inflight.remove(&run_id) else {
            return if self.retired_runs.contains(&run_id) {
                CompleteKind::Duplicate
            } else {
                CompleteKind::Unknown
            };
        };
        self.retired_runs.insert(run_id);
        self.responses += 1;
        for (seq, count) in fl.jobs {
            if let Some(job) = self.jobs.iter_mut().find(|j| j.seq == seq) {
                job.pending = job.pending.saturating_sub(count as usize);
            }
        }
        CompleteKind::Matched
    }

    // ----------------------------------------------- recovery / liveness

    /// Whether the front (in-order) job is waiting on a DRAM response.
    pub fn front_blocked_on_dram(&self) -> bool {
        self.jobs.front().map(|j| j.pending > 0).unwrap_or(false)
    }

    /// The open coalescing run, as `(words, last-append cycle)`, when it
    /// holds words of the front job: those were never issued, so the job
    /// waits on the run's staleness flush, not on DRAM.
    pub(crate) fn front_in_open_run(&self) -> Option<(u64, u64)> {
        let front = self.jobs.front()?;
        let run = self.run.as_ref()?;
        run.jobs.iter().any(|&(seq, _)| seq == front.seq).then_some((run.len, run.touched))
    }

    /// Outstanding issued runs.
    pub fn outstanding_runs(&self) -> usize {
        self.inflight.len()
    }

    /// Earliest cycle at which an issued run exceeds `timeout` cycles
    /// without a response (the active scheduler must wake then to give
    /// [`AgRt::poll_retries`] a chance to run).
    pub fn next_retry_deadline(&self, timeout: u64) -> Option<u64> {
        self.inflight
            .values()
            .filter(|fl| fl.issued_at != u64::MAX)
            .map(|fl| fl.issued_at + timeout + 1)
            .min()
    }

    /// Reissue requests whose responses are `timeout` cycles overdue
    /// (bounded by `max_retries` per run). Returns the reissued tags with
    /// their retry ordinal, or the typed stall error once a run exhausts
    /// its retry budget. Only called in fault-injection mode — a healthy
    /// DRAM model always responds well inside any sane timeout.
    pub fn poll_retries(
        &mut self,
        now: u64,
        dram: &mut DramSim,
        timeout: u64,
        max_retries: u32,
    ) -> Result<Vec<(u64, u32)>, ramulator_lite::DramError> {
        let mut reissued = Vec::new();
        let mut run_ids: Vec<u64> = self.inflight.keys().copied().collect();
        run_ids.sort_unstable();
        for run_id in run_ids {
            let fl = &self.inflight[&run_id];
            if fl.issued_at == u64::MAX || now.saturating_sub(fl.issued_at) <= timeout {
                continue;
            }
            if fl.retries >= max_retries {
                return Err(ramulator_lite::DramError::ResponseStall {
                    channel: None,
                    id: fl.req.id,
                    waited: now - fl.issued_at,
                    budget: timeout,
                });
            }
            let req = fl.req;
            if dram.push(req) {
                let fl = self.inflight.get_mut(&run_id).expect("present");
                fl.issued_at = now;
                fl.retries += 1;
                // A late original may still arrive; mark so it is absorbed
                // as a duplicate rather than reported.
                self.retired_runs.insert(run_id);
                reissued.push((req.id, self.inflight[&run_id].retries));
            }
            // DRAM queue full: try again next poll.
        }
        Ok(reissued)
    }
}

// ---------------------------------------------------------------- Units

/// Unit kind tag carrying the index into the matching dense per-kind
/// vector of [`Units`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UKind {
    Vcu(u32),
    Vmu(u32),
    Ag(u32),
    Sync(u32),
    Dist(u32),
    Coll(u32),
}

/// Struct-of-arrays runtime unit store: one dense vector per unit kind,
/// addressed through the `kind` tag vector by global unit index. The
/// per-kind vectors are built in unit-index order, so iterating `vcus`,
/// `vmus`, or `ags` directly visits units in the same order a
/// unit-indexed scan would — sanitizer and stats iteration rely on this.
#[derive(Default)]
pub struct Units {
    pub kind: Vec<UKind>,
    pub vcus: Vec<VcuRt>,
    pub vmus: Vec<VmuRt>,
    pub ags: Vec<AgRt>,
    pub syncs: Vec<SyncRt>,
    pub dists: Vec<DistRt>,
    pub colls: Vec<CollRt>,
}

impl Units {
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }

    pub fn vcu(&self, i: usize) -> Option<&VcuRt> {
        match self.kind.get(i)? {
            UKind::Vcu(k) => Some(&self.vcus[*k as usize]),
            _ => None,
        }
    }

    pub fn vmu(&self, i: usize) -> Option<&VmuRt> {
        match self.kind.get(i)? {
            UKind::Vmu(k) => Some(&self.vmus[*k as usize]),
            _ => None,
        }
    }

    pub fn ag(&self, i: usize) -> Option<&AgRt> {
        match self.kind.get(i)? {
            UKind::Ag(k) => Some(&self.ags[*k as usize]),
            _ => None,
        }
    }

    pub fn ag_mut(&mut self, i: usize) -> Option<&mut AgRt> {
        match self.kind.get(i)? {
            UKind::Ag(k) => Some(&mut self.ags[*k as usize]),
            _ => None,
        }
    }

    /// Unit label for fault attribution (crossbar-family units share the
    /// generic "xbar" label, matching the deadlock diagnostics).
    pub fn fault_label(&self, i: usize) -> String {
        match self.kind[i] {
            UKind::Vcu(k) => self.vcus[k as usize].label.clone(),
            UKind::Vmu(k) => self.vmus[k as usize].label.clone(),
            UKind::Ag(k) => self.ags[k as usize].label.clone(),
            UKind::Sync(_) | UKind::Dist(_) | UKind::Coll(_) => "xbar".to_string(),
        }
    }

    /// Step unit `i` once, leaving its [`WaitSite`] in `ctx.site`.
    pub fn step(
        &mut self,
        i: usize,
        ctx: &mut Ctx<'_>,
        dram: &mut DramSim,
        image: &mut [Elem],
    ) -> Result<(), String> {
        ctx.site.clear();
        match self.kind[i] {
            UKind::Vcu(k) => {
                let v = &mut self.vcus[k as usize];
                v.step(ctx)?;
                v.record_wait(ctx);
                Ok(())
            }
            UKind::Sync(k) => {
                self.syncs[k as usize].step(ctx);
                Ok(())
            }
            UKind::Vmu(k) => self.vmus[k as usize].step(ctx),
            UKind::Dist(k) => self.dists[k as usize].step(ctx),
            UKind::Coll(k) => self.colls[k as usize].step(ctx),
            UKind::Ag(k) => self.ags[k as usize].step(ctx, dram, image),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasticine_arch::DramKind;
    use sara_ir::MemId;

    /// Step `ag` once at `now` and return the wait site it leaves.
    fn step_ag(
        ag: &mut AgRt,
        now: u64,
        streams: &mut [StreamRt],
        arena: &mut PacketArena,
        dram: &mut DramSim,
    ) -> WaitSite {
        let (mut progress, mut site) = (0, WaitSite::default());
        let mut image = vec![Elem::F64(0.0); 64];
        let mut ctx = Ctx { now, streams, arena, progress: &mut progress, site: &mut site };
        ag.step(&mut ctx, dram, &mut image).expect("AG step");
        site
    }

    /// A read AG whose only job sits in its open coalescing run waits on
    /// the next address, on DRAM responses and on the run's staleness
    /// deadline; at the deadline the run is flushed and issued, and the
    /// job then waits on DRAM alone.
    #[test]
    fn ag_job_in_open_run_waits_for_the_flush_then_for_dram() {
        let spec = AgUnit {
            mem: MemId(0),
            dir: AgDir::Read,
            addr_in: 0,
            data_in: None,
            out: 0,
            width: 1,
            base_addr: 0,
        };
        let out = OutPort { streams: vec![StreamId(1)] };
        let mut ag = AgRt::new(spec, vec![StreamId(0)], vec![out], "ag".into(), 0);
        let mut streams = vec![StreamRt::new(1, 4, 0), StreamRt::new(1, 4, 0)];
        let mut arena = PacketArena::new();
        let mut dram = DramSim::new(DramKind::Hbm2);
        let addr = arena.data(&[Elem::I64(5)]);
        streams[0].push(0, addr);
        streams[0].tick(1);

        let site = step_ag(&mut ag, 1, &mut streams, &mut arena, &mut dram);
        assert_eq!(ag.front_in_open_run(), Some((1, 1)), "one word, appended at cycle 1");
        assert!(site.blocked);
        assert_eq!(site.on, vec![(Wait::Arrived(StreamId(0)), 1), (Wait::Responses, 0)]);
        assert_eq!(site.deadline, Some(1 + RUN_STALE_CYCLES));
        assert!(!site.may_act(5, &mut streams, || 0), "nothing moved before the deadline");
        assert!(site.may_act(1 + RUN_STALE_CYCLES, &mut streams, || 0));

        let site = step_ag(&mut ag, 1 + RUN_STALE_CYCLES, &mut streams, &mut arena, &mut dram);
        assert_eq!(ag.front_in_open_run(), None, "the stale run was flushed");
        assert!(dram.has_queued() && ag.outstanding_runs() == 1);
        assert!(site.blocked && site.deadline.is_none());
        assert!(site.may_act(20, &mut streams, || 1), "a matched response may retire the job");
    }
}
