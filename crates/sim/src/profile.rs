//! Runtime profile collector.
//!
//! The [`Profiler`] observes the simulation as it runs — it never mutates
//! simulator state, so enabling it cannot change cycle counts — and
//! produces a [`sara_core::profile::SimProfile`] at the end.
//!
//! # Scheduler independence
//!
//! Both schedulers produce identical profiles. The dense loop observes
//! every unit every cycle; the active-list loop observes a unit only when
//! it is stepped. The collector bridges the gap with *edge accounting*:
//! a unit that is not stepped cannot change state (that is the wakeup
//! invariant the active scheduler itself rests on), so the cycles between
//! two observations are attributed to the unit's *resting* state — the
//! classification a no-op step right after the earlier observation would
//! derive (its stall, or idle once done; a step that made progress is
//! active only in its own cycle). A dense no-op step re-derives exactly
//! that classification, so the attributions agree cycle for cycle.
//!
//! Stream fullness and occupancy only change while an adjacent unit is
//! stepped (ticking moves packets between the in-flight and queued
//! portions without changing their sum), so observing the stepped unit's
//! input and output streams after each step sees every transition at the
//! cycle it happens in either scheduler.
//!
//! # Stall attribution
//!
//! A stepped VCU that made progress is **active** that cycle; one whose
//! program has completed is **idle**; otherwise the stall site recorded
//! by the stepper ([`StallClass`]) maps onto the public taxonomy:
//!
//! * `CreditPop` → [`StallReason::CreditBlocked`];
//! * `OutputSpace` → [`StallReason::OutputBackpressured`];
//! * `InputData` → [`StallReason::DramBlocked`] when the starving stream
//!   is fed directly by an address generator, else
//!   [`StallReason::InputStarved`].

use crate::stream::StreamRt;
use crate::units::{StallClass, VcuRt};
use ramulator_lite::DramStats;
use sara_core::profile::{
    DramEpoch, Segment, SimProfile, StallReason, StreamProfile, UnitState, VcuProfile,
};
use sara_core::vudfg::{UnitKind, Vudfg};

/// Per-unit segment cap: beyond this many state changes the timeline tail
/// is dropped (counters stay exact) so pathological ping-pong patterns
/// cannot consume unbounded memory.
const SEGMENT_CAP: usize = 1 << 16;

/// Width in cycles of each DRAM timeline bin ([`SimProfile::epoch_cycles`]).
const EPOCH_CYCLES: u64 = 1024;

/// Cycle-attribution accumulator for one VCU.
struct VcuAcct {
    label: String,
    firings: u64,
    active: u64,
    idle: u64,
    stalled: [u64; 4],
    /// Last cycle already attributed (0 = nothing yet).
    accounted_to: u64,
    /// State attributed to cycles between observations.
    resting: UnitState,
    /// Open timeline segment being extended.
    open: Option<Segment>,
    segments: Vec<Segment>,
    truncated: bool,
}

impl VcuAcct {
    /// Attribute the inclusive cycle range `[start, end]` to `state`.
    fn attribute(&mut self, state: UnitState, start: u64, end: u64) {
        if end < start {
            return;
        }
        let n = end - start + 1;
        match state {
            UnitState::Active => self.active += n,
            UnitState::Idle => self.idle += n,
            UnitState::Stalled(r) => self.stalled[r.index()] += n,
        }
        if self.truncated {
            return;
        }
        match &mut self.open {
            Some(seg) if seg.state == state && seg.end == start => seg.end = end + 1,
            open => {
                if let Some(seg) = open.take() {
                    if self.segments.len() >= SEGMENT_CAP {
                        self.truncated = true;
                        return;
                    }
                    self.segments.push(seg);
                }
                *open = Some(Segment { state, start, end: end + 1 });
            }
        }
    }

    fn finish(mut self, cycles: u64) -> VcuProfile {
        self.attribute(self.resting, self.accounted_to + 1, cycles);
        if let Some(seg) = self.open.take() {
            if self.segments.len() < SEGMENT_CAP {
                self.segments.push(seg);
            } else {
                self.truncated = true;
            }
        }
        VcuProfile {
            label: self.label,
            firings: self.firings,
            active_cycles: self.active,
            idle_cycles: self.idle,
            stalled_cycles: self.stalled,
            segments: self.segments,
            segments_truncated: self.truncated,
        }
    }
}

/// Fullness/occupancy accumulator for one stream.
struct StreamAcct {
    label: String,
    hwm: usize,
    /// Cycle the stream was first observed full in the current full run.
    full_since: Option<u64>,
    backpressure: u64,
}

/// Observes a running simulation and assembles a [`SimProfile`].
pub struct Profiler {
    /// VCU accumulator index per unit index (`None` for non-VCUs).
    vcu_of_unit: Vec<Option<usize>>,
    vcus: Vec<VcuAcct>,
    /// Input + output stream indices per unit index.
    unit_streams: Vec<Vec<usize>>,
    streams: Vec<StreamAcct>,
    /// Whether each stream's producer is an address generator.
    src_is_ag: Vec<bool>,
    dram_epochs: Vec<DramEpoch>,
    last_dram: DramStats,
}

impl Profiler {
    /// Build a collector for a graph whose runtime streams are already
    /// constructed (initial token occupancy seeds the high-water marks).
    pub fn new(g: &Vudfg, streams: &[StreamRt]) -> Self {
        let mut vcu_of_unit = Vec::with_capacity(g.units.len());
        let mut vcus = Vec::new();
        let mut unit_streams = Vec::with_capacity(g.units.len());
        for u in &g.units {
            if matches!(u.kind, UnitKind::Vcu(_)) {
                vcu_of_unit.push(Some(vcus.len()));
                vcus.push(VcuAcct {
                    label: u.label.clone(),
                    firings: 0,
                    active: 0,
                    idle: 0,
                    stalled: [0; 4],
                    accounted_to: 0,
                    resting: UnitState::Idle,
                    open: None,
                    segments: Vec::new(),
                    truncated: false,
                });
            } else {
                vcu_of_unit.push(None);
            }
            let mut adj: Vec<usize> = u.inputs.iter().map(|s| s.index()).collect();
            adj.extend(u.outputs.iter().flat_map(|p| p.streams.iter().map(|s| s.index())));
            unit_streams.push(adj);
        }
        let stream_accts = g
            .streams
            .iter()
            .zip(streams)
            .map(|(spec, rt)| StreamAcct {
                label: format!(
                    "{} -> {} [{}]",
                    g.unit(spec.src).label,
                    g.unit(spec.dst).label,
                    spec.label
                ),
                hwm: rt.occupancy(),
                full_since: None,
                backpressure: 0,
            })
            .collect();
        let src_is_ag =
            g.streams.iter().map(|s| matches!(g.unit(s.src).kind, UnitKind::Ag(_))).collect();
        Profiler {
            vcu_of_unit,
            vcus,
            unit_streams,
            streams: stream_accts,
            src_is_ag,
            dram_epochs: Vec::new(),
            last_dram: DramStats::default(),
        }
    }

    /// Classify a just-stepped VCU's cycle.
    fn classify(&self, v: &VcuRt, made_progress: bool) -> UnitState {
        if made_progress {
            return UnitState::Active;
        }
        if v.done {
            return UnitState::Idle;
        }
        let reason = match v.stall_class {
            StallClass::CreditPop => StallReason::CreditBlocked,
            StallClass::OutputSpace => StallReason::OutputBackpressured,
            // A unit that has never stalled and made no progress is
            // waiting for its first inputs.
            StallClass::InputData | StallClass::None => {
                let from_ag = v.stall_stream.map(|s| self.src_is_ag[s.index()]).unwrap_or(false);
                if from_ag {
                    StallReason::DramBlocked
                } else {
                    StallReason::InputStarved
                }
            }
        };
        UnitState::Stalled(reason)
    }

    /// Record a VCU observation for cycle `now` (call right after its
    /// step). Cycles since the previous observation are attributed to the
    /// resting state recorded then: the post-step classification, which
    /// is what a no-op step would derive. For a unit that made progress
    /// that is not `Active`: a VCU that fired and then blocked, or
    /// finished, is not stepped again until it can act, while dense
    /// classifies each of those cycles by the stall (or `Idle`).
    pub fn observe_vcu(&mut self, unit: usize, now: u64, v: &VcuRt, made_progress: bool) {
        let Some(ai) = self.vcu_of_unit[unit] else { return };
        let state = self.classify(v, made_progress);
        let resting = if made_progress { self.classify(v, false) } else { state };
        let a = &mut self.vcus[ai];
        if now <= a.accounted_to {
            return;
        }
        a.attribute(a.resting, a.accounted_to + 1, now - 1);
        a.attribute(state, now, now);
        a.accounted_to = now;
        a.resting = resting;
        a.firings = v.firings;
    }

    /// Observe the streams adjacent to a just-stepped unit: track
    /// occupancy high-water marks and full↔free edges.
    pub fn observe_unit_streams(&mut self, unit: usize, now: u64, streams: &[StreamRt]) {
        for &si in &self.unit_streams[unit] {
            let s = &streams[si];
            let a = &mut self.streams[si];
            a.hwm = a.hwm.max(s.occupancy());
            if s.can_push() {
                if let Some(t) = a.full_since.take() {
                    a.backpressure += now - t;
                }
            } else if a.full_since.is_none() {
                a.full_since = Some(now);
            }
        }
    }

    /// Fold the DRAM counter deltas since the previous observation into
    /// the epoch bin of `now` (call right after each `dram.tick`). Both
    /// schedulers tick on exactly the cycles where the model does work,
    /// so the binning is scheduler-independent.
    pub fn observe_dram(&mut self, now: u64, stats: DramStats) {
        let d = DramStats {
            requests: stats.requests - self.last_dram.requests,
            read_bytes: stats.read_bytes - self.last_dram.read_bytes,
            write_bytes: stats.write_bytes - self.last_dram.write_bytes,
            row_hits: stats.row_hits - self.last_dram.row_hits,
            row_misses: stats.row_misses - self.last_dram.row_misses,
        };
        self.last_dram = stats;
        if d.read_bytes == 0 && d.write_bytes == 0 && d.row_hits == 0 && d.row_misses == 0 {
            return;
        }
        let bin = (now / EPOCH_CYCLES) as usize;
        while self.dram_epochs.len() <= bin {
            let start_cycle = self.dram_epochs.len() as u64 * EPOCH_CYCLES;
            self.dram_epochs.push(DramEpoch { start_cycle, ..DramEpoch::default() });
        }
        let e = &mut self.dram_epochs[bin];
        e.read_bytes += d.read_bytes;
        e.write_bytes += d.write_bytes;
        e.row_hits += d.row_hits;
        e.row_misses += d.row_misses;
    }

    /// Close all open attributions at the final cycle and assemble the
    /// profile. Stream push/pop totals come from the runtime streams.
    pub fn finish(self, cycles: u64, streams: &[StreamRt]) -> SimProfile {
        let vcus = self.vcus.into_iter().map(|a| a.finish(cycles)).collect();
        let stream_profiles = self
            .streams
            .into_iter()
            .zip(streams)
            .map(|(a, rt)| StreamProfile {
                label: a.label,
                slots: rt.slots(),
                occupancy_hwm: a.hwm,
                backpressure_cycles: a.backpressure
                    + a.full_since.map(|t| cycles + 1 - t).unwrap_or(0),
                pushes: rt.pushed,
                pops: rt.popped,
            })
            .collect();
        SimProfile {
            cycles,
            epoch_cycles: EPOCH_CYCLES,
            vcus,
            streams: stream_profiles,
            dram_epochs: self.dram_epochs,
        }
    }
}
