//! Simulation profile data model: per-VCU cycle attribution, per-stream
//! occupancy/backpressure counters and a binned DRAM timeline.
//!
//! The types live in `sara-core` (not `plasticine-sim`) so downstream
//! reporting — [`crate::report::bottleneck_summary`] and the bench
//! harness's JSON/Chrome-trace serializers — can consume profiles without
//! depending on the simulator. The simulator fills them in when
//! `SimConfig::profile` is set.
//!
//! # Counter semantics
//!
//! A simulation of `cycles` total cycles attributes **every** cycle of
//! every VCU to exactly one of three states, so per unit
//! `active + idle + stalled == cycles` always holds:
//!
//! * **active** — the unit made progress that cycle: it fired, popped a
//!   control token, resolved a dynamic bound, or advanced its counter
//!   chain;
//! * **stalled** — the unit wanted to make progress but could not; the
//!   blocking site is attributed to one [`StallReason`];
//! * **idle** — the unit has completed its program.
//!
//! Stream counters record the occupancy high-water mark (queued plus
//! in-flight packets, bounded by `depth + latency` slots) and the number
//! of cycles the stream was full — i.e. exerting backpressure on its
//! producer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a VCU could not make progress on a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StallReason {
    /// A data input, dynamic loop bound, or branch/while condition has
    /// not arrived, and the producing unit is on-fabric.
    InputStarved,
    /// An output stream (data, credit return, or epoch marker) has no
    /// space: the consumer side is backpressuring this unit.
    OutputBackpressured,
    /// Waiting to pop a CMMC credit token — the consistency protocol, not
    /// a dataflow operand, is what's withholding progress.
    CreditBlocked,
    /// The starving input stream is fed directly by an address generator:
    /// the unit is waiting on DRAM.
    DramBlocked,
}

impl StallReason {
    /// All reasons, in [`StallReason::index`] order.
    pub const ALL: [StallReason; 4] = [
        StallReason::InputStarved,
        StallReason::OutputBackpressured,
        StallReason::CreditBlocked,
        StallReason::DramBlocked,
    ];

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            StallReason::InputStarved => 0,
            StallReason::OutputBackpressured => 1,
            StallReason::CreditBlocked => 2,
            StallReason::DramBlocked => 3,
        }
    }

    /// Stable human/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            StallReason::InputStarved => "input-starved",
            StallReason::OutputBackpressured => "output-backpressured",
            StallReason::CreditBlocked => "credit-blocked",
            StallReason::DramBlocked => "dram-blocked",
        }
    }
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Instantaneous activity classification of a unit on one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitState {
    /// Made progress this cycle.
    Active,
    /// Program complete.
    Idle,
    /// Wanted to make progress but was blocked.
    Stalled(StallReason),
}

impl UnitState {
    /// Stable human/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            UnitState::Active => "active",
            UnitState::Idle => "idle",
            UnitState::Stalled(r) => r.label(),
        }
    }
}

/// A maximal run of cycles a unit spent in one state: `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    pub state: UnitState,
    /// First cycle of the run.
    pub start: u64,
    /// One past the last cycle of the run.
    pub end: u64,
}

/// Per-VCU cycle attribution and firing counts.
#[derive(Debug, Clone)]
pub struct VcuProfile {
    /// Unit label from the VUDFG.
    pub label: String,
    /// Total firings.
    pub firings: u64,
    /// Cycles the unit made progress.
    pub active_cycles: u64,
    /// Cycles after program completion.
    pub idle_cycles: u64,
    /// Stall cycles, indexed by [`StallReason::index`].
    pub stalled_cycles: [u64; 4],
    /// Merged state timeline (trace export). Adjacent same-state cycles
    /// collapse into one segment, so length is bounded by the number of
    /// state *changes*, capped at the collector's segment limit.
    pub segments: Vec<Segment>,
    /// True when the segment cap was hit; counters stay exact, only the
    /// timeline tail is missing.
    pub segments_truncated: bool,
}

impl VcuProfile {
    /// Total stalled cycles across all reasons.
    pub fn stalled_total(&self) -> u64 {
        self.stalled_cycles.iter().sum()
    }

    /// Stalled cycles for one reason.
    pub fn stalled(&self, r: StallReason) -> u64 {
        self.stalled_cycles[r.index()]
    }

    /// Sum of all attributed cycles; equals the simulated cycle count.
    pub fn total_cycles(&self) -> u64 {
        self.active_cycles + self.idle_cycles + self.stalled_total()
    }

    /// The dominant stall reason, if the unit stalled at all.
    pub fn worst_stall(&self) -> Option<(StallReason, u64)> {
        StallReason::ALL
            .into_iter()
            .map(|r| (r, self.stalled(r)))
            .filter(|&(_, c)| c > 0)
            .max_by_key(|&(_, c)| c)
    }
}

/// Per-stream occupancy and backpressure counters.
#[derive(Debug, Clone)]
pub struct StreamProfile {
    /// `"src -> dst [stream label]"`.
    pub label: String,
    /// Total packet slots: receive FIFO depth plus in-flight latency
    /// registers.
    pub slots: usize,
    /// Maximum observed occupancy (queued + in-flight packets).
    pub occupancy_hwm: usize,
    /// Cycles the stream was full, i.e. refusing pushes from its
    /// producer.
    pub backpressure_cycles: u64,
    /// Total packets pushed.
    pub pushes: u64,
    /// Total packets popped.
    pub pops: u64,
}

/// One bin of the DRAM bandwidth/row-locality timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramEpoch {
    /// First cycle covered by this bin.
    pub start_cycle: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub row_hits: u64,
    pub row_misses: u64,
}

impl DramEpoch {
    /// Total bytes scheduled in this bin.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Row-buffer hit rate within the bin, if any access happened.
    pub fn row_hit_rate(&self) -> Option<f64> {
        let total = self.row_hits + self.row_misses;
        (total > 0).then(|| self.row_hits as f64 / total as f64)
    }
}

/// Full observability record of one simulation, returned alongside the
/// functional outcome when profiling is enabled.
#[derive(Debug, Clone)]
pub struct SimProfile {
    /// Simulated cycles (same value as the outcome's cycle count).
    pub cycles: u64,
    /// DRAM timeline bin width in cycles.
    pub epoch_cycles: u64,
    /// Per-VCU attribution, in unit-index order.
    pub vcus: Vec<VcuProfile>,
    /// Per-stream counters, in stream-index order.
    pub streams: Vec<StreamProfile>,
    /// DRAM timeline, bin `i` covering cycles
    /// `[i * epoch_cycles, (i+1) * epoch_cycles)`.
    pub dram_epochs: Vec<DramEpoch>,
}

impl SimProfile {
    /// Fraction of all VCU cycles spent stalled on DRAM (0 for a run
    /// with no VCU cycles).
    pub fn dram_blocked_frac(&self) -> f64 {
        let total: u64 = self.vcus.iter().map(VcuProfile::total_cycles).sum();
        let dram: u64 = self.vcus.iter().map(|v| v.stalled(StallReason::DramBlocked)).sum();
        if total == 0 {
            0.0
        } else {
            dram as f64 / total as f64
        }
    }

    /// VCUs sorted worst-stalled first (ties broken by label for
    /// deterministic reports).
    pub fn worst_stalled_vcus(&self) -> Vec<&VcuProfile> {
        let mut v: Vec<&VcuProfile> = self.vcus.iter().filter(|u| u.stalled_total() > 0).collect();
        v.sort_by(|a, b| b.stalled_total().cmp(&a.stalled_total()).then(a.label.cmp(&b.label)));
        v
    }

    /// Streams sorted most-backpressured first (ties broken by label).
    pub fn most_backpressured_streams(&self) -> Vec<&StreamProfile> {
        let mut v: Vec<&StreamProfile> =
            self.streams.iter().filter(|s| s.backpressure_cycles > 0).collect();
        v.sort_by(|a, b| {
            b.backpressure_cycles.cmp(&a.backpressure_cycles).then(a.label.cmp(&b.label))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vcu(label: &str, active: u64, idle: u64, stalled: [u64; 4]) -> VcuProfile {
        VcuProfile {
            label: label.to_string(),
            firings: active,
            active_cycles: active,
            idle_cycles: idle,
            stalled_cycles: stalled,
            segments: Vec::new(),
            segments_truncated: false,
        }
    }

    #[test]
    fn breakdown_totals() {
        let v = vcu("u", 10, 5, [1, 2, 3, 4]);
        assert_eq!(v.stalled_total(), 10);
        assert_eq!(v.total_cycles(), 25);
        assert_eq!(v.worst_stall(), Some((StallReason::DramBlocked, 4)));
        assert_eq!(vcu("u", 1, 0, [0; 4]).worst_stall(), None);
    }

    #[test]
    fn sorting_is_deterministic() {
        let p = SimProfile {
            cycles: 100,
            epoch_cycles: 10,
            vcus: vec![vcu("b", 0, 0, [5, 0, 0, 0]), vcu("a", 0, 0, [0, 5, 0, 0])],
            streams: Vec::new(),
            dram_epochs: Vec::new(),
        };
        let worst: Vec<&str> = p.worst_stalled_vcus().iter().map(|v| v.label.as_str()).collect();
        assert_eq!(worst, ["a", "b"]);
    }

    #[test]
    fn reason_indices_are_dense_and_labelled() {
        for (i, r) in StallReason::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i);
            assert!(!r.label().is_empty());
        }
        assert_eq!(UnitState::Stalled(StallReason::CreditBlocked).label(), "credit-blocked");
    }

    #[test]
    fn dram_epoch_rates() {
        let e = DramEpoch {
            start_cycle: 0,
            read_bytes: 64,
            write_bytes: 32,
            row_hits: 3,
            row_misses: 1,
        };
        assert_eq!(e.total_bytes(), 96);
        assert_eq!(e.row_hit_rate(), Some(0.75));
        assert_eq!(DramEpoch::default().row_hit_rate(), None);
    }
}
