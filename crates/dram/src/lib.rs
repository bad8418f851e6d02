//! # ramulator-lite
//!
//! A cycle-driven streaming DRAM model, standing in for Ramulator in the
//! SARA reproduction. The model captures the properties the paper's
//! evaluation depends on:
//!
//! * **aggregate bandwidth** limits (1 TB/s HBM2, 49 GB/s DDR3 at a 1 GHz
//!   accelerator clock) via per-channel service occupancy;
//! * **channel interleaving** (parallelism across independent channels);
//! * **row-buffer locality**: sequential streams hit the open row, sparse
//!   gathers (e.g. `rf`, `pr`) pay a per-access row-miss penalty, degrading
//!   achieved bandwidth;
//! * **in-order streaming responses** per channel, matching the RDA memory
//!   interface abstraction (paper §II-C).
//!
//! ```
//! use ramulator_lite::{DramSim, Request};
//! use plasticine_arch::DramKind;
//!
//! let mut dram = DramSim::new(DramKind::Hbm2);
//! assert!(dram.push(Request { id: 1, addr: 0, bytes: 64, is_write: false }));
//! let mut done = Vec::new();
//! let mut cycle = 0;
//! while done.is_empty() {
//!     cycle += 1;
//!     dram.tick(cycle, &mut done);
//! }
//! assert_eq!(done[0].id, 1);
//! ```

use plasticine_arch::DramKind;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A DRAM request: a burst read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Caller-chosen tag returned with the response.
    pub id: u64,
    /// Byte address.
    pub addr: u64,
    /// Burst length in bytes.
    pub bytes: u32,
    /// Write (true) or read (false).
    pub is_write: bool,
}

/// A completed DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Response {
    /// Tag from the originating [`Request`].
    pub id: u64,
    /// Burst length in bytes.
    pub bytes: u32,
    /// Whether the access was a write.
    pub is_write: bool,
}

/// A typed DRAM protocol failure.
///
/// The model itself never loses a request, but its *caller* can wedge —
/// an AG that stops ticking, or a fault campaign that drops responses.
/// [`DramSim::check_response_stall`] turns "a completed response has sat
/// undrained past the configured budget" into this typed error instead of
/// letting the epoch timeline stall forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DramError {
    /// A response finished service but was never drained (or never
    /// arrived, from the requester's point of view) within the budget.
    ResponseStall {
        /// Owning channel, when known (`None` for requester-side waits).
        channel: Option<u32>,
        /// Tag of the stalled request.
        id: u64,
        /// Cycles waited so far.
        waited: u64,
        /// The configured budget that was exceeded.
        budget: u64,
    },
}

impl std::fmt::Display for DramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DramError::ResponseStall { channel, id, waited, budget } => {
                let ch = channel.map_or_else(|| "?".to_string(), |c| c.to_string());
                write!(
                    f,
                    "response stall: request {id:#x} on channel {ch} undrained for {waited} \
                     cycles (budget {budget})"
                )
            }
        }
    }
}

impl std::error::Error for DramError {}

/// Tunable DRAM model configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramModelCfg {
    /// Independent channels.
    pub channels: u32,
    /// Data bytes one channel moves per cycle.
    pub bytes_per_cycle_per_channel: f64,
    /// Unloaded access latency in cycles.
    pub idle_latency: u32,
    /// Extra cycles for a row-buffer miss.
    pub row_miss_penalty: u32,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Address interleave granularity across channels in bytes.
    pub interleave_bytes: u64,
    /// Per-channel request queue capacity.
    pub queue_capacity: usize,
    /// Banks per channel. Row activations occupy a bank but not the data
    /// bus, so activations overlap with transfers from other banks —
    /// sequential streams hide activation entirely, while fine-grained
    /// random access is bank-activation-bound.
    pub banks_per_channel: u32,
    /// Cycles a *completed* response may sit undrained before
    /// [`DramSim::check_response_stall`] reports a
    /// [`DramError::ResponseStall`]. A never-drained response channel is a
    /// caller liveness bug (or an injected fault), not a memory-model
    /// state, so it surfaces as a typed error rather than a silent hang.
    pub response_stall_budget: u64,
}

impl DramModelCfg {
    /// Configuration for a [`DramKind`] at a 1 GHz accelerator clock.
    pub fn of_kind(kind: DramKind) -> Self {
        let channels = kind.channels();
        DramModelCfg {
            channels,
            bytes_per_cycle_per_channel: kind.bytes_per_cycle() as f64 / channels as f64,
            idle_latency: kind.idle_latency(),
            row_miss_penalty: kind.row_miss_penalty(),
            row_bytes: 1024,
            interleave_bytes: 256,
            queue_capacity: 64,
            banks_per_channel: 16,
            response_stall_budget: 1_000_000,
        }
    }

    /// Peak aggregate bandwidth in bytes per cycle.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle_per_channel * self.channels as f64
    }
}

#[derive(Debug, Clone, Default)]
struct Bank {
    busy_until: u64,
    open_row: Option<u64>,
}

#[derive(Debug, Clone, Default)]
struct Channel {
    queue: VecDeque<Request>,
    /// Cycle at which the data bus becomes free.
    busy_until: u64,
    /// Per-bank activation state.
    banks: Vec<Bank>,
    /// In-flight accesses: (completion cycle, schedule cycle, response),
    /// completion non-decreasing so responses pop in order.
    inflight: VecDeque<(u64, u64, Response)>,
}

/// Aggregate statistics of a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DramStats {
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub requests: u64,
    pub row_hits: u64,
    pub row_misses: u64,
}

impl DramStats {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Achieved bandwidth in bytes/cycle over an elapsed cycle count.
    pub fn achieved_bw(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / cycles as f64
        }
    }
}

/// The DRAM simulator. Drive it by [`DramSim::push`]-ing requests and
/// calling [`DramSim::tick`] once per accelerator cycle.
#[derive(Debug, Clone)]
pub struct DramSim {
    cfg: DramModelCfg,
    channels: Vec<Channel>,
    stats: DramStats,
    /// Fractional service-cycle accumulator per channel (bandwidths are
    /// not integer bytes/cycle for all configs).
    carry: Vec<f64>,
    /// Requests pushed since the last tick, which schedules them all.
    queued: usize,
}

impl DramSim {
    /// Model a standard technology at 1 GHz.
    pub fn new(kind: DramKind) -> Self {
        Self::with_cfg(DramModelCfg::of_kind(kind))
    }

    /// Model a custom configuration.
    pub fn with_cfg(cfg: DramModelCfg) -> Self {
        let n = cfg.channels as usize;
        let ch = Channel {
            banks: vec![Bank::default(); cfg.banks_per_channel as usize],
            ..Channel::default()
        };
        DramSim {
            cfg,
            channels: vec![ch; n],
            stats: DramStats::default(),
            carry: vec![0.0; n],
            queued: 0,
        }
    }

    /// The active configuration.
    pub fn cfg(&self) -> &DramModelCfg {
        &self.cfg
    }

    /// The channel that serves byte address `addr` (interleave mapping).
    pub fn channel_of(&self, addr: u64) -> usize {
        ((addr / self.cfg.interleave_bytes) % self.cfg.channels as u64) as usize
    }

    /// Whether the channel that would serve `addr` can accept a request.
    pub fn can_accept(&self, addr: u64) -> bool {
        self.channels[self.channel_of(addr)].queue.len() < self.cfg.queue_capacity
    }

    /// Enqueue a request. Returns `false` (and drops nothing) if the
    /// owning channel's queue is full; callers must retry later, which is
    /// exactly the backpressure the AG units exert on the fabric.
    pub fn push(&mut self, req: Request) -> bool {
        let ch = self.channel_of(req.addr);
        if self.channels[ch].queue.len() >= self.cfg.queue_capacity {
            return false;
        }
        self.channels[ch].queue.push_back(req);
        self.queued += 1;
        true
    }

    /// Advance to cycle `now`; completed responses are appended to `out`.
    pub fn tick(&mut self, now: u64, out: &mut Vec<Response>) {
        self.queued = 0;
        for ci in 0..self.channels.len() {
            // Schedule every queued request, pipelining bank activations
            // under data transfers (the controller's lookahead).
            loop {
                let ch = &mut self.channels[ci];
                if ch.queue.is_empty() {
                    break;
                }
                let head = *ch.queue.front().expect("nonempty");
                // Channel-local address: strip the channel-interleave bits
                // so that a sequential global stream is sequential within
                // each channel's row/bank space.
                let local = head.addr / self.cfg.interleave_bytes / self.cfg.channels as u64
                    * self.cfg.interleave_bytes
                    + head.addr % self.cfg.interleave_bytes;
                let row = local / self.cfg.row_bytes;
                let bank_i = (row % ch.banks.len() as u64) as usize;
                let req = ch.queue.pop_front().expect("nonempty");
                let bank = &mut ch.banks[bank_i];
                let hit = bank.open_row == Some(row);
                bank.open_row = Some(row);
                let act_start = now.max(bank.busy_until);
                let act_done = if hit {
                    self.stats.row_hits += 1;
                    act_start
                } else {
                    self.stats.row_misses += 1;
                    act_start + self.cfg.row_miss_penalty as u64
                };
                let service_f =
                    req.bytes as f64 / self.cfg.bytes_per_cycle_per_channel + self.carry[ci];
                let service = service_f.floor().max(1.0) as u64;
                self.carry[ci] = (service_f - service as f64).max(0.0);
                let start = ch.busy_until.max(act_done);
                ch.busy_until = start + service;
                bank.busy_until = ch.busy_until;
                let mut done = ch.busy_until + self.cfg.idle_latency as u64;
                // Keep per-channel responses in order.
                if let Some((last, _, _)) = ch.inflight.back() {
                    done = done.max(*last);
                }
                ch.inflight.push_back((
                    done,
                    now,
                    Response { id: req.id, bytes: req.bytes, is_write: req.is_write },
                ));
                self.stats.requests += 1;
                if req.is_write {
                    self.stats.write_bytes += req.bytes as u64;
                } else {
                    self.stats.read_bytes += req.bytes as u64;
                }
            }
            // Retire.
            let ch = &mut self.channels[ci];
            while let Some((done, _, _)) = ch.inflight.front() {
                if *done <= now {
                    out.push(ch.inflight.pop_front().expect("nonempty").2);
                } else {
                    break;
                }
            }
        }
    }

    /// Whether a request waits in a queue for the next [`DramSim::tick`]
    /// to schedule it. With none queued, a tick before
    /// [`DramSim::next_completion_time`] changes nothing, so an
    /// event-driven caller may skip it.
    pub fn has_queued(&self) -> bool {
        self.queued > 0
    }

    /// Whether any request is queued or in flight.
    pub fn busy(&self) -> bool {
        self.channels.iter().any(|c| !c.queue.is_empty() || !c.inflight.is_empty())
    }

    /// Earliest cycle at which an in-flight access completes, if any.
    ///
    /// [`DramSim::tick`] schedules every queued request, so after a tick
    /// the full completion timeline is known; an event-driven caller can
    /// fast-forward to this cycle instead of ticking every cycle.
    pub fn next_completion_time(&self) -> Option<u64> {
        self.channels.iter().filter_map(|c| c.inflight.front().map(|(done, _, _)| *done)).min()
    }

    /// Probe for a response channel that is never being drained: an
    /// in-flight access whose completion (or scheduling, for a response
    /// that finished long ago) lies more than
    /// [`DramModelCfg::response_stall_budget`] cycles in the past relative
    /// to `now`. The model only retires responses when [`DramSim::tick`]
    /// is called, so a caller that stops ticking — or an injected fault
    /// that swallows a response — shows up here as a typed
    /// [`DramError::ResponseStall`] instead of a timeline that silently
    /// stalls forever.
    pub fn check_response_stall(&self, now: u64) -> Result<(), DramError> {
        let budget = self.cfg.response_stall_budget;
        for (ci, ch) in self.channels.iter().enumerate() {
            if let Some((done, _, resp)) = ch.inflight.front() {
                let waited = now.saturating_sub(*done);
                if waited > budget {
                    return Err(DramError::ResponseStall {
                        channel: Some(ci as u32),
                        id: resp.id,
                        waited,
                        budget,
                    });
                }
            }
        }
        Ok(())
    }

    /// Statistics so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_drained(dram: &mut DramSim, horizon: u64) -> (Vec<Response>, u64) {
        let mut out = Vec::new();
        let mut cycle = 0;
        while dram.busy() && cycle < horizon {
            cycle += 1;
            dram.tick(cycle, &mut out);
        }
        (out, cycle)
    }

    #[test]
    fn single_read_latency() {
        let mut dram = DramSim::new(DramKind::Hbm2);
        dram.push(Request { id: 7, addr: 0, bytes: 64, is_write: false });
        let (out, cycle) = run_until_drained(&mut dram, 10_000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 7);
        // service (~1 cycle) + idle latency (100) + row miss (40)
        assert!((100..=200).contains(&cycle), "latency {cycle}");
    }

    #[test]
    fn sequential_stream_approaches_peak_bandwidth() {
        let mut dram = DramSim::new(DramKind::Hbm2);
        let total: u64 = 1 << 20; // 1 MiB
        let burst = 256u64;
        let mut sent = 0u64;
        let mut out = Vec::new();
        let mut cycle = 0u64;
        let mut received = 0u64;
        while received < total {
            cycle += 1;
            while sent < total && dram.can_accept(sent) {
                dram.push(Request { id: sent, addr: sent, bytes: burst as u32, is_write: false });
                sent += burst;
            }
            out.clear();
            dram.tick(cycle, &mut out);
            received += out.iter().map(|r| r.bytes as u64).sum::<u64>();
            assert!(cycle < 1_000_000, "deadlock");
        }
        let bw = total as f64 / cycle as f64;
        let peak = dram.cfg().peak_bytes_per_cycle();
        assert!(bw > peak * 0.8, "achieved {bw:.1} B/c vs peak {peak:.1}");
    }

    #[test]
    fn random_access_degrades_bandwidth() {
        // Strided single-word reads to distinct rows on one channel.
        let cfg = DramModelCfg { channels: 1, ..DramModelCfg::of_kind(DramKind::Ddr3) };
        let mut dram = DramSim::with_cfg(cfg);
        let n = 256u64;
        let mut cycle = 0u64;
        let mut out = Vec::new();
        let mut sent = 0;
        let mut recv = 0;
        while recv < n {
            cycle += 1;
            if sent < n && dram.can_accept(0) {
                // every access touches a different row
                dram.push(Request { id: sent, addr: sent * 4096, bytes: 4, is_write: false });
                sent += 1;
            }
            out.clear();
            dram.tick(cycle, &mut out);
            recv += out.len() as u64;
        }
        let s = dram.stats();
        assert_eq!(s.row_hits, 0);
        assert_eq!(s.row_misses, n);
        // 4-byte useful data per row miss: achieved bandwidth collapses
        // far below the streaming peak (bank-activation bound).
        let peak = dram.cfg().peak_bytes_per_cycle();
        assert!(
            s.achieved_bw(cycle) < peak * 0.2,
            "achieved {:.2} B/c vs peak {peak:.2}",
            s.achieved_bw(cycle)
        );
    }

    #[test]
    fn per_channel_responses_in_order() {
        let mut dram = DramSim::new(DramKind::Hbm2);
        for i in 0..32u64 {
            // same channel: same interleave slot
            dram.push(Request { id: i, addr: i * 2048 * 8, bytes: 64, is_write: false });
        }
        let (out, _) = run_until_drained(&mut dram, 100_000);
        let mine: Vec<u64> = out.iter().map(|r| r.id).collect();
        let mut sorted = mine.clone();
        sorted.sort_unstable();
        assert_eq!(mine, sorted);
    }

    #[test]
    fn queue_backpressure() {
        let cfg = DramModelCfg {
            queue_capacity: 2,
            channels: 1,
            ..DramModelCfg::of_kind(DramKind::Ddr3)
        };
        let mut dram = DramSim::with_cfg(cfg);
        assert!(dram.push(Request { id: 0, addr: 0, bytes: 64, is_write: false }));
        assert!(dram.push(Request { id: 1, addr: 0, bytes: 64, is_write: false }));
        assert!(!dram.push(Request { id: 2, addr: 0, bytes: 64, is_write: false }));
        assert!(!dram.can_accept(0));
    }

    #[test]
    fn stats_account_reads_and_writes() {
        let mut dram = DramSim::new(DramKind::Ddr3);
        dram.push(Request { id: 0, addr: 0, bytes: 64, is_write: false });
        dram.push(Request { id: 1, addr: 256, bytes: 128, is_write: true });
        run_until_drained(&mut dram, 100_000);
        let s = dram.stats();
        assert_eq!(s.read_bytes, 64);
        assert_eq!(s.write_bytes, 128);
        assert_eq!(s.requests, 2);
        assert_eq!(s.total_bytes(), 192);
    }

    #[test]
    fn undrained_response_surfaces_typed_stall() {
        let cfg = DramModelCfg {
            channels: 1,
            response_stall_budget: 500,
            ..DramModelCfg::of_kind(DramKind::Ddr3)
        };
        let mut dram = DramSim::with_cfg(cfg);
        dram.push(Request { id: 9, addr: 0, bytes: 64, is_write: false });
        // One tick schedules the request; its completion time is now known.
        let mut out = Vec::new();
        dram.tick(1, &mut out);
        assert!(out.is_empty());
        let done = dram.next_completion_time().expect("scheduled");
        // Within budget of the completion: clean.
        assert_eq!(dram.check_response_stall(done + 500), Ok(()));
        // The caller never ticks again: past the budget, the probe names
        // the stalled request and channel.
        match dram.check_response_stall(done + 501) {
            Err(DramError::ResponseStall { channel, id, waited, budget }) => {
                assert_eq!(channel, Some(0));
                assert_eq!(id, 9);
                assert_eq!(waited, 501);
                assert_eq!(budget, 500);
            }
            other => panic!("expected ResponseStall, got {other:?}"),
        }
        // Draining clears the condition.
        dram.tick(done + 501, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(dram.check_response_stall(done + 10_000), Ok(()));
    }

    #[test]
    fn ticks_before_the_next_completion_change_nothing_when_nothing_is_queued() {
        let mut dram = DramSim::new(DramKind::Hbm2);
        for i in 0..6u64 {
            // Six channels, reads and writes.
            let req = Request { id: i, addr: i * 1792, bytes: 64, is_write: i % 3 == 0 };
            assert!(dram.push(req));
        }
        let mut out = Vec::new();
        dram.tick(1, &mut out);
        assert!(out.is_empty());
        assert!(!dram.has_queued());
        let (stats, done) = (dram.stats(), dram.next_completion_time().expect("in flight"));
        for now in 2..done {
            dram.tick(now, &mut out);
            assert!(out.is_empty(), "response at cycle {now}, before {done}");
            assert_eq!(dram.stats(), stats, "stats moved at cycle {now}");
            assert_eq!(dram.next_completion_time(), Some(done), "cycle {now}");
        }
        dram.tick(done, &mut out);
        assert!(!out.is_empty(), "nothing retired at the completion cycle {done}");
        assert_eq!(dram.stats(), stats, "retiring schedules nothing");
    }

    #[test]
    fn response_stall_error_renders_location() {
        let e = DramError::ResponseStall { channel: Some(3), id: 0x2a, waited: 700, budget: 500 };
        let s = e.to_string();
        assert!(s.contains("channel 3"), "{s}");
        assert!(s.contains("0x2a"), "{s}");
        assert!(s.contains("700"), "{s}");
    }

    #[test]
    fn ddr3_much_slower_than_hbm2_for_streams() {
        let run = |kind: DramKind| -> u64 {
            let mut dram = DramSim::new(kind);
            let total: u64 = 1 << 18;
            let mut sent = 0u64;
            let mut cycle = 0u64;
            let mut out = Vec::new();
            let mut recv = 0u64;
            while recv < total {
                cycle += 1;
                while sent < total && dram.can_accept(sent) {
                    dram.push(Request { id: sent, addr: sent, bytes: 256, is_write: false });
                    sent += 256;
                }
                out.clear();
                dram.tick(cycle, &mut out);
                recv += out.iter().map(|r| r.bytes as u64).sum::<u64>();
            }
            cycle
        };
        let hbm = run(DramKind::Hbm2);
        let ddr = run(DramKind::Ddr3);
        let ratio = ddr as f64 / hbm as f64;
        assert!(ratio > 10.0, "expected >10x gap, got {ratio:.1}");
    }
}
