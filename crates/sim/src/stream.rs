//! Runtime streams: latency- and capacity-accurate point-to-point FIFOs.

use crate::packet::{PacketArena, PacketRef};
use std::collections::VecDeque;

/// A stream at run time. Capacity models the receive FIFO; packets spend
/// `latency` cycles in flight (wire/switch registers), which adds
/// `latency` slots of effective buffering — a straight link therefore
/// sustains one packet per cycle, while an undersized FIFO on a
/// delay-imbalanced join backpressures exactly as the paper's retiming
/// discussion predicts.
///
/// FIFOs store 8-byte [`PacketRef`]s; payloads live in the shared
/// [`PacketArena`]. Marker-ness is encoded in the ref itself, so the
/// hot-path queue scans (marker skipping, drain checks) never touch the
/// arena.
#[derive(Debug, Clone)]
pub struct StreamRt {
    q: VecDeque<PacketRef>,
    arriving: VecDeque<(u64, PacketRef)>,
    latency: u64,
    capacity: usize,
    /// Initial credit tokens (CMMC), for conservation accounting.
    pub init_tokens: u64,
    /// Total packets pushed (stats).
    pub pushed: u64,
    /// Total packets popped (stats).
    pub popped: u64,
    /// Epoch markers discarded by [`StreamRt::skip_markers_and_peek`]
    /// without being counted as pops.
    pub skipped: u64,
    /// Monotonic count of packets that became consumer-visible (moved
    /// into the receive FIFO by [`StreamRt::tick`]). The active scheduler
    /// compares this against a stalled consumer's snapshot to prove its
    /// input-starved wait-set cannot have changed.
    pub arrived: u64,
    /// Monotonic count of slots released (pops plus marker skips). The
    /// producer-visible dual of `arrived`: proves a backpressured
    /// producer's wait-set cannot have changed.
    pub freed: u64,
    /// Delivery cycle of the oldest in-flight packet (`u64::MAX` when
    /// nothing is in flight) — lets [`StreamRt::tick`] early-out on a
    /// single compare, which is the common case on every step's lazy
    /// delivery pass.
    next_arrival: u64,
}

impl StreamRt {
    /// New stream; `init_tokens` pre-populates the queue (CMMC credits).
    pub fn new(latency: u32, depth: u32, init_tokens: u32) -> Self {
        // Occupancy is bounded by `capacity + latency` (`can_push`), so
        // sizing both queues to it up front means the hot loop never
        // grows them — every run's FIFO traffic is allocation-free.
        let slots = depth.max(1) as usize + latency.max(1) as usize;
        let mut q = VecDeque::with_capacity(slots);
        for _ in 0..init_tokens {
            q.push_back(PacketRef::token());
        }
        StreamRt {
            q,
            arriving: VecDeque::with_capacity(slots),
            latency: latency.max(1) as u64,
            capacity: depth.max(1) as usize,
            init_tokens: init_tokens as u64,
            pushed: 0,
            popped: 0,
            skipped: 0,
            arrived: 0,
            freed: 0,
            next_arrival: u64::MAX,
        }
    }

    /// Whether a push is currently allowed.
    pub fn can_push(&self) -> bool {
        self.q.len() + self.arriving.len() < self.capacity + self.latency as usize
    }

    /// Push a packet (caller must have checked [`StreamRt::can_push`]).
    /// Ownership of the ref transfers to the stream.
    pub fn push(&mut self, now: u64, p: PacketRef) {
        debug_assert!(self.can_push());
        self.pushed += 1;
        let t = now + self.latency;
        self.next_arrival = self.next_arrival.min(t);
        self.arriving.push_back((t, p));
    }

    /// Deliver in-flight packets that have arrived by `now`.
    #[inline]
    pub fn tick(&mut self, now: u64) {
        if now < self.next_arrival {
            return;
        }
        self.tick_slow(now);
    }

    fn tick_slow(&mut self, now: u64) {
        while let Some(&(t, p)) = self.arriving.front() {
            if t <= now {
                self.arriving.pop_front();
                self.q.push_back(p);
                self.arrived += 1;
            } else {
                break;
            }
        }
        self.next_arrival = self.arriving.front().map_or(u64::MAX, |&(t, _)| t);
    }

    /// Head packet, if delivered.
    pub fn peek(&self) -> Option<PacketRef> {
        self.q.front().copied()
    }

    /// Pop the head packet. Ownership of the ref transfers to the caller,
    /// which must eventually free it (or re-push it).
    pub fn pop(&mut self) -> Option<PacketRef> {
        let p = self.q.pop_front();
        if p.is_some() {
            self.popped += 1;
            self.freed += 1;
        }
        p
    }

    /// Discard leading epoch markers, then return whether a packet is
    /// available (compute-unit stream inputs skip markers transparently).
    pub fn skip_markers_and_peek(&mut self) -> bool {
        while matches!(self.q.front(), Some(p) if p.is_marker()) {
            self.q.pop_front();
            self.skipped += 1;
            self.freed += 1;
        }
        !self.q.is_empty()
    }

    /// Queued + in-flight packets.
    pub fn occupancy(&self) -> usize {
        self.q.len() + self.arriving.len()
    }

    /// Wire latency in cycles (always ≥ 1).
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Total packet slots: receive-FIFO depth plus in-flight latency
    /// registers (the bound [`StreamRt::can_push`] enforces).
    pub fn slots(&self) -> usize {
        self.capacity + self.latency as usize
    }

    /// Whether fully drained.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty() && self.arriving.is_empty()
    }

    /// Whether drained up to inert trailing epoch markers (end-of-program
    /// epilogue control that no consumer is required to pop).
    pub fn is_drained(&self) -> bool {
        self.q.iter().all(|p| p.is_marker()) && self.arriving.iter().all(|(_, p)| p.is_marker())
    }

    // ----------------------------------------------------- fault hooks
    //
    // Used by the fault injector (and `fault_delay_in_flight` by the
    // inter-chip link regulator, to slip packets that wait for link
    // bandwidth). They mutate stream state *without* touching the
    // push/pop/skip counters: the faults model hardware misbehaving
    // outside the protocol, which is exactly what the sanitizer's
    // conservation check is designed to catch.

    /// Materialize a spurious credit token directly in the receive FIFO.
    pub fn fault_leak_token(&mut self) {
        self.q.push_back(PacketRef::token());
    }

    /// Destroy one queued credit token; `false` if none is queued yet.
    /// A destroyed data payload is released back to the arena.
    pub fn fault_steal_token(&mut self, arena: &mut PacketArena) -> bool {
        match self.q.pop_back() {
            Some(p) => {
                arena.free(p);
                true
            }
            None => false,
        }
    }

    /// In-flight packet ref `back_offset` entries from the newest, for
    /// payload corruption. `None` if fewer packets are in flight.
    pub fn fault_packet_ref_mut(&mut self, back_offset: usize) -> Option<&mut PacketRef> {
        let len = self.arriving.len();
        let idx = len.checked_sub(1 + back_offset)?;
        self.arriving.get_mut(idx).map(|(_, p)| p)
    }

    /// Remove an in-flight packet; `true` if one was removed. The payload
    /// is released back to the arena.
    pub fn fault_drop_in_flight(&mut self, back_offset: usize, arena: &mut PacketArena) -> bool {
        let len = self.arriving.len();
        let Some(idx) = len.checked_sub(1 + back_offset) else { return false };
        match self.arriving.remove(idx) {
            Some((_, p)) => {
                arena.free(p);
                self.next_arrival = self.arriving.front().map_or(u64::MAX, |&(t, _)| t);
                true
            }
            None => false,
        }
    }

    /// Duplicate an in-flight packet (the copy delivers at the same
    /// cycle); returns the delivery cycle.
    pub fn fault_dup_in_flight(
        &mut self,
        back_offset: usize,
        arena: &mut PacketArena,
    ) -> Option<u64> {
        let len = self.arriving.len();
        let idx = len.checked_sub(1 + back_offset)?;
        let (t, p) = self.arriving[idx];
        let copy = arena.duplicate(p);
        self.arriving.insert(idx + 1, (t, copy));
        Some(t)
    }

    /// Hold an in-flight packet `extra` more cycles. Delivery is
    /// front-blocking, so packets behind it queue up (head-of-line
    /// blocking, as on a real wire). Returns the new delivery cycle.
    pub fn fault_delay_in_flight(&mut self, back_offset: usize, extra: u64) -> Option<u64> {
        let len = self.arriving.len();
        let idx = len.checked_sub(1 + back_offset)?;
        self.arriving[idx].0 += extra;
        // Delivery is front-blocking, so the front's time still lower-
        // bounds every delivery; a delayed front raises the bound.
        self.next_arrival = self.arriving.front().map_or(u64::MAX, |&(t, _)| t);
        Some(self.arriving[idx].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sara_ir::Elem;

    #[test]
    fn latency_delays_delivery() {
        let mut a = PacketArena::new();
        let mut s = StreamRt::new(3, 4, 0);
        s.push(10, a.data(&[Elem::I64(1)]));
        s.tick(12);
        assert!(s.peek().is_none());
        s.tick(13);
        assert!(s.peek().is_some());
        assert_eq!(a.vals(s.pop().unwrap())[0], Elem::I64(1));
    }

    #[test]
    fn capacity_plus_latency_bounds_occupancy() {
        let mut s = StreamRt::new(2, 2, 0);
        let mut pushed = 0;
        while s.can_push() {
            s.push(0, PacketRef::token());
            pushed += 1;
        }
        assert_eq!(pushed, 4); // depth 2 + latency 2
        assert!(!s.can_push());
        s.tick(10);
        s.pop();
        assert!(s.can_push());
    }

    #[test]
    fn init_tokens_available_immediately() {
        let mut s = StreamRt::new(1, 4, 3);
        assert!(s.peek().is_some());
        assert_eq!(s.pop(), Some(PacketRef::token()));
        assert_eq!(s.occupancy(), 2);
    }

    #[test]
    fn marker_skipping() {
        let mut a = PacketArena::new();
        let mut s = StreamRt::new(1, 8, 0);
        s.push(0, PacketRef::marker());
        s.push(0, PacketRef::marker());
        s.push(0, a.data(&[Elem::F64(2.0)]));
        s.tick(5);
        assert!(s.skip_markers_and_peek());
        assert_eq!(a.vals(s.pop().unwrap())[0], Elem::F64(2.0));
        assert!(!s.skip_markers_and_peek());
    }

    #[test]
    fn full_rate_on_straight_link() {
        // push one per cycle, pop one per cycle after warmup: never stalls
        let mut s = StreamRt::new(5, 4, 0);
        let mut stalls = 0;
        for cyc in 0..100u64 {
            s.tick(cyc);
            if cyc >= 6 {
                assert!(s.pop().is_some(), "pipeline bubble at {cyc}");
            }
            if s.can_push() {
                s.push(cyc, PacketRef::token());
            } else {
                stalls += 1;
            }
        }
        assert_eq!(stalls, 0);
    }

    #[test]
    fn fault_hooks_recycle_payloads() {
        let mut a = PacketArena::new();
        let mut s = StreamRt::new(2, 4, 0);
        s.push(0, a.data(&[Elem::I64(9)]));
        assert_eq!(a.live(), 1);
        assert!(s.fault_drop_in_flight(0, &mut a));
        assert_eq!(a.live(), 0, "dropped payload returned to arena");
        s.push(1, a.data(&[Elem::I64(4)]));
        assert_eq!(s.fault_dup_in_flight(0, &mut a), Some(3));
        assert_eq!(a.live(), 2, "duplicate owns its own slot");
        assert_eq!(s.occupancy(), 2);
    }
}
