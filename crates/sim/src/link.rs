//! Inter-chip links: the one thing a chip boundary adds to a stream.
//!
//! A stream whose endpoints sit on different chips (a *crossing*;
//! `sara-pnr` already gave it `hops × link.latency` wire latency and at
//! least `link.fifo_depth` slots) shares each directed physical link on
//! its X-then-Y route with every other crossing. At most
//! [`LinkSpec::bandwidth`](plasticine_arch::LinkSpec::bandwidth)
//! packets enter a link per cycle; a packet that finds no free slot
//! *slips*: its in-flight delay grows by the wait. Delivery stays
//! front-blocking, so FIFO order, and with it CMMC's token and credit
//! semantics, is untouched. Both schedulers call [`Links::after_step`]
//! after every unit step; the active scheduler wakes the consumer at
//! each slipped packet's new delivery cycle.

use crate::stream::StreamRt;
use plasticine_arch::SystemSpec;
use sara_core::shard::ShardPlan;
use sara_core::vudfg::Vudfg;
use std::collections::HashMap;

/// Cycles between prunes of the link calendars.
const PRUNE_PERIOD: u64 = 4096;

/// Per-directed-link traversal calendar: cycle → packets granted entry.
/// Lazily populated; pruned behind the clock so memory stays bounded by
/// link backlog, not run length.
type Calendar = HashMap<u64, u32>;

/// One chip-crossing stream.
#[derive(Clone)]
struct Crossing {
    stream: usize,
    /// Directed links of its X-then-Y route, in order.
    route: Vec<u64>,
    /// Push count as of the last claim.
    seen_pushed: u64,
}

/// The link regulator of one multi-chip run.
pub(crate) struct Links {
    /// Crossings grouped by producer unit: after a unit's step, only its
    /// own crossing outputs can have gained packets.
    out: Vec<Vec<Crossing>>,
    calendars: HashMap<u64, Calendar>,
    bandwidth: u32,
    leg_latency: u64,
    last_prune: u64,
}

impl Links {
    /// The regulator for `plan`'s crossings on `system`, or `None` when
    /// no stream crosses (every single-chip run).
    pub(crate) fn new(g: &Vudfg, system: &SystemSpec, plan: &ShardPlan) -> Option<Links> {
        let mut out: Vec<Vec<Crossing>> = vec![Vec::new(); g.units.len()];
        for &sid in &plan.crossings {
            let s = g.stream(sid);
            let (src, dst) = (s.src.index(), s.dst.index());
            let route: Vec<u64> = system
                .route_links(plan.chip_of[src], plan.chip_of[dst])
                .into_iter()
                .map(|(a, b)| (u64::from(a) << 32) | u64::from(b))
                .collect();
            if !route.is_empty() {
                out[src].push(Crossing { stream: sid.index(), route, seen_pushed: 0 });
            }
        }
        out.iter().any(|c| !c.is_empty()).then(|| Links {
            out,
            calendars: HashMap::new(),
            bandwidth: system.link.bandwidth.max(1),
            leg_latency: u64::from(system.link.latency.max(1)),
            last_prune: 0,
        })
    }

    /// Claim link slots for the packets unit `i`'s step at `now` pushed
    /// onto its crossing streams (in crossing order, oldest packet
    /// first) and slip every packet that has to wait. `wake(cycle,
    /// stream)` receives each slipped packet's new delivery cycle.
    pub(crate) fn after_step(
        &mut self,
        i: usize,
        now: u64,
        streams: &mut [StreamRt],
        mut wake: impl FnMut(u64, usize),
    ) {
        if now - self.last_prune >= PRUNE_PERIOD {
            // Claims start at `now + 1`, so older entries are dead.
            for cal in self.calendars.values_mut() {
                cal.retain(|&cycle, _| cycle >= now);
            }
            self.last_prune = now;
        }
        for c in &mut self.out[i] {
            let s = &mut streams[c.stream];
            let fresh = (s.pushed - c.seen_pushed) as usize;
            c.seen_pushed = s.pushed;
            for back in (0..fresh).rev() {
                let slip = claim_route(
                    &mut self.calendars,
                    &c.route,
                    now + 1,
                    self.bandwidth,
                    self.leg_latency,
                );
                if slip > 0 {
                    if let Some(t) = s.fault_delay_in_flight(back, slip) {
                        wake(t, c.stream);
                    }
                }
            }
        }
    }
}

/// Walk a route's links in order, claiming one bandwidth slot per link
/// at the earliest cycle with capacity at or after the packet's arrival
/// there. Returns the total contention slip in cycles (0 when every
/// link had a free slot on time).
fn claim_route(
    calendars: &mut HashMap<u64, Calendar>,
    route: &[u64],
    first_entry: u64,
    bandwidth: u32,
    leg_latency: u64,
) -> u64 {
    let mut entry = first_entry;
    let mut slip = 0u64;
    for &link in route {
        let cal = calendars.entry(link).or_default();
        let mut at = entry;
        loop {
            let used = cal.entry(at).or_insert(0);
            if *used < bandwidth {
                *used += 1;
                break;
            }
            at += 1;
        }
        slip += at - entry;
        entry = at + leg_latency;
    }
    slip
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_slots_serialize_contending_packets() {
        let mut usage = HashMap::new();
        // A one-leg route over link 1, link bandwidth 2: two packets
        // pass at their requested cycle, the third slips by one, the
        // fifth by two.
        let route = [1u64];
        assert_eq!(claim_route(&mut usage, &route, 10, 2, 40), 0);
        assert_eq!(claim_route(&mut usage, &route, 10, 2, 40), 0);
        assert_eq!(claim_route(&mut usage, &route, 10, 2, 40), 1);
        assert_eq!(claim_route(&mut usage, &route, 10, 2, 40), 1);
        assert_eq!(claim_route(&mut usage, &route, 10, 2, 40), 2);
        // On a two-leg route the leg-1 slip already serializes the
        // packets, so leg 2 grants them on time: total slip stays 1.
        let legs = [1u64, (1u64 << 32) | 3];
        let mut usage2 = HashMap::new();
        assert_eq!(claim_route(&mut usage2, &legs, 5, 1, 40), 0);
        assert_eq!(claim_route(&mut usage2, &legs, 5, 1, 40), 1);
    }
}
