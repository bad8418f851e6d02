//! Liveness watchdog: when the engine's no-progress window expires, walk
//! the wait-for graph and attribute the hang.
//!
//! Each blocked unit contributes at most one wait-for edge — the unit it
//! is waiting on (the producer of its starving input, the consumer of its
//! full output). That makes the graph functional, so following successors
//! from any blocked unit either closes a **cycle** (true deadlock: every
//! member waits on the next) or ends at a unit that is not blocked — a
//! **starvation chain** (e.g. a CMMC credit stolen from an edge whose
//! producer already finished: the consumer waits forever on a unit with
//! nothing left to say).
//!
//! Members are attributed in the profiler's [`StallReason`] taxonomy:
//! input-starved, output-backpressured, credit-blocked, or dram-blocked —
//! the same classification PR 2's profiler uses for stall accounting, so a
//! watchdog report reads like a point-in-time slice of the profile.

use crate::stream::StreamRt;
use crate::units::{StallClass, UKind, Units};
use sara_core::profile::StallReason;
use sara_core::robust::{WaitMember, WatchdogReport};
use sara_core::vudfg::{StreamKind, UnitKind, Vudfg};

/// One unit's blocked-state analysis: who it waits for and why.
struct Blocked {
    member: WaitMember,
    /// The unit this one is waiting on, when attributable.
    succ: Option<usize>,
}

fn edge_label(g: &Vudfg, s: usize) -> String {
    let spec = &g.streams[s];
    format!("s{s} {} -> {} [{}]", g.unit(spec.src).label, g.unit(spec.dst).label, spec.label)
}

fn src_is_ag(g: &Vudfg, s: usize) -> bool {
    matches!(g.unit(g.streams[s].src).kind, UnitKind::Ag(_))
}

/// Generic scan for units without their own stall bookkeeping: first
/// starving input, else first backpressured output.
fn generic_blocked(g: &Vudfg, i: usize, label: &str, streams: &[StreamRt]) -> Option<Blocked> {
    let u = &g.units[i];
    for sid in &u.inputs {
        let s = sid.index();
        if streams[s].occupancy() == 0 {
            let token = matches!(g.streams[s].kind, StreamKind::Token { .. });
            let reason = if token {
                StallReason::CreditBlocked
            } else if src_is_ag(g, s) {
                StallReason::DramBlocked
            } else {
                StallReason::InputStarved
            };
            return Some(Blocked {
                member: WaitMember {
                    unit: i,
                    label: label.to_string(),
                    reason,
                    stream: Some(s),
                    via: edge_label(g, s),
                    detail: if token {
                        "waiting for a credit token".into()
                    } else {
                        "input stream empty".into()
                    },
                },
                succ: Some(g.streams[s].src.index()),
            });
        }
    }
    for port in &u.outputs {
        for sid in &port.streams {
            let s = sid.index();
            if !streams[s].can_push() {
                return Some(Blocked {
                    member: WaitMember {
                        unit: i,
                        label: label.to_string(),
                        reason: StallReason::OutputBackpressured,
                        stream: Some(s),
                        via: edge_label(g, s),
                        detail: "output stream full".into(),
                    },
                    succ: Some(g.streams[s].dst.index()),
                });
            }
        }
    }
    None
}

/// Analyze one unit; `None` when it is done/quiescent (not blocked).
fn blocked_info(g: &Vudfg, i: usize, units: &Units, streams: &[StreamRt]) -> Option<Blocked> {
    match units.kind[i] {
        UKind::Vcu(k) => {
            let v = &units.vcus[k as usize];
            if v.done {
                return None;
            }
            let sid = v.stall_stream.map(|s| s.index());
            match v.stall_class {
                StallClass::CreditPop => {
                    let s = sid?;
                    Some(Blocked {
                        member: WaitMember {
                            unit: i,
                            label: v.label.clone(),
                            reason: StallReason::CreditBlocked,
                            stream: Some(s),
                            via: edge_label(g, s),
                            detail: format!("blocked at '{}' after {} firings", v.stall, v.firings),
                        },
                        succ: Some(g.streams[s].src.index()),
                    })
                }
                StallClass::InputData => {
                    let s = sid?;
                    let reason = if src_is_ag(g, s) {
                        StallReason::DramBlocked
                    } else {
                        StallReason::InputStarved
                    };
                    Some(Blocked {
                        member: WaitMember {
                            unit: i,
                            label: v.label.clone(),
                            reason,
                            stream: Some(s),
                            via: edge_label(g, s),
                            detail: format!("blocked at '{}' after {} firings", v.stall, v.firings),
                        },
                        succ: Some(g.streams[s].src.index()),
                    })
                }
                StallClass::OutputSpace => {
                    let s = sid?;
                    Some(Blocked {
                        member: WaitMember {
                            unit: i,
                            label: v.label.clone(),
                            reason: StallReason::OutputBackpressured,
                            stream: Some(s),
                            via: edge_label(g, s),
                            detail: format!("blocked at '{}' after {} firings", v.stall, v.firings),
                        },
                        succ: Some(g.streams[s].dst.index()),
                    })
                }
                StallClass::None => generic_blocked(g, i, &v.label, streams),
            }
        }
        UKind::Ag(k) => {
            let a = &units.ags[k as usize];
            if a.idle() {
                return None;
            }
            if a.front_blocked_on_dram() || a.wants_issue() || a.outstanding_runs() > 0 {
                // Words still in the open coalescing run were never
                // issued: name the run, not DRAM.
                let detail = match a.front_in_open_run() {
                    Some((words, touched)) => format!(
                        "front job waits on an unflushed coalescing run of {words} word(s), \
                         last appended at cycle {touched}"
                    ),
                    None => format!(
                        "waiting on DRAM ({} outstanding run(s){})",
                        a.outstanding_runs(),
                        if a.wants_issue() { ", requests queued for issue" } else { "" }
                    ),
                };
                return Some(Blocked {
                    member: WaitMember {
                        unit: i,
                        label: a.label.clone(),
                        reason: StallReason::DramBlocked,
                        stream: None,
                        via: String::new(),
                        detail,
                    },
                    succ: None,
                });
            }
            generic_blocked(g, i, &a.label, streams)
        }
        UKind::Vmu(k) => generic_blocked(g, i, &units.vmus[k as usize].label, streams),
        UKind::Sync(_) | UKind::Dist(_) | UKind::Coll(_) => {
            generic_blocked(g, i, &g.units[i].label, streams)
        }
    }
}

/// Walk the wait-for graph and produce the structured diagnosis.
pub(crate) fn diagnose_waitfor(
    g: &Vudfg,
    units: &Units,
    streams: &[StreamRt],
    cycle: u64,
    stalled_for: u64,
) -> WatchdogReport {
    let n = units.len();
    let mut info: Vec<Option<Blocked>> = Vec::with_capacity(n);
    for i in 0..n {
        info.push(blocked_info(g, i, units, streams));
    }
    let backpressured_streams = streams.iter().filter(|s| !s.can_push()).count();

    // The graph is functional (≤ 1 successor), so a colored walk from
    // every blocked node finds a cycle iff one exists; otherwise keep the
    // longest chain as the starvation diagnosis.
    let mut color = vec![0usize; n];
    let mut best_chain: Vec<usize> = Vec::new();
    for start in 0..n {
        if info[start].is_none() || color[start] != 0 {
            continue;
        }
        let walk = start + 1; // nonzero walk id
        let mut path: Vec<usize> = Vec::new();
        let mut cur = start;
        loop {
            color[cur] = walk;
            path.push(cur);
            let next = match &info[cur] {
                Some(b) => b.succ,
                None => None,
            };
            let Some(nx) = next else { break };
            if info.get(nx).map(|o| o.is_none()).unwrap_or(true) {
                // Waits on a unit that is not itself blocked (done or
                // quiescent): a starvation chain ends here.
                break;
            }
            if color[nx] == walk {
                // Closed a cycle within this walk.
                let at = path.iter().position(|&p| p == nx).expect("on path");
                let members = path[at..]
                    .iter()
                    .map(|&p| info[p].as_ref().expect("blocked").member.clone())
                    .collect();
                return WatchdogReport {
                    cycle,
                    stalled_for,
                    is_cycle: true,
                    members,
                    backpressured_streams,
                };
            }
            if color[nx] != 0 {
                // Merged into an earlier (acyclic) walk.
                break;
            }
            cur = nx;
        }
        if path.len() > best_chain.len() {
            best_chain = path;
        }
    }
    WatchdogReport {
        cycle,
        stalled_for,
        is_cycle: false,
        members: best_chain
            .iter()
            .map(|&p| info[p].as_ref().expect("blocked").member.clone())
            .collect(),
        backpressured_streams,
    }
}
