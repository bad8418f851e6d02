//! Chrome `trace_event` exporter: renders a [`SimProfile`] as a JSON
//! document that loads directly in `chrome://tracing` or Perfetto
//! (<https://ui.perfetto.dev>).
//!
//! Mapping: one trace *thread* per VCU, one complete ("X") event per
//! non-idle timeline segment, with **1 simulated cycle = 1 µs** of trace
//! time so cycle numbers read off the ruler directly. DRAM bandwidth and
//! row-hit counters are emitted as counter ("C") events per epoch bin.

use sara_core::profile::{SimProfile, UnitState};
use sara_util::Json;

/// Build the `trace_event` document for one profiled run. `source` names
/// the run in the trace UI (process name and metadata).
pub fn chrome_trace(source: &str, p: &SimProfile) -> Json {
    let mut events: Vec<Json> = Vec::new();
    events.push(
        Json::object()
            .set("name", "process_name")
            .set("ph", "M")
            .set("pid", 0)
            .set("tid", 0)
            .set("args", Json::object().set("name", format!("{source} (1 cycle = 1 us)"))),
    );
    for (k, v) in p.vcus.iter().enumerate() {
        let tid = k as i64 + 1;
        events.push(
            Json::object()
                .set("name", "thread_name")
                .set("ph", "M")
                .set("pid", 0)
                .set("tid", tid)
                .set("args", Json::object().set("name", v.label.as_str())),
        );
        for seg in &v.segments {
            // Idle tail segments carry no information the gap doesn't.
            if seg.state == UnitState::Idle {
                continue;
            }
            events.push(
                Json::object()
                    .set("name", seg.state.label())
                    .set("cat", "vcu")
                    .set("ph", "X")
                    .set("pid", 0)
                    .set("tid", tid)
                    .set("ts", seg.start)
                    .set("dur", seg.end - seg.start),
            );
        }
    }
    for e in &p.dram_epochs {
        let per_cycle = |b: u64| b as f64 / p.epoch_cycles.max(1) as f64;
        events.push(
            Json::object()
                .set("name", "dram bandwidth (B/cycle)")
                .set("ph", "C")
                .set("pid", 0)
                .set("tid", 0)
                .set("ts", e.start_cycle)
                .set(
                    "args",
                    Json::object()
                        .set("read", per_cycle(e.read_bytes))
                        .set("write", per_cycle(e.write_bytes)),
                ),
        );
        events.push(
            Json::object()
                .set("name", "dram row buffer")
                .set("ph", "C")
                .set("pid", 0)
                .set("tid", 0)
                .set("ts", e.start_cycle)
                .set("args", Json::object().set("hits", e.row_hits).set("misses", e.row_misses)),
        );
    }
    Json::object()
        .set("displayTimeUnit", "ms")
        .set("traceEvents", Json::Array(events))
        .set("otherData", Json::object().set("source", source).set("cycles", p.cycles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sara_core::profile::{Segment, StallReason, VcuProfile};

    #[test]
    fn events_cover_non_idle_segments_only() {
        let p = SimProfile {
            cycles: 30,
            epoch_cycles: 10,
            vcus: vec![VcuProfile {
                label: "u0".into(),
                firings: 5,
                active_cycles: 10,
                idle_cycles: 15,
                stalled_cycles: [5, 0, 0, 0],
                segments: vec![
                    Segment { state: UnitState::Active, start: 1, end: 11 },
                    Segment {
                        state: UnitState::Stalled(StallReason::InputStarved),
                        start: 11,
                        end: 16,
                    },
                    Segment { state: UnitState::Idle, start: 16, end: 31 },
                ],
                segments_truncated: false,
            }],
            streams: Vec::new(),
            dram_epochs: Vec::new(),
        };
        let doc = chrome_trace("test", &p);
        let s = doc.pretty();
        assert!(s.contains("\"traceEvents\""));
        assert!(s.contains("\"thread_name\""));
        assert!(s.contains("\"input-starved\""));
        // Two metadata events + two segment events; the idle segment is
        // dropped.
        let x_events = s.matches("\"ph\": \"X\"").count();
        assert_eq!(x_events, 2);
        assert!(!s.contains("\"idle\""));
    }
}
