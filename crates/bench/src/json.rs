//! Profile serialization for result files. The JSON value type itself
//! is [`sara_util::Json`]; this helper lives here because it depends on
//! `sara-core`.

use sara_core::profile::{SimProfile, StallReason};
use sara_util::Json;

/// Serialize a [`SimProfile`] into the result-file JSON shape: per-VCU
/// cycle attribution with a per-reason stall object, per-stream
/// occupancy/backpressure counters, and the DRAM epoch timeline. The
/// segment-level timeline is not duplicated here — it ships in the
/// Chrome trace (see [`crate::trace::chrome_trace`]).
pub fn profile_json(p: &SimProfile) -> Json {
    let vcus: Vec<Json> = p
        .vcus
        .iter()
        .map(|v| {
            let mut stalls = Json::object();
            for r in StallReason::ALL {
                stalls = stalls.set(r.label(), v.stalled(r));
            }
            Json::object()
                .set("label", v.label.as_str())
                .set("firings", v.firings)
                .set("active_cycles", v.active_cycles)
                .set("idle_cycles", v.idle_cycles)
                .set("stalled_cycles", stalls)
                .set("stalled_total", v.stalled_total())
                .set("segments_truncated", v.segments_truncated)
        })
        .collect();
    let streams: Vec<Json> = p
        .streams
        .iter()
        .map(|s| {
            Json::object()
                .set("label", s.label.as_str())
                .set("slots", s.slots)
                .set("occupancy_hwm", s.occupancy_hwm)
                .set("backpressure_cycles", s.backpressure_cycles)
                .set("pushes", s.pushes)
                .set("pops", s.pops)
        })
        .collect();
    let epochs: Vec<Json> = p
        .dram_epochs
        .iter()
        .map(|e| {
            Json::object()
                .set("start_cycle", e.start_cycle)
                .set("read_bytes", e.read_bytes)
                .set("write_bytes", e.write_bytes)
                .set("row_hits", e.row_hits)
                .set("row_misses", e.row_misses)
        })
        .collect();
    Json::object()
        .set("cycles", p.cycles)
        .set("epoch_cycles", p.epoch_cycles)
        .set("vcus", Json::Array(vcus))
        .set("streams", Json::Array(streams))
        .set("dram_epochs", Json::Array(epochs))
}
