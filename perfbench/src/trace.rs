//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public function
//! in [`Tracer::span`]. Spans stay in memory and are written out once,
//! when the run ends. With tracing off, `span` only calls its closure.
//!
//! The recorder assumes one thread: the span stack that gives each span
//! its parent is shared, so the benchmark pins the DSE pool to one
//! worker (`SARA_BENCH_THREADS=1`), which runs candidates on the caller.

use sara_util::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u32,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

/// Span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Option<Mutex<State>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { epoch: Instant::now(), state: on.then(Mutex::default) }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tag the spans recorded from now on with op id `op`.
    pub fn set_op(&self, op: u32) {
        if let Some(s) = &self.state {
            s.lock().expect("tracer poisoned").op = op;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(state) = &self.state else { return f() };
        let idx = {
            let mut s = state.lock().expect("tracer poisoned");
            let span = Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: s.open.last().copied(),
                op: s.op,
            };
            s.spans.push(span);
            let idx = s.spans.len() - 1;
            s.open.push(idx);
            idx
        };
        let out = f();
        let end = self.now_ns();
        let mut s = state.lock().expect("tracer poisoned");
        s.open.pop();
        s.spans[idx].end_ns = end;
        out
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .as_ref()
            .map_or_else(Vec::new, |s| s.lock().expect("tracer poisoned").spans.clone())
    }
}

/// Total self time in seconds per span name: each span's duration minus
/// the time its direct children cover, times `scale` of the span's op.
pub fn self_seconds(spans: &[Span], scale: impl Fn(u32) -> f64) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0.0) +=
            (s.end_ns - s.start_ns - c) as f64 * 1e-9 * scale(s.op);
    }
    out
}

/// The spans as a JSON array of `{name, start_ns, end_ns, parent, op}`.
pub fn spans_json(spans: &[Span]) -> Json {
    let rows: Vec<Json> = spans
        .iter()
        .map(|s| {
            Json::object()
                .set("name", s.name)
                .set("start_ns", s.start_ns)
                .set("end_ns", s.end_ns)
                .set("parent", s.parent.map_or(Json::Null, Json::from))
                .set("op", i64::from(s.op))
        })
        .collect();
    Json::from(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { name: "dse", start_ns: 0, end_ns: 100, parent: None, op: 0 },
            Span { name: "eval", start_ns: 10, end_ns: 40, parent: Some(0), op: 0 },
            Span { name: "eval", start_ns: 50, end_ns: 60, parent: Some(0), op: 0 },
        ];
        let t = self_seconds(&spans, |_| 1.0);
        assert!((t["dse"] - 60e-9).abs() < 1e-15);
        assert!((t["eval"] - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_record_parents_and_ops() {
        let tr = Tracer::new(true);
        tr.set_op(7);
        let v = tr.span("outer", || tr.span("inner", || 3));
        assert_eq!(v, 3);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(Tracer::new(false).spans().is_empty());
    }
}
