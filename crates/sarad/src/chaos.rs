//! Service-level chaos harness: a seeded soak that drives the engine
//! and the socket front end through injected faults — torn writes,
//! orphaned temp files, disk-full, read errors, slow stages past their
//! deadline, corrupted artifacts, service restarts, dropped and
//! garbage connections — and asserts PR 4's recover-or-explain
//! contract one layer up:
//!
//! > Every injected fault ends in **Recovered** (the request still
//! > produced the bit-identical artifact), **Degraded** (produced it
//! > without the cache), or a **typed error** (timeout, budget, typed
//! > stage failure). Never a panic, never a hang, and never a served
//! > artifact whose content differs from fresh computation.
//!
//! The store soak first computes reference artifacts with a clean,
//! fault-free engine, then replays a seeded schedule of requests
//! against a fault-injected, byte-budgeted engine — including periodic
//! `kill -9`-style restarts (drop the engine mid-stream, reopen over
//! the same directory) — verifying every successful response against
//! the reference and the byte budget after every operation. The
//! transport soak abuses a live server socket (garbage lines, dropped
//! connections mid-request and mid-response) and then proves the
//! service still answers. A ping the server sheds with a typed
//! `backpressure` line while abandoned requests hold its workers is the
//! documented answer to a full queue, not a fault.
//!
//! Both `sarad-chaos` (the CI entry point) and `tests/chaos.rs` drive
//! these functions; the binary adds a liveness watchdog so a hang
//! fails loudly instead of eating the CI timeout.

use crate::client::{run_with_retry, RetryPolicy};
use crate::engine::{Deadline, Engine, TIMEOUT_PREFIX};
use crate::store::StoreFaults;
use sara_dse::KnobConfig;
use sara_util::Json;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Seeded xorshift64 — the only randomness in the harness, so a seed
/// fully determines the fault schedule.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator from `seed` (zero is remapped).
    pub fn new(seed: u64) -> Rng {
        Rng(if seed == 0 { 0x9e37_79b9_7f4a_7c15 } else { seed })
    }

    /// Next raw draw.
    pub fn draw(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform draw in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.draw() % n.max(1)
    }
}

/// Tuning for one store-soak run.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Master seed for the request and fault schedules.
    pub seed: u64,
    /// Requests to issue against the fault-injected engine.
    pub ops: usize,
    /// Store byte budget for the chaotic engine: small on purpose, so
    /// eviction pressure is constant. The default holds about two of the
    /// five tuples' sim artifacts (about 950 B each), or one tuple's
    /// eval and sim artifacts (about 1.5 KB together).
    pub budget: u64,
    /// Percent of saves publishing a torn file.
    pub torn_write_pct: u8,
    /// Percent of saves crashing between write and rename.
    pub orphan_tmp_pct: u8,
    /// Percent of saves failing with disk-full.
    pub enospc_pct: u8,
    /// Percent of loads failing with a transient read error.
    pub read_err_pct: u8,
    /// Percent of ops run with an artificially slow stage *and* a
    /// deadline too short for it (forcing typed timeouts + staged
    /// resume).
    pub slow_stage_pct: u8,
    /// Percent of ops preceded by a service "crash" (drop the engine,
    /// reopen over the same directory).
    pub restart_pct: u8,
}

impl ChaosPlan {
    /// The default soak shape for `seed`.
    pub fn seeded(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            ops: 40,
            budget: 2 * 1024,
            torn_write_pct: 12,
            orphan_tmp_pct: 8,
            enospc_pct: 10,
            read_err_pct: 10,
            slow_stage_pct: 12,
            restart_pct: 8,
        }
    }

    fn faults(&self, seed: u64) -> StoreFaults {
        let mut f = StoreFaults::seeded(seed);
        f.torn_write_pct = self.torn_write_pct;
        f.orphan_tmp_pct = self.orphan_tmp_pct;
        f.enospc_pct = self.enospc_pct;
        f.read_err_pct = self.read_err_pct;
        f
    }
}

/// Outcome tally of a store soak. Every op lands in exactly one of
/// `recovered` / `timeouts` / `typed_errors`; the counters below them
/// explain *how* the service coped.
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// Requests that returned the bit-identical artifact despite any
    /// injected faults along the way.
    pub recovered: u64,
    /// Requests cut off by their deadline with the typed `timeout:`
    /// error (their completed stages stayed cached).
    pub timeouts: u64,
    /// Requests ending in any other typed error (budget refusal
    /// surfaced as degraded-compute is *not* an error; this counts
    /// genuine typed failures).
    pub typed_errors: u64,
    /// Store read/write failures downgraded to compute-without-cache.
    pub degraded: u64,
    /// Artifacts evicted to hold the byte budget.
    pub evictions: u64,
    /// Corrupt (torn/tampered) artifacts detected and quarantined.
    pub corrupt_detected: u64,
    /// Orphaned writer temp files swept during restarts.
    pub tmp_swept: u64,
    /// Simulated service crashes (engine drop + reopen).
    pub restarts: u64,
    /// Peak observed store size (must stay ≤ the budget).
    pub peak_bytes: u64,
}

impl ChaosReport {
    /// Render the tally.
    pub fn json(&self) -> Json {
        let g = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        Json::object()
            .set("recovered", g(self.recovered))
            .set("timeouts", g(self.timeouts))
            .set("typed_errors", g(self.typed_errors))
            .set("degraded", g(self.degraded))
            .set("evictions", g(self.evictions))
            .set("corrupt_detected", g(self.corrupt_detected))
            .set("tmp_swept", g(self.tmp_swept))
            .set("restarts", g(self.restarts))
            .set("peak_bytes", g(self.peak_bytes))
    }
}

/// The request tuples the soak cycles through: two small workloads
/// over a few PnR seeds, five keys in all — enough key diversity to
/// churn the cache without making the suite slow.
fn soak_tuples() -> Result<Vec<KnobConfig>, String> {
    let mut tuples = Vec::new();
    for (workload, seeds) in [("dotprod", &[7u64, 8, 9][..]), ("gemm", &[7, 8][..])] {
        let w = sara_workloads::by_name(workload)
            .ok_or_else(|| format!("chaos: unknown workload {workload}"))?;
        for &seed in seeds {
            tuples.push(KnobConfig::default_for(&w, "8x8", seed)?);
        }
    }
    Ok(tuples)
}

/// Run the seeded store soak under `dir`. `progress` is bumped after
/// every op so an external watchdog can detect a hang.
///
/// # Errors
///
/// A contract violation: a served artifact differing from fresh
/// computation, a store exceeding its byte budget, or an untyped
/// (empty) error. Panics inside the engine propagate to the caller —
/// in both the test harness and the binary a panic is a failure.
pub fn store_soak(
    dir: &Path,
    plan: &ChaosPlan,
    progress: &AtomicU64,
) -> Result<ChaosReport, String> {
    let _ = std::fs::remove_dir_all(dir);
    let tuples = soak_tuples()?;

    // Phase 1: fault-free references. Every later response is checked
    // against these bit-for-bit.
    let clean = Engine::open(&dir.join("clean"))?;
    let mut references = Vec::new();
    for knobs in &tuples {
        let mut sink = crate::engine::no_progress();
        let (_, art) = clean.run(knobs, &mut sink)?;
        references.push(art);
        progress.fetch_add(1, Ordering::Relaxed);
    }
    drop(clean);

    // Phase 2: the chaotic engine — byte-budgeted, fault-injected,
    // periodically "crashed" and reopened.
    let chaos_dir = dir.join("chaos");
    let mut rng = Rng::new(plan.seed);
    let mut engine =
        Engine::open_with(&chaos_dir, Some(plan.budget), Some(plan.faults(rng.draw())))?;
    let mut report = ChaosReport::default();

    for op in 0..plan.ops {
        if rng.below(100) < u64::from(plan.restart_pct) {
            // Simulated kill -9: drop the engine mid-stream (in-memory
            // caches vanish, temp orphans may remain) and reopen over
            // the same directory. Recovery must sweep and rebuild.
            report.tmp_swept += engine.store().counters.tmp_swept.load(Ordering::Relaxed);
            report.degraded += engine.stats.degraded.load(Ordering::Relaxed);
            report.evictions += engine.store().counters.evictions.load(Ordering::Relaxed);
            report.corrupt_detected += engine.stats.corrupt_detected.load(Ordering::Relaxed);
            drop(engine);
            engine =
                Engine::open_with(&chaos_dir, Some(plan.budget), Some(plan.faults(rng.draw())))?;
            report.restarts += 1;
        }

        let which = rng.below(tuples.len() as u64) as usize;
        let knobs = &tuples[which];
        let slow = rng.below(100) < u64::from(plan.slow_stage_pct);
        let deadline = if slow {
            // A stage delay longer than the deadline: unless every
            // stage is already cached, this must end in a typed
            // timeout, with completed stages kept for the next try.
            engine.set_stage_delay(Some(Duration::from_millis(30)));
            Deadline::in_ms(10)
        } else {
            engine.set_stage_delay(None);
            Deadline::none()
        };

        let mut sink = crate::engine::no_progress();
        match engine.run_with(knobs, deadline, &mut sink) {
            Ok((_, art)) => {
                let expect = &references[which];
                if &art != expect {
                    return Err(format!(
                        "op {op}: served artifact diverges from fresh computation \
                         ({} cycles != {} cycles) — corruption served",
                        art.cycles, expect.cycles
                    ));
                }
                report.recovered += 1;
            }
            Err(e) if e.starts_with(TIMEOUT_PREFIX) => report.timeouts += 1,
            Err(e) if e.trim().is_empty() => {
                return Err(format!("op {op}: empty (untyped) error"));
            }
            Err(_) => report.typed_errors += 1,
        }

        let bytes = engine.store().bytes();
        report.peak_bytes = report.peak_bytes.max(bytes);
        if bytes > plan.budget {
            return Err(format!(
                "op {op}: store holds {bytes} B, budget is {} B — ceiling violated",
                plan.budget
            ));
        }
        progress.fetch_add(1, Ordering::Relaxed);
    }

    engine.set_stage_delay(None);
    report.tmp_swept += engine.store().counters.tmp_swept.load(Ordering::Relaxed);
    report.degraded += engine.stats.degraded.load(Ordering::Relaxed);
    report.evictions += engine.store().counters.evictions.load(Ordering::Relaxed);
    report.corrupt_detected += engine.stats.corrupt_detected.load(Ordering::Relaxed);

    // Epilogue: with faults quiesced, every tuple must still resolve to
    // the reference artifact — the cache healed, nothing stayed wedged.
    let calm = Engine::open_with(&chaos_dir, Some(plan.budget), None)?;
    for (knobs, expect) in tuples.iter().zip(&references) {
        let mut sink = crate::engine::no_progress();
        let (_, art) = calm.run(knobs, &mut sink)?;
        if &art != expect {
            return Err(format!(
                "post-soak: artifact diverges from fresh computation ({} != {} cycles)",
                art.cycles, expect.cycles
            ));
        }
        progress.fetch_add(1, Ordering::Relaxed);
    }
    Ok(report)
}

fn raw_connect(socket: &Path) -> Result<UnixStream, String> {
    UnixStream::connect(socket).map_err(|e| format!("connect {}: {e}", socket.display()))
}

/// A valid request whose answer the soak never reads.
const RUN_REQUEST: &[u8] = b"{\"op\": \"run\", \"workload\": \"dotprod\", \"pnr_seed\": 7}\n";

/// Write `request` on a connected stream. Returns `false` when the
/// server closed first: a server whose queue is full writes a typed
/// `backpressure` line and closes without reading the request, and a
/// write after that close fails with `BrokenPipe` or `ConnectionReset`.
/// A Unix socket keeps what the peer wrote before it closed, so the
/// caller can still read the line and judge it.
fn send(s: &mut UnixStream, request: &[u8]) -> Result<bool, String> {
    match s.write_all(request) {
        Ok(()) => Ok(true),
        Err(e) if matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset) => {
            Ok(false)
        }
        Err(e) => Err(format!("send: {e}")),
    }
}

/// Read one answer line.
fn recv(s: UnixStream) -> Result<String, String> {
    let mut line = String::new();
    BufReader::new(s).read_line(&mut line).map_err(|e| format!("recv: {e}"))?;
    Ok(line)
}

/// Whether an answer line is the typed shed of a full queue.
fn is_shed(line: &str) -> bool {
    Json::parse(line.trim())
        .is_ok_and(|doc| doc.get("code").and_then(Json::as_str) == Some("backpressure"))
}

/// Garbage line: must come back as one typed error line (a shed is one).
fn garbage(mut s: UnixStream) -> Result<(), String> {
    send(&mut s, b"{{{ not json at all\n")?;
    let line = recv(s)?;
    let doc = Json::parse(line.trim()).map_err(|e| format!("unparseable error response: {e}"))?;
    if doc.get("error").and_then(Json::as_str).is_none() {
        return Err("garbage must yield a typed error line".into());
    }
    Ok(())
}

/// A request, then the connection dropped without reading the answer:
/// the server writes into a closed socket and must shrug it off. A
/// server that closed before the write must have shed the connection.
fn send_and_drop(mut s: UnixStream, request: &[u8]) -> Result<(), String> {
    if !send(&mut s, request)? {
        let line = recv(s)?;
        if !is_shed(&line) {
            return Err(format!("closed before the request, answering {line:?}"));
        }
    }
    Ok(())
}

/// A full valid round trip mixed into the abuse: answered `ok`, or shed
/// with a typed `backpressure` line.
fn ping(mut s: UnixStream) -> Result<(), String> {
    send(&mut s, b"{\"op\": \"ping\"}\n")?;
    let line = recv(s)?;
    if !line.contains("\"ok\"") && !is_shed(&line) {
        return Err(format!("ping answered {line:?}"));
    }
    Ok(())
}

/// Abuse a live server socket: garbage requests, connections dropped
/// before, during, and after a request, and partial writes. A mid-soak
/// `ping` must be answered `ok` or shed with a typed `backpressure`
/// line (dropped `run` requests may hold every worker). An arm whose
/// write finds the connection already closed reads the server's line
/// anyway and accepts only that typed shed. After the whole
/// schedule the server must still answer a `ping` `ok`, retrying
/// backpressure under [`RetryPolicy::default`] — no panic, no wedged
/// worker.
///
/// # Errors
///
/// When the server stops answering, or answers a garbage request with
/// anything but a parseable typed error line.
pub fn transport_soak(
    socket: &Path,
    seed: u64,
    ops: usize,
    progress: &AtomicU64,
) -> Result<(), String> {
    let mut rng = Rng::new(seed);
    for op in 0..ops {
        let at = |e: String| format!("op {op}: {e}");
        match rng.below(5) {
            0 => garbage(raw_connect(socket)?).map_err(at)?,
            1 => send_and_drop(raw_connect(socket)?, RUN_REQUEST).map_err(at)?,
            // Connect-and-vanish.
            2 => drop(raw_connect(socket)?),
            // Partial request line (no terminating newline), then gone.
            3 => send_and_drop(raw_connect(socket)?, b"{\"op\": \"ru").map_err(at)?,
            _ => ping(raw_connect(socket)?).map_err(at)?,
        }
        progress.fetch_add(1, Ordering::Relaxed);
    }

    // The service survived the whole schedule.
    let ping = Json::object().set("op", "ping");
    let lines = run_with_retry(socket, &ping, &RetryPolicy::default())
        .map_err(|e| format!("final ping: {e}"))?;
    match lines.last() {
        Some(last) if last.get("ok").is_some() => Ok(()),
        last => Err(format!(
            "server no longer answers after transport soak: {:?}",
            last.map(Json::pretty)
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The far end of a pair stands in for a server with a full queue:
    /// it writes the typed shed and closes before the arm writes, so the
    /// arm's write fails with `BrokenPipe`.
    fn shed_stream() -> UnixStream {
        let (near, mut far) = UnixStream::pair().unwrap();
        far.write_all(b"{\"error\": \"busy: queue full\", \"code\": \"backpressure\"}\n").unwrap();
        drop(far);
        near
    }

    #[test]
    fn arms_accept_a_shed_that_closes_before_the_request() {
        assert_eq!(send(&mut shed_stream(), RUN_REQUEST), Ok(false), "the write itself fails");
        ping(shed_stream()).unwrap();
        garbage(shed_stream()).unwrap();
        send_and_drop(shed_stream(), RUN_REQUEST).unwrap();
    }

    #[test]
    fn arms_reject_a_close_without_a_shed() {
        let closed = || UnixStream::pair().unwrap().0;
        assert!(ping(closed()).is_err());
        assert!(garbage(closed()).is_err());
        assert!(send_and_drop(closed(), RUN_REQUEST).is_err());
    }
}
