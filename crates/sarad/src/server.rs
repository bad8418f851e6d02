//! The socket front end: newline-delimited JSON over a Unix domain
//! socket or TCP (see [`crate::net`] for the endpoint spelling rule),
//! a bounded connection queue feeding a worker pool, and typed
//! backpressure rejection when the queue is full.
//!
//! ## Protocol
//!
//! Each request is one JSON object on one line; the server answers with
//! zero or more *progress* lines (`{"event":"stage",...}`) followed by
//! exactly one *terminal* line: `{"ok":...}`, `{"event":"done",...}`,
//! or `{"error":...}`. Ops:
//!
//! | op         | fields                                               |
//! |------------|------------------------------------------------------|
//! | `ping`     | —                                                    |
//! | `run`      | `knobs` (knob JSON) *or* `workload`/`chip`/`pnr_seed`; optional `deadline_ms` |
//! | `autotune` | `workload`; optional `budget`, `seed`, `chip`        |
//! | `stats`    | —                                                    |
//! | `delay`    | `ms` — occupies a worker (deterministic backpressure tests) |
//! | `shutdown` | —                                                    |
//!
//! A `run` request's progress events name the `eval` stage first: the
//! sim key needs the compiled design's digest, which the eval stage
//! reads from memory or disk or computes by compiling, so a `run` also
//! saves an eval artifact. The `sim` stage follows; a sim miss reports
//! the `place` stage it computes through, and a place miss the
//! `compile` stage. The `done` line carries the `compile`, `place` and
//! `sim` keys.
//!
//! Error terminals carry a machine-readable `code` where one exists:
//! `"backpressure"` (queue-full shedding — safe to retry with backoff,
//! requests are content-addressed and idempotent) and `"timeout"`
//! (`deadline_ms` elapsed between stages — completed stages are cached,
//! so an immediate retry resumes from the last finished stage).

use crate::engine::{CachedEval, Deadline, Engine, TIMEOUT_PREFIX};
use crate::net::{Conn, Endpoint, Listener};
use sara_dse::{autotune_with, speedup, KnobConfig, SearchOptions};
use sara_util::pool::{JobQueue, PushError};
use sara_util::Json;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Listen endpoint spelling: a Unix socket path (any stale file is
    /// replaced), or a `host:port` TCP address — any value containing
    /// `':'` is TCP (see [`Endpoint::parse`]).
    pub socket: PathBuf,
    /// Worker threads draining the connection queue.
    pub workers: usize,
    /// Bounded connection-queue capacity; beyond it, connections get a
    /// typed `busy` rejection instead of unbounded buffering.
    pub queue: usize,
    /// Artifact-store directory.
    pub cache_dir: PathBuf,
    /// Artifact-store byte budget (`None` = unbounded). Under a budget
    /// the store evicts eval artifacts before sim artifacts and never
    /// exceeds the ceiling.
    pub cache_budget: Option<u64>,
}

impl ServerOptions {
    /// The configured listen endpoint: the `socket` field interpreted
    /// under the one spelling rule (`':'` → TCP `host:port`, else a
    /// Unix path).
    pub fn endpoint(&self) -> Endpoint {
        Endpoint::parse(&self.socket.to_string_lossy())
    }

    /// The service defaults, as the environment sets them: the socket
    /// from [`default_socket`], the cache directory from
    /// [`default_cache_dir`], the byte budget from
    /// `$SARAD_CACHE_BUDGET` (bytes, with an optional `k`/`m`/`g`
    /// suffix; unset means unbounded), 2 workers and a queue of 16.
    ///
    /// # Errors
    ///
    /// When `$SARAD_CACHE_BUDGET` is set but is not a byte count.
    pub fn from_env() -> Result<ServerOptions, String> {
        let cache_budget = std::env::var_os("SARAD_CACHE_BUDGET")
            .map(|v| parse_budget(&v.to_string_lossy()))
            .transpose()
            .map_err(|e| format!("SARAD_CACHE_BUDGET: {e}"))?;
        Ok(ServerOptions {
            socket: default_socket(),
            workers: 2,
            queue: 16,
            cache_dir: default_cache_dir(),
            cache_budget,
        })
    }
}

/// Run the service until a `shutdown` request arrives.
///
/// # Errors
///
/// When the socket cannot be bound or the cache directory created.
pub fn serve(opts: &ServerOptions) -> Result<(), String> {
    let engine = Arc::new(Engine::open_with(&opts.cache_dir, opts.cache_budget, None)?);
    serve_with(opts, engine)
}

/// [`serve`] over a caller-provided engine (lets tests inspect stats
/// from the same process).
///
/// # Errors
///
/// When the endpoint cannot be bound.
pub fn serve_with(opts: &ServerOptions, engine: Arc<Engine>) -> Result<(), String> {
    let listener = Listener::bind(&opts.endpoint())?;
    serve_on(listener, opts, engine)
}

/// [`serve_with`] over an already-bound listener — the entry point for
/// callers that bind an ephemeral TCP port (`host:0`) and need to read
/// the real one back (via [`Listener::local_endpoint`]) before serving.
///
/// # Errors
///
/// Currently infallible (the signature reserves the error channel).
pub fn serve_on(
    listener: Listener,
    opts: &ServerOptions,
    engine: Arc<Engine>,
) -> Result<(), String> {
    // The *bound* endpoint, not the requested spelling: a shutdown
    // self-connection over TCP must hit the resolved port.
    let local = listener.local_endpoint();
    let queue: Arc<JobQueue<Conn>> = Arc::new(JobQueue::bounded(opts.queue.max(1)));
    let stop = Arc::new(AtomicBool::new(false));

    let workers: Vec<_> = (0..opts.workers.max(1))
        .map(|_| {
            let queue = Arc::clone(&queue);
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let local = local.clone();
            std::thread::spawn(move || {
                while let Some(stream) = queue.pop() {
                    handle_connection(stream, &engine, &stop, &local);
                }
            })
        })
        .collect();

    loop {
        let conn = listener.accept();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        match queue.try_push(stream) {
            Ok(()) => {}
            Err((mut stream, reason @ PushError::Full { .. })) => {
                // Bounded-queue backpressure: shed the connection with a
                // typed rejection instead of buffering without bound.
                engine.stats.rejected.fetch_add(1, Ordering::SeqCst);
                write_line(
                    &mut stream,
                    &Json::object()
                        .set("error", format!("busy: {reason}"))
                        .set("code", "backpressure"),
                );
            }
            Err((_, PushError::Closed)) => break,
        }
    }

    queue.close();
    for w in workers {
        let _ = w.join();
    }
    listener.close();
    Ok(())
}

fn write_line(stream: &mut impl Write, doc: &Json) {
    let mut text = doc.pretty().replace('\n', " ");
    text.push('\n');
    let _ = stream.write_all(text.as_bytes());
    let _ = stream.flush();
}

/// An error terminal, with the machine-readable `code` attached when
/// the message carries one (`timeout:` errors from the engine).
fn error_line(msg: &str) -> Json {
    let doc = Json::object().set("error", msg);
    if msg.starts_with(TIMEOUT_PREFIX) {
        doc.set("code", "timeout")
    } else {
        doc
    }
}

fn handle_connection(stream: Conn, engine: &Arc<Engine>, stop: &Arc<AtomicBool>, local: &Endpoint) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut out = stream;
    let reader = BufReader::new(read_half);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let req = match Json::parse(&line) {
            Ok(r) => r,
            Err(e) => {
                write_line(&mut out, &error_line(&format!("bad request: {e}")));
                continue;
            }
        };
        let op = req.get("op").and_then(Json::as_str).unwrap_or("");
        match op {
            "ping" => write_line(&mut out, &Json::object().set("ok", true).set("service", "sarad")),
            "stats" => write_line(
                &mut out,
                &Json::object().set("ok", true).set("stats", engine.stats_json()),
            ),
            "run" => handle_run(&req, engine, &mut out),
            "autotune" => handle_autotune(&req, engine, &mut out),
            "delay" => {
                let ms = req.get("ms").and_then(Json::as_u64).unwrap_or(0).min(10_000);
                std::thread::sleep(std::time::Duration::from_millis(ms));
                write_line(&mut out, &Json::object().set("ok", true));
            }
            "shutdown" => {
                stop.store(true, Ordering::SeqCst);
                write_line(&mut out, &Json::object().set("ok", true).set("stopping", true));
                // The accept loop is blocked in `accept()`; a self-
                // connection wakes it so it can observe the stop flag.
                let _ = Conn::connect(local);
                return;
            }
            other => write_line(&mut out, &error_line(&format!("unknown op {other:?}"))),
        }
    }
}

/// Decode the request's knob configuration: either a full `knobs`
/// object (the replayable `sara-dse-knobs-v1` artifact) or a
/// `workload`/`chip`/`pnr_seed` triple resolved to default knobs.
fn request_knobs(req: &Json) -> Result<KnobConfig, String> {
    if let Some(k) = req.get("knobs") {
        return KnobConfig::from_json(k);
    }
    let workload =
        req.get("workload").and_then(Json::as_str).ok_or("run: need \"knobs\" or \"workload\"")?;
    let w = sara_workloads::by_name(workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let chip = req.get("chip").and_then(Json::as_str).unwrap_or("8x8");
    let seed = req.get("pnr_seed").and_then(Json::as_u64).unwrap_or(7);
    KnobConfig::default_for(&w, chip, seed)
}

fn handle_run(req: &Json, engine: &Arc<Engine>, out: &mut Conn) {
    let knobs = match request_knobs(req) {
        Ok(k) => k,
        Err(e) => return write_line(out, &error_line(&e)),
    };
    // A client-supplied deadline is enforced server-side between stages;
    // completed stages stay cached, so a retry resumes where this
    // request ran out of time.
    let deadline =
        req.get("deadline_ms").and_then(Json::as_u64).map_or_else(Deadline::none, Deadline::in_ms);
    // Stream per-stage progress events as the pipeline advances.
    let mut progress = |stage: &str, outcome: &str| {
        // The event writes share `out` with the terminal line; a clone
        // of the stream writes to the same socket.
        if let Ok(mut ev) = out.try_clone() {
            write_line(
                &mut ev,
                &Json::object().set("event", "stage").set("stage", stage).set("cache", outcome),
            );
        }
    };
    match engine.run_with(&knobs, deadline, &mut progress) {
        Ok((keys, art)) => write_line(
            out,
            &Json::object()
                .set("event", "done")
                .set("cycles", i64::try_from(art.cycles).unwrap_or(i64::MAX))
                .set("firings", i64::try_from(art.firings).unwrap_or(i64::MAX))
                .set("dram_blocked_frac", art.dram_blocked_frac)
                .set("bottleneck", art.bottleneck.as_str())
                .set(
                    "keys",
                    Json::object()
                        .set("compile", keys.compile.as_str())
                        .set("place", keys.place.as_str())
                        .set("sim", keys.sim.as_str()),
                ),
        ),
        Err(e) => write_line(out, &error_line(&e)),
    }
}

fn handle_autotune(req: &Json, engine: &Arc<Engine>, out: &mut Conn) {
    let Some(workload) = req.get("workload").and_then(Json::as_str) else {
        return write_line(out, &error_line("autotune: missing \"workload\""));
    };
    let opts = SearchOptions {
        budget: req.get("budget").and_then(Json::as_u64).unwrap_or(24) as usize,
        pnr_seed: req.get("seed").and_then(Json::as_u64).unwrap_or(42),
        chip: req.get("chip").and_then(Json::as_str).unwrap_or("8x8").to_string(),
        ..SearchOptions::default()
    };
    let backend = CachedEval::new(Arc::clone(engine));
    match autotune_with(workload, &opts, &backend) {
        Ok(outcome) => write_line(
            out,
            &Json::object()
                .set("event", "done")
                .set("workload", workload)
                .set(
                    "default_cycles",
                    i64::try_from(outcome.default_point.simulated.unwrap_or(0)).unwrap_or(i64::MAX),
                )
                .set(
                    "best_cycles",
                    i64::try_from(outcome.best.simulated.unwrap_or(0)).unwrap_or(i64::MAX),
                )
                .set("speedup", speedup(&outcome))
                .set("points_explored", outcome.points_explored)
                .set("sims_run", outcome.sims_run)
                .set("sim_failures", outcome.sim_failures.len())
                .set("best_knobs", outcome.best.knobs.to_json())
                .set("stats", engine.stats_json()),
        ),
        Err(e) => write_line(out, &error_line(&e)),
    }
}

/// Default socket path for CLI wiring: `$SARAD_SOCKET`, else a socket
/// *inside* the cache directory. Deriving the socket from the cache dir
/// (which is already per-user) means two users — or two test runs with
/// distinct `SARAD_CACHE_DIR`s — on one machine never collide on a
/// global `/tmp/sarad.sock`.
pub fn default_socket() -> PathBuf {
    std::env::var_os("SARAD_SOCKET")
        .map(PathBuf::from)
        .unwrap_or_else(|| default_cache_dir().join("sarad.sock"))
}

/// Default cache directory: `$SARAD_CACHE_DIR`, else a per-user
/// `<tmp>/sarad-<user>` (so machines shared between users do not share
/// — or fight over — one world-writable cache).
pub fn default_cache_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("SARAD_CACHE_DIR") {
        return PathBuf::from(dir);
    }
    let user = std::env::var("USER")
        .or_else(|_| std::env::var("LOGNAME"))
        .unwrap_or_else(|_| "anon".to_string());
    std::env::temp_dir().join(format!("sarad-{user}"))
}

/// Parse a byte-budget string: a plain integer, or one with a binary
/// `k`/`m`/`g` suffix (case-insensitive), e.g. `512m`.
///
/// # Errors
///
/// A one-line diagnostic for anything else.
pub fn parse_budget(v: &str) -> Result<u64, String> {
    let t = v.trim();
    let (digits, mult) = match t.char_indices().last() {
        Some((i, 'k' | 'K')) => (&t[..i], 1u64 << 10),
        Some((i, 'm' | 'M')) => (&t[..i], 1 << 20),
        Some((i, 'g' | 'G')) => (&t[..i], 1 << 30),
        _ => (t, 1),
    };
    match digits.trim().parse::<u64>() {
        Ok(n) if n > 0 => {
            n.checked_mul(mult).ok_or_else(|| format!("cache budget {v:?} overflows a byte count"))
        }
        _ => Err(format!("cache budget {v:?} is not a positive byte count (try 512m, 2g)")),
    }
}
