//! End-to-end service acceptance over the Unix-socket protocol:
//! duplicate request bursts hit the cache, progress events stream per
//! stage, autotune runs through the service, backpressure sheds load
//! with a typed rejection, and shutdown is clean.

use sara_util::Json;
use sarad::{Client, ClientError, Endpoint, Engine, Listener, RetryPolicy, ServerOptions};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sarad-svc-{tag}-{}", std::process::id()))
}

type ServeHandle = std::thread::JoinHandle<()>;

fn start_server(
    tag: &str,
    workers: usize,
    queue: usize,
) -> (ServerOptions, Arc<Engine>, ServeHandle) {
    let opts = ServerOptions {
        socket: tmp(&format!("{tag}.sock")),
        cache_dir: tmp(&format!("{tag}-cache")),
        workers,
        queue,
        cache_budget: None,
    };
    let _ = std::fs::remove_dir_all(&opts.cache_dir);
    let engine = Arc::new(Engine::open(&opts.cache_dir).unwrap());
    // Bind before spawning: a returned helper is immediately connectable
    // (no exists() poll, which a stale socket file could fool).
    let listener = Listener::bind(&opts.endpoint()).unwrap();
    let handle = {
        let opts = opts.clone();
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || sarad::serve_on(listener, &opts, engine).unwrap())
    };
    (opts, engine, handle)
}

#[test]
fn duplicate_burst_hits_cache_and_streams_progress() {
    let (opts, engine, serve) = start_server("burst", 2, 16);
    let mut client = Client::connect(&opts.socket).unwrap();

    let req = Json::object().set("op", "run").set("workload", "dotprod").set("pnr_seed", 7);
    let first = client.request(&req).unwrap();
    // Progress events arrive before the terminal line, in stage order.
    let stages: Vec<(String, String)> = first
        .iter()
        .filter(|l| l.get("event").and_then(Json::as_str) == Some("stage"))
        .map(|l| {
            (
                l.get("stage").and_then(Json::as_str).unwrap().to_string(),
                l.get("cache").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect();
    assert!(stages.iter().any(|(s, c)| s == "sim" && c == "miss"), "stages: {stages:?}");
    assert!(stages.iter().any(|(s, c)| s == "compile" && c == "miss"), "stages: {stages:?}");
    let done = first.last().unwrap();
    let cycles = done.get("cycles").and_then(Json::as_u64).unwrap();
    assert!(cycles > 0);
    let sim_key = done.get("keys").and_then(|k| k.get("sim")).and_then(Json::as_str).unwrap();
    assert_eq!(sim_key.len(), 32);

    // The duplicate burst: every repeat is a sim-stage hit with the same
    // cycles and the same keys.
    for _ in 0..3 {
        let lines = client.request(&req).unwrap();
        let done2 = lines.last().unwrap();
        assert_eq!(done2.get("cycles").and_then(Json::as_u64), Some(cycles));
        assert_eq!(
            done2.get("keys").and_then(|k| k.get("sim")).and_then(Json::as_str),
            Some(sim_key)
        );
        let stages2: Vec<&str> = lines
            .iter()
            .filter(|l| l.get("event").and_then(Json::as_str) == Some("stage"))
            .map(|l| l.get("cache").and_then(Json::as_str).unwrap())
            .collect();
        assert!(stages2.contains(&"hit"), "repeat must hit: {stages2:?}");
    }

    let stats = client.stats().unwrap();
    assert!(stats.get("sim_hits").and_then(Json::as_u64).unwrap() >= 3, "{}", stats.pretty());
    assert_eq!(stats.get("sims_run").and_then(Json::as_u64), Some(1));
    // The report also carries the store's resource counters.
    assert!(stats.get("store_bytes").and_then(Json::as_u64).unwrap() > 0, "{}", stats.pretty());
    assert!(stats.get("evictions").is_some());
    assert!(stats.get("degraded").is_some());
    assert!(stats.get("timeouts").is_some());

    client.shutdown().unwrap();
    // Shutdown must terminate the accept loop, not just the worker: the
    // serve thread itself has to return.
    serve.join().unwrap();
    assert_eq!(engine.stats.sims_run.load(Ordering::Relaxed), 1);
}

#[test]
fn autotune_runs_through_the_service_and_warm_repeat_is_free() {
    let (opts, engine, serve) = start_server("tune", 2, 16);
    let mut client = Client::connect(&opts.socket).unwrap();

    let req = Json::object()
        .set("op", "autotune")
        .set("workload", "dotprod")
        .set("budget", 10)
        .set("seed", 42);
    let done = client.call(&req).unwrap();
    let best = done.get("best_cycles").and_then(Json::as_u64).unwrap();
    assert!(best > 0);
    assert!(done.get("speedup").and_then(Json::as_f64).unwrap() >= 1.0);
    assert!(done.get("stats").is_some(), "autotune response must carry the service stats report");
    let compiles_cold = engine.stats.compiles_run.load(Ordering::Relaxed);

    // Warm repeat through the service: zero recompilations.
    let done2 = client.call(&req).unwrap();
    assert_eq!(done2.get("best_cycles").and_then(Json::as_u64), Some(best));
    assert_eq!(
        engine.stats.compiles_run.load(Ordering::Relaxed),
        compiles_cold,
        "warm autotune through the service must not recompile"
    );
    let stats = done2.get("stats").unwrap();
    assert!(stats.get("compile_hits").and_then(Json::as_u64).unwrap() > 0);

    client.shutdown().unwrap();
    serve.join().unwrap();
}

#[test]
fn full_queue_sheds_connections_with_typed_backpressure() {
    // One worker, queue capacity one: a delay request occupies the
    // worker, the next connection fills the queue, and every connection
    // beyond that must be rejected with a typed busy error.
    let (opts, engine, serve) = start_server("busy", 1, 1);

    let mut occupier = UnixStream::connect(&opts.socket).unwrap();
    occupier.write_all(b"{\"op\": \"delay\", \"ms\": 1500}\n").unwrap();
    occupier.flush().unwrap();
    std::thread::sleep(Duration::from_millis(200)); // worker now busy

    // Fill the one queue slot, then force rejections.
    let _queued = UnixStream::connect(&opts.socket).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let mut saw_busy = false;
    for _ in 0..5 {
        let Ok(stream) = UnixStream::connect(&opts.socket) else { continue };
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            continue;
        }
        let doc = Json::parse(line.trim()).unwrap();
        if doc.get("code").and_then(Json::as_str) == Some("backpressure") {
            assert!(doc.get("error").and_then(Json::as_str).unwrap().starts_with("busy"));
            saw_busy = true;
            break;
        }
    }
    assert!(saw_busy, "an over-capacity connection must get a typed busy rejection");
    assert!(engine.stats.rejected.load(Ordering::Relaxed) >= 1);

    // Wait out the delay, then release both held connections so the
    // single worker can serve the shutdown request.
    let mut resp = String::new();
    BufReader::new(occupier.try_clone().unwrap()).read_line(&mut resp).unwrap();
    assert!(resp.contains("ok"));
    drop(occupier);
    drop(_queued);
    std::thread::sleep(Duration::from_millis(100));
    let mut client = Client::connect(&opts.socket).unwrap();
    client.shutdown().unwrap();
    serve.join().unwrap();
}

#[test]
fn protocol_errors_are_typed_not_fatal() {
    let (opts, _engine, serve) = start_server("proto", 1, 8);
    let mut client = Client::connect(&opts.socket).unwrap();

    // Unknown op, unknown workload, malformed knobs: each is a typed
    // error line, and the connection stays usable afterwards.
    let e = client.call(&Json::object().set("op", "florble")).unwrap_err();
    assert!(e.to_string().contains("unknown op"));
    assert_eq!(e.code(), "server");
    assert!(!e.retryable(), "a server-side request error must not be retried");
    let e = client
        .call(&Json::object().set("op", "run").set("workload", "no-such-kernel"))
        .unwrap_err();
    assert!(e.to_string().contains("unknown workload"));
    let e = client.call(&Json::object().set("op", "run")).unwrap_err();
    assert!(e.to_string().contains("workload"));

    // Still alive.
    let pong = client.call(&Json::object().set("op", "ping")).unwrap();
    assert_eq!(pong.get("service").and_then(Json::as_str), Some("sarad"));
    client.shutdown().unwrap();
    serve.join().unwrap();
}

#[test]
fn truncated_and_garbage_mid_response_are_typed_client_errors() {
    // A scripted fake "server" exercising the client's transport-error
    // taxonomy: garbage bytes, a response truncated mid-line, and a
    // connection dropped before the terminal line must each surface as
    // a typed ClientError — never a parse panic, never a hang.
    let sock = tmp("fake.sock");
    let _ = std::fs::remove_file(&sock);
    let listener = UnixListener::bind(&sock).unwrap();
    let fake = std::thread::spawn(move || {
        let answer = |bytes: &[u8]| {
            let (s, _) = listener.accept().unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            let mut req = String::new();
            r.read_line(&mut req).unwrap();
            let mut w = s;
            w.write_all(bytes).unwrap();
            w.flush().unwrap();
        };
        // 1: pure garbage where a response line should be.
        answer(b"}}} this is not json\n");
        // 2: one valid progress event, then the terminal line cut off
        //    mid-byte (server died while writing).
        answer(b"{\"event\": \"stage\", \"stage\": \"compile\", \"cache\": \"miss\"}\n{\"event\": \"do");
        // 3: connection closed with no response at all.
        answer(b"");
    });

    let req = Json::object().set("op", "ping");
    let e = Client::connect(&sock).unwrap().request(&req).unwrap_err();
    assert_eq!(e.code(), "protocol", "garbage bytes: {e}");
    assert!(!e.retryable(), "a protocol violation must not be blindly retried");

    let e = Client::connect(&sock).unwrap().request(&req).unwrap_err();
    assert_eq!(e.code(), "protocol", "truncated mid-response: {e}");

    let e = Client::connect(&sock).unwrap().request(&req).unwrap_err();
    assert_eq!(e.code(), "dropped", "dropped before terminal: {e}");
    assert!(e.retryable(), "a dropped connection is safe to retry (idempotent requests)");

    fake.join().unwrap();
    let _ = std::fs::remove_file(&sock);
}

#[test]
fn tcp_transport_serves_the_full_protocol_end_to_end() {
    // Bind an ephemeral TCP port, serve on it, and run the protocol —
    // ping, a cached compile+sim, stats, shutdown — over the resolved
    // `host:port` endpoint. Same wire format, different transport.
    let opts = ServerOptions {
        socket: PathBuf::from("127.0.0.1:0"), // interpreted as TCP by the spelling rule
        cache_dir: tmp("tcp-cache"),
        workers: 2,
        queue: 16,
        cache_budget: None,
    };
    let _ = std::fs::remove_dir_all(&opts.cache_dir);
    assert_eq!(opts.endpoint(), Endpoint::parse("127.0.0.1:0"));
    let listener = Listener::bind(&opts.endpoint()).unwrap();
    let endpoint = listener.local_endpoint(); // port 0 resolved to the real port
    let engine = Arc::new(Engine::open(&opts.cache_dir).unwrap());
    let serve = {
        let opts = opts.clone();
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || sarad::serve_on(listener, &opts, engine).unwrap())
    };

    let mut client = Client::connect_to(&endpoint).unwrap();
    let pong = client.call(&Json::object().set("op", "ping")).unwrap();
    assert_eq!(pong.get("service").and_then(Json::as_str), Some("sarad"));

    let req = Json::object().set("op", "run").set("workload", "dotprod").set("pnr_seed", 7);
    let done = client.call(&req).unwrap();
    let cycles = done.get("cycles").and_then(Json::as_u64).unwrap();
    assert!(cycles > 0);
    // The repeat over TCP hits the same content-addressed cache.
    let done2 = client.call(&req).unwrap();
    assert_eq!(done2.get("cycles").and_then(Json::as_u64), Some(cycles));
    assert_eq!(engine.stats.sims_run.load(Ordering::Relaxed), 1);

    // Shutdown must wake the TCP accept loop (self-connect) and return.
    client.shutdown().unwrap();
    serve.join().unwrap();
}

#[test]
fn tcp_connect_refused_is_retryable_and_backs_off() {
    // Bind-then-drop an ephemeral port: connecting to it afterwards is
    // deterministically refused (nothing else can grab it fast enough to
    // matter in practice).
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        Endpoint::Tcp(l.local_addr().unwrap().to_string())
    };

    // A refused TCP connect is a typed, retryable Connect error.
    let e = Client::connect_to(&dead).unwrap_err();
    assert_eq!(e.code(), "connect", "{e}");
    assert!(e.retryable(), "connection refused must be retryable");
    assert!(matches!(e, ClientError::Connect(_)));

    // connect_to_with_retry exhausts its attempts with jittered backoff:
    // three attempts means two deterministic sleeps, so the elapsed time
    // is bounded below by delay(0) + delay(1).
    let policy = RetryPolicy { attempts: 3, base_ms: 30, max_ms: 200, seed: 7 };
    let floor = policy.delay(0) + policy.delay(1);
    let start = std::time::Instant::now();
    let e = Client::connect_to_with_retry(&dead, &policy).unwrap_err();
    let elapsed = start.elapsed();
    assert_eq!(e.code(), "connect", "{e}");
    assert!(
        elapsed >= floor,
        "retry must back off between attempts: elapsed {elapsed:?} < floor {floor:?}"
    );

    // The same refused endpoint through the request-level retry wrapper.
    let req = Json::object().set("op", "ping");
    let e = sarad::client::run_with_retry_to(&dead, &req, &RetryPolicy::none()).unwrap_err();
    assert_eq!(e.code(), "connect", "{e}");
}

#[test]
fn deadline_timeout_is_typed_and_retry_resumes_from_cached_stages() {
    let (opts, engine, serve) = start_server("deadline", 1, 8);
    // Every stage takes ~200 ms; the request budget is 100 ms. Each
    // attempt finishes exactly one more stage (which stays cached) and
    // then gets a typed timeout, so the third attempt completes.
    engine.set_stage_delay(Some(Duration::from_millis(200)));
    let mut client = Client::connect(&opts.socket).unwrap();
    let req = Json::object()
        .set("op", "run")
        .set("workload", "dotprod")
        .set("pnr_seed", 7)
        .set("deadline_ms", 100);

    let e = client.call(&req).unwrap_err();
    assert_eq!(e.code(), "timeout", "attempt 1: {e}");
    assert!(e.retryable());
    assert!(e.to_string().contains("retry resumes"), "{e}");
    assert_eq!(
        engine.stats.compiles_run.load(Ordering::Relaxed),
        1,
        "the compile finished before the deadline and must stay cached"
    );

    let e = client.call(&req).unwrap_err();
    assert_eq!(e.code(), "timeout", "attempt 2: {e}");
    assert_eq!(engine.stats.compiles_run.load(Ordering::Relaxed), 1, "no recompile on retry");
    assert_eq!(engine.stats.pnrs_run.load(Ordering::Relaxed), 1, "attempt 2 finished the PnR");

    let done = client.call(&req).unwrap();
    assert!(done.get("cycles").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(engine.stats.compiles_run.load(Ordering::Relaxed), 1);
    assert_eq!(engine.stats.pnrs_run.load(Ordering::Relaxed), 1);
    assert_eq!(engine.stats.sims_run.load(Ordering::Relaxed), 1);
    assert!(engine.stats.timeouts.load(Ordering::Relaxed) >= 2);

    // Timeouts are never negatively cached: with the delay disarmed the
    // same tuple under the same deadline is served from cache instantly.
    engine.set_stage_delay(None);
    let again = client.call(&req).unwrap();
    assert_eq!(
        again.get("cycles").and_then(Json::as_u64),
        done.get("cycles").and_then(Json::as_u64)
    );

    client.shutdown().unwrap();
    serve.join().unwrap();
}

#[test]
fn malformed_cache_budget_env_is_a_usage_error() {
    // A budget the service cannot parse must stop it with exit 2 and a
    // one-line diagnostic, as `--cache-budget lots` does — never serve
    // unbounded. Killed after a few seconds if it is serving instead.
    let cache = tmp("bad-budget-cache");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_sarad"))
        .env("SARAD_CACHE_BUDGET", "lots")
        .env("SARAD_CACHE_DIR", &cache)
        .env("SARAD_SOCKET", tmp("bad-budget.sock"))
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn sarad");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if std::time::Instant::now() >= deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    let _ = std::fs::remove_dir_all(&cache);
    assert_eq!(status.and_then(|s| s.code()), Some(2), "want exit 2, stderr:\n{stderr}");
    assert!(stderr.starts_with("error:") && stderr.contains("SARAD_CACHE_BUDGET"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "want a one-line diagnostic, got:\n{stderr}");
}
