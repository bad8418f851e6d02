//! The service-level chaos soak as an acceptance test: a seeded fault
//! schedule (torn writes, orphaned temps, disk-full, read errors, slow
//! stages past their deadline, simulated service crashes) driven
//! through the engine under a byte budget, plus transport abuse against
//! a live server. The contract under test is recover-or-explain: every
//! fault ends in a recovered bit-identical artifact, a degraded
//! compute, or a typed error — never a panic, a hang, or a corrupt
//! artifact served. `sarad-chaos` runs the same harness (with a
//! watchdog) as a CI gate; this test keeps it honest under plain
//! `cargo test`.

use sarad::chaos::{store_soak, transport_soak, ChaosPlan};
use sarad::{Engine, Listener, ServerOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sarad-chaos-test-{tag}-{}", std::process::id()))
}

#[test]
fn seeded_store_soak_upholds_the_recover_or_explain_contract() {
    let mut plan = ChaosPlan::seeded(0xc4a05);
    plan.ops = 25;
    let progress = AtomicU64::new(0);
    let report = store_soak(&tmp_dir("store"), &plan, &progress)
        .expect("every injected fault must resolve to recovered/degraded/typed-error");
    assert!(report.recovered > 0, "the soak must mostly succeed: {:?}", report);
    assert!(
        report.peak_bytes <= plan.budget,
        "budget ceiling violated: {} > {}",
        report.peak_bytes,
        plan.budget
    );
    assert!(report.restarts > 0 || plan.restart_pct == 0, "seed must exercise restarts");
    assert!(report.evictions > 0, "the budget must force evictions: {report:?}");
}

#[test]
fn second_seed_changes_the_schedule_but_not_the_contract() {
    let mut plan = ChaosPlan::seeded(0xdead_beef);
    plan.ops = 20;
    let progress = AtomicU64::new(0);
    let report = store_soak(&tmp_dir("seed2"), &plan, &progress).expect("contract must hold");
    assert!(report.recovered > 0, "{report:?}");
    assert!(report.evictions > 0, "the budget must force evictions: {report:?}");
}

#[test]
fn transport_abuse_never_wedges_the_server() {
    let dir = tmp_dir("transport");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServerOptions {
        socket: dir.join("sock"),
        cache_dir: dir.join("cache"),
        workers: 2,
        queue: 8,
        cache_budget: None,
    };
    let engine = Arc::new(Engine::open(&opts.cache_dir).unwrap());
    let serve = {
        let opts = opts.clone();
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || sarad::serve_with(&opts, engine).unwrap())
    };
    for _ in 0..200 {
        if opts.socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let progress = AtomicU64::new(0);
    transport_soak(&opts.socket, 0x7a05, 25, &progress)
        .expect("the server must survive garbage and dropped connections");
    let mut client = sarad::Client::connect(&opts.socket).unwrap();
    client.shutdown().unwrap();
    serve.join().unwrap();
}

#[test]
fn transport_soak_accepts_a_ping_shed_by_a_full_queue() {
    // One worker and a queue of one: a slow request holds the worker and
    // an abandoned connection fills the queue, so the soak's first op (a
    // ping, for seed 4) is shed with a typed backpressure line — the
    // documented answer to a full queue. The final ping retries until the
    // worker is free again.
    let dir = tmp_dir("shed");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServerOptions {
        socket: dir.join("sock"),
        cache_dir: dir.join("cache"),
        workers: 1,
        queue: 1,
        cache_budget: None,
    };
    let engine = Arc::new(Engine::open(&opts.cache_dir).unwrap());
    let listener = Listener::bind(&opts.endpoint()).unwrap();
    let serve = {
        let opts = opts.clone();
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || sarad::serve_on(listener, &opts, engine).unwrap())
    };
    // The ping's answer shows the worker has taken this connection; the
    // delay behind it then holds the worker for 150 ms, less than the
    // final ping's retries wait in total.
    let mut slow = UnixStream::connect(&opts.socket).unwrap();
    slow.write_all(b"{\"op\": \"ping\"}\n{\"op\": \"delay\", \"ms\": 150}\n").unwrap();
    slow.shutdown(Shutdown::Write).unwrap();
    let mut slow = BufReader::new(slow);
    let mut pong = String::new();
    slow.read_line(&mut pong).unwrap();
    assert!(pong.contains("\"ok\""), "{pong}");
    drop(UnixStream::connect(&opts.socket).unwrap());
    let progress = AtomicU64::new(0);
    transport_soak(&opts.socket, 4, 1, &progress)
        .expect("a shed ping is an explained outcome, and the final ping must end ok");
    let mut client = sarad::Client::connect(&opts.socket).unwrap();
    client.shutdown().unwrap();
    serve.join().unwrap();
}
