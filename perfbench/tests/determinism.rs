//! Determinism of the benchmark's outputs: one-pass runs of each
//! workload with the same seed report identical simulated and compiled
//! figures and per-layer counts, and another seed moves the placements
//! and still verifies. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use sara_util::json::Json;
use std::process::Command;

const SEED: u64 = 11;
const OTHER_SEED: u64 = 12;

/// Per-layer counts that must repeat exactly for one seed.
const COUNTS: [&str; 6] = [
    "pnr.iterations",
    "pnr.wirelength",
    "sim.firings",
    "shard.crossings",
    "dse.points_explored",
    "sarad.compiles_run",
];

/// Run one pass of `workload` and return its checked result line.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let line = stdout.lines().last().expect("a result line");
    let doc = Json::parse(line).expect("result line is JSON");
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true), "{workload}: {line}");
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0), "{workload}: {line}");
    doc
}

fn metric(doc: &Json, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn check(workload: &str, placements_move: bool) {
    let (a, b) = (run(workload, SEED, false), run(workload, SEED, false));
    for name in ["sim_cycles_geomean", "pus_total"] {
        assert_eq!(metric(&a, name), metric(&b, name), "{workload}: {name}");
    }
    let (a, b) = (run(workload, SEED, true), run(workload, SEED, true));
    for name in COUNTS {
        assert_eq!(metric(&a, name), metric(&b, name), "{workload}: {name}");
    }
    let other = run(workload, OTHER_SEED, true);
    if placements_move {
        assert_ne!(
            metric(&a, "pnr.wirelength"),
            metric(&other, "pnr.wirelength"),
            "{workload}: seed {OTHER_SEED} kept every placement of seed {SEED}"
        );
    }
}

#[test]
fn fabric20_is_deterministic() {
    check("fabric20", true);
}

#[test]
fn simlong_is_deterministic() {
    check("simlong", true);
}

#[test]
fn multichip_is_deterministic() {
    check("multichip", true);
}

/// The tune workload reports no placements; its second seed only has to
/// verify.
#[test]
fn tune_is_deterministic() {
    check("tune", false);
}

#[test]
fn unknown_workload_exits_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "0", "--trace", "0"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
