#!/usr/bin/env bash
# Full local verification: build, tests (incl. bench-binary smoke tests),
# formatting, and lints. CI should run exactly this.
#
#   --quick          skip the release build and run the cheap checks first
#                    (fmt, clippy, debug tests) — used by the CI lint job so
#                    style failures surface in seconds, not after a full
#                    build.
#   --fuzz-budget N  additionally run the differential fuzzer over N random
#                    programs (fixed seed, artifacts under fuzz-artifacts/).
#                    A divergence or panic fails verification.
#   --faults         additionally run the seeded fault-injection campaign
#                    over every registry workload (fixed seed). Any panic or
#                    undiagnosed hang under an injected fault fails
#                    verification; the JSON report lands in results/.
#   --bench          additionally run the simulator- and compile-
#                    throughput gate (scripts/perf_gate.sh) with HEAD~1
#                    as the base: the pipeline benchmark (perfbench/)
#                    built at both commits, interleaved traced pairs on
#                    simlong, fabric20 and multichip, failing when HEAD's
#                    median sim.cycles_per_s falls below 0.80 of the
#                    base's on any of them, or when BASE / HEAD of
#                    fabric20's core.compile_s does — what the CI perf-gate job
#                    runs against a merge-base. It measures commits, not
#                    the working tree. Then run the pipeline benchmark's
#                    determinism tests: per-seed placement and simulation
#                    counts repeat.
#   --chaos          additionally run the sarad service-level chaos soak
#                    (two fixed seeds): fault-injected store, byte budget,
#                    crash restarts, transport abuse. Any panic, hang, or
#                    corrupt artifact served fails verification.
#   --multichip      additionally run the multi-chip scale-out gate (smoke
#                    scale): the 1-vs-4-chip sweep over the embarrassingly
#                    parallel workloads plus one full sarac --system run.
#                    Any of them failing to beat its 1-chip baseline fails
#                    verification, as does a fault-injected, sanitized
#                    sarac --system run whose sim line differs from the
#                    single-chip one — what the CI multichip-smoke job runs.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
fuzz_budget=0
faults=0
bench=0
chaos=0
multichip=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) quick=1 ;;
    --fuzz-budget)
      shift
      [[ $# -gt 0 ]] || { echo "error: --fuzz-budget requires a value" >&2; exit 2; }
      fuzz_budget="$1"
      [[ "$fuzz_budget" =~ ^[0-9]+$ ]] || { echo "error: --fuzz-budget must be an integer, got '$fuzz_budget'" >&2; exit 2; }
      ;;
    --faults) faults=1 ;;
    --bench) bench=1 ;;
    --chaos) chaos=1 ;;
    --multichip) multichip=1 ;;
    *) echo "usage: $0 [--quick] [--fuzz-budget N] [--faults] [--bench] [--chaos] [--multichip]" >&2; exit 2 ;;
  esac
  shift
done

run_fuzz() {
  if [[ "$fuzz_budget" -gt 0 ]]; then
    echo "== sara-fuzz ($fuzz_budget cases, fixed seed)"
    cargo run --release -q -p sara-fuzz --bin sara-fuzz -- \
      --cases "$fuzz_budget" --seed 23162 --artifact-dir fuzz-artifacts
  fi
}

run_faults() {
  if [[ "$faults" == 1 ]]; then
    echo "== fault-campaign (seeded plans, every registry workload)"
    cargo run --release -q -p sara-bench --bin fault-campaign -- \
      --plans 6 --seed 1025559 --out fault_campaign
  fi
}

run_chaos() {
  if [[ "$chaos" == 1 ]]; then
    echo "== sarad-chaos (two fixed seeds)"
    cargo build --release -q -p sarad --bin sarad-chaos
    ./target/release/sarad-chaos --seed 803405 --ops 60 --watchdog-secs 60
    ./target/release/sarad-chaos --seed 3735928559 --ops 60 --watchdog-secs 60
  fi
}

run_multichip() {
  if [[ "$multichip" == 1 ]]; then
    echo "== multichip (smoke scale, scale-out gate)"
    SARA_BENCH_SMOKE=1 SARA_BENCH_RESULTS_DIR="${SARA_BENCH_RESULTS_DIR:-multichip-artifacts}"       cargo run --release -q -p sara-bench --bin multichip
    cargo run --release -q -p sara-bench --bin sarac -- gemm --system 4x8x8 --simulate
    echo "== sarac --system with faults and sanitizer (must match one chip)"
    local sys one
    sys=$(cargo run --release -q -p sara-bench --bin sarac -- gemm --system 4x8x8 --simulate \
      --faults examples/gemm-faults.plan --sanitize | grep '^sim:')
    one=$(cargo run --release -q -p sara-bench --bin sarac -- gemm --simulate \
      --faults examples/gemm-faults.plan --sanitize | grep '^sim:')
    echo "system: $sys"
    echo "single: $one"
    [[ "$sys" == "$one" ]] || { echo "error: system and single-chip sim lines differ" >&2; exit 1; }
  fi
}

run_bench() {
  if [[ "$bench" == 1 ]]; then
    echo "== perf gate (HEAD against HEAD~1, perfbench simlong, fabric20 and multichip sim throughput + fabric20 compile time)"
    scripts/perf_gate.sh HEAD~1
    echo "== perfbench determinism tests"
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
  fi
}

if [[ "$quick" == 1 ]]; then
  echo "== cargo fmt --check"
  cargo fmt --all -- --check

  echo "== cargo clippy -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings

  echo "== cargo test"
  cargo test -q --workspace

  run_fuzz
  run_faults
  run_bench
  run_chaos
  run_multichip

  echo "verify (quick): OK"
  exit 0
fi

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test"
cargo test -q --workspace

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

run_fuzz
run_faults
run_bench
run_chaos
run_multichip

echo "verify: OK"
