#!/usr/bin/env bash
# Simulator- and compile-throughput gate: the pipeline benchmark
# (perfbench/) built at BASE and at HEAD, run in interleaved pairs on
# this host, HEAD judged against BASE.
#
#   scripts/perf_gate.sh BASE
#
# BASE is any commit (a pull request's merge-base, the previous main
# commit, HEAD~1). Each commit is exported with `git archive` into a
# temporary directory outside the repository and built there (--offline,
# one target directory each), so the working tree, its target/ and .git
# are left alone; uncommitted changes are not measured. Both commits are
# built from the same source path, one after the other: crate hashes and
# embedded paths derive from it, so for unchanged code the two binaries
# are byte-identical and only the change itself can move code layout.
#
# Each pair runs BASE and HEAD back to back on `simlong`, `fabric20` and
# `multichip` (the one workload that runs `simulate_system`, whose
# per-chip DRAM controllers the single-chip workloads never exercise),
# traced (--trace 1), alternating which side goes first, each run in a
# fresh working directory. From every run's result line the gate reads
# `sim.cycles_per_s`: simulated cycles per second of the sim layer's
# self time, scaled to perfbench's reference host speed. From the same
# `fabric20` runs it also reads `core.compile_s`, the compiler's self
# time per pass (six designs on the 20x20 fabric), so a compiler
# slowdown fails the gate without adding runs. Two runs back to back see
# the same host phase, so a pair's ratio cancels most of the host's
# drift, and the median over pairs the rest. The ratio is HEAD / BASE
# for a rate and BASE / HEAD for a time: below 1, HEAD is slower.
#
# Exit status: 0 when every run verified all its ops and every gate's
# median ratio over pairs is at least BOUND; 1 when a run fails or
# reports "correct": false, or a median falls below BOUND; 2 on a usage
# or build error.
set -euo pipefail

PAIRS=5 # odd, so the median is one pair's ratio
RUN_SECONDS=8
SEED=7
BOUND=0.80
WORKLOADS=(simlong fabric20 multichip)
# workload, metric, and whether it is a rate (higher is better) or a time
GATES=(
  "simlong sim.cycles_per_s rate"
  "fabric20 sim.cycles_per_s rate"
  "multichip sim.cycles_per_s rate"
  "fabric20 core.compile_s time"
)

usage() {
  echo "usage: $0 BASE" >&2
  exit 2
}
[[ $# -eq 1 ]] || usage

repo=$(cd "$(dirname "$0")/.." && pwd)
base=$(git -C "$repo" rev-parse --verify --quiet "$1^{commit}") \
  || { echo "error: $1 is not a commit" >&2; exit 2; }
head=$(git -C "$repo" rev-parse --verify HEAD^{commit})
work=$(mktemp -d "${TMPDIR:-/tmp}/perf-gate.XXXXXX")
trap 'rm -rf "$work"' EXIT
started=$(date +%s)

declare -A bin
for side in base head; do
  rev=${!side}
  echo "== build perfbench at $side ${rev:0:12}"
  rm -rf "$work/src"
  mkdir -p "$work/src"
  git -C "$repo" archive "$rev" | tar -x -C "$work/src"
  [[ -f "$work/src/perfbench/Cargo.toml" ]] \
    || { echo "error: ${rev:0:12} has no perfbench/" >&2; exit 2; }
  CARGO_TARGET_DIR="$work/target-$side" \
    cargo build --release --offline --quiet --manifest-path "$work/src/perfbench/Cargo.toml" \
    || { echo "error: perfbench does not build at ${rev:0:12}" >&2; exit 2; }
  bin[$side]="$work/target-$side/release/perfbench"
done

# Run one side once; prints its result line, or fails the gate.
run() {
  local side=$1 workload=$2 pair=$3
  local dir="$work/runs/$workload-$pair-$side"
  mkdir -p "$dir"
  if ! (cd "$dir" && "${bin[$side]}" --workload "$workload" --seed "$SEED" \
    --seconds "$RUN_SECONDS" --trace 1 > out.json 2> err.txt); then
    echo "FAIL: $side perfbench exited nonzero on $workload (pair $pair):" >&2
    tail -n 5 "$dir/err.txt" >&2
    exit 1
  fi
  local line
  line=$(tail -n 1 "$dir/out.json")
  if [[ "$line" != '{"correct": true,'* ]]; then
    echo "FAIL: $side did not verify every op on $workload (pair $pair):" >&2
    grep failed "$dir/err.txt" | head -n 5 >&2 || true
    exit 1
  fi
  echo "$line"
}

# Prints metric $2's value from $1's result line $3, or fails the gate.
metric() {
  local value
  value=$(sed -n "s/.*\"${2//./\\.}\": {\"value\": \([^,]*\),.*/\1/p" <<<"$3")
  [[ -n "$value" ]] || { echo "FAIL: no $2 from $1" >&2; exit 1; }
  echo "$value"
}

declare -A ratios
for ((pair = 1; pair <= PAIRS; pair++)); do
  if ((pair % 2)); then order=(base head); else order=(head base); fi
  for workload in "${WORKLOADS[@]}"; do
    declare -A line=()
    for side in "${order[@]}"; do
      line[$side]=$(run "$side" "$workload" "$pair")
    done
    for gate in "${GATES[@]}"; do
      read -r on name kind <<<"$gate"
      [[ "$on" == "$workload" ]] || continue
      b=$(metric base "$name" "${line[base]}")
      h=$(metric head "$name" "${line[head]}")
      ratio=$(awk -v h="$h" -v b="$b" -v k="$kind" 'BEGIN { printf "%.4f", k == "rate" ? h / b : b / h }')
      ratios[$gate]+="$ratio "
      printf '%-9s pair %d (%s first): %s base %.6g head %.6g, ratio %s\n' \
        "$workload" "$pair" "${order[0]}" "$name" "$b" "$h" "$ratio"
    done
  done
done

status=0
for gate in "${GATES[@]}"; do
  read -r on name kind <<<"$gate"
  median=$(tr ' ' '\n' <<<"${ratios[$gate]}" | grep . | sort -g | sed -n "$(((PAIRS + 1) / 2))p")
  if awk -v m="$median" -v b="$BOUND" 'BEGIN { exit !(m >= b) }'; then
    verdict=pass
  else
    verdict=FAIL
    status=1
  fi
  echo "$on $name: median ratio over $PAIRS pairs $median (bound $BOUND): $verdict"
done
echo "perf gate: base ${base:0:12}, head ${head:0:12}, seed $SEED, ${RUN_SECONDS} s runs," \
  "wall $(($(date +%s) - started)) s"
exit "$status"
