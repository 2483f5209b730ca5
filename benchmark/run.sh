#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--traced] [--repeat K] [--out DIR] [--smoke]
#
# With --workload: one run of that workload; the last line of standard
# output is the result object (the form BENCHMARK.json's `command` is
# called in). Without: all five workloads, one process each.
#   --traced    after each end-to-end run, the traced (per-layer) run too
#   --repeat K  run everything K times into DIR/set1..setK, then compare
#               set1 with set2 (benchmark/compare.sh): the self-agreement check
#   --out DIR   result files and traces (default: <target dir>/results)
# Everything is built into and written under ${CARGO_TARGET_DIR:-target/benchmark}.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
workloads=(serve_point serve_star serve_churn optimize_cold exec_analytic)
pass=()
traced=0
repeat=1
out="$CARGO_TARGET_DIR/results"
while (($#)); do
  case "$1" in
    --workload) workloads=("$2"); shift 2 ;;
    --traced) traced=1; shift ;;
    --repeat) repeat="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) pass+=("$1"); shift ;;
    --seed | --seconds | --trace) pass+=("$1" "$2"); shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

echo "==> cargo build --release --offline --manifest-path benchmark/Cargo.toml" >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# Same rule as scripts/bench_record.sh: a missing binary, or one older than
# a source file it is built from, would measure some other code.
bin="$CARGO_TARGET_DIR/release/cnb-benchmark"
if [[ ! -x "$bin" ]]; then
  echo "error: $bin missing after the release build — refusing to measure" >&2
  exit 1
fi
stale=$(find crates/ir/src crates/core/src crates/engine/src crates/workloads/src benchmark/src \
  -name '*.rs' -newer "$bin" -print -quit)
if [[ -n "$stale" ]]; then
  echo "error: release build is stale ($stale is newer than $bin) — refusing to measure" >&2
  exit 1
fi

CNB_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export CNB_BENCH_COMMIT

for ((k = 1; k <= repeat; k++)); do
  dir="$out"
  if ((repeat > 1)); then dir="$out/set$k"; fi
  for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --out "$dir" "${pass[@]}"
    if ((traced)); then
      "$bin" --workload "$w" --out "$dir" "${pass[@]}" --trace 1
    fi
  done
done
if ((repeat > 1)); then
  "$bin" compare BENCHMARK.json "$out/set1" "$out/set2"
fi
