#!/usr/bin/env bash
# Compares two result sets under the bounds of BENCHMARK.json.
#
#   benchmark/compare.sh A B
#
# A and B are directories of result files as benchmark/run.sh --out writes
# them (any number of runs per workload; runs made with different --seed
# values accumulate in one directory). One row per (metric, workload):
# ok / regressed / unresolved; exact counts must be equal for every seed
# both sets ran. Exits 1 when a row is `regressed`.
set -euo pipefail
if (($# != 2)); then
  echo "usage: benchmark/compare.sh A B" >&2
  exit 2
fi
a="$(realpath "$1")"
b="$(realpath "$2")"
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
"$CARGO_TARGET_DIR/release/cnb-benchmark" compare BENCHMARK.json "$a" "$b"
