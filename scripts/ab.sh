#!/usr/bin/env bash
# Before/after for one workload: this checkout against a checkout of its
# parent commit, under the protocol the gate uses.
#
#   scripts/ab.sh PARENT_CHECKOUT WORKLOAD SEED...
#
# PARENT_CHECKOUT is a second copy of the repository at the parent commit
# (`git clone . /root/scratch/parent`, never `git worktree`). Each side is
# built by its own `benchmark/run.sh` from its own sources into its own
# target directory, then the workload runs once per side per SEED, the side
# that goes first alternating from seed to seed (parent first on the 1st,
# 3rd, ...). Ends with `benchmark/compare.sh PARENT CHANGE` over everything
# run: one row per metric with the bounds of BENCHMARK.json, and the exact
# counts (`sweep_*`, `cycle_*`) checked equal seed by seed. Exits as
# compare.sh does: 1 when a row is `regressed`.
#
# Everything lands under target/ab/ of this checkout: {parent,change}-target/
# (the two builds) and results/{parent,change}/ (the two result sets; this
# workload's earlier files are removed first, other workloads' stay, so
# several invocations add up to one comparison). Ten pairs = ten seeds; keep
# one seed unused while developing (choosing-metrics, section 8).
#
# AB_RUN_ARGS is passed to both run.sh calls (default `--seconds 20`, the
# `run_seconds` of BENCHMARK.json), e.g. AB_RUN_ARGS="--seconds 6 --traced".
set -euo pipefail
if (($# < 3)); then
  echo "usage: scripts/ab.sh PARENT_CHECKOUT WORKLOAD SEED..." >&2
  exit 2
fi
parent="$(realpath "$1")"
workload="$2"
shift 2
cd "$(dirname "$0")/.."
change="$PWD"
if [[ ! -f "$parent/benchmark/run.sh" || "$parent" == "$change" ]]; then
  echo "ab.sh: $parent is not a second checkout with benchmark/run.sh" >&2
  exit 2
fi
read -r -a run_args <<<"${AB_RUN_ARGS:---seconds 20}"

ab="$change/target/ab"
mkdir -p "$ab/results/parent" "$ab/results/change"
rm -f "$ab"/results/{parent,change}/"$workload".*

run_side() { # side checkout seed
  echo "==> $1: $workload seed $3" >&2
  CARGO_TARGET_DIR="$ab/$1-target" bash "$2/benchmark/run.sh" \
    --workload "$workload" --seed "$3" --out "$ab/results/$1" "${run_args[@]}" | tail -n 1
}

first=parent
for seed in "$@"; do
  if [[ $first == parent ]]; then
    run_side parent "$parent" "$seed"
    run_side change "$change" "$seed"
    first=change
  else
    run_side change "$change" "$seed"
    run_side parent "$parent" "$seed"
    first=parent
  fi
done

CARGO_TARGET_DIR="$ab/change-target" bash benchmark/compare.sh "$ab/results/parent" "$ab/results/change"
