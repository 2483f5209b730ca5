#!/usr/bin/env bash
# Before/after for one or more workloads: this checkout against a checkout
# of its parent commit, under the protocol the gate uses.
#
#   scripts/ab.sh PARENT_CHECKOUT WORKLOAD[,WORKLOAD...] SEED...
#
# PARENT_CHECKOUT is a second copy of the repository at the parent commit
# (`git clone . /root/scratch/parent`, never `git worktree`). Each side is
# built by its own `benchmark/run.sh` from its own sources into its own
# target directory, then every workload runs once per side per SEED, the
# side that goes first alternating from pair to pair (parent first on the
# 1st, 3rd, ...). Ends with `benchmark/compare.sh PARENT CHANGE` over
# everything run: one row per metric and workload with the bounds of
# BENCHMARK.json, and the exact counts (`sweep_*`, `cycle_*`) checked equal
# seed by seed. Exits as compare.sh does: 1 when a row is `regressed`.
#
# A comma-separated list makes the claimed workload and the ones that must
# not move one command and one table:
#   scripts/ab.sh P optimize_cold,serve_churn,serve_point,serve_star,exec_analytic 7 8 9
#
# Everything lands under target/ab/ of this checkout: {parent,change}-target/
# (the two builds) and results/{parent,change}/ (the two result sets; the
# named workloads' earlier files are removed first, other workloads' stay, so
# several invocations add up to one comparison). Ten pairs = ten seeds; keep
# one seed unused while developing (choosing-metrics, section 8).
#
# AB_RUN_ARGS is passed to both run.sh calls (default `--seconds 20`, the
# `run_seconds` of BENCHMARK.json), e.g. AB_RUN_ARGS="--seconds 6 --traced".
set -euo pipefail
if (($# < 3)); then
  echo "usage: scripts/ab.sh PARENT_CHECKOUT WORKLOAD[,WORKLOAD...] SEED..." >&2
  exit 2
fi
parent="$(realpath "$1")"
IFS=, read -r -a workloads <<<"$2"
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
for workload in "${workloads[@]}"; do
  rm -f "$ab"/results/{parent,change}/"$workload".*
done

run_side() { # side checkout workload seed
  echo "==> $1: $3 seed $4" >&2
  CARGO_TARGET_DIR="$ab/$1-target" bash "$2/benchmark/run.sh" \
    --workload "$3" --seed "$4" --out "$ab/results/$1" "${run_args[@]}" | tail -n 1
}

first=parent
for seed in "$@"; do
  for workload in "${workloads[@]}"; do
    if [[ $first == parent ]]; then
      run_side parent "$parent" "$workload" "$seed"
      run_side change "$change" "$workload" "$seed"
      first=change
    else
      run_side change "$change" "$workload" "$seed"
      run_side parent "$parent" "$workload" "$seed"
      first=parent
    fi
  done
done

CARGO_TARGET_DIR="$ab/change-target" bash benchmark/compare.sh "$ab/results/parent" "$ab/results/change"
