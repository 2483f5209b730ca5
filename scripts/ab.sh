#!/usr/bin/env bash
# Before/after for one or more workloads: this checkout against a checkout
# of its parent commit, under the protocol the gate uses.
#
#   scripts/ab.sh PARENT_CHECKOUT WORKLOAD[,WORKLOAD...] SEED SEED...
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
# (the two builds) and results/{parent,change}/ (the two result sets). The
# result sets are stamped with both trees — `git rev-parse HEAD` and a digest
# of `git diff HEAD` plus the untracked files, per side. When either tree
# differs from the stamp, every result file is removed; otherwise only the
# named workloads' earlier files are, other workloads' stay (several
# invocations on the same two trees add up to one comparison), and the
# workloads whose rows come from those earlier files are named before the
# table. Ten pairs = ten seeds; keep one seed unused while developing
# (choosing-metrics, section 8). One seed is refused (exit 2): with one run
# a side has no spread, and benchmark/compare.sh would print that one
# pair's noise as `regressed`.
#
# AB_RUN_ARGS is passed to both run.sh calls (default `--seconds 20`, the
# `run_seconds` of BENCHMARK.json), e.g. AB_RUN_ARGS="--seconds 6 --traced".
set -euo pipefail
if (($# < 4)); then
  echo "usage: scripts/ab.sh PARENT_CHECKOUT WORKLOAD[,WORKLOAD...] SEED SEED..." >&2
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

tree_stamp() { # checkout: its commit and a digest of its changes on top
  local digest
  digest="$(cd "$1" && { git diff HEAD --binary
    git ls-files --others --exclude-standard -z | xargs -0 -r sha256sum; } | sha256sum)"
  echo "$(git -C "$1" rev-parse HEAD) ${digest%% *}"
}
stamp="parent $(tree_stamp "$parent")
change $(tree_stamp "$change")"
if [[ "$(cat "$ab/results/stamp" 2>/dev/null)" != "$stamp" ]]; then
  rm -f "$ab"/results/{parent,change}/*
  echo "$stamp" >"$ab/results/stamp"
fi
for workload in "${workloads[@]}"; do
  rm -f "$ab"/results/{parent,change}/"$workload".*
done
earlier="$(find "$ab"/results/{parent,change} -maxdepth 1 -type f -name '*.json' -printf '%f\n' |
  sed 's/\..*//' | sort -u | tr '\n' ' ')"

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

if [[ -n "$earlier" ]]; then
  echo "ab.sh: rows for ${earlier% } come from earlier invocations on these two trees" >&2
fi
CARGO_TARGET_DIR="$ab/change-target" bash benchmark/compare.sh "$ab/results/parent" "$ab/results/change"
