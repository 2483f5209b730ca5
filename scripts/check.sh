#!/usr/bin/env bash
# Full local gate: formatting, lints, and the tier-1 verify command.
# Everything runs offline — the workspace has no registry dependencies.
#
# No tier sets a thread count: there is no such knob. Both backchase
# searches are sequential, and every suite that drives the serving pool
# passes `threads` to serve_batch{,_under} explicitly (1/2/4/8) — the one
# place a thread count comes from.
#
# Each `==> tier` header is followed (when the next tier starts) by the
# wall-clock seconds the tier took, so a slow regression shows up in the
# transcript without any external timing harness.
set -euo pipefail
cd "$(dirname "$0")/.."

_tier_name=""
_tier_t0=0
tier_done() {
  if [[ -n "$_tier_name" ]]; then
    echo "    ... ${_tier_name} done in $((SECONDS - _tier_t0))s"
  fi
  _tier_name=""
}
tier() {
  tier_done
  _tier_name="$1"
  _tier_t0=$SECONDS
  echo "==> $1"
}

tier "cargo fmt --check"
cargo fmt --check

# Clippy is the one enforcer of clippy.toml, the workspace's one
# determinism ban list, by type and in every target. Each sanctioned use sits
# under #[expect(clippy::disallowed_methods)] or
# #[expect(clippy::disallowed_types)]; this tier is where a stale one fails
# ("this lint expectation is unfulfilled"). crates/engine/src/serving.rs and
# pressure.rs forbid clippy::disallowed_methods, so a wall-clock read there
# fails even under an #[expect]. cnb_core, cnb_engine and cnb_ir deny
# clippy::panic and clippy::unreachable outside their tests; each sanctioned
# panic sits under #[expect(clippy::panic)]. The sanctions are counted per
# crate by crates/analyze/tests/workspace_clean.rs in the next-but-one tier.
tier "cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

tier "cargo build --release"
cargo build --release

# Semantic-analysis tier: cnb-analyze's tests, release profile. The suite
# pass optimizes each workload once and runs the semantic validator (schema,
# constraints — including the weak-acyclicity chase termination check —
# query, and every backchase-emitted plan) and the AGM-bound plan certifier
# over the same plans; the negative corpus pins each validator discipline
# and the golden AGM verdicts; workspace_clean pins every clippy sanction
# per crate and lint (allow or expect, outer or inner). Fast, so it runs
# ahead of every other test tier: a finding here makes the test failures
# downstream redundant.
tier "cnb-analyze tests (suite validation + AGM certification + sanction pins), release profile"
cargo test --release -q -p cnb-analyze

# Figures tier: the README's quick sanity run, so it cannot rot. One figure
# end to end through the `figures` command line (argument parsing, dataset
# generation, optimization, execution of every plan); it must exit 0 and
# print a markdown table. tests/smoke.rs renders all nine at smoke scale.
tier "figures fig9 --rows 200 --timeout 20 (README sanity run)"
fig9=$(cargo run --release -q -p cnb-bench --bin figures -- fig9 --rows 200 --timeout 20)
if ! grep -q '^|---' <<<"$fig9"; then
  echo "error: figures fig9 printed no markdown table:" >&2
  printf '%s\n' "$fig9" >&2
  exit 1
fi

# Benchmark tier: benchmark/ is its own workspace, so nothing above compiles
# it — an API rename in cnb_engine/cnb_core would pass every other tier and
# break the gate that BENCHMARK.json runs on each PR. Its own tests build
# it and drive all five workloads at smoke sizes.
tier "benchmark/ smoke (cargo test --manifest-path benchmark/Cargo.toml)"
cargo test -q --manifest-path benchmark/Cargo.toml

# Door tier: the four ill-formed requests (unbound select variable, unbound
# where variable, duplicate binding, forward range reference) through
# PlanServer::serve and serve_batch_under on EC4 and EC1, in the release
# profile — where the optimizer's debug_assert! entry guards are compiled
# out, so the check PlanServer::plan runs is the only thing between such a
# request and a panic or a silently wrong cached answer. Beside them, one
# well-formed EC1 request under OQF whose output spans two fragments must
# get FB's rows, and the ground-equality sequence `r.K = 3 and r.K = 3`,
# `3, 4`, `4, 4`: the first caches a template plan with `?0 = ?1`, the other
# two hit it with `3 = 4` and `4 = 4` bound in, and each must get the rows
# `execute` gives on the request as written. And four constraint sets the
# optimizer refuses when it is built (cnb_core::strata::certify): the
# diverging pair `R.A ⊆ S.A`, `S.B ⊆ R.B` (not weakly acyclic; once chased
# to its cap and served as written) and three ill-scoped TGDs — an
# existential range over an unbound variable (once a panic in the release
# chase), a conclusion over an unbound variable and a premise over an
# existential one (once served silently). For each, `optimize` and
# `optimize_measured` run no chase and return no plan, `plan` moves no
# cache counter, and `serve` / `serve_batch_under` (1 and 4 threads) return
# ServeError::Uncertified. The debug profile runs the same file as part of
# `cargo test -q` below. Beside it, cnb-ir's tests: the parser is the other
# untrusted-input door, and whether text nested past its depth bound is
# refused before it outruns the stack depends on the profile's stack
# frames, so the bound is checked in release too (100 000 nested `M[`).
tier "serving door + parser, release profile (ill-formed requests and texts are refused typed)"
cargo test --release -q -p cnb-engine --test door
cargo test --release -q -p cnb-ir

# Backchase kernel tier, release profile: the seven files that hold a change
# to the congruence closure, the homomorphism search, the chase, subquery
# induction, the lattice's borders (and the memo that keeps them across
# searches) or the bottom-up search's pricing to "same search, no garbage".
# alloc_audit
# counts heap allocations per explored candidate on the four full-backchase benchmark points and per explored-or-pruned candidate
# on the bottom-up pass of the two measured ones, and per generic-join call
# on the two EC5 graphs of exec_analytic (its ceilings are asserted
# in release only — a debug build validates every induced query and re-proves
# every inferred verdict); plan_text_golden pins every plan's text, order,
# `explored` / `pruned` / `universal_arity` / `inferred` for the nine
# optimize_cold configurations, both backchase traversals and a capped run;
# induction_differential holds every verdict on every subset of five
# universal plans, in three orders, to a fresh-database oracle, and every
# candidate loaded straight from the universal plan to the closure of its
# induced query — in release, where no debug re-proof stands behind the
# borders. chase_differential holds the chase, which skips a constraint
# with nothing new to match, to the round loop that searches every
# constraint every round: same steps, same terms, same rounds, on the
# optimize_cold universal plans, every EC2/EC3 candidate and a capped
# runaway chase. floor_soundness holds
# `PlanPricer::floor <= price` on every well-formed subset of seven universal
# plans under both pricers and six models, and floor_differential holds the
# search with the floor to the search without it (and the cost kernel to the
# loop it replaced, bit for bit) — in release, where the `debug_assert!` on
# every priced candidate is compiled out. skeleton_memo holds the plan
# server's second cache level (verdict borders kept per query skeleton) to
# cold optimization on all 64 EC2 select arrangements and the other four
# families, audits that a select set already proved runs no chase, and
# checks that nothing crosses to another skeleton and that a miss computes
# no generic-join twin — in release, where imported verdicts are trusted,
# not re-proved. The debug profile runs all
# seven as part of `cargo test -q` below.
tier "alloc audit + plan-text golden + induction/chase differentials + floor soundness/differential + skeleton memo, release profile"
cargo test --release -q --test alloc_audit --test plan_text_golden --test induction_differential \
  --test chase_differential --test floor_soundness --test floor_differential
cargo test --release -q -p cnb-engine --test skeleton_memo

# Operator kernel tier, release profile: the files that hold a change to
# the candidate loop of `Bind` / `DictJoin` (`join::Sink`, the path
# evaluator in `batch.rs`), to their build sides (a hash join builds its
# table when it first runs with rows; a `dict_join` reads its dictionary
# once, for the values its rows ask for) or to the generic join's kernel
# (`wcoj.rs`: its shared, coded indexes and galloping seeks) to "same
# rows, same order, same counts" — in the profile the benchmark runs,
# where the evaluator is inlined into every candidate loop and a filter
# side that reads no candidate is read once per input row.
# dict_join_differential holds fused index pairs and a family of residual
# filters (row sides through nested fields, partial lookups and constants;
# filters between a pair's two candidate slots) to the nested-loop oracle,
# rows, order and the per-operator filter cascade; owned_paths_differential
# does the same for the paths evaluation builds (`struct(…)`);
# wcoj_differential holds the generic join to the binary pipeline and the
# oracle on EC5 and on a seeded mixed-kind family (shared and reversed
# indexes, absent and other-kind pins, a hub of degree 120), whose order
# digests, `tuples_considered` and operator stats are pinned; the `join::`
# unit tests pin what each access path binds, the deferred build (nothing
# built behind an empty input) and the one-pass `dict_join`'s grouping and
# row-id overflow; the `wcoj::`
# unit tests pin the generic join's stats and order on small graphs and
# hold its coded comparison to `cmp_value` on every pair of a generated
# corpus; operator_stats_golden pins every `OpStats` entry of EC1, EC2,
# EC4 and EC5 plans; plan_execution_agreement pins the EC1–EC3 plans'
# exact rows and order. The generic join's allocations per call are
# tests/alloc_audit.rs's, in the backchase kernel tier above.
# The debug profile runs all of them as part of `cargo test -q` below.
tier "operator kernels: dict_join/owned-path/WCOJ differentials + join:: and wcoj:: unit tests + operator-stats golden + plan-execution agreement, release profile"
cargo test --release -q -p cnb-engine --test dict_join_differential --test owned_paths_differential \
  --test wcoj_differential
cargo test --release -q -p cnb-engine --lib join::
cargo test --release -q -p cnb-engine --lib wcoj::
cargo test --release -q -p cnb-workloads --test operator_stats_golden --test plan_execution_agreement

# The full debug suite, run once: every debug-profile test runs here and
# nowhere else in this script — the engine-only differentials (dict_join,
# owned paths, WCOJ), the EC4/EC5 goldens, serving smoke, the pressure suite
# and tests/property_based.rs among them. Debug builds audit the congruence
# undo trail's full invariants (hash-consing bijective, member lists a
# partition, union-find agreement) after every rollback, so there is no
# second pass with an audit switch.
tier "cargo test -q"
cargo test -q

# Determinism gate: execution row order must be a pure function of
# (db, plan). Two *separate processes* run the quickstart example (which
# asserts exact row order internally and prints rows to stdout); their
# stdout must be byte-identical — this is what a randomly seeded hash-map
# iteration anywhere in the scan/join path would break.
tier "determinism gate: quickstart twice, stdout must be byte-identical"
cargo build --release -q --example quickstart
qs=target/release/examples/quickstart
run1=$("$qs" 2>/dev/null)
run2=$("$qs" 2>/dev/null)
if [[ "$run1" != "$run2" ]]; then
  echo "error: quickstart stdout differs across runs — execution is nondeterministic" >&2
  diff <(printf '%s\n' "$run1") <(printf '%s\n' "$run2") >&2 || true
  exit 1
fi
tier_done

echo "All checks passed."
