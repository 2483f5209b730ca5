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

# Clippy enforces clippy.toml, the workspace's one determinism ban list, by
# type. Each sanctioned use sits under #[expect(clippy::disallowed_methods)]
# or #[expect(clippy::disallowed_types)]; this tier is where a stale one
# fails ("this lint expectation is unfulfilled").
tier "cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

tier "cargo build --release"
cargo build --release

# Static-analysis tier: every prong of cnb-analyze in one pass — one
# determinism scan (clippy.toml's entries matched line by line in the four
# logic crates and the experiment harness, unsanctioned needles and stale #[expect]s reported, each
# unsanctioned needle propagated to its callers over the scraped call
# graph, wall-clock reads in the serving layer denied outright), the
# semantic validator (every
# suite workload's schema, constraints — including the weak-acyclicity
# chase termination check — query, and every backchase-emitted plan), and
# the AGM-bound plan certifier. Offline and fast, so it runs ahead of every
# test tier: a finding here makes the test failures downstream redundant.
# The machine-readable report lands in target/cnb-analyze.json either way.
tier "cnb-analyze all (taint + validate-suite + AGM certify)"
analysis_json=target/cnb-analyze.json
if ! cargo run --release -q -p cnb-analyze -- all . --json "$analysis_json"; then
  echo "error: cnb-analyze found problems — JSON findings at $analysis_json" >&2
  exit 1
fi

# Fast-fail gate: the EC4/EC5 golden + differential suites (star-schema and
# cyclic-join workloads, exact row order, batched-vs-legacy oracle) run
# first and explicitly — they are also part of the full
# `cargo test -q` run below, but failing them early makes a workload
# regression obvious before the whole tier finishes (the EC4/EC5 halves of
# the backchase's run-twice determinism suite ride along). ec4_star
# holds the two EC4 work guards — ec4_plans_execute_without_cross_products
# (every plan within 4 × |F| tuples) and ec4_served_plan_probes_its_index_pair
# (the plan PlanServer serves for the request mix within 2 × |F|, no
# operator above |F| rows): what an index pair costs when it runs as a
# probe and not as a cross product.
# bottom_up_agrees_with_top_down_on_the_suite rides in the same tier: the
# two backchase traversals share one Lattice, so they must emit the same
# minimal plans on EC1-EC5. The fused operator's own oracle suite
# (dict_join vs the nested loop) runs once, ahead of the sweep, and with it
# the suite for the values the borrowing engine has to own (sets, probe
# keys and filter sides built by a struct(…) path): both drive the engine
# only — no optimizer, no pool.
tier "dict_join + owned-paths differentials (engine only, thread-independent)"
cargo test -q -p cnb-engine --test dict_join_differential --test owned_paths_differential
tier "EC4/EC5 golden + differential suites"
cargo test -q -p cnb-workloads --test ec4_star --test ec5_cyclic --test workload_suite
cargo test -q --test property_based -- \
  backchase_is_deterministic_ec4 backchase_is_deterministic_ec5 \
  bottom_up_agrees_with_top_down_on_the_suite \
  cost_observation_feedback_matches_arithmetic_mean

# WCOJ tier: the generic-join differential suite — answer-set equality
# against the binary pipeline and the oracle on uniform and power-law EC5
# data (and on a select path undefined on some joined rows), output order a
# pure function of (db, plan) pinned by golden digests, and every
# backchase-emitted generic-join twin re-verified against the static
# validator and its fractional-cover certificate.
tier "WCOJ differential suite"
cargo test -q -p cnb-engine --test wcoj_differential

# Serving tier: the canonical-fingerprint plan cache and the executor
# worker pool. The smoke suite pins the serving contract — row sets
# identical at 1/2/4/8 executor threads, warm hits answering without chase
# & backchase (audited by counter), point picks partitioning the central
# query, every served plan passing validate_plan — and the byte-identity
# property checks warm-cache plans against cold-path plans.
tier "serving smoke (plan cache + executor pool)"
cargo test -q -p cnb-engine --test serving_smoke
cargo test -q --test property_based -- cache_hits_serve_byte_identical_plans

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

# Pressure tier: the serving robustness layer. Admission control, deadlines
# on the injectable clock (frozen = byte-identical at every thread count,
# ticking = deterministic expiry + panic-free mid-batch cooperative stops),
# seeded fault injection (a failed request is typed, its neighbours' rows
# untouched), and the bounded plan cache's eviction/re-optimization audits.
tier "pressure suite (admission/deadlines/faults/eviction)"
cargo test -q -p cnb-engine --test pressure
cargo test -q --test property_based -- \
  fault_free_requests_are_byte_identical_at_every_thread_count \
  admission_decisions_are_a_pure_function_of_inputs

# Door tier: the four ill-formed requests (unbound select variable, unbound
# where variable, duplicate binding, forward range reference) through
# PlanServer::serve and serve_batch_under on EC4 and EC1, in the release
# profile — where the optimizer's debug_assert! entry guards are compiled
# out, so the check PlanServer::plan runs is the only thing between such a
# request and a panic or a silently wrong cached answer. The debug profile
# runs the same file as part of `cargo test -q` below.
tier "serving door, release profile (ill-formed requests are refused typed)"
cargo test --release -q -p cnb-engine --test door

# Backchase kernel tier, release profile: the six files that hold a change
# to the congruence closure, the homomorphism search, subquery induction, the
# lattice's borders (and the memo that keeps them across searches) or the
# bottom-up search's pricing to "same search, no garbage". alloc_audit
# counts heap allocations per explored candidate on the four full-backchase benchmark points and per explored-or-pruned candidate
# on the bottom-up pass of the two measured ones (its ceilings are asserted
# in release only — a debug build validates every induced query and re-proves
# every inferred verdict); plan_text_golden pins every plan's text, order,
# `explored` / `pruned` / `universal_arity` / `inferred` for the nine
# optimize_cold configurations, both backchase traversals and a capped run;
# induction_differential holds every verdict on every subset of five
# universal plans, in three orders, to a fresh-database oracle — in release,
# where no debug re-proof stands behind the borders. floor_soundness holds
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
# six as part of `cargo test -q` below.
tier "alloc audit + plan-text golden + induction differential + floor soundness/differential + skeleton memo, release profile"
cargo test --release -q --test alloc_audit --test plan_text_golden --test induction_differential \
  --test floor_soundness --test floor_differential
cargo test --release -q -p cnb-engine --test skeleton_memo

# The full debug suite, run once. Debug builds audit the congruence undo
# trail's full invariants (hash-consing bijective, member lists a partition,
# union-find agreement) after every rollback, so there is no second pass
# with an audit switch.
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
