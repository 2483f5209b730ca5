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
# clippy::panic, clippy::unreachable and clippy::unwrap_used outside their
# tests, and cnb_core clippy::expect_used too; each sanctioned panic sits
# under #[expect(clippy::panic)], each sanctioned expect under
# #[expect(clippy::expect_used, reason = "...")] naming the invariant it
# states. The test tiers below pin how many sanctions each crate holds.
tier "cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

# Rustdoc: every intra-doc link resolves, and no public doc links a private
# item. Its warnings are errors here, so a broken link fails the gate.
tier "cargo doc --no-deps --workspace (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

tier "cargo build --release"
cargo build --release

# Every test in the root workspace, release profile: the profile the paper's
# timings, `figures` and the benchmark run. It checks what only a release
# build can: the optimizer's `debug_assert!` entry checks are compiled out
# (so the serving door is the only guard), alloc_audit's ceilings are
# asserted, verdicts inferred from the lattice's borders are trusted rather
# than re-proved, and the parser's depth bound must hold on release stack
# frames.
tier "cargo test --release -q"
cargo test --release -q

# Benchmark tier: benchmark/ is its own workspace, so nothing above compiles
# it — an API rename in cnb_engine/cnb_core would pass every other tier and
# break the gate that BENCHMARK.json runs on each PR. Its own tests build
# it and drive all five workloads at smoke sizes.
tier "benchmark/ smoke (cargo test --manifest-path benchmark/Cargo.toml)"
cargo test -q --manifest-path benchmark/Cargo.toml

# Every test again, debug profile: debug builds re-prove every inferred
# verdict by a chase and audit the congruence undo trail's full invariants
# (hash-consing bijective, member lists a partition, union-find agreement)
# after every rollback.
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
