//! The seeded case loop and the random inputs the property suites share.
//!
//! The build environment has no registry access, so instead of an external
//! property-testing framework the suites run on this small harness: a seeded
//! case loop ([`cases`]) drawing inputs from the workspace's own
//! [`SplitMix64`] generator. There is no shrinking; on failure the harness
//! reports the case index and per-case seed, which reproduce the exact
//! inputs deterministically.

use std::panic::{catch_unwind, AssertUnwindSafe};

use chase_too_far::engine::prng::SplitMix64;
use chase_too_far::ir::prelude::*;

/// Runs `n` seeded cases of `property`, reporting the failing case index and
/// seed (enough to replay: seeds are derived, not random) on panic.
pub fn cases(name: &str, n: usize, property: impl Fn(&mut SplitMix64)) {
    for case in 0..n {
        // Derive per-case seeds from a fixed root so runs are reproducible
        // and cases are independent of each other.
        let seed = SplitMix64::seed_from_u64(0xC0B0_2000 + case as u64).next_u64();
        let mut rng = SplitMix64::seed_from_u64(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("property `{name}` failed at case {case}/{n} (seed {seed:#x}):\n{msg}");
        }
    }
}

/// A random chain of 1..4 bindings over R0..R3 with random equalities and
/// outputs.
pub fn arb_query(rng: &mut SplitMix64) -> Query {
    let n = rng.gen_range(1usize..5);
    let mut q = Query::new();
    let vars: Vec<Var> = (0..n)
        .map(|i| q.bind(&format!("x{i}"), Range::Name(sym(&format!("R{}", i % 3)))))
        .collect();
    for w in vars.windows(2) {
        if rng.gen_bool(0.5) {
            q.equate(PathExpr::from(w[0]).dot("B"), PathExpr::from(w[1]).dot("A"));
        }
    }
    for (i, v) in vars.iter().enumerate() {
        if i == 0 || rng.gen_bool(0.5) {
            q.output(&format!("O{i}"), PathExpr::from(*v).dot("A"));
        }
    }
    q
}

/// `R0..R2`, each with attributes `A` and `B`: the schema [`arb_query`] and
/// [`arb_constraints`] speak of.
pub fn chain_schema() -> Schema {
    let mut schema = Schema::new();
    for i in 0..3 {
        schema.add_relation(
            format!("R{i}"),
            [(sym("A"), Type::Int), (sym("B"), Type::Int)],
        );
    }
    schema
}

/// Random key and inclusion constraints over [`chain_schema`] — any relation
/// into any, either attribute into either, cycles allowed — so some sets are
/// weakly acyclic and some are not.
pub fn arb_constraints(rng: &mut SplitMix64) -> Vec<Constraint> {
    let mut cs: Vec<Constraint> = Vec::new();
    for i in 0..3 {
        if rng.gen_bool(0.3) {
            cs.push(key_constraint(sym(&format!("R{i}")), sym("A")));
        }
    }
    for k in 0..rng.gen_range(1usize..4) {
        let mut pick = || {
            let rel = sym(&format!("R{}", rng.gen_range(0..3)));
            (rel, sym(if rng.gen_bool(0.5) { "A" } else { "B" }))
        };
        let ((from, x_attr), (to, y_attr)) = (pick(), pick());
        let mut ind = Constraint::new(format!("IND{k}_{from}_{x_attr}_in_{to}_{y_attr}"));
        let x = ind.forall("x", Range::Name(from));
        let y = ind.exists("y", Range::Name(to));
        ind.then(PathExpr::from(x).dot(x_attr), PathExpr::from(y).dot(y_attr));
        cs.push(ind);
    }
    cs
}
