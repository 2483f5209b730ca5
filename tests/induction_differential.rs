//! Differential suite for in-place (savepoint) subquery induction: on the
//! EC1–EC5 universal plans, `induce_subquery_pure` — savepoint, restrict,
//! rollback — must produce exactly the same induced query as the retired
//! database-per-candidate implementation (`induce_subquery` on a universal
//! plan chased afresh per candidate — the oracle, written out here; the chase
//! is deterministic, so term ids and induced text match) for **every**
//! binding subset, and must leave the universal plan byte-identical between
//! candidates. On the same subsets, the shared `Lattice`'s verdict (borders
//! first, then in-place induction and a recycled scratch database) must equal
//! the oracle pair's: induction on the fresh database, then
//! `EquivChecker::equivalent` on a fresh database per candidate.
//!
//! The check loads a chased candidate straight from the universal plan
//! (`load_subquery`), never as the induced query's text; the closure
//! differential holds that load to the induced query on the same subsets.
//! It must succeed exactly when induction does and leave the universal plan
//! byte-identical. Where it succeeds, the loaded database and the induced
//! query's (`CanonDb::reset_to`) must imply each other: every where and
//! select equality of the induced query holds in the loaded database, and
//! every two non-probe terms of one loaded class are equal in the induced
//! query's. A lattice's unbordered check (`Lattice::equivalent`: a
//! refutation by the universal plan's derivations, or a load and a chase)
//! must give the oracle's verdict.
//!
//! What a lattice has learnt decides which of its verdicts are inferred, so
//! the verdicts are swept in three orders, a fresh lattice each: ascending
//! masks (subsets before their supersets — the refuted, malformed and
//! output-lost sides of the borders fire), descending (supersets first — the
//! proved side), and a seeded shuffle. EC4 and EC5 are the families whose
//! universal plans hold `Range::Expr` bindings under `dom` guards.
//!
//! The release run is the one that counts: no debug re-proof of an
//! inferred verdict stands behind the borders there.

use chase_too_far::core::backchase::Lattice;
use chase_too_far::core::bitset::VarSet;
use chase_too_far::core::prelude::*;
use chase_too_far::core::subquery::{induce_subquery, load_subquery};
use chase_too_far::engine::prng::SplitMix64;
use chase_too_far::ir::prelude::*;
use chase_too_far::workloads::{Ec1, Ec2, Ec3, Ec4, Ec5};

mod support;

use support::frozen_equivalent;

/// Renders enough database state to detect any residue an induction might
/// leave behind (arena size, query text, class structure).
fn db_fingerprint(db: &mut CanonDb) -> String {
    let reps = db.cong.class_reps();
    format!(
        "terms={} reps={} arity={} q={}",
        db.cong.len(),
        reps.len(),
        db.arity(),
        db.query
    )
}

/// `loaded` (a `load_subquery` of the subset) and `reloaded` (`cand`, the
/// subset's induced query, loaded from its text) imply each other.
fn assert_closures_agree(tag: &str, loaded: &mut CanonDb, reloaded: &mut CanonDb, cand: &Query) {
    // Classes first: the probes below add (scratch) terms to `loaded`.
    for rep in loaded.cong.class_reps() {
        let mut members = loaded
            .cong
            .class_members(rep)
            .into_iter()
            .filter(|&m| !loaded.cong.is_scratch(m))
            .map(|m| loaded.cong.path_of(m));
        let Some(first) = members.next() else {
            continue;
        };
        for m in members {
            assert!(
                reloaded.implied(&first, &m),
                "{tag}: loaded {first} = {m}, not implied by the induced query"
            );
        }
    }
    for eq in &cand.where_ {
        assert!(
            loaded.implied(&eq.lhs, &eq.rhs),
            "{tag}: induced {eq} does not hold in the loaded database"
        );
    }
    assert_eq!(
        loaded.query.select.len(),
        cand.select.len(),
        "{tag}: outputs"
    );
    for ((label, want), (got_label, got)) in cand.select.iter().zip(loaded.query.select.clone()) {
        assert_eq!(*label, got_label, "{tag}: output labels");
        assert!(
            loaded.implied(want, &got),
            "{tag}: induced output {label} = {want} is {got} in the loaded database"
        );
    }
}

fn assert_inplace_matches_fresh(tag: &str, q: &Query, constraints: &[Constraint]) {
    let (mut udb, stats) = chase_query(q, constraints, ChaseConfig::default());
    assert!(!stats.truncated, "{tag}: chase truncated");
    let vars: Vec<Var> = udb.query.from.iter().map(|b| b.var).collect();
    let n = vars.len();
    assert!(
        (2..=14).contains(&n),
        "{tag}: universal arity {n} out of the exhaustive-sweep range"
    );
    let baseline = db_fingerprint(&mut udb);
    let cfg = BackchaseConfig {
        timeout: None,
        ..BackchaseConfig::default()
    };
    let checker = EquivChecker::new(q, constraints, ChaseConfig::default());
    let subset = |mask: u32| {
        VarSet::from_iter(
            vars.iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, v)| *v),
        )
    };

    let mut direct = Lattice::chase(q, constraints, &cfg);
    let (mut loaded, mut reloaded) = (CanonDb::empty(), CanonDb::empty());
    let oracle: Vec<bool> = (0u32..1 << n)
        .map(|mask| {
            let keep = subset(mask);
            let inplace = induce_subquery_pure(&mut udb, &keep, &q.select);
            let mut fresh = chase_query(q, constraints, ChaseConfig::default()).0;
            let induced = induce_subquery(&mut fresh, &keep, &q.select);
            assert_eq!(
                inplace, induced,
                "{tag}: induction diverged on subset {mask:#b}"
            );
            assert_eq!(
                db_fingerprint(&mut udb),
                baseline,
                "{tag}: in-place induction left residue after subset {mask:#b}"
            );
            let load = load_subquery(&mut udb, &keep, &q.select, &mut loaded);
            assert_eq!(
                db_fingerprint(&mut udb),
                baseline,
                "{tag}: loading left residue after subset {mask:#b}"
            );
            assert_eq!(
                load,
                induced.is_some(),
                "{tag}: load and induction disagree on subset {mask:#b}"
            );
            if let Some(cand) = &induced {
                reloaded.reset_to(cand);
                assert_closures_agree(
                    &format!("{tag}, subset {mask:#b}"),
                    &mut loaded,
                    &mut reloaded,
                    cand,
                );
            }
            let verdict = induced.is_some_and(|c| checker.equivalent(&c).0);
            assert_eq!(
                direct.equivalent(&keep),
                Some(verdict),
                "{tag}: the loaded check diverged from the oracle on subset {mask:#b}"
            );
            verdict
        })
        .collect();

    let ascending: Vec<u32> = (0..1 << n).collect();
    let descending: Vec<u32> = ascending.iter().rev().copied().collect();
    let mut shuffled = ascending.clone();
    let mut rng = SplitMix64::seed_from_u64(0xB0_4DE4);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..i + 1));
    }
    for (order, masks) in [
        ("ascending", ascending),
        ("descending", descending),
        ("shuffled", shuffled),
    ] {
        let mut lattice = Lattice::chase(q, constraints, &cfg);
        for mask in masks {
            assert_eq!(
                lattice.verdict(&subset(mask)),
                Some(oracle[mask as usize]),
                "{tag}, {order}: lattice verdict diverged from the oracle on subset {mask:#b}"
            );
        }
    }
}

#[test]
fn ec1_induction_differential() {
    let ec1 = Ec1::new(3, 1);
    assert_inplace_matches_fresh("ec1_3_1", &ec1.query(), &ec1.schema().all_constraints());
}

#[test]
fn ec2_induction_differential() {
    let ec2 = Ec2::new(1, 3, 2);
    assert_inplace_matches_fresh("ec2_1_3_2", &ec2.query(), &ec2.schema().all_constraints());
}

#[test]
fn ec3_induction_differential() {
    let ec3 = Ec3::new(2, 0);
    assert_inplace_matches_fresh("ec3_2", &ec3.query(), &ec3.schema().all_constraints());
}

#[test]
fn ec4_induction_differential() {
    let ec4 = Ec4::new(3, 2, 2);
    assert_inplace_matches_fresh("ec4_3_2_2", &ec4.query(), &ec4.schema().all_constraints());
}

#[test]
fn ec5_induction_differential() {
    let ec5 = Ec5::new(3, true, true);
    assert_inplace_matches_fresh(
        "ec5_tri_wedge_idx",
        &ec5.cycle_query(),
        &ec5.schema().all_constraints(),
    );
}

/// Rule (i) of the borders: a `false` says nothing about its subsets when it
/// is the `false` of a malformed subset. On `ec1_4_2`, `t_9` ranges over
/// `SI2[k_8]`; keeping it without `k_8` is not a query, and dropping it too
/// leaves a plan. A lattice that has seen the malformed superset must still
/// find the plan under it.
#[test]
fn a_malformed_superset_refutes_nothing_below_it() {
    let ec1 = Ec1::new(4, 2);
    let (q, constraints) = (ec1.query(), ec1.schema().all_constraints());
    let mut lattice = Lattice::chase(&q, &constraints, &BackchaseConfig::default());
    let plan = VarSet::from_iter([5, 6, 7, 10, 11].map(Var));
    let mut malformed = plan.clone();
    malformed.insert(Var(9));
    assert_eq!(lattice.induce(&malformed), None);
    assert_eq!(lattice.verdict(&malformed), Some(false));
    assert_eq!(lattice.verdict(&plan), Some(true));
    // And what the plan proves reaches its well-formed supersets only.
    assert_eq!(lattice.verdict(&malformed), Some(false));
    let mut guarded = malformed.clone();
    guarded.insert(Var(8));
    assert_eq!(lattice.verdict(&guarded), Some(true));
}

/// The families whose chases bind relations only, where the frozen-chase
/// oracle (`tests/support`) runs: `(tag, schema, query)`.
fn relational_families() -> Vec<(&'static str, Schema, Query)> {
    let ec2_3 = Ec2::new(1, 3, 2);
    let ec2_4 = Ec2::new(1, 4, 2);
    let triangle = Ec5::new(3, true, false);
    let square = Ec5::new(4, true, false);
    vec![
        ("ec2_1_3_2", ec2_3.schema(), ec2_3.query()),
        ("ec2_1_4_2", ec2_4.schema(), ec2_4.query()),
        ("ec5_tri_wedge", triangle.schema(), triangle.cycle_query()),
        ("ec5_square_wedge", square.schema(), square.cycle_query()),
    ]
}

/// Every subset of a universal plan, as `induction_differential` sweeps them.
fn subsets(q: &Query, constraints: &[Constraint]) -> Vec<VarSet> {
    let (udb, stats) = chase_query(q, constraints, ChaseConfig::default());
    assert!(!stats.truncated);
    let vars: Vec<Var> = udb.query.from.iter().map(|b| b.var).collect();
    assert!(vars.len() <= 14, "universal arity {}", vars.len());
    (0u32..1 << vars.len())
        .map(|mask| {
            let bits = (0..vars.len()).filter(|i| mask & (1 << i) != 0);
            VarSet::from_iter(bits.map(|i| vars[i]))
        })
        .collect()
}

/// The frozen-chase oracle agrees with the lattice on every subset of the
/// four relational universal plans, 359 of which induce a candidate: a
/// malformed subset is no plan, and an induced one is equivalent exactly
/// when its frozen chase and the original's answer each other's heads. The
/// verdicts the lattice proves under a support are among them.
#[test]
fn the_frozen_chase_oracle_agrees_with_the_lattice() {
    let (mut candidates, mut supported) = (0, 0);
    for (tag, schema, q) in relational_families() {
        let constraints = schema.all_constraints();
        let mut lattice = Lattice::chase(&q, &constraints, &BackchaseConfig::default());
        for keep in subsets(&q, &constraints) {
            let oracle = lattice.induce(&keep).is_some_and(|candidate| {
                candidates += 1;
                frozen_equivalent(&schema, &q, &candidate, &constraints)
            });
            let before = lattice.sources().proved_under_support;
            assert_eq!(lattice.verdict(&keep), Some(oracle), "{tag}: {keep:?}");
            supported += lattice.sources().proved_under_support - before;
        }
    }
    assert_eq!(candidates, 359);
    assert!(supported > 0, "no verdict was proved under a support");
}

/// The oracle catches a checker that runs without Σ's first constraint
/// (the plans and the oracle keep all of Σ): on the two EC2 universal
/// plans it disagrees with that checker on 21 and 13 candidates.
#[test]
fn the_frozen_chase_oracle_catches_a_dropped_constraint() {
    let disagreements: Vec<usize> = relational_families()
        .into_iter()
        .take(2)
        .map(|(_, schema, q)| {
            let constraints = schema.all_constraints();
            let mutated = EquivChecker::new(&q, &constraints[1..], ChaseConfig::default());
            let mut lattice = Lattice::chase(&q, &constraints, &BackchaseConfig::default());
            subsets(&q, &constraints)
                .iter()
                .filter_map(|keep| lattice.induce(keep))
                .filter(|candidate| {
                    mutated.equivalent(candidate).0
                        != frozen_equivalent(&schema, &q, candidate, &constraints)
                })
                .count()
        })
        .collect();
    assert_eq!(disagreements, [21, 13]);
}
