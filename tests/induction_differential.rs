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
//! query's. A lattice's unbordered check (`Lattice::equivalent`, a load and
//! a chase) must give the oracle's verdict.
//!
//! What a lattice has learnt decides which of its verdicts are inferred, so
//! the verdicts are swept in three orders, a fresh lattice each: ascending
//! masks (subsets before their supersets — the refuted, malformed and
//! output-lost sides of the borders fire), descending (supersets first — the
//! proved side), and a seeded shuffle. EC4 and EC5 are the families whose
//! universal plans hold `Range::Expr` bindings under `dom` guards.

use chase_too_far::core::backchase::Lattice;
use chase_too_far::core::bitset::VarSet;
use chase_too_far::core::prelude::*;
use chase_too_far::core::subquery::{induce_subquery, load_subquery};
use chase_too_far::engine::prng::SplitMix64;
use chase_too_far::ir::prelude::*;
use chase_too_far::workloads::{Ec1, Ec2, Ec3, Ec4, Ec5};

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
    let checker = EquivChecker::new(q, constraints, cfg.chase);
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
                verdict,
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
