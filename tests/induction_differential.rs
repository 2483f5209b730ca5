//! Differential suite for in-place (savepoint) subquery induction: on the
//! EC1–EC3 universal plans, `induce_subquery_pure` — savepoint, restrict,
//! rollback — must produce exactly the same induced query as the retired
//! clone-per-candidate implementation (`induce_subquery` on a fresh clone of
//! the database — the oracle, written out here) for **every** binding
//! subset, and must leave the universal plan byte-identical between
//! candidates. On the same subsets, the shared
//! `Lattice`'s verdict (in-place induction, recycled scratch database) must
//! equal the oracle pair's: clone-based induction, then
//! `EquivChecker::equivalent` on a fresh database per candidate.

use chase_too_far::core::backchase::Lattice;
use chase_too_far::core::bitset::VarSet;
use chase_too_far::core::prelude::*;
use chase_too_far::core::subquery::induce_subquery;
use chase_too_far::ir::prelude::*;
use chase_too_far::workloads::{Ec1, Ec2, Ec3};

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

fn assert_inplace_matches_clone(tag: &str, q: &Query, constraints: &[Constraint]) {
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
    let mut lattice = Lattice::chase(q, constraints, &cfg);
    let checker = EquivChecker::new(q, constraints, cfg.chase);

    for mask in 0u32..(1 << n) {
        let keep = VarSet::from_iter(
            vars.iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, v)| *v),
        );
        let inplace = induce_subquery_pure(&mut udb, &keep, &q.select);
        let cloned = induce_subquery(&mut udb.clone(), &keep, &q.select);
        assert_eq!(
            inplace, cloned,
            "{tag}: induction diverged on subset {mask:#b}"
        );
        assert_eq!(
            db_fingerprint(&mut udb),
            baseline,
            "{tag}: in-place induction left residue after subset {mask:#b}"
        );
        let oracle = cloned.is_some_and(|c| checker.equivalent(&c).0);
        assert_eq!(
            lattice.verdict(&keep),
            Some(oracle),
            "{tag}: lattice verdict diverged from the oracle on subset {mask:#b}"
        );
    }
}

#[test]
fn ec1_induction_differential() {
    let ec1 = Ec1::new(3, 1);
    assert_inplace_matches_clone("ec1_3_1", &ec1.query(), &ec1.schema().all_constraints());
}

#[test]
fn ec2_induction_differential() {
    let ec2 = Ec2::new(1, 3, 2);
    assert_inplace_matches_clone("ec2_1_3_2", &ec2.query(), &ec2.schema().all_constraints());
}

#[test]
fn ec3_induction_differential() {
    let ec3 = Ec3::new(2, 0);
    assert_inplace_matches_clone("ec3_2", &ec3.query(), &ec3.schema().all_constraints());
}
