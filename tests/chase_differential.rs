//! Differential suite for the chase's skip rule: a constraint whose
//! universal part was searched when the chase had applied as many steps as
//! it has now is not searched again — the database is what it was then, so
//! the search would find the same homomorphisms, every one already applied.
//!
//! The oracle is the round loop as it was before the rule, written out here
//! from public API only: every round searches every constraint
//! ([`find_homs`]), skips the homomorphisms already applied, tests the rest
//! for triviality and applies a step to each that is not — fresh bindings
//! through [`CanonDb::add_binding`], named `{name}_{var_bound}` as the chase
//! names them, and the conclusion through [`CanonDb::assert_equality`].
//! Against it, `chase` must leave the same query text and the same number of
//! terms (the skipped searches interned nothing the oracle's did not find
//! already there), and report the same `steps_applied`, `satisfied_skips`,
//! `rounds` and `truncated`; only `homs_found` — homomorphisms found by the
//! searches run — may be lower.
//!
//! On the universal plans of the nine `optimize_cold` points (six distinct
//! query and constraint sets, every one chased under all of its schema's
//! constraints), on every candidate the backchase could chase on
//! `ec2_1_4_2` and `ec3_3` (each subset of the universal plan that induces a
//! subquery, chased as its text), and on a self-feeding constraint cut off
//! by the step cap.

use std::collections::BTreeSet;

use chase_too_far::core::prelude::*;
use chase_too_far::ir::prelude::*;
use chase_too_far::workloads::{Ec1, Ec2, Ec3, Ec4, Ec5};

/// The chase's round loop with no skip rule: every constraint is searched in
/// every round.
fn every_round_searches_everything(
    db: &mut CanonDb,
    constraints: &[Constraint],
    cfg: ChaseConfig,
) -> ChaseStats {
    let mut stats = ChaseStats::default();
    let mut applied: BTreeSet<(usize, Vec<Var>)> = BTreeSet::new();
    let exists = HomConfig {
        max_homs: 1,
        injective: false,
    };
    for _ in 0..cfg.max_rounds {
        stats.rounds += 1;
        let mut progress = false;
        for (ci, c) in constraints.iter().enumerate() {
            let homs = find_homs(
                db,
                &c.universal,
                &c.premise,
                &HomMap::default(),
                HomConfig::default(),
            );
            stats.homs_found += homs.len();
            for mut h in homs {
                let image = c.universal.iter().map(|b| h[&b.var]).collect();
                if !applied.insert((ci, image)) {
                    continue;
                }
                let witnesses = find_homs(db, &c.existential, &c.conclusion, &h, exists);
                if !witnesses.is_empty() {
                    stats.satisfied_skips += 1;
                    continue;
                }
                // The cap cuts a step that is due, as `Chaser::chase_under` does:
                // a chase of exactly `max_steps` steps reaches its fixpoint.
                if stats.steps_applied >= cfg.max_steps {
                    stats.truncated = true;
                    return stats;
                }
                for b in &c.existential {
                    let range = b.range.map_vars(&mut |v| PathExpr::Var(h[&v]));
                    let fresh_name = format!("{}_{}", b.name, db.query.var_bound());
                    let fresh = db.add_binding(&fresh_name, range);
                    h.insert(b.var, fresh);
                }
                for eq in &c.conclusion {
                    db.assert_equality(&eq.map_vars(&mut |v| PathExpr::Var(h[&v])));
                }
                stats.steps_applied += 1;
                progress = true;
            }
        }
        if !progress {
            return stats;
        }
    }
    stats.truncated = true;
    stats
}

/// Chases `q` both ways and holds `chase` to the oracle; returns the two
/// `homs_found`, `chase`'s first.
fn assert_same_chase(
    tag: &str,
    q: &Query,
    constraints: &[Constraint],
    cfg: ChaseConfig,
) -> (usize, usize) {
    let mut oracle = CanonDb::new(q);
    let want = every_round_searches_everything(&mut oracle, constraints, cfg);
    let mut db = CanonDb::new(q);
    let got = chase(&mut db, constraints, cfg);
    assert_eq!(
        db.query.to_string(),
        oracle.query.to_string(),
        "{tag}: query"
    );
    assert_eq!(db.cong.len(), oracle.cong.len(), "{tag}: terms");
    assert_eq!(
        (
            got.steps_applied,
            got.satisfied_skips,
            got.rounds,
            got.truncated
        ),
        (
            want.steps_applied,
            want.satisfied_skips,
            want.rounds,
            want.truncated
        ),
        "{tag}: (steps_applied, satisfied_skips, rounds, truncated)"
    );
    assert!(
        got.homs_found <= want.homs_found,
        "{tag}: {} homomorphisms found > {}",
        got.homs_found,
        want.homs_found
    );
    (got.homs_found, want.homs_found)
}

/// `(point, query, constraints)` for the universal plans the nine
/// `optimize_cold` points chase.
fn optimize_cold_families() -> Vec<(&'static str, Query, Vec<Constraint>)> {
    let (ec1, ec2_views, ec2_stars, ec3, ec4, ec5) = (
        Ec1::new(4, 2),
        Ec2::new(1, 4, 2),
        Ec2::new(2, 3, 1),
        Ec3::new(3, 0),
        Ec4::new(4, 3, 2),
        Ec5::new(3, true, true),
    );
    vec![
        ("ec1_4_2", ec1.query(), ec1.schema().all_constraints()),
        (
            "ec2_1_4_2",
            ec2_views.query(),
            ec2_views.schema().all_constraints(),
        ),
        (
            "ec2_2_3_1",
            ec2_stars.query(),
            ec2_stars.schema().all_constraints(),
        ),
        ("ec3_3", ec3.query(), ec3.schema().all_constraints()),
        ("ec4_4_3_2", ec4.query(), ec4.schema().all_constraints()),
        (
            "ec5_tri_wedge_idx",
            ec5.cycle_query(),
            ec5.schema().all_constraints(),
        ),
    ]
}

#[test]
fn universal_plans_chase_as_before() {
    let (mut searched, mut every_round) = (0, 0);
    for (tag, q, constraints) in optimize_cold_families() {
        let (got, want) = assert_same_chase(tag, &q, &constraints, ChaseConfig::default());
        searched += got;
        every_round += want;
    }
    assert!(
        searched < every_round,
        "the skip rule never skipped a search: {searched} homomorphisms found either way"
    );
}

#[test]
fn every_candidate_chases_as_before() {
    for (tag, q, constraints) in optimize_cold_families() {
        if !matches!(tag, "ec2_1_4_2" | "ec3_3") {
            continue;
        }
        let (mut udb, stats) = chase_query(&q, &constraints, ChaseConfig::default());
        assert!(!stats.truncated, "{tag}: universal chase truncated");
        let vars: Vec<Var> = udb.query.from.iter().map(|b| b.var).collect();
        let mut candidates = 0;
        for mask in 0u32..1 << vars.len() {
            let keep = VarSet::from_iter(
                vars.iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, v)| *v),
            );
            if let Some(cand) = induce_subquery_pure(&mut udb, &keep, &q.select) {
                let tag = format!("{tag} subset {mask:#b}");
                let _ = assert_same_chase(&tag, &cand, &constraints, ChaseConfig::default());
                candidates += 1;
            }
        }
        assert!(candidates > 0, "{tag}: no subset induced a subquery");
    }
}

#[test]
fn a_truncated_chase_truncates_as_before() {
    // forall (r in R) exists (s in R) s.P = r.K — keeps generating.
    let mut c = Constraint::new("runaway");
    let r = c.forall("r", Range::Name(sym("R")));
    let s = c.exists("s", Range::Name(sym("R")));
    c.then(PathExpr::from(s).dot("P"), PathExpr::from(r).dot("K"));
    let mut q = Query::new();
    q.bind("r0", Range::Name(sym("R")));
    let cfg = ChaseConfig {
        max_steps: 25,
        max_rounds: 64,
    };
    let _ = assert_same_chase("runaway", &q, &[c], cfg);
}
