//! Soundness of plan dedup's prefilter. Two plans are the same plan when
//! each contains the other with no constraints; `same_arity` is the cheap
//! necessary condition asked first, and besides equal arities it asks that
//! each plan's `Name` / `Dom` collections, and an `Expr` range if it has
//! one, be among the other's — what a homomorphism needs to map one plan
//! into the other at all. A pair it rejects is never chased.
//!
//! For every pair of plans of equal arities that it rejects, the containment
//! it skips must fail too: `EquivChecker` with no constraints and a chase
//! that takes no step, in both directions, is what `same_plan` and
//! `PlanSink::emit` would have run. The plans are every plan emitted by the
//! nine `optimize_cold` points and by the five workload-suite families, and
//! each OCS stage pool (every plan the stage's backchases emit, before the
//! pool dedups them) of `ec2_2_3_1`, the OCS point.

use chase_too_far::core::equivalence::same_arity;
use chase_too_far::core::prelude::*;
use chase_too_far::ir::prelude::{Constraint, ConstraintKind, Query};
use chase_too_far::workloads::{suite, Ec1, Ec2, Ec3, Ec4, Ec5};

/// Checks every pair of `plans` the prefilter rejects; returns how many.
fn rejected_pairs_are_not_the_same_plan(tag: &str, plans: &[Query]) -> usize {
    let cfg = ChaseConfig {
        max_steps: 0,
        max_rounds: 1,
    };
    let contains = |a: &Query, b: &Query| EquivChecker::new(a, &[], cfg).equivalent(b).0;
    let mut rejected = 0;
    for (i, a) in plans.iter().enumerate() {
        for b in &plans[i + 1..] {
            let arities = a.from.len() == b.from.len() && a.select.len() == b.select.len();
            if !arities || same_arity(a, b) {
                continue;
            }
            rejected += 1;
            assert!(
                !(contains(a, b) && contains(b, a)),
                "{tag}: the prefilter rejected a pair that is one plan:\n  {a}\n  {b}"
            );
        }
    }
    rejected
}

fn queries(r: &OptimizeResult) -> Vec<Query> {
    r.plans.iter().map(|p| p.query.clone()).collect()
}

/// The pools `Optimizer`'s OCS strategy dedups, stage by stage: every plan
/// the stage's backchases emit, run over the previous stage's pool.
fn ocs_stage_pools(q: &Query, constraints: &[Constraint]) -> Vec<Vec<Query>> {
    let egds: Vec<&Constraint> = constraints
        .iter()
        .filter(|c| c.kind() == ConstraintKind::Egd)
        .collect();
    let mut pool = vec![q.clone()];
    let mut stages = Vec::new();
    for stratum in stratify(constraints) {
        let mut cs: Vec<Constraint> = stratum.iter().map(|&i| constraints[i].clone()).collect();
        for e in &egds {
            if !cs.iter().any(|c| c.name == e.name) {
                cs.push((*e).clone());
            }
        }
        let emitted: Vec<Query> = pool
            .iter()
            .flat_map(|p| chase_and_backchase(p, &cs, &BackchaseConfig::default()).plans)
            .collect();
        pool = Vec::new();
        for plan in &emitted {
            if !pool.iter().any(|p| same_plan(p, plan)) {
                pool.push(plan.clone());
            }
        }
        stages.push(emitted);
    }
    stages
}

#[test]
fn the_prefilter_rejects_only_pairs_that_are_not_one_plan() {
    let (ec1, ec2_views, ec2_stars, ec3, ec4, ec5) = (
        Ec1::new(4, 2),
        Ec2::new(1, 4, 2),
        Ec2::new(2, 3, 1),
        Ec3::new(3, 0),
        Ec4::new(4, 3, 2),
        Ec5::new(3, true, true),
    );
    let (fb, oqf, ocs) = (Strategy::Full, Strategy::Oqf, Strategy::Ocs);
    // The nine `optimize_cold` points: (point, schema, query, strategy, measured).
    let points = [
        ("ec1_4_2.fb", ec1.schema(), ec1.query(), fb, false),
        ("ec1_4_2.oqf", ec1.schema(), ec1.query(), oqf, false),
        (
            "ec2_1_4_2.fb",
            ec2_views.schema(),
            ec2_views.query(),
            fb,
            false,
        ),
        (
            "ec2_2_3_1.ocs",
            ec2_stars.schema(),
            ec2_stars.query(),
            ocs,
            false,
        ),
        ("ec3_3.fb", ec3.schema(), ec3.query(), fb, false),
        ("ec4_4_3_2.fb", ec4.schema(), ec4.query(), fb, false),
        (
            "ec5_tri_wedge_idx.fb",
            ec5.schema(),
            ec5.cycle_query(),
            fb,
            false,
        ),
        ("ec1_4_2.oqf.measured", ec1.schema(), ec1.query(), oqf, true),
        (
            "ec5_tri_wedge_idx.fb.measured",
            ec5.schema(),
            ec5.cycle_query(),
            fb,
            true,
        ),
    ];
    let mut rejected = 0;
    for (tag, schema, q, strategy, measured) in points {
        let optimizer = Optimizer::new(schema);
        let cfg = OptimizerConfig::with_strategy(strategy);
        let r = if measured {
            optimizer.optimize_measured(&q, &cfg, &CostModel::default())
        } else {
            optimizer.optimize(&q, &cfg)
        };
        rejected += rejected_pairs_are_not_the_same_plan(tag, &queries(&r));
    }
    for w in suite() {
        rejected += rejected_pairs_are_not_the_same_plan(w.name(), &queries(&w.optimize()));
    }
    let stars = Optimizer::new(ec2_stars.schema());
    for (stage, pool) in ocs_stage_pools(&ec2_stars.query(), stars.constraints())
        .iter()
        .enumerate()
    {
        rejected += rejected_pairs_are_not_the_same_plan(&format!("ocs stage {stage}"), pool);
    }
    assert!(rejected > 0, "the prefilter rejected no pair");
}
