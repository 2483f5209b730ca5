//! EC4 suite: the TPC-style star schema — which physical structures its
//! plans use, and that none of them joins through a cross product. That
//! every plan answers the star request (on key-respecting star data, as a
//! full multiset), in a reproducible row order that matches the
//! `execute_legacy` oracle, is the workloads' one differential (`support`),
//! which `workload_suite.rs` runs over every case.

mod support;

use cnb_engine::execute;
use cnb_workloads::{ec4::Ec4DataSpec, Ec4, Workload};

fn spec() -> Ec4DataSpec {
    // Fat fact–dimension joins so the 3-way star yields rows on 150 facts.
    Ec4DataSpec {
        fact_rows: 150,
        dim_rows: 60,
        fk_sel: 0.8,
        a_values: 20,
        seed: 5,
    }
}

/// The plan set covers both view choices independently: each view alone
/// and both together.
#[test]
fn ec4_plans_cover_each_view_alone_and_both_together() {
    let ec4 = Ec4::new(3, 2, 1);
    let plans = ec4.optimize().plans;
    let uses = |views: &[usize]| {
        plans.iter().any(|p| {
            views
                .iter()
                .all(|&l| p.physical_used.contains(&ec4.view(l)))
        })
    };
    assert!(uses(&[1]), "no plan uses VF1");
    assert!(uses(&[2]), "no plan uses VF2");
    assert!(uses(&[1, 2]), "no plan uses both views at once");
}

/// Every EC4 plan's rows and their order are a pure function of the data
/// and equal the nested-loop oracle's.
#[test]
fn ec4_execution_order_is_exact() {
    support::assert_rows_are_exact(&support::case("EC4"));
}

/// Regression guard for the join planner's cross-product demotion: EC4's
/// index rewrites replace the fact table — the collection every dimension
/// joins through — with a `dom SIF1` / `SIF1[k]` pair, and a greedy order
/// that scans dimensions before that pair multiplies them into a cross
/// product (observed pre-fix: tens of millions of intermediate tuples on a
/// 150-fact dataset). Every plan must now execute with near-linear work:
/// the worst plan considers 2.7 × the fact rows. (The bound was 100 × while
/// index pairs ran as scan + expansion + filter — 87 × in the worst plan,
/// which is how a served plan that cross-multiplied its prefix with the
/// fact table on every request got through.)
#[test]
fn ec4_plans_execute_without_cross_products() {
    let ec4 = Ec4::new(3, 2, 1);
    let db = ec4.generate(spec());
    for p in &ec4.optimize().plans {
        let stats = execute(&db, &p.query).unwrap().stats;
        assert!(
            stats.tuples_considered <= 4 * spec().fact_rows,
            "plan considered {} tuples — a cross product crept back in:\n{}",
            stats.tuples_considered,
            p.query
        );
    }
}

/// The plan the cache serves for the EC4 request mix goes through `dom
/// SIF1 k, SIF1[k] t` with `t.K` equated to the view-bound prefix. That
/// pair must run as an index probe: at the benchmark's scale every one of the 20
/// requests stays under twice the fact table in tuples considered (as a
/// cross product and a filter: 82 402–161 625 per request), and no operator
/// materialises more rows than the fact table has.
#[test]
fn ec4_served_plan_probes_its_index_pair() {
    use cnb_core::prelude::OptimizerConfig;
    use cnb_engine::PlanServer;
    use cnb_workloads::DataScale;
    let ec4 = Ec4::new(3, 2, 1);
    let scale = DataScale::new(2000, 7);
    let db = ec4.generate_at(scale);
    let fact_rows = db.table(ec4.fact()).len();
    let mut server = PlanServer::new(
        ec4.optimizer(),
        OptimizerConfig::with_strategy(ec4.expectations().strategy),
    );
    for pick in 0..20 {
        let (served, exec) = server.serve(&db, &ec4.serving_query(scale, pick)).unwrap();
        let stats = exec.stats;
        assert!(
            stats.tuples_considered < 2 * fact_rows,
            "pick {pick}: {} tuples considered over {fact_rows} facts:\n{}",
            stats.tuples_considered,
            served.plan
        );
        for op in &stats.operators {
            assert!(
                op.output_rows <= fact_rows,
                "pick {pick}: {op:?} outgrew the fact table:\n{}",
                served.plan
            );
        }
    }
}

/// The materialized view genuinely replaces work: a view plan scans `VF_l`
/// instead of joining `F` with `D_l`, so it must not range over `D_l` at
/// all — the view is consulted, not recomputed.
#[test]
fn ec4_view_plans_drop_the_covered_dimension() {
    let ec4 = Ec4::new(3, 2, 0);
    let res = ec4.optimize();
    let view_plan = res
        .plans
        .iter()
        .find(|p| p.physical_used.contains(&ec4.view(1)))
        .expect("a VF1 plan must exist");
    let ranges: Vec<String> = view_plan
        .query
        .from
        .iter()
        .map(|b| format!("{:?}", b.range))
        .collect();
    assert!(
        !ranges.iter().any(|r| r.contains("D1")),
        "VF1 plan still joins D1: {ranges:?}\n{}",
        view_plan.query
    );
}
