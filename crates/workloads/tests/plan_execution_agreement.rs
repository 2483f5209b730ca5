//! End-to-end cross-validation: every plan the optimizer generates must
//! produce exactly the same result multiset as the original query when
//! executed on generated data — and, since the batched engine, the exact
//! *row order* of every execution must be reproducible: two independently
//! generated copies of the same dataset yield byte-identical
//! `ExecResult.rows` for every plan, with no `sorted()` shim. (Different
//! plans may still order rows differently from each other — join order
//! changes enumeration order — which is why the cross-*plan* agreement
//! check stays a sorted multiset comparison.) Rows and order must not
//! depend on the profile: the benchmark runs release.

mod support;

use cnb_core::prelude::*;
use cnb_engine::{execute, Database};
use cnb_ir::prelude::Query;
use cnb_workloads::{ec2::Ec2DataSpec, Ec1, Ec2, Ec3};
use support::{assert_exact_order_deterministic, sorted};

/// Sorted multiset agreement of every plan against the original query —
/// the pre-batching semantic check, kept as the cross-plan baseline.
fn assert_plans_agree_sorted(db: &Database, q: &Query, plans: &[PlanInfo]) {
    let baseline = sorted(&execute(db, q).unwrap().rows);
    assert!(!baseline.is_empty(), "dataset too selective for the test");
    for p in plans {
        let got = sorted(&execute(db, &p.query).unwrap().rows);
        assert_eq!(got, baseline, "plan diverges:\n{}", p.query);
    }
}

#[test]
fn ec2_plans_agree() {
    let ec2 = Ec2::new(2, 2, 1);
    // Fat joins so the end-to-end result is nonempty on a small dataset.
    let spec = Ec2DataSpec {
        rows: 200,
        corner_sel: 1.0,
        chain_sel: 0.5,
        ..Ec2DataSpec::default()
    };
    let db = ec2.generate(spec);
    let q = ec2.query();
    let opt = Optimizer::new(ec2.schema());
    let res = opt.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Full));
    assert!(res.plans.len() >= 4, "expected several plans");
    assert_plans_agree_sorted(&db, &q, &res.plans);
}

#[test]
fn ec1_plans_agree() {
    let ec1 = Ec1::new(3, 1);
    let db = ec1.generate(300, 0.3, 7);
    let q = ec1.query();
    let opt = Optimizer::new(ec1.schema());
    let res = opt.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Oqf));
    assert!(res.plans.len() >= 8, "2^3 scan/index choices at least");
    assert_plans_agree_sorted(&db, &q, &res.plans);
}

#[test]
fn ec3_plans_agree() {
    let ec3 = Ec3::new(3, 1);
    let db = ec3.generate(60, 3, 11);
    let q = ec3.query();
    let opt = Optimizer::new(ec3.schema());
    let res = opt.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Full));
    assert!(res.plans.len() >= 4);
    assert_plans_agree_sorted(&db, &q, &res.plans);
}

#[test]
fn ec1_execution_order_is_exact() {
    let ec1 = Ec1::new(3, 1);
    let (db_a, db_b) = (ec1.generate(300, 0.3, 7), ec1.generate(300, 0.3, 7));
    let q = ec1.query();
    assert!(
        !execute(&db_a, &q).unwrap().rows.is_empty(),
        "need nonempty results to pin order"
    );
    let opt = Optimizer::new(ec1.schema());
    let res = opt.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Oqf));
    assert_exact_order_deterministic(&db_a, &db_b, &res.plans);
}

#[test]
fn ec2_execution_order_is_exact() {
    let ec2 = Ec2::new(2, 2, 1);
    let spec = Ec2DataSpec {
        rows: 200,
        corner_sel: 1.0,
        chain_sel: 0.5,
        ..Ec2DataSpec::default()
    };
    let (db_a, db_b) = (ec2.generate(spec), ec2.generate(spec));
    let q = ec2.query();
    assert!(!execute(&db_a, &q).unwrap().rows.is_empty());
    let opt = Optimizer::new(ec2.schema());
    let res = opt.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Full));
    assert_exact_order_deterministic(&db_a, &db_b, &res.plans);
}

#[test]
fn ec3_execution_order_is_exact() {
    let ec3 = Ec3::new(3, 1);
    let (db_a, db_b) = (ec3.generate(60, 3, 11), ec3.generate(60, 3, 11));
    let q = ec3.query();
    assert!(!execute(&db_a, &q).unwrap().rows.is_empty());
    let opt = Optimizer::new(ec3.schema());
    let res = opt.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Full));
    assert_exact_order_deterministic(&db_a, &db_b, &res.plans);
}
