//! Reproduces the paper's §5.3.1 table "Number of plans in EC2", whose rows
//! are `cnb_workloads::ec2::PAPER_PLAN_COUNTS`. One test per row, named
//! after its `[s, c, v]`.

use cnb_core::prelude::*;
use cnb_workloads::{ec2::PAPER_PLAN_COUNTS, Ec2};

/// Optimizes EC2 `[s, c, v]` under FB, OQF and OCS and compares the plan
/// counts with the paper's row for that shape.
fn check(shape: [usize; 3]) {
    let (_, paper) = PAPER_PLAN_COUNTS
        .iter()
        .find(|(row, _)| *row == shape)
        .expect("a row of the paper's table");
    let [s, c, v] = shape;
    let ec2 = Ec2::new(s, c, v);
    let opt = Optimizer::new(ec2.schema());
    let q = ec2.query();
    let count = |strategy| {
        let res = opt.optimize(&q, &OptimizerConfig::with_strategy(strategy));
        assert!(!res.timed_out, "{strategy} timed out on [{s},{c},{v}]");
        res.plans.len()
    };
    let got = [Strategy::Full, Strategy::Oqf, Strategy::Ocs].map(count);
    assert_eq!(got, *paper, "[{s},{c},{v}]: FB/OQF/OCS plan counts");
}

#[test]
fn row_1_3_1() {
    check([1, 3, 1]);
}

#[test]
fn row_1_3_2() {
    check([1, 3, 2]);
}

#[test]
fn row_1_4_3() {
    check([1, 4, 3]);
}

#[test]
fn row_2_5_1() {
    check([2, 5, 1]);
}

#[test]
fn row_1_5_1() {
    check([1, 5, 1]);
}

#[test]
fn row_1_5_2() {
    check([1, 5, 2]);
}

#[test]
fn row_1_5_3() {
    check([1, 5, 3]);
}

#[test]
fn row_1_5_4() {
    check([1, 5, 4]);
}

#[test]
fn row_3_5_1() {
    check([3, 5, 1]);
}
