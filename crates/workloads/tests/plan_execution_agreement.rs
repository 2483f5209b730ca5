//! EC1–EC3 through the workloads' one differential (`support`), one test
//! per family and check: every plan answers the request with the multiset
//! `support::GOLDEN` pins, and every plan's rows and their order are a
//! pure function of the data and equal the `execute_legacy` oracle's.
//! `workload_suite.rs` runs the same checks over every case.

mod support;

use support::{assert_rows_are_exact, assert_verdict_is_golden, case};

#[test]
fn ec1_plans_agree() {
    assert_verdict_is_golden("EC1");
}

#[test]
fn ec2_plans_agree() {
    assert_verdict_is_golden("EC2");
}

#[test]
fn ec3_plans_agree() {
    assert_verdict_is_golden("EC3");
}

#[test]
fn ec1_execution_order_is_exact() {
    assert_rows_are_exact(&case("EC1"));
}

#[test]
fn ec2_execution_order_is_exact() {
    assert_rows_are_exact(&case("EC2"));
}

#[test]
fn ec3_execution_order_is_exact() {
    assert_rows_are_exact(&case("EC3"));
}
