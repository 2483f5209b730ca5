//! Golden `ExecStats.operators` lists: what `feed_cost_model` was tuned on.
//!
//! The batched engine checks an operator's residual equalities on each
//! candidate before it is gathered, but still reports them as the cascade
//! of `filter` operators they used to be — one entry per equality, reading
//! what the previous one passed. These lists were recorded from the engine
//! that ran that cascade batch by batch (PR 17), on the suite's plans at
//! [`DataScale::smoke`]; every count must stay exactly what it was, so the
//! selectivities and fan-outs the cost model observes cannot drift — in the
//! release profile the benchmark runs as much as in debug.

use cnb_engine::{execute, execute_wcoj, ExecStats};
use cnb_ir::prelude::Query;
use cnb_workloads::{suite, DataScale};

/// `(op, input_rows, output_rows, pairs)` per operator, in pipeline order.
fn ops(stats: &ExecStats) -> Vec<(&'static str, usize, usize, usize)> {
    stats
        .operators
        .iter()
        .map(|o| (o.op, o.input_rows, o.output_rows, o.pairs))
        .collect()
}

/// The family's `i`-th emitted plan, which must still be the one recorded.
fn plan(family: usize, i: usize, from: &str) -> Query {
    let q = suite()[family].optimize().plans.swap_remove(i).query;
    let text = q.to_string();
    assert_eq!(text.lines().nth(1), Some(from), "plan {i} moved:\n{text}");
    q
}

#[test]
fn ec5_triangle_operator_stats_are_the_cascades() {
    let ec5 = &suite()[4];
    let db = ec5.generate_at(DataScale::smoke());
    // The triangle as written: the third edge closes through one filter.
    let stats = execute(&db, &ec5.query()).unwrap().stats;
    assert_eq!(
        ops(&stats),
        vec![
            ("scan", 1, 400, 0),
            ("hash_join", 400, 1624, 0),
            ("hash_join", 1624, 6710, 0),
            ("filter", 6710, 50, 0),
        ]
    );
    assert_eq!(stats.tuples_considered, 8734);
    // Two wedges joined on one equality, the other two as a cascade: the
    // second filter reads the 239 rows the first one passed.
    let wedges = plan(4, 0, "from W v_4, W v_5");
    let stats = execute(&db, &wedges).unwrap().stats;
    assert_eq!(
        ops(&stats),
        vec![
            ("scan", 1, 1624, 0),
            ("hash_join", 1624, 27691, 0),
            ("filter", 27691, 239, 0),
            ("filter", 239, 50, 0),
        ]
    );
    assert_eq!(stats.tuples_considered, 29315);
    // The generic join has no residual filters; pinned for completeness.
    let stats = execute_wcoj(&db, &ec5.query()).unwrap().stats;
    assert_eq!(
        ops(&stats),
        vec![
            ("wcoj_index", 400, 400, 0),
            ("wcoj_index", 400, 400, 0),
            ("wcoj_index", 400, 400, 0),
            ("wcoj_intersect", 94, 92, 0),
            ("wcoj_intersect", 380, 361, 0),
            ("wcoj_intersect", 1173, 50, 0),
        ]
    );
    assert_eq!(stats.tuples_considered, 3344);
}

#[test]
fn ec2_plan_operator_stats_are_unchanged() {
    let db = suite()[1].generate_at(DataScale::smoke());
    let q = plan(1, 2, "from R1 r1, R2 r2, S2_1 s2_1, S2_2 s2_2, V1_1 v_6");
    let stats = execute(&db, &q).unwrap().stats;
    assert_eq!(
        ops(&stats),
        vec![
            ("scan", 1, 200, 0),
            ("hash_join", 200, 106, 0),
            ("hash_join", 106, 108, 0),
            ("hash_join", 108, 88, 0),
            ("hash_join", 88, 104, 0),
        ]
    );
    assert_eq!(stats.tuples_considered, 606);
}

/// The index plans are where filters ride on `path_set`, `dom_probe` and
/// `dict_join`: EC1's all-index plan and EC4's fused secondary-index pair.
#[test]
fn index_plan_operator_stats_are_the_cascades() {
    let db = suite()[0].generate_at(DataScale::smoke());
    let from = "from dom SI1 k_4, SI1[k_4] t_5, dom PI2 k_3, dom PI3 k_3_1";
    let stats = execute(&db, &plan(0, 0, from)).unwrap().stats;
    assert_eq!(
        ops(&stats),
        vec![
            ("dom_scan", 1, 177, 0),
            ("path_set", 177, 200, 0),
            ("filter", 200, 200, 0),
            ("filter", 200, 200, 0),
            ("dom_probe", 200, 60, 0),
            ("filter", 60, 60, 0),
            ("dom_probe", 60, 19, 0),
            ("filter", 19, 19, 0),
        ]
    );
    assert_eq!(stats.tuples_considered, 456);

    let db = suite()[3].generate_at(DataScale::smoke());
    let from = "from VF1 v_4, VF2 v_5, dom SIF1 k_6, SIF1[k_6] t_7, D3 d3";
    let stats = execute(&db, &plan(3, 0, from)).unwrap().stats;
    assert_eq!(
        ops(&stats),
        vec![
            ("scan", 1, 100, 0),
            ("dict_join", 100, 118, 200),
            ("filter", 118, 118, 0),
            ("hash_join", 118, 71, 0),
            ("hash_join", 71, 51, 0),
        ]
    );
    assert_eq!(stats.tuples_considered, 340);
}
