//! `ExecStats::index_entries_built` on served point requests: what a
//! request writes into build-side structures, pinned at a fixed scale and
//! seed on the EC2 and EC4 serving templates.
//!
//! A hash join builds its table the first time it runs with rows, so an
//! EC2 request whose second join matches nothing indexes `R1` and `V1_1`
//! but never `V2_1`; the oracle, which builds every table up front, indexes
//! all three. A `dict_join` keeps only the pairs of the values its rows ask
//! for, so an EC4 request writes a handful of `SIF1`'s pairs, not all.

use cnb_core::prelude::OptimizerConfig;
use cnb_engine::{execute_legacy, ExecResult, PlanServer};
use cnb_ir::prelude::Query;
use cnb_workloads::{suite, DataScale, Workload};

fn scale() -> DataScale {
    DataScale::new(400, 7)
}

/// Serves `picks` of `w`'s serving template through one server; returns
/// each request's served plan and result.
fn serve(w: &dyn Workload, picks: &[u64]) -> Vec<(Query, ExecResult)> {
    let db = w.generate_at(scale());
    let mut server = PlanServer::new(
        w.optimizer(),
        OptimizerConfig::with_strategy(w.expectations().strategy),
    );
    picks
        .iter()
        .map(|&pick| {
            let (served, res) = server.serve(&db, &w.serving_query(scale(), pick)).unwrap();
            let oracle = execute_legacy(&db, &served.plan).unwrap();
            assert_eq!(res.rows, oracle.rows, "{} pick {pick}", w.name());
            (served.plan, res)
        })
        .collect()
}

/// `(op, collection, input_rows, output_rows)` per access operator.
fn accesses(res: &ExecResult) -> Vec<(&'static str, String, usize, usize)> {
    res.stats
        .operators
        .iter()
        .filter_map(|o| Some((o.op, o.collection?.to_string(), o.input_rows, o.output_rows)))
        .collect()
}

#[test]
fn ec2_builds_only_the_tables_its_rows_probe() {
    let ec2 = &suite()[1];
    let served = serve(ec2.as_ref(), &[0, 7]);
    let plan = served[0].0.to_string();
    assert_eq!(
        plan.lines().nth(1),
        Some("from R1 r1, V1_1 v_6, V2_1 v_7"),
        "{plan}"
    );
    let db = ec2.generate_at(scale());
    let (r1, v1, v2) = (400, 380, 431);

    // Pick 0: the hub's one row joins no `V1_1` row, so `V2_1` is probed
    // with nothing and never built.
    let (plan, empty) = &served[0];
    assert_eq!(
        accesses(empty),
        vec![
            ("hash_join", "R1".into(), 1, 1),
            ("hash_join", "V1_1".into(), 1, 0),
            ("hash_join", "V2_1".into(), 0, 0),
        ]
    );
    assert_eq!(empty.stats.index_entries_built, r1 + v1);
    let eager = execute_legacy(&db, plan).unwrap().stats;
    assert_eq!(eager.index_entries_built, r1 + v1 + v2);

    // Pick 7 reaches the third join, which builds its table.
    let (_, full) = &served[1];
    assert_eq!(full.rows.len(), 12);
    assert_eq!(full.stats.index_entries_built, r1 + v1 + v2);
}

#[test]
fn ec4_dict_join_keeps_only_the_pairs_its_rows_ask_for() {
    let ec4 = &suite()[3];
    let served = serve(ec4.as_ref(), &[0, 7]);
    let plan = served[0].0.to_string();
    assert_eq!(
        plan.lines().nth(1),
        Some("from VF1 v_4, VF2 v_5, dom SIF1 k_6, SIF1[k_6] t_7, D3 d3"),
        "{plan}"
    );
    // Every table the plan hash-joins, whole: `VF1`, `VF2` and `D3`.
    let tables = 257 + 265 + 200;
    for ((_, res), asking) in served.iter().zip([6, 13]) {
        let dict_join = res
            .stats
            .operators
            .iter()
            .find(|o| o.op == "dict_join")
            .unwrap();
        // `SIF1` holds 400 pairs; each row asks for its own fact key, and
        // one pair holds each: one pair kept per row.
        assert_eq!((dict_join.pairs, dict_join.input_rows), (400, asking));
        assert_eq!(res.stats.index_entries_built, tables + asking);
    }
}
