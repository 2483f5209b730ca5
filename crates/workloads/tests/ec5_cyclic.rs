//! EC5 suite: cyclic joins over the edge relation. It carries the
//! subsystem's headline assertion — the backchase finds a wedge-view plan
//! for the triangle that **no join reordering of the original query could
//! produce**, since the original ranges over `E` alone — plus literal
//! golden rows and the secondary shapes. That every triangle and 4-cycle
//! plan answers its request (as a set; the `W ⋈ W` plans' multisets
//! differ), in a reproducible row order that matches the `execute_legacy`
//! oracle, on uniform and skewed graphs, is the workloads' one
//! differential (`support`): the two tests below run it on EC5's graph
//! cases, and `workload_suite.rs` runs it over every case.

mod support;

use cnb_engine::datagen::EdgeDist;
use cnb_engine::{execute, execute_legacy, Database};
use cnb_ir::prelude::{sym, Range, Value};
use cnb_workloads::{ec5::Ec5DataSpec, Ec5, Workload};
use support::distinct;

// A small uniform graph: cyclic outputs grow with (edges/nodes)^k, and
// debug-mode test budgets want outputs in the hundreds, not tens of
// thousands.
fn graph() -> Ec5DataSpec {
    Ec5DataSpec {
        nodes: 50,
        edges: 250,
        dist: EdgeDist::Uniform,
        seed: 11,
    }
}

/// The acceptance-criterion test: on the triangle query, C&B produces a
/// wedge-view plan that the greedy join planner alone could not. The greedy
/// planner (`cnb_engine::join`) only *reorders* the bindings of the query
/// it is given — every plan it can express ranges over the collections the
/// query already mentions, here exactly `E`. The backchase emits a plan
/// ranging over `W`, a collection the original query does not mention, and
/// that plan computes the same answer on data.
#[test]
fn triangle_backchase_finds_plan_greedy_join_planner_cannot() {
    let ec5 = Ec5::triangle();
    let q = ec5.query();
    // Premise of the argument: the original query ranges over E alone.
    assert!(
        q.from
            .iter()
            .all(|b| matches!(b.range, Range::Name(s) if s == ec5.edges())),
        "triangle query must range over the edge relation only"
    );
    let res = ec5.optimize();
    assert!(!res.timed_out);
    let exp = ec5.expectations();
    assert!(
        res.plans.len() >= exp.min_plans,
        "expected at least {} plans, got {}",
        exp.min_plans,
        res.plans.len()
    );
    let wedge_plan = res
        .plans
        .iter()
        .find(|p| p.physical_used.contains(&ec5.wedge()))
        .expect("backchase must find a plan ranging over the wedge view W");
    assert!(
        wedge_plan.query.arity() < q.arity(),
        "the wedge plan replaces two edge joins with one view scan"
    );

    // And the exotic plan is *correct*: same answer set as the original.
    let db = ec5.generate(graph());
    let baseline = distinct(&execute(&db, &q).unwrap().rows);
    assert!(
        !baseline.is_empty(),
        "dataset too sparse to close triangles"
    );
    assert_eq!(
        distinct(&execute(&db, &wedge_plan.query).unwrap().rows),
        baseline,
        "wedge plan diverges:\n{}",
        wedge_plan.query
    );
}

/// Every triangle plan answers its request on the uniform and the skewed
/// graph, with the multiset differences `support::GOLDEN` pins.
#[test]
fn ec5_plans_agree_on_uniform_and_skewed_data() {
    for label in ["EC5 triangle, uniform", "EC5 triangle, skewed"] {
        support::assert_verdict_is_golden(label);
    }
}

/// Every plan's rows and their order are a pure function of the data and
/// equal the nested-loop oracle's — on the triangle, uniform and skewed,
/// and on the 4-cycle (whose outputs grow a full power faster), uniform.
#[test]
fn ec5_execution_order_is_exact() {
    for label in [
        "EC5 triangle, uniform",
        "EC5 triangle, skewed",
        "EC5 4-cycle, uniform",
    ] {
        support::assert_rows_are_exact(&support::case(label));
    }
}

/// Literal golden rows: a handcrafted 5-edge graph with exactly one directed
/// triangle (0 → 1 → 2 → 0). The three output rows are its three rotations,
/// pinned in exact engine order — any change to join planning, hash-table
/// order or batch enumeration shows up here as a diff, not a flake.
#[test]
fn triangle_golden_rows_pinned() {
    let ec5 = Ec5::triangle();
    let mut db = Database::new();
    let edge =
        |s: i64, t: i64| Value::record([(sym("S"), Value::Int(s)), (sym("T"), Value::Int(t))]);
    for (s, t) in [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)] {
        db.insert_row(ec5.edges(), edge(s, t));
    }
    db.materialize_physical(&Workload::schema(&ec5)).unwrap();
    // The wedge view holds every two-hop path of the 5-edge graph.
    assert_eq!(db.table(ec5.wedge()).len(), 6);

    let row = |a: i64, b: i64, c: i64| {
        Value::record([
            (sym("N1"), Value::Int(a)),
            (sym("N2"), Value::Int(b)),
            (sym("N3"), Value::Int(c)),
        ])
    };
    let expected = vec![row(0, 1, 2), row(1, 2, 0), row(2, 0, 1)];
    let got = execute(&db, &ec5.query()).unwrap().rows;
    assert_eq!(got, expected, "triangle rotations in pinned engine order");
    assert_eq!(
        execute_legacy(&db, &ec5.query()).unwrap().rows,
        expected,
        "oracle agrees with the pinned order"
    );

    // Every optimized plan (wedge plans included) finds exactly the three
    // rotations.
    for p in &ec5.optimize().plans {
        assert_eq!(
            distinct(&execute(&db, &p.query).unwrap().rows),
            distinct(&expected),
            "plan diverges on the handcrafted graph:\n{}",
            p.query
        );
    }
}

/// The secondary shapes — K3 clique and open paths — execute, are
/// deterministic, and agree with the oracle. (The directed K3 clique is the
/// *transitive* triangle, a different query from the cyclic one.)
#[test]
fn clique_and_path_queries_execute_deterministically() {
    let ec5 = Ec5::triangle();
    let (db_a, db_b) = (ec5.generate(graph()), ec5.generate(graph()));
    for q in [ec5.clique_query(3), ec5.path_query(2), ec5.path_query(3)] {
        let a = execute(&db_a, &q).unwrap();
        assert!(!a.rows.is_empty(), "query returned nothing:\n{q}");
        assert_eq!(a.rows, execute(&db_b, &q).unwrap().rows, "order unstable");
        assert_eq!(
            a.rows,
            execute_legacy(&db_a, &q).unwrap().rows,
            "batched diverges from oracle:\n{q}"
        );
    }
}
