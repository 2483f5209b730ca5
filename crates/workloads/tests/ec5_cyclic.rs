//! EC5 golden + differential suite: cyclic joins over the edge relation.
//!
//! Same contract as `plan_execution_agreement.rs`: every plan's row *order*
//! must be a pure function of (db, plan) — checked against two
//! independently generated copies of the dataset with no `sorted()` shim —
//! and the batched engine must agree byte-for-byte with the
//! `execute_legacy` tuple-at-a-time oracle. On top of that, EC5 carries the
//! subsystem's headline assertion: the backchase finds a wedge-view plan
//! for the triangle that **no join reordering of the original query could
//! produce**, since the original ranges over `E` alone.

mod support;

use cnb_engine::datagen::EdgeDist;
use cnb_engine::{execute, execute_legacy, Database};
use cnb_ir::prelude::{sym, Range, Value};
use cnb_workloads::{ec5::Ec5DataSpec, Ec5, Workload};
use support::{assert_exact_order_deterministic, distinct};

// Small graphs: cyclic outputs grow with (edges/nodes)^k, and skew piles
// further multiplicity onto the hub nodes — debug-mode test budgets want
// outputs in the hundreds, not tens of thousands.
fn spec(dist: EdgeDist) -> Ec5DataSpec {
    Ec5DataSpec {
        nodes: 50,
        edges: 250,
        dist,
        seed: 11,
    }
}

const SKEW: EdgeDist = EdgeDist::Skewed(2.0);

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
    let db = ec5.generate(spec(EdgeDist::Uniform));
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

/// Every triangle plan agrees with the original query on both the uniform
/// and the skewed dataset (distinct answer sets — see [`distinct`]).
#[test]
fn ec5_plans_agree_on_uniform_and_skewed_data() {
    let ec5 = Ec5::triangle();
    let q = ec5.query();
    let res = ec5.optimize();
    assert!(res.plans.len() >= 2);
    for dist in [EdgeDist::Uniform, SKEW] {
        let db = ec5.generate(spec(dist));
        let baseline = distinct(&execute(&db, &q).unwrap().rows);
        assert!(!baseline.is_empty(), "dataset too sparse for {dist:?}");
        for p in &res.plans {
            assert_eq!(
                distinct(&execute(&db, &p.query).unwrap().rows),
                baseline,
                "plan diverges on {dist:?}:\n{}",
                p.query
            );
        }
    }
}

/// Exact-order golden test: two independently generated copies of each
/// dataset yield byte-identical rows for every plan, and the batched engine
/// matches the tuple-at-a-time oracle — on the triangle and the 4-cycle,
/// uniform and skewed.
#[test]
fn ec5_execution_order_is_exact() {
    // Triangle on uniform and skewed data; the 4-cycle (whose outputs grow
    // a full power faster) on uniform only.
    let cases = [
        (Ec5::triangle(), EdgeDist::Uniform),
        (Ec5::triangle(), SKEW),
        (Ec5::four_cycle(), EdgeDist::Uniform),
    ];
    for (ec5, dist) in cases {
        let res = ec5.optimize();
        assert!(!res.plans.is_empty());
        let (db_a, db_b) = (ec5.generate(spec(dist)), ec5.generate(spec(dist)));
        assert!(
            !execute(&db_a, &ec5.query()).unwrap().rows.is_empty(),
            "need nonempty results to pin order (cycle {}, {dist:?})",
            ec5.cycle
        );
        assert_exact_order_deterministic(&db_a, &db_b, &res.plans);
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
    let (db_a, db_b) = (
        ec5.generate(spec(EdgeDist::Uniform)),
        ec5.generate(spec(EdgeDist::Uniform)),
    );
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
