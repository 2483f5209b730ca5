//! Parser-driven end-to-end tests: the OQL-like surface syntax round-trips
//! every family's queries and constraints, and a *parsed* query drives
//! chase-and-backchase with the same results as its programmatically built
//! twin.
//!
//! The round trip leans on `Display` emitting exactly the parser's grammar:
//! `Query` / `Constraint` render with human variable names, `parse_query` /
//! `parse_constraint` re-bind them, and the oracle (`roundtrip/mod.rs`)
//! compares the parsed IR with the original up to variable renumbering.

mod roundtrip;

use chase_too_far::core::prelude::{chase_and_backchase, BackchaseConfig};
use chase_too_far::ir::prelude::*;
use chase_too_far::workloads::{suite, Ec1, Ec2, Ec3, Ec4, Ec5, Workload};

fn assert_query_roundtrip(label: &str, q: &Query) {
    roundtrip::query_roundtrip(q)
        .unwrap_or_else(|e| panic!("{label}: rendered query failed to parse: {e}\n{q}"));
}

fn assert_constraint_roundtrip(label: &str, c: &Constraint) {
    roundtrip::constraint_roundtrip(c).unwrap_or_else(|e| {
        panic!(
            "{label}/{}: rendered constraint failed to parse: {e}\n{c}",
            c.name
        )
    });
}

#[test]
fn ec1_queries_and_constraints_roundtrip() {
    let ec1 = Ec1::new(4, 2);
    assert_query_roundtrip("ec1", &ec1.query());
    for c in &ec1.schema().all_constraints() {
        assert_constraint_roundtrip("ec1", c);
    }
}

#[test]
fn ec2_queries_and_constraints_roundtrip() {
    let ec2 = Ec2::new(2, 3, 1);
    assert_query_roundtrip("ec2", &ec2.query());
    for c in &ec2.schema().all_constraints() {
        assert_constraint_roundtrip("ec2", c);
    }
}

#[test]
fn ec3_queries_and_constraints_roundtrip() {
    let ec3 = Ec3::new(3, 1);
    assert_query_roundtrip("ec3", &ec3.query());
    for c in &ec3.schema().all_constraints() {
        assert_constraint_roundtrip("ec3", c);
    }
}

#[test]
fn ec4_queries_and_constraints_roundtrip() {
    let ec4 = Ec4::new(3, 2, 1);
    assert_query_roundtrip("ec4", &Workload::query(&ec4));
    for c in &ec4.schema().all_constraints() {
        assert_constraint_roundtrip("ec4", c);
    }
}

#[test]
fn ec5_queries_and_constraints_roundtrip() {
    let ec5 = Ec5::new(4, true, true);
    assert_query_roundtrip("ec5-cycle", &ec5.cycle_query());
    assert_query_roundtrip("ec5-clique", &ec5.clique_query(4));
    assert_query_roundtrip("ec5-path", &ec5.path_query(3));
    for c in &ec5.schema().all_constraints() {
        assert_constraint_roundtrip("ec5", c);
    }
}

/// Every plan the optimizer emits for every suite family prints a text that
/// parses back to that plan. A plan reassembled from fragments (OQF, OCS)
/// concatenates fragment plans chased apart, so two of its bindings can
/// come from bindings of one name; each must print under its own.
#[test]
fn suite_plans_roundtrip() {
    for w in suite() {
        for (i, plan) in w.optimize().plans.iter().enumerate() {
            assert_query_roundtrip(&format!("{} plan {i}", w.name()), &plan.query);
        }
    }
}

/// End to end on EC5: the triangle query written in the surface syntax,
/// optimized under parser-round-tripped wedge-view constraints, yields
/// exactly the plans of the programmatically built twin — the full
/// parse → chase → backchase pipeline on the new workload.
#[test]
fn parsed_triangle_drives_chase_and_backchase() {
    let parsed_q = parse_query(
        "select struct(N1 = e1.S, N2 = e2.S, N3 = e3.S) \
         from E e1, E e2, E e3 \
         where e1.T = e2.S and e2.T = e3.S and e3.T = e1.S",
    )
    .expect("surface triangle parses");

    let ec5 = Ec5::triangle();
    let built_q = ec5.cycle_query();
    assert_eq!(parsed_q.canonical_key(), built_q.canonical_key());

    let constraints: Vec<Constraint> = ec5
        .schema()
        .all_constraints()
        .iter()
        .map(|c| parse_constraint(&c.name, &c.to_string()).expect("constraint parses"))
        .collect();

    let cfg = BackchaseConfig::default();
    let from_parsed = chase_and_backchase(&parsed_q, &constraints, &cfg);
    let from_built = chase_and_backchase(&built_q, &ec5.schema().all_constraints(), &cfg);
    assert!(!from_parsed.timed_out);
    assert_eq!(from_parsed.plans.len(), from_built.plans.len());
    assert_eq!(from_parsed.explored, from_built.explored);
    let texts = |r: &chase_too_far::core::prelude::BackchaseResult| -> Vec<String> {
        r.plans.iter().map(|p| p.to_string()).collect()
    };
    assert_eq!(texts(&from_parsed), texts(&from_built));
    // The wedge rewrite survives the parser route too.
    assert!(
        from_parsed
            .plans
            .iter()
            .any(|p| p.to_string().contains("W ")),
        "no wedge plan from the parsed query"
    );
}

/// End to end: a query written in the surface syntax, optimized under
/// constraints that themselves went through the parser, yields exactly the
/// plans of the programmatically built equivalent — chase, backchase and
/// all.
#[test]
fn parsed_query_drives_chase_and_backchase() {
    // The EC1 [2, 0] chain query, as a user would type it.
    let parsed_q = parse_query(
        "select struct(K1 = r1.K, K2 = r2.K) \
         from R1 r1, R2 r2 \
         where r1.N = r2.K",
    )
    .expect("surface query parses");

    let ec1 = Ec1::new(2, 0);
    let built_q = ec1.query();
    assert_eq!(parsed_q.canonical_key(), built_q.canonical_key());

    // Round-trip the schema's constraints through the parser too.
    let constraints: Vec<Constraint> = ec1
        .schema()
        .all_constraints()
        .iter()
        .map(|c| parse_constraint(&c.name, &c.to_string()).expect("constraint parses"))
        .collect();

    let cfg = BackchaseConfig::default();
    let from_parsed = chase_and_backchase(&parsed_q, &constraints, &cfg);
    let from_built = chase_and_backchase(&built_q, &ec1.schema().all_constraints(), &cfg);

    // 2 relations with one primary index each → 2² plans, same either way.
    assert_eq!(from_parsed.plans.len(), 4);
    assert_eq!(from_parsed.plans.len(), from_built.plans.len());
    assert_eq!(from_parsed.explored, from_built.explored);
    let texts = |r: &chase_too_far::core::prelude::BackchaseResult| -> Vec<String> {
        r.plans.iter().map(|p| p.to_string()).collect()
    };
    assert_eq!(texts(&from_parsed), texts(&from_built));
    assert!(!from_parsed.timed_out);
}
