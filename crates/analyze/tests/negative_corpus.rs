//! The negative-case corpus: one deliberately broken input per validator
//! discipline, each pinned to the *specific* [`ValidateError`] variant and
//! message the ISSUE's acceptance criteria name. These are the cases the
//! chase literature (and PR 5's runtime history) says actually bite:
//! unbound head variables, premises leaking existential variables,
//! arity/schema disagreement, cross-product plan shapes, and constraint
//! sets whose firing graph lets the chase diverge.

use cnb_analyze::agm::query_bound;
use cnb_analyze::prelude::*;
use cnb_core::strata::{certify, CertifyError};
use cnb_ir::prelude::*;

/// A two-relation schema shared by the query-level cases.
fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_relation("R", [(sym("K"), Type::Int), (sym("N"), Type::Int)]);
    s.add_relation("S", [(sym("K"), Type::Int), (sym("B"), Type::Int)]);
    s
}

#[test]
fn unbound_head_variable_is_rejected() {
    let s = schema();
    let mut q = Query::new();
    let r = q.bind("r", Range::Name(sym("R")));
    q.output("K", PathExpr::from(r).dot("K"));
    // A head term over a variable no from-clause entry introduces.
    q.output("X", PathExpr::from(Var(99)).dot("N"));
    let err = validate_query(&s, &q).unwrap_err();
    assert_eq!(
        err,
        ValidateError::Scope {
            context: "query".into(),
            error: ScopeError::Unbound {
                clause: Clause::Select(sym("X")),
                var: Var(99),
            },
        }
    );
    let shown = err.to_string();
    assert!(shown.contains("select-clause"), "{shown}");
    assert!(shown.contains("unbound variable $99"), "{shown}");
}

#[test]
fn forward_range_reference_is_rejected() {
    let s = schema();
    let mut q = Query::new();
    // `r` ranges over a path through `k`, but `k` is bound *after* it.
    let k = Var(1);
    q.from.push(Binding {
        var: Var(0),
        name: Symbol::new("r"),
        range: Range::Expr(PathExpr::from(k).dot("N")),
    });
    q.from.push(Binding {
        var: k,
        name: Symbol::new("k"),
        range: Range::Name(sym("R")),
    });
    q.output("K", PathExpr::from(k).dot("K"));
    let err = validate_query(&s, &q).unwrap_err();
    assert_eq!(
        err,
        ValidateError::Scope {
            context: "query".into(),
            error: ScopeError::ForwardReference {
                binding: sym("r"),
                var: k,
            },
        }
    );
    assert!(err.to_string().contains("bound later"), "{err}");
}

#[test]
fn premise_referencing_existential_variable_is_rejected() {
    let s = schema();
    let mut c = Constraint::new("bad_premise");
    let r = c.forall("r", Range::Name(sym("R")));
    let x = c.exists("x", Range::Name(sym("S")));
    // The premise must be a condition over the universal part only; here it
    // leaks the existential witness.
    c.given(PathExpr::from(r).dot("K"), PathExpr::from(x).dot("K"));
    c.then(PathExpr::from(r).dot("N"), PathExpr::from(x).dot("B"));
    let err = validate_constraint(&s, &c).unwrap_err();
    assert_eq!(
        err,
        ValidateError::Scope {
            context: "constraint bad_premise".into(),
            error: ScopeError::Unbound {
                clause: Clause::Premise,
                var: x,
            },
        }
    );
    assert!(err.to_string().contains("non-universal variable"), "{err}");
}

#[test]
fn conclusion_referencing_unbound_variable_is_rejected() {
    let s = schema();
    let mut c = Constraint::new("bad_conclusion");
    let r = c.forall("r", Range::Name(sym("R")));
    // An EGD equating a bound term with a term over a variable neither
    // quantifier introduces.
    c.then(PathExpr::from(r).dot("K"), PathExpr::from(Var(7)).dot("K"));
    let err = validate_constraint(&s, &c).unwrap_err();
    assert_eq!(
        err,
        ValidateError::Scope {
            context: "constraint bad_conclusion".into(),
            error: ScopeError::Unbound {
                clause: Clause::Conclusion,
                var: Var(7),
            },
        }
    );
    assert!(err.to_string().contains("$7"), "{err}");
}

#[test]
fn arity_mismatch_is_rejected_by_the_typechecker() {
    let s = schema();
    let mut q = Query::new();
    let r = q.bind("r", Range::Name(sym("R")));
    // R has no attribute "Z": schema disagreement, caught by typecheck.
    q.output("Z", PathExpr::from(r).dot("Z"));
    let err = validate_query(&s, &q).unwrap_err();
    match &err {
        ValidateError::Type { detail } => {
            assert!(detail.contains('Z'), "{err}");
        }
        other => panic!("expected Type, got {other:?}"),
    }
}

#[test]
fn disconnected_plan_is_rejected() {
    let s = schema();
    let mut q = Query::new();
    let r = q.bind("r", Range::Name(sym("R")));
    let t = q.bind("t", Range::Name(sym("S")));
    // No equality links r and t: the classic cross-product shape.
    q.output("K", PathExpr::from(r).dot("K"));
    q.output("B", PathExpr::from(t).dot("B"));
    assert_eq!(join_components(&q), 2);
    // As a *query* it is legal (the engine can evaluate it) ...
    validate_query(&s, &q).expect("cartesian query is well-formed");
    // ... but as an optimizer-emitted *plan* it is rejected.
    let err = validate_plan(&s, &q).unwrap_err();
    match &err {
        ValidateError::DisconnectedPlan { components } => {
            assert_eq!(*components, 2, "{err}");
        }
        other => panic!("expected DisconnectedPlan, got {other:?}"),
    }
    assert!(err.to_string().contains("cross product"), "{err}");
}

/// Ground terms join bindings only when they are the same value, not when
/// they look alike: `7` and `7.0` are an int and a float, and NaNs with
/// different payloads both print `NaN` but differ bit for bit
/// (`Value::eq`). The typechecker refuses the first shape as a plan; the
/// second is well-typed and must be refused as a cross product.
#[test]
fn ground_terms_that_print_alike_do_not_connect() {
    let mut q = Query::new();
    let r = q.bind("r", Range::Name(sym("R")));
    let t = q.bind("t", Range::Name(sym("S")));
    q.equate(PathExpr::from(r).dot("K"), PathExpr::from(7i64));
    q.equate(
        PathExpr::from(t).dot("K"),
        PathExpr::from(Value::Float(7.0)),
    );
    assert_eq!(join_components(&q), 2, "7 and 7.0 are different values");

    let mut s = Schema::new();
    s.add_relation("F", [(sym("X"), Type::Float)]);
    s.add_relation("G", [(sym("X"), Type::Float)]);
    let other_nan = f64::from_bits(f64::NAN.to_bits() | 1);
    let mut q = Query::new();
    let f = q.bind("f", Range::Name(sym("F")));
    let g = q.bind("g", Range::Name(sym("G")));
    q.equate(
        PathExpr::from(f).dot("X"),
        PathExpr::from(Value::Float(f64::NAN)),
    );
    q.equate(
        PathExpr::from(g).dot("X"),
        PathExpr::from(Value::Float(other_nan)),
    );
    q.output("X", PathExpr::from(f).dot("X"));
    assert_eq!(join_components(&q), 2, "distinct NaN payloads do not join");
    validate_query(&s, &q).expect("a well-typed cartesian query");
    assert_eq!(
        validate_plan(&s, &q),
        Err(ValidateError::DisconnectedPlan { components: 2 })
    );
}

#[test]
fn diverging_constraint_cycle_is_rejected_as_non_terminating() {
    let s = schema();
    // R.K ⊆ S.K and S.B ⊆ R.N: each inclusion invents fresh values for the
    // attributes the other's frontier reads — the firing graph has a cycle
    // through a special (null-creating) edge, so the chase may not
    // terminate.
    let mut fwd = Constraint::new("r_into_s");
    let r = fwd.forall("r", Range::Name(sym("R")));
    let x = fwd.exists("x", Range::Name(sym("S")));
    fwd.then(PathExpr::from(r).dot("K"), PathExpr::from(x).dot("K"));
    let mut bwd = Constraint::new("s_into_r");
    let t = bwd.forall("t", Range::Name(sym("S")));
    let y = bwd.exists("y", Range::Name(sym("R")));
    bwd.then(PathExpr::from(t).dot("B"), PathExpr::from(y).dot("N"));
    let err = certify(&s, &[fwd, bwd]).unwrap_err();
    match &err {
        CertifyError::NonTerminating { cycle } => {
            assert!(cycle.contains("special edge"), "{err}");
            assert!(cycle.contains("cycle"), "{err}");
        }
        other => panic!("expected NonTerminating, got {other:?}"),
    }
    assert!(err.to_string().contains("may not terminate"), "{err}");
}

#[test]
fn terminating_variants_of_the_corpus_pass() {
    // Control group: the same shapes, repaired, validate cleanly — the
    // corpus rejections above are not false positives of an always-failing
    // validator.
    let s = schema();
    let mut q = Query::new();
    let r = q.bind("r", Range::Name(sym("R")));
    let t = q.bind("t", Range::Name(sym("S")));
    q.equate(PathExpr::from(r).dot("N"), PathExpr::from(t).dot("K"));
    q.output("K", PathExpr::from(r).dot("K"));
    validate_plan(&s, &q).expect("connected, well-typed plan");

    let mut fk = Constraint::new("r_n_into_s_k");
    let rv = fk.forall("r", Range::Name(sym("R")));
    let xv = fk.exists("x", Range::Name(sym("S")));
    fk.then(PathExpr::from(rv).dot("N"), PathExpr::from(xv).dot("K"));
    validate_constraint(&s, &fk).expect("well-formed RIC");
    certify(&s, &[fk]).expect("a single FK terminates");
}

// ---------------------------------------------------------------------------
// Golden AGM certifier verdicts: the bounds and verdicts for EC1–EC5 are
// part of the repo's contract — a certifier change that shifts any of them
// must be a conscious decision.
// ---------------------------------------------------------------------------

#[test]
fn golden_agm_verdicts_for_the_whole_suite() {
    let certs = validate_suite().unwrap_or_else(|e| panic!("{e}"));
    let golden: Vec<(String, String, &str)> = certs
        .iter()
        .map(|c| (c.name.clone(), c.bound.to_string(), c.verdict.name()))
        .collect();
    let expect = [
        ("EC1", "3", "certified"),
        ("EC2", "6", "certified"),
        ("EC3", "2", "certified"),
        ("EC4", "4", "certified"),
        // Flipped from "wcoj-needed" when the generic-join operator and
        // its optimizer plan twins landed: the left-deep base plans still
        // exceed 3/2, but the WCOJ twin meets the full-query bound.
        ("EC5", "3/2", "wcoj-closed"),
    ];
    assert_eq!(golden.len(), expect.len());
    for ((name, bound, verdict), (en, eb, ev)) in golden.iter().zip(expect) {
        assert_eq!(name, en);
        assert_eq!(bound, eb, "{name} bound");
        assert_eq!(*verdict, ev, "{name} verdict");
    }
    // Every certificate re-verifies by plain arithmetic: the optimal
    // cover of each plan's worst prefix is feasible and costs `worst`.
    for c in &certs {
        let w = cnb_workloads::suite()
            .into_iter()
            .find(|w| w.name() == c.name)
            .expect("suite member");
        let schema = w.schema();
        let plans = w.optimize().plans;
        for p in &c.plans {
            let hg = cnb_ir::hypergraph::prefix_hypergraph(
                &schema,
                &plans[p.index].query,
                p.worst_prefix,
            )
            .unwrap_or_else(|e| panic!("{}: plan {}: {e}", c.name, p.index));
            let weights: Vec<Rat> = p.cover.iter().map(|c| c.weight).collect();
            let cost = verify_cover(&hg, &weights)
                .unwrap_or_else(|e| panic!("{}: plan {}: {e}", c.name, p.index));
            assert_eq!(
                cost, p.worst,
                "{}: plan {} certificate cost",
                c.name, p.index
            );
        }
    }
}

#[test]
fn golden_shape_report_flags_triangle_and_clique_but_not_even_cycle() {
    // The EC5 cyclic shapes judged on their declared binding order, with no
    // optimizer: the triangle exceeds its bound under every binary order,
    // the 4-clique's canonical pair order binds all of node 1's and node
    // 2's edges before e3_4 (a five-scan double star with four dangling
    // targets: 4 > 2), and the 4-cycle meets its bound as a chain.
    let tri = cnb_workloads::Ec5::triangle();
    let four = cnb_workloads::Ec5::four_cycle();
    let shapes = [
        ("triangle", tri.schema(), tri.cycle_query()),
        ("4-clique", tri.schema(), tri.clique_query(4)),
        ("4-cycle", four.schema(), four.cycle_query()),
    ];
    let golden: Vec<(String, String, String, bool)> = shapes
        .iter()
        .map(|(name, schema, query)| {
            let (bound, _) = query_bound(schema, query).unwrap_or_else(|e| panic!("{e}"));
            let worst = plan_agm(schema, query, 0, bound)
                .unwrap_or_else(|e| panic!("{e}"))
                .worst;
            (
                name.to_string(),
                bound.to_string(),
                worst.to_string(),
                worst.checked_cmp(&bound).unwrap().is_gt(),
            )
        })
        .collect();
    assert_eq!(
        golden,
        vec![
            (
                "triangle".to_string(),
                "3/2".to_string(),
                "2".to_string(),
                true
            ),
            (
                "4-clique".to_string(),
                "2".to_string(),
                "4".to_string(),
                true
            ),
            (
                "4-cycle".to_string(),
                "2".to_string(),
                "2".to_string(),
                false
            ),
        ]
    );
}
