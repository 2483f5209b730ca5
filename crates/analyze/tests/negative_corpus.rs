//! The negative-case corpus: one deliberately broken input per validator
//! discipline, each pinned to the *specific* [`ValidateError`] variant and
//! message the ISSUE's acceptance criteria name. These are the cases the
//! chase literature (and PR 5's runtime history) says actually bite:
//! unbound head variables, premises leaking existential variables,
//! arity/schema disagreement, cross-product plan shapes, and constraint
//! sets whose firing graph lets the chase diverge.

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
// The determinism scan: seeded violations of `clippy.toml`'s entries, the
// sanction that is gone and the one that is left, with the needles
// assembled by concatenation so this corpus never spells one out. Every
// finding is at the needle's (or the stale attribute's) own line.
// ---------------------------------------------------------------------------

fn taint_of(files: &[(&str, String)]) -> Vec<TaintFinding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.clone()))
        .collect();
    taint_files(&owned)
}

/// `(line, rule)` of every finding, in report order.
fn lines_and_rules(found: &[TaintFinding]) -> Vec<(usize, &'static str)> {
    found.iter().map(|f| (f.line, f.rule)).collect()
}

#[test]
fn seeded_wall_clock_in_a_helper_is_flagged_at_the_needle() {
    // The needle sits in a helper: it is flagged there, and the scan fails
    // on it; the caller is not a second finding.
    let src = format!(
        "fn stamp() -> u64 {{\n    let t = Instant{}now();\n    0\n}}\n\nfn decide_plan() -> u64 {{\n    stamp() % 2\n}}\n",
        "::"
    );
    let found = taint_of(&[("seed.rs", src)]);
    assert_eq!(
        lines_and_rules(&found),
        vec![(2, "std::time::Instant::now")]
    );
}

#[test]
fn seeded_wall_clock_laundered_through_a_turbofish_call_is_flagged() {
    // A wall-clock read inside a generic type's method, reached as
    // `Clock::<u64>::stamp()`: the read is flagged where it is written.
    let src = format!(
        "struct Clock;\nimpl Clock {{\n    fn stamp() -> u64 {{\n        let t = Instant{}now();\n        0\n    }}\n}}\n\nfn decide_order() -> u64 {{\n    Clock::<u64>::stamp() % 2\n}}\n",
        "::"
    );
    let found = taint_of(&[("seed.rs", src)]);
    assert_eq!(
        lines_and_rules(&found),
        vec![(4, "std::time::Instant::now")]
    );
}

#[test]
fn seeded_thread_id_is_flagged_at_the_read() {
    let src = format!(
        "fn who() -> String {{\n    format!(\"{{:?}}\", thread{}current().id())\n}}\nfn tag() -> String {{\n    who()\n}}\n",
        "::"
    );
    let found = taint_of(&[("seed.rs", src)]);
    assert_eq!(lines_and_rules(&found), vec![(2, "std::thread::current")]);
}

#[test]
fn seeded_random_state_is_flagged() {
    let src = format!("fn fresh() {{\n    let h = Random{}::new();\n}}\n", "State");
    let found = taint_of(&[("seed.rs", src)]);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "std::collections::hash_map::RandomState");
}

#[test]
fn seeded_env_read_is_flagged_outside_declared_sinks() {
    let env = format!("std{}env{}var(\"KNOB\")", "::", "::");
    let src = format!("fn knob() -> bool {{\n    {env}.is_ok()\n}}\n");
    let found = taint_of(&[("seed.rs", src)]);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "std::env::var");
    // There are no declared sinks left: the read is sanctioned under its
    // `#[expect]` in any file, and flagged without it in any file.
    let sanctioned = format!(
        "fn knob() -> bool {{\n    #[expect(clippy::disallowed_methods)]\n    {env}.is_ok()\n}}\n"
    );
    let bare = format!("fn trail_check_enabled() -> bool {{\n    {env}.is_ok()\n}}\n");
    for file in ["crates/core/src/congruence.rs", "crates/core/src/knobs.rs"] {
        assert!(taint_of(&[(file, sanctioned.clone())]).is_empty(), "{file}");
        assert_eq!(taint_of(&[(file, bare.clone())]).len(), 1, "{file}");
    }
}

#[test]
fn seeded_env_var_os_toggle_is_flagged_at_the_read() {
    // The shape of the debug toggle the product crates used to carry: a
    // cached environment read behind a helper, consulted on a hot path.
    let src = format!(
        "fn audit_enabled() -> bool {{\n    std{s}env{s}var_os(\"AUDIT\").is_some()\n}}\nimpl Trail {{\n    fn rollback(&mut self) {{\n        if audit_enabled() {{}}\n    }}\n}}\n",
        s = "::"
    );
    let found = taint_of(&[("crates/core/src/trail.rs", src)]);
    assert_eq!(lines_and_rules(&found), vec![(2, "std::env::var_os")]);
}

#[test]
fn seeded_cnb_lint_comment_sanctions_nothing() {
    // The old comment escape, on the needle's line and on the line above:
    // both reads are flagged.
    let src = format!(
        "fn stamp() -> u64 {{\n    let t = Instant{n}now(); // cnb-lint: allow(wall-clock)\n    // cnb-lint: allow(wall-clock)\n    let u = Instant{n}now();\n    0\n}}\nfn decide() -> u64 {{\n    stamp()\n}}\n",
        n = "::"
    );
    let found = taint_of(&[("seed.rs", src)]);
    assert_eq!(
        lines_and_rules(&found),
        vec![
            (2, "std::time::Instant::now"),
            (4, "std::time::Instant::now")
        ]
    );
}

#[test]
fn seeded_expect_of_the_wrong_list_is_stale_and_sanctions_nothing() {
    let src = format!(
        "fn stamp() -> u64 {{\n    #[expect(clippy::disallowed_types)]\n    let t = Instant{}now();\n    0\n}}\n",
        "::"
    );
    let found: Vec<(usize, &str)> = taint_of(&[("seed.rs", src)])
        .iter()
        .map(|f| (f.line, f.rule))
        .collect();
    assert_eq!(
        found,
        vec![(2, "stale-expect"), (3, "std::time::Instant::now")]
    );
}

#[test]
fn seeded_wall_clock_in_the_serving_layer_is_flagged_under_expect() {
    let src = format!(
        "fn admit() -> bool {{\n    #[expect(clippy::disallowed_methods)]\n    let t = Instant{}now();\n    true\n}}\n",
        "::"
    );
    let found = taint_of(&[("crates/engine/src/serving.rs", src.clone())]);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!((found[0].rule, found[0].line), ("serving-clock", 3));
    // The same lines anywhere else are a sanctioned site.
    assert!(taint_of(&[("crates/engine/src/eval.rs", src)]).is_empty());
}

#[test]
fn seeded_serving_clock_is_a_property_of_the_serving_files() {
    // The needle lives in a non-serving file: it is that file's finding,
    // and the serving-layer fn calling it adds no `serving-clock` one.
    let helper = format!(
        "pub fn elapsed_hint() -> u64 {{\n    let t = Instant{}now();\n    1\n}}\n",
        "::"
    );
    let serving = "fn admit_request() -> bool {\n    elapsed_hint() < 10\n}\n".to_string();
    let found: Vec<(String, usize, &str)> = taint_of(&[
        ("crates/core/src/hints.rs", helper),
        ("crates/engine/src/serving.rs", serving),
    ])
    .into_iter()
    .map(|f| (f.file, f.line, f.rule))
    .collect();
    assert_eq!(
        found,
        vec![(
            "crates/core/src/hints.rs".to_string(),
            2,
            "std::time::Instant::now"
        )]
    );
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
    let shapes = shape_report().unwrap_or_else(|e| panic!("{e}"));
    let golden: Vec<(String, String, String, bool)> = shapes
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                s.bound.to_string(),
                s.worst.to_string(),
                s.wcoj_needed,
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
