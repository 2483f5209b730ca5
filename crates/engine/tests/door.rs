//! The serving door: a request that breaks the scoping rule
//! (`cnb_ir::scope`) is refused with a typed error before anything is
//! parameterized, optimized or cached — by `PlanServer::serve`, by
//! `serve_batch_under` at any thread count (before admission and the
//! deadline look at it: a request that is not a query has no price and no
//! turn to miss), and by the executors called directly.
//!
//! The release run of this file is the one that counts: that is the
//! profile where the optimizer's `debug_assert!` entry checks vanish, and
//! where — before `PlanServer::plan` ran the check — an unbound select
//! variable panicked inside the OQF fragment combiner and an unbound where
//! variable or a duplicated binding was optimized, cached and answered as
//! if the broken clause were not there. The same profile holds one
//! well-formed request that once panicked there too: an output spanning
//! two OQF fragments. And one request sequence a cached plan once answered
//! wrongly in every profile: a template plan carrying the ground equality
//! `?0 = ?1`, which no executor step checked. And four constraint sets the
//! optimizer now refuses when it is built, so the server refuses every
//! request to it with `ServeError::Uncertified`: one whose chase never
//! terminates, once chased to its cap on every miss and served as written,
//! and three ill-scoped ones, of which a release build panicked in the
//! chase on one and served the other two as if their broken part were not
//! there.
//!
//! Every assertion is on the server under test (its results and its own
//! cache counters); nothing here reads a process-wide counter or takes a
//! lock, so the tests run in parallel with each other and with anything.

use std::time::Duration;

use cnb_core::prelude::{certify, CertifyError, CostModel, Optimizer, OptimizerConfig, Strategy};
use cnb_engine::{
    execute, execute_legacy, execute_wcoj, Database, ExecError, PlanServer, ServeConfig,
    ServeError, ServedResult, VirtualClock,
};
use cnb_ir::prelude::*;
use cnb_workloads::{DataScale, Ec1, Ec4, Workload};

/// Four ways to break `good`, each with the violation it must be refused
/// for: an unbound select variable, an unbound where variable, a duplicate
/// binding, and a range over a variable bound later.
fn ill_formed(good: &Query) -> Vec<(Query, ScopeError)> {
    let first = good.from[0].clone();

    let mut select = good.clone();
    select.output("X", PathExpr::from(Var(99)).dot("K"));

    let mut where_ = good.clone();
    where_.equate(PathExpr::from(Var(99)).dot("K"), PathExpr::from(1i64));

    let mut duplicate = good.clone();
    duplicate.from.push(Binding {
        name: sym("again"),
        ..first.clone()
    });

    let mut forward = good.clone();
    let early = forward.fresh_var();
    forward.from.insert(
        0,
        Binding {
            var: early,
            name: sym("early"),
            range: Range::Expr(PathExpr::from(first.var).dot("K")),
        },
    );

    vec![
        (
            select,
            ScopeError::Unbound {
                clause: Clause::Select(sym("X")),
                var: Var(99),
            },
        ),
        (
            where_,
            ScopeError::Unbound {
                clause: Clause::Where,
                var: Var(99),
            },
        ),
        (
            duplicate,
            ScopeError::Duplicate {
                binding: sym("again"),
            },
        ),
        (
            forward,
            ScopeError::ForwardReference {
                binding: sym("early"),
                var: first.var,
            },
        ),
    ]
}

fn refused(expected: &ScopeError) -> ServeError {
    ServeError::Exec(ExecError::InvalidQuery(expected.clone()))
}

fn rows(result: &ServedResult, tag: &str) -> Vec<Value> {
    match result {
        Ok((_, exec)) => exec.rows.clone(),
        Err(e) => panic!("{tag}: well-formed request failed: {e}"),
    }
}

fn error(result: ServedResult, tag: &str) -> ServeError {
    match result {
        Err(e) => e,
        Ok((_, exec)) => panic!(
            "{tag}: ill-formed request was answered with {} rows",
            exec.rows.len()
        ),
    }
}

fn server(w: &dyn Workload) -> PlanServer {
    PlanServer::new(
        w.optimizer(),
        OptimizerConfig::with_strategy(w.expectations().strategy),
    )
}

/// (resident shapes, lookups, misses) of the server's plan cache.
fn cache_state(s: &PlanServer) -> (usize, usize, usize) {
    (s.cache().len(), s.cache().lookups(), s.cache().misses())
}

/// `picks` are the family's well-formed requests; the first is the control
/// the ill-formed ones are derived from and must return rows at smoke scale.
fn door_refuses_ill_formed_requests(w: &dyn Workload, picks: [u64; 4]) {
    let name = w.name();
    let scale = DataScale::smoke();
    let db = w.generate_at(scale);
    let good = picks.map(|pick| w.serving_query(scale, pick));
    let bad = ill_formed(&good[0]);

    // One request at a time, against a warm server.
    let mut s = server(w);
    let control = rows(&s.serve(&db, &good[0]), name);
    assert!(!control.is_empty(), "{name}: control request returns rows");
    let before = cache_state(&s);
    for (q, expected) in &bad {
        let tag = format!("{name} serve [{expected}]");
        assert_eq!(error(s.serve(&db, q), &tag), refused(expected), "{tag}");
        assert_eq!(cache_state(&s), before, "{tag}: the cache saw the request");
    }
    assert_eq!(rows(&s.serve(&db, &good[0]), name), control);

    // Mixed into a batch (`serve_batch` is `serve_batch_under` with no
    // budget, deadline or faults): an ill-formed request after every
    // well-formed one.
    let mixed: Vec<Query> = good
        .iter()
        .zip(&bad)
        .flat_map(|(g, (b, _))| [g.clone(), b.clone()])
        .collect();
    for threads in [1, 4] {
        let mut clean = server(w);
        let expected_rows: Vec<Vec<Value>> = clean
            .serve_batch(&db, &good, threads)
            .iter()
            .map(|r| rows(r, name))
            .collect();

        let mut s = server(w);
        let results = s.serve_batch(&db, &mixed, threads);
        assert_eq!(results.len(), mixed.len());
        for (i, pair) in results.chunks(2).enumerate() {
            let tag = format!("{name} batch threads={threads} pair {i}");
            assert_eq!(rows(&pair[0], &tag), expected_rows[i], "{tag}");
            assert_eq!(error(pair[1].clone(), &tag), refused(&bad[i].1), "{tag}");
        }
        assert_eq!(
            cache_state(&s),
            cache_state(&clean),
            "{name} threads={threads}: ill-formed requests moved the cache"
        );
    }

    // Under pressure the door still comes first. With a budget nothing
    // clears (frozen clock), or a deadline that has passed by the first
    // request (a clock ticking 1 ms per read), a well-formed request is shed
    // exactly as in a batch of its own at one thread — and an ill-formed one
    // is neither priced nor timed: `InvalidQuery`, at every thread count.
    for (gate, config, step) in [
        (
            "budget 1.0",
            ServeConfig::unbounded().with_cost_budget(1.0),
            0,
        ),
        (
            "deadline passed",
            ServeConfig::unbounded().with_deadline(Duration::ZERO),
            1,
        ),
    ] {
        let clock = || VirtualClock::ticking(Duration::from_millis(step));
        let mut clean = server(w);
        let alone = clean.serve_batch_under(&db, &good, 1, &config, &clock(), None);
        for threads in [1, 2, 4, 8] {
            let tag = format!("{name} {gate} threads={threads}");
            let mut s = server(w);
            let outcomes = s.serve_batch_under(&db, &mixed, threads, &config, &clock(), None);
            for (i, pair) in outcomes.chunks(2).enumerate() {
                let shed = error(pair[0].result.clone(), &tag);
                assert_eq!(shed, error(alone[i].result.clone(), &tag), "{tag} pair {i}");
                let refusal = error(pair[1].result.clone(), &tag);
                assert_eq!(refusal, refused(&bad[i].1), "{tag} pair {i}");
            }
            assert_eq!(
                cache_state(&s),
                cache_state(&clean),
                "{tag}: the cache moved"
            );
        }
    }
}

#[test]
fn door_refuses_ill_formed_requests_on_ec4() {
    door_refuses_ill_formed_requests(&Ec4::new(3, 2, 1), [1, 0, 2, 3]);
}

#[test]
fn door_refuses_ill_formed_requests_on_ec1() {
    door_refuses_ill_formed_requests(&Ec1::new(3, 1), [13, 18, 38, 1]);
}

/// A well-formed request whose one output is a struct over two bindings
/// that OQF splits into two fragments: no fragment provides the output
/// alone, so the OQF server must plan it whole — same rows as FB, through
/// `serve` and through a batch at one and four threads.
#[test]
fn an_output_spanning_two_fragments_is_served_under_oqf() {
    let w = Ec1::new(2, 1);
    assert_eq!(w.expectations().strategy, Strategy::Oqf);
    let db = w.generate_at(DataScale::smoke());
    // select struct(A = r1.K, B = r2.D) as X from R1 r1, R2 r2 where r1.N = r2.K
    let mut q = Query::new();
    let r1 = q.bind("r1", Range::Name(sym("R1")));
    let r2 = q.bind("r2", Range::Name(sym("R2")));
    q.equate(PathExpr::from(r1).dot("N"), PathExpr::from(r2).dot("K"));
    let x = vec![
        (sym("A"), PathExpr::from(r1).dot("K")),
        (sym("B"), PathExpr::from(r2).dot("D")),
    ];
    q.output("X", PathExpr::MkStruct(x));
    assert_eq!(q.validate(), Ok(()));
    let mut fb = PlanServer::new(
        w.optimizer(),
        OptimizerConfig::with_strategy(Strategy::Full),
    );
    let want = rows(&fb.serve(&db, &q), "FB");
    assert!(!want.is_empty(), "the request returns rows at smoke scale");
    assert_eq!(rows(&server(&w).serve(&db, &q), "OQF serve"), want);
    let batch = [q.clone(), q];
    for threads in [1, 4] {
        let (config, clock) = (ServeConfig::unbounded(), VirtualClock::frozen());
        let outcomes = server(&w).serve_batch_under(&db, &batch, threads, &config, &clock, None);
        for o in &outcomes {
            assert_eq!(rows(&o.result, "OQF batch"), want, "threads={threads}");
        }
    }
}

/// `r.K = a and r.K = b` is one query template for every `(a, b)`, and a
/// plan for it may carry the ground equality `?0 = ?1`: after `3, 3` caches
/// that plan, `3, 4` hits it with `3 = 4` bound in, and `4, 4` with `4 = 4`.
/// Each request gets exactly the rows `execute` gives on it as written —
/// through `serve` and through a batch at one and four threads.
#[test]
fn a_cached_plan_decides_its_ground_equalities_per_request() {
    let w = Ec1::new(2, 1);
    let db = w.generate_at(DataScale::smoke());
    // select r.K as K, r.D as D from R1 r where r.K = a and r.K = b
    let request = |a: i64, b: i64| {
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R1")));
        q.equate(PathExpr::from(r).dot("K"), PathExpr::from(a));
        q.equate(PathExpr::from(r).dot("K"), PathExpr::from(b));
        q.output("K", PathExpr::from(r).dot("K"));
        q.output("D", PathExpr::from(r).dot("D"));
        q
    };
    let requests = [request(3, 3), request(3, 4), request(4, 4)];
    let want: Vec<Vec<Value>> = requests
        .iter()
        .map(|q| execute(&db, q).expect("well-formed").rows)
        .collect();
    assert_eq!(want.iter().map(Vec::len).collect::<Vec<_>>(), [1, 0, 1]);

    let mut s = server(&w);
    for (i, q) in requests.iter().enumerate() {
        assert_eq!(
            rows(&s.serve(&db, q), "serve"),
            want[i],
            "serve request {i}"
        );
    }
    assert_eq!(cache_state(&s), (1, 3, 1), "one template, two hits");
    for threads in [1, 4] {
        let (config, clock) = (ServeConfig::unbounded(), VirtualClock::frozen());
        let outcomes = server(&w).serve_batch_under(&db, &requests, threads, &config, &clock, None);
        for (i, o) in outcomes.iter().enumerate() {
            let tag = format!("batch threads={threads} request {i}");
            assert_eq!(rows(&o.result, &tag), want[i], "{tag}");
        }
    }
}

/// `R(A, B)` with six rows, `S(A, B)` with four, and the request
/// `select r.A from R r`.
fn two_relations() -> (Schema, Database, Query) {
    let mut schema = Schema::new();
    for rel in ["R", "S"] {
        schema.add_relation(rel, [(sym("A"), Type::Int), (sym("B"), Type::Int)]);
    }
    let mut db = Database::new();
    for (rel, n) in [("R", 6), ("S", 4)] {
        let row =
            |i: i64| Value::record([(sym("A"), Value::Int(i)), (sym("B"), Value::Int(i % 3))]);
        db.load_table(sym(rel), (0..n).map(row).collect());
    }
    let mut q = Query::new();
    let r = q.bind("r", Range::Name(sym("R")));
    q.output("A", PathExpr::from(r).dot("A"));
    (schema, db, q)
}

/// A server whose optimizer refused `constraints` with `expected` refuses
/// every request: `optimize` and `optimize_measured` return at once (no
/// chase step, no candidate, no plan); `plan` hands the request back as
/// written with no cache counter moved; `serve` and a batch at one and four
/// threads return `ServeError::Uncertified`.
fn refuses(constraints: Vec<Constraint>, expected: CertifyError) {
    let (schema, db, q) = two_relations();
    let tag = expected.to_string();
    let optimizer = || Optimizer::with_constraints(schema.clone(), constraints.clone());
    assert_eq!(optimizer().certified(), Err(&expected), "{tag}");
    let cfg = OptimizerConfig::with_strategy(Strategy::Full);
    for res in [
        optimizer().optimize(&q, &cfg),
        optimizer().optimize_measured(&q, &cfg, &CostModel::default()),
    ] {
        let ran = (res.explored, res.plans.len(), res.chase_stats.steps_applied);
        assert_eq!(ran, (0, 0, 0), "{tag}: the optimizer ran");
    }

    let refusal = ServeError::Uncertified(expected.clone());
    let mut s = PlanServer::new(optimizer(), cfg.clone());
    let served = s.plan(&q);
    assert_eq!((served.plan, served.cache_hit), (q.clone(), false), "{tag}");
    assert_eq!(cache_state(&s), (0, 0, 0), "{tag}: plan moved the cache");
    assert_eq!(error(s.serve(&db, &q), &tag), refusal, "{tag}");
    assert_eq!(cache_state(&s), (0, 0, 0), "{tag}: serve moved the cache");
    let batch = [q.clone(), q];
    for threads in [1, 4] {
        let (config, clock) = (ServeConfig::unbounded(), VirtualClock::frozen());
        let mut s = PlanServer::new(optimizer(), cfg.clone());
        for o in s.serve_batch_under(&db, &batch, threads, &config, &clock, None) {
            assert_eq!(error(o.result, &tag), refusal, "{tag} threads={threads}");
        }
        assert_eq!(cache_state(&s), (0, 0, 0), "{tag} threads={threads}");
    }
}

/// `R.A ⊆ S.A` and `S.B ⊆ R.B`: each foreign key's fresh tuple feeds the
/// other's, so the chase of `select r.A from R r` never reaches a fixpoint.
/// The set is not weakly acyclic, so the optimizer refuses it when it is
/// built, and the server refuses every request typed — where it once
/// chased to the round cap and served the request as written.
#[test]
fn a_diverging_constraint_set_is_refused() {
    let inclusion = |name: &str, from: &str, to: &str, attr: &str| {
        let mut c = Constraint::new(name);
        let x = c.forall("x", Range::Name(sym(from)));
        let y = c.exists("y", Range::Name(sym(to)));
        c.then(PathExpr::from(x).dot(attr), PathExpr::from(y).dot(attr));
        c
    };
    let constraints = vec![
        inclusion("r_a_in_s", "R", "S", "A"),
        inclusion("s_b_in_r", "S", "R", "B"),
    ];
    let (schema, _, _) = two_relations();
    let expected = certify(&schema, &constraints).expect_err("not weakly acyclic");
    assert!(matches!(expected, CertifyError::NonTerminating { .. }));
    refuses(constraints, expected);
}

/// Three tuple-generating constraints that break the scoping rule, each
/// refused with its violation. In a release build the first once panicked
/// inside the chase ("existential range var must be mapped") and the other
/// two were served as if the broken part were not there; a debug build
/// tripped the optimizer's entry `debug_assert!` on all three.
#[test]
fn an_ill_scoped_constraint_set_is_refused() {
    let tgd = |name: &str, shape: fn(&mut Constraint, Var, Var)| {
        let mut c = Constraint::new(name);
        let x = c.forall("x", Range::Name(sym("R")));
        let y = c.exists("y", Range::Name(sym("S")));
        shape(&mut c, x, y);
        c
    };
    let unbound = |clause| ScopeError::Unbound {
        clause,
        var: Var(9),
    };
    let shapes: [(Constraint, ScopeError); 3] = [
        // exists z in v9.N
        (
            tgd("range_reads_unbound", |c, x, _| {
                let z = c.exists("z", Range::Expr(PathExpr::from(Var(9)).dot("N")));
                c.then(PathExpr::from(x).dot("A"), PathExpr::from(z).dot("A"));
            }),
            unbound(Clause::Existential),
        ),
        // ... => exists y in S, x.A = v9.A
        (
            tgd("conclusion_reads_unbound", |c, x, _| {
                c.then(PathExpr::from(x).dot("A"), PathExpr::from(Var(9)).dot("A"));
            }),
            unbound(Clause::Conclusion),
        ),
        // x.B = y.B => exists y in S, x.A = y.A
        (
            tgd("premise_reads_existential", |c, x, y| {
                c.given(PathExpr::from(x).dot("B"), PathExpr::from(y).dot("B"));
                c.then(PathExpr::from(x).dot("A"), PathExpr::from(y).dot("A"));
            }),
            ScopeError::Unbound {
                clause: Clause::Premise,
                var: Var(1),
            },
        ),
    ];
    for (c, error) in shapes {
        let constraint = c.name.clone();
        refuses(vec![c], CertifyError::Scope { constraint, error });
    }
}

/// Called directly, all three executors refuse the same four requests with
/// the same typed violation — matched by variant, not by message.
#[test]
fn executors_report_the_scope_violation_by_variant() {
    let w = Ec1::new(3, 1);
    let scale = DataScale::smoke();
    let db = w.generate_at(scale);
    for (q, expected) in ill_formed(&w.serving_query(scale, 1)) {
        let want = Err(ExecError::InvalidQuery(expected));
        assert_eq!(execute(&db, &q).map(|r| r.rows), want);
        assert_eq!(execute_wcoj(&db, &q).map(|r| r.rows), want);
        assert_eq!(execute_legacy(&db, &q).map(|r| r.rows), want);
    }
}
