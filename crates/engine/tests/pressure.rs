//! Integration tests for the serving robustness layer: admission control,
//! deadlines on the injectable clock, seeded fault injection, and the
//! bounded plan cache's eviction/re-optimization behavior.
//!
//! Tests here share one process, and several audit the process-wide
//! `chase_and_backchase_runs` counter or assert exact fault/expiry
//! schedules — so every test serializes on [`serial`]. Determinism claims
//! are always checked the hard way: run twice, compare everything.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use cnb_core::cost::CostModel;
use cnb_core::prelude::{chase_and_backchase_runs, Optimizer, OptimizerConfig, Strategy};
use cnb_engine::{
    Database, FaultPlan, PlanServer, PressureTally, ServeConfig, ServeError, ServeOutcome,
    VirtualClock,
};
use cnb_ir::prelude::*;

/// Serializes tests: the C&B run counter is process-wide, and exact-schedule
/// assertions must not share it with a concurrently-optimizing test.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// `tables` point-lookup relations T0..Tn, each keyed on K with a primary
/// index, plus a fact table F(A, B) for building a deliberately expensive
/// join shape.
fn schema(tables: usize) -> Schema {
    let mut s = Schema::new();
    for t in 0..tables {
        let name = format!("T{t}");
        s.add_relation(
            name.as_str(),
            [
                (sym("K"), Type::Int),
                (sym("N"), Type::Int),
                (sym("D"), Type::Int),
            ],
        );
        add_primary_index(&mut s, sym(&name), sym("K"), format!("PI{t}").as_str());
    }
    s.add_relation("F", [(sym("A"), Type::Int), (sym("B"), Type::Int)]);
    s
}

fn db(schema: &Schema, tables: usize) -> Database {
    let mut db = Database::new();
    for t in 0..tables {
        let rows: Vec<Value> = (0..40)
            .map(|i| {
                Value::record([
                    (sym("K"), Value::Int(i)),
                    (sym("N"), Value::Int((i * 3 + t as i64) % 40)),
                    (sym("D"), Value::Int(i * 10 + t as i64)),
                ])
            })
            .collect();
        db.load_table(sym(&format!("T{t}")), rows);
    }
    let facts: Vec<Value> = (0..60)
        .map(|i| {
            Value::record([
                (sym("A"), Value::Int(i % 12)),
                (sym("B"), Value::Int((i * 5) % 12)),
            ])
        })
        .collect();
    db.load_table(sym("F"), facts);
    db.materialize_physical(schema).unwrap();
    db
}

/// Point lookup on T`t`: cheap, index-supported.
fn point(t: usize, k: i64) -> Query {
    let mut q = Query::new();
    let r = q.bind("r", Range::Name(sym(&format!("T{t}"))));
    q.equate(PathExpr::from(r).dot("K"), PathExpr::from(k));
    q.output("D", PathExpr::from(r).dot("D"));
    q
}

/// Self-join on the fact table: no index support, deliberately expensive
/// under any cost model that sees cardinalities.
fn heavy_join(b: i64) -> Query {
    let mut q = Query::new();
    let x = q.bind("x", Range::Name(sym("F")));
    let y = q.bind("y", Range::Name(sym("F")));
    let z = q.bind("z", Range::Name(sym("F")));
    q.equate(PathExpr::from(x).dot("B"), PathExpr::from(y).dot("A"));
    q.equate(PathExpr::from(y).dot("B"), PathExpr::from(z).dot("A"));
    q.equate(PathExpr::from(z).dot("B"), PathExpr::from(b));
    q.output("A", PathExpr::from(x).dot("A"));
    q
}

fn server(schema: &Schema) -> PlanServer {
    PlanServer::new(
        Optimizer::new(schema.clone()),
        OptimizerConfig::with_strategy(Strategy::Full),
    )
}

/// Outcome classes, for whole-batch determinism comparisons (rows are
/// compared separately where relevant).
fn classes(outcomes: &[ServeOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| match &o.result {
            Ok((_, exec)) => format!("ok:{}", exec.rows.len()),
            Err(e) => format!("err:{e:?}"),
        })
        .collect()
}

// ------------------------------------------------------------- admission --

#[test]
fn admission_sheds_expensive_shapes_and_is_deterministic() {
    let _guard = serial();
    let schema = schema(2);
    let db = db(&schema, 2);
    let model = CostModel::default().with_cardinalities(db.cardinalities());

    let cheap_cost = {
        let mut s = server(&schema).with_cost_model(model.clone());
        let p = s.plan(&point(0, 3));
        s.cost_model().cost(&p.plan)
    };
    let heavy_cost = {
        let mut s = server(&schema).with_cost_model(model.clone());
        let p = s.plan(&heavy_join(3));
        s.cost_model().cost(&p.plan)
    };
    assert!(
        heavy_cost > cheap_cost,
        "fact self-join ({heavy_cost}) must out-price an indexed point lookup ({cheap_cost})"
    );
    let budget = (cheap_cost + heavy_cost) / 2.0;

    let requests: Vec<Query> = (0..12)
        .map(|i| {
            if i % 3 == 2 {
                heavy_join(i as i64 % 5)
            } else {
                point(i % 2, i as i64 % 7)
            }
        })
        .collect();
    let run = |threads: usize| {
        let mut s = server(&schema).with_cost_model(model.clone());
        s.serve_batch_under(
            &db,
            &requests,
            threads,
            &ServeConfig::unbounded().with_cost_budget(budget),
            &VirtualClock::frozen(),
            None,
        )
    };
    let baseline = run(1);
    for (i, o) in baseline.iter().enumerate() {
        if i % 3 == 2 {
            match &o.result {
                Err(ServeError::Rejected { cost, budget: b }) => {
                    assert_eq!(*cost, heavy_cost);
                    assert_eq!(*b, budget);
                    assert!(cost > b, "rejection must quote an over-budget cost");
                }
                other => panic!("request {i}: expected Rejected, got {other:?}"),
            }
        } else {
            assert!(o.result.is_ok(), "request {i}: cheap shape must be served");
        }
    }
    let tally = PressureTally::of(&baseline);
    assert_eq!((tally.served, tally.rejected), (8, 4));
    assert_eq!(tally.total(), requests.len());

    // The decision (and everything else) is a pure function of
    // (requests, config, model): reruns and thread counts change nothing.
    for threads in [1, 2, 4, 8] {
        assert_eq!(
            classes(&run(threads)),
            classes(&baseline),
            "threads={threads}"
        );
    }
}

#[test]
fn admission_prices_cache_hits_too() {
    let _guard = serial();
    let schema = schema(1);
    let db = db(&schema, 1);
    let model = CostModel::default().with_cardinalities(db.cardinalities());
    let mut s = server(&schema).with_cost_model(model);
    // Warm the heavy shape under no budget…
    let warm = s.serve_batch_under(
        &db,
        &[heavy_join(1)],
        1,
        &ServeConfig::unbounded(),
        &VirtualClock::frozen(),
        None,
    );
    assert!(warm[0].result.is_ok());
    // …then serve it again under a tiny budget: the *cached* plan is
    // priced and shed — a hit does not bypass admission.
    let shed = s.serve_batch_under(
        &db,
        &[heavy_join(2)],
        1,
        &ServeConfig::unbounded().with_cost_budget(1e-6),
        &VirtualClock::frozen(),
        None,
    );
    assert!(
        matches!(shed[0].result, Err(ServeError::Rejected { .. })),
        "got {:?}",
        shed[0].result
    );
    assert_eq!(s.cache().hits(), 1, "the shed request still hit the cache");
}

// ------------------------------------------------------------- deadlines --

#[test]
fn frozen_clock_deadline_never_expires_anyone() {
    let _guard = serial();
    let schema = schema(1);
    let db = db(&schema, 1);
    let requests: Vec<Query> = (0..16).map(|i| point(0, i as i64 % 9)).collect();
    let cfg = ServeConfig::unbounded().with_deadline(Duration::from_nanos(1));
    let baseline: Vec<Vec<Value>> = {
        let mut s = server(&schema);
        s.serve_batch_under(&db, &requests, 1, &cfg, &VirtualClock::frozen(), None)
            .into_iter()
            .map(|o| o.result.unwrap().1.rows)
            .collect()
    };
    for threads in [2, 4, 8] {
        let mut s = server(&schema);
        let rows: Vec<Vec<Value>> = s
            .serve_batch_under(&db, &requests, threads, &cfg, &VirtualClock::frozen(), None)
            .into_iter()
            .map(|o| o.result.unwrap().1.rows)
            .collect();
        assert_eq!(rows, baseline, "threads={threads}");
    }
}

#[test]
fn ticking_clock_expires_a_deterministic_suffix_sequentially() {
    let _guard = serial();
    let schema = schema(1);
    let db = db(&schema, 1);
    let n = 10usize;
    let requests: Vec<Query> = (0..n).map(|i| point(0, i as i64)).collect();
    // One tick for batch start, one per phase-1 check (none expire:
    // (n+1)ms <= 15ms), one per executed item in phase 2: item j sees
    // (n+1+j)ms and expires when that exceeds 15ms — j >= 5.
    let cfg = ServeConfig::unbounded().with_deadline(Duration::from_millis(15));
    let run = || {
        let mut s = server(&schema);
        s.serve_batch_under(
            &db,
            &requests,
            1,
            &cfg,
            &VirtualClock::ticking(Duration::from_millis(1)),
            None,
        )
    };
    let outcomes = run();
    let expect_served = 5usize;
    for (i, o) in outcomes.iter().enumerate() {
        if i < expect_served {
            let (_, exec) = o.result.as_ref().expect("prefix must be served");
            assert_eq!(
                exec.rows,
                vec![Value::record([(sym("D"), Value::Int(i as i64 * 10))])]
            );
        } else {
            assert!(
                matches!(o.result, Err(ServeError::DeadlineExpired)),
                "request {i}: {:?}",
                o.result
            );
        }
    }
    assert_eq!(
        classes(&run()),
        classes(&outcomes),
        "expiry schedule drifts"
    );
}

/// The regression for the old `.expect("no deadline: every request is
/// evaluated")` landmine: a mid-batch cooperative stop with parallel
/// workers must never panic, never reorder, and never fabricate rows —
/// every outcome is Ok-with-the-right-rows or a typed expiry.
#[test]
fn midbatch_stop_under_parallel_workers_is_typed_and_ordered() {
    let _guard = serial();
    let schema = schema(1);
    let db = db(&schema, 1);
    let requests: Vec<Query> = (0..24).map(|i| point(0, i as i64 % 11)).collect();
    let baseline: Vec<Vec<Value>> = {
        let mut s = server(&schema);
        s.serve_batch(&db, &requests, 1)
            .into_iter()
            .map(|r| r.unwrap().1.rows)
            .collect()
    };
    for threads in [2, 4] {
        let mut s = server(&schema);
        let outcomes = s.serve_batch_under(
            &db,
            &requests,
            threads,
            &ServeConfig::unbounded().with_deadline(Duration::from_millis(20)),
            &VirtualClock::ticking(Duration::from_millis(1)),
            None,
        );
        assert_eq!(outcomes.len(), requests.len());
        for (i, o) in outcomes.iter().enumerate() {
            match &o.result {
                Ok((_, exec)) => assert_eq!(
                    exec.rows, baseline[i],
                    "threads={threads}: evaluated request {i} diverged"
                ),
                Err(ServeError::DeadlineExpired) => {}
                other => panic!("threads={threads} request {i}: unexpected {other:?}"),
            }
        }
    }
}

#[test]
fn expired_before_dispatch_is_caught_in_phase_one() {
    let _guard = serial();
    let schema = schema(1);
    let db = db(&schema, 1);
    let clock = VirtualClock::frozen();
    clock.advance(Duration::from_secs(1));
    // Deadline already passed when the batch starts… except `started` is
    // sampled first, so a zero deadline with advanced time expires in the
    // phase-1 check (clock.now() grows? no — frozen: now == started, not
    // greater). Advance between: use a ticking clock instead.
    let ticking = VirtualClock::ticking(Duration::from_millis(2));
    let outcomes = {
        let mut s = server(&schema);
        s.serve_batch_under(
            &db,
            &[point(0, 1), point(0, 2)],
            1,
            &ServeConfig::unbounded().with_deadline(Duration::from_millis(1)),
            &ticking,
            None,
        )
    };
    for (i, o) in outcomes.iter().enumerate() {
        assert!(
            matches!(o.result, Err(ServeError::DeadlineExpired)),
            "request {i}: {:?}",
            o.result
        );
    }
    // And the frozen-at-1s clock serves fine: deadlines measure from batch
    // start, not from clock epoch.
    let outcomes = {
        let mut s = server(&schema);
        s.serve_batch_under(
            &db,
            &[point(0, 1)],
            1,
            &ServeConfig::unbounded().with_deadline(Duration::from_millis(1)),
            &clock,
            None,
        )
    };
    assert!(outcomes[0].result.is_ok());
}

// ---------------------------------------------------------------- faults --

#[test]
fn unfaulted_requests_are_byte_identical_to_a_fault_free_run() {
    let _guard = serial();
    let schema = schema(1);
    let db = db(&schema, 1);
    let requests: Vec<Query> = (0..30).map(|i| point(0, i as i64 % 13)).collect();
    let fault_free: Vec<Vec<Value>> = {
        let mut s = server(&schema);
        s.serve_batch(&db, &requests, 1)
            .into_iter()
            .map(|r| r.unwrap().1.rows)
            .collect()
    };
    let plan = FaultPlan::failures(0xBEEF, 0.3);
    for threads in [1, 4] {
        let mut s = server(&schema);
        let outcomes = s.serve_batch_under(
            &db,
            &requests,
            threads,
            &ServeConfig::unbounded(),
            &VirtualClock::frozen(),
            Some(&plan),
        );
        for (i, o) in outcomes.iter().enumerate() {
            if plan.fails(i) {
                assert_eq!(
                    o.result.as_ref().err(),
                    Some(&ServeError::FaultInjected { request: i }),
                    "threads={threads} request {i}"
                );
            } else {
                let (_, exec) = o
                    .result
                    .as_ref()
                    .unwrap_or_else(|e| panic!("threads={threads} request {i}: {e}"));
                assert_eq!(exec.rows, fault_free[i], "rows diverged beside a fault");
            }
        }
        let tally = PressureTally::of(&outcomes);
        assert!(
            tally.faulted > 0 && tally.served > 0,
            "the seed must fail some requests and spare others: {tally:?}"
        );
    }
}

#[test]
fn injected_faults_are_typed() {
    let _guard = serial();
    let schema = schema(1);
    let db = db(&schema, 1);
    let requests = vec![point(0, 1), point(0, 2)];
    let always = FaultPlan::failures(7, 1.0);

    let mut s = server(&schema);
    let outcomes = s.serve_batch_under(
        &db,
        &requests,
        1,
        &ServeConfig::unbounded(),
        &VirtualClock::frozen(),
        Some(&always),
    );
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(
            o.result.as_ref().err(),
            Some(&ServeError::FaultInjected { request: i })
        );
    }
    let tally = PressureTally::of(&outcomes);
    assert_eq!((tally.faulted, tally.total()), (2, 2));
    // A fault strikes at execution: both requests were planned first.
    assert_eq!((s.cache().misses(), s.cache().hits()), (1, 1));
}

// ------------------------------------------- bounded cache, end to end --

#[test]
fn evicted_shape_reoptimizes_exactly_once_on_return() {
    let _guard = serial();
    let tables = 3;
    let schema = schema(tables);
    let db = db(&schema, tables);
    let mut s = server(&schema).with_cache_capacity(2);

    // Cold-plant shape 0 and measure its optimization cost in C&B runs.
    let before = chase_and_backchase_runs();
    s.serve(&db, &point(0, 1)).unwrap();
    let cold_runs = chase_and_backchase_runs() - before;
    assert!(cold_runs > 0, "a cold miss must invoke the optimizer");

    // Fill: shape 1 joins, shape 2 evicts shape 0 (the coldest probation
    // entry — shape 0's single lookup was its cold miss, not a hit).
    s.serve(&db, &point(1, 1)).unwrap();
    s.serve(&db, &point(2, 1)).unwrap();
    assert_eq!(s.cache().len(), 2);
    assert_eq!(s.cache().evictions(), 1);

    // Shape 0 returns: exactly one re-optimization (same C&B work as the
    // cold plant), then it's resident and hits again without any.
    let before = chase_and_backchase_runs();
    let (plan, rows) = s.serve(&db, &point(0, 5)).unwrap();
    assert!(!plan.cache_hit, "evicted shape must re-miss");
    assert_eq!(
        chase_and_backchase_runs() - before,
        cold_runs,
        "re-optimizing an evicted shape must cost exactly one optimization"
    );
    assert_eq!(rows.rows, vec![Value::record([(sym("D"), Value::Int(50))])]);

    let before = chase_and_backchase_runs();
    let (plan, _) = s.serve(&db, &point(0, 6)).unwrap();
    assert!(plan.cache_hit);
    assert_eq!(
        chase_and_backchase_runs(),
        before,
        "the re-planted shape must hit for free"
    );
    assert_eq!(s.cache().hits(), 1);
    assert_eq!(s.cache().lookups(), s.cache().hits() + s.cache().misses());
}

#[test]
fn hot_families_survive_one_off_churn_through_a_bounded_server() {
    let _guard = serial();
    let tables = 8;
    let schema = schema(tables);
    let db = db(&schema, tables);
    let mut s = server(&schema).with_cache_capacity(4);

    // Two hot shapes, planted and then hit (graduating to protected).
    for t in [0usize, 1] {
        s.serve(&db, &point(t, 1)).unwrap();
        let (p, _) = s.serve(&db, &point(t, 2)).unwrap();
        assert!(p.cache_hit);
    }
    // One-off churn over the other six shapes.
    for t in 2..tables {
        s.serve(&db, &point(t, 1)).unwrap();
        assert!(s.cache().len() <= 4);
    }
    // The hot shapes never left: immediate hits, no optimizer.
    for t in [0usize, 1] {
        let before = chase_and_backchase_runs();
        let (p, _) = s.serve(&db, &point(t, 3)).unwrap();
        assert!(p.cache_hit, "hot shape T{t} was evicted by churn");
        assert_eq!(chase_and_backchase_runs(), before);
    }
    assert_eq!(s.cache().evictions(), 4);
}

// ------------------------------------------------------------ invariants --

#[test]
fn every_pressure_combination_reconciles_and_reproduces() {
    let _guard = serial();
    let schema = schema(2);
    let db = db(&schema, 2);
    let model = CostModel::default().with_cardinalities(db.cardinalities());
    let requests: Vec<Query> = (0..20)
        .map(|i| {
            if i % 5 == 4 {
                heavy_join(i as i64 % 3)
            } else {
                point(i % 2, i as i64 % 7)
            }
        })
        .collect();
    let budget = {
        let mut s = server(&schema).with_cost_model(model.clone());
        let cheap = s.plan(&point(0, 0)).plan;
        let heavy = s.plan(&heavy_join(0)).plan;
        (s.cost_model().cost(&cheap) + s.cost_model().cost(&heavy)) / 2.0
    };
    let cfg = ServeConfig::unbounded()
        .with_cost_budget(budget)
        .with_deadline(Duration::from_millis(40));
    let plan = FaultPlan::failures(0x50DA, 0.4);
    let run = |threads: usize| {
        let mut s = server(&schema)
            .with_cost_model(model.clone())
            .with_cache_capacity(3);
        let outcomes = s.serve_batch_under(
            &db,
            &requests,
            threads,
            &cfg,
            &VirtualClock::frozen(),
            Some(&plan),
        );
        let tally = PressureTally::of(&outcomes);
        assert_eq!(tally.total(), requests.len(), "threads={threads}");
        (classes(&outcomes), tally)
    };
    let (baseline, tally) = run(1);
    assert!(tally.served > 0 && tally.rejected > 0, "{tally:?}");
    for threads in [2, 4, 8] {
        assert_eq!(run(threads), (baseline.clone(), tally), "threads={threads}");
    }
}
