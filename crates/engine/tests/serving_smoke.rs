//! End-to-end smoke of the serving path: cache semantics and executor-pool
//! determinism.
//!
//! The properties here are the serving-path contract:
//! * row sets are a pure function of the request mix — the executor pool's
//!   thread count must never change them;
//! * a warm cache hit answers without running chase & backchase (audited
//!   by the server's own skeleton lookups and cache misses), and every
//!   served plan — point-pinned and view-rewritten — passes
//!   `cnb_analyze::validate::validate_plan`;
//! * the skeleton memo behind a miss is a second cache level with its own
//!   books: it is hit under churn and moves none of the plan cache's;
//! * the per-family point picks *partition* the central query — pooling
//!   the distinct rows over the whole pick domain reproduces the full
//!   query's distinct result, so the cached template + bound parameter
//!   really is the same query, not a lookalike.

use cnb_analyze::validate::validate_plan;
use cnb_core::prelude::{parameterize, CachedPlans, Fingerprint, OptimizerConfig, PlanCache};
use cnb_engine::{PlanServer, PlanSource, ServedPlan};
use cnb_workloads::{suite, DataScale, Workload};

fn server_for(w: &dyn Workload) -> PlanServer {
    PlanServer::new(
        w.optimizer(),
        OptimizerConfig::with_strategy(w.expectations().strategy),
    )
}

/// A served plan must pass the same semantic validation
/// `cnb_analyze::suite::validate_suite` applies to backchase-emitted plans.
fn assert_valid(w: &dyn Workload, served: &ServedPlan) {
    validate_plan(&w.schema(), &served.plan)
        .unwrap_or_else(|e| panic!("{}: served plan fails validate_plan: {e}", w.name()));
}

/// The executor pool is a throughput knob only: serving the same mix on
/// 1/2/4/8 workers returns byte-identical row sets in request order.
#[test]
fn row_sets_are_identical_at_every_thread_count() {
    let scale = DataScale::new(120, 7);
    for w in suite() {
        let db = w.generate_at(scale);
        let requests: Vec<_> = (0..10).map(|i| w.serving_query(scale, i)).collect();
        let mut baseline = None;
        for threads in [1usize, 2, 4, 8] {
            let mut server = server_for(w.as_ref());
            let rows: Vec<_> = server
                .serve_batch(&db, &requests, threads)
                .into_iter()
                .map(|r| {
                    r.unwrap_or_else(|e| panic!("{}: request failed: {e}", w.name()))
                        .1
                        .rows
                })
                .collect();
            match &baseline {
                None => baseline = Some(rows),
                Some(b) => assert_eq!(
                    b,
                    &rows,
                    "{}: {threads} worker threads changed the row sets",
                    w.name()
                ),
            }
        }
    }
}

/// A warm hit never re-plans: across a full warmed mix the server's skeleton
/// lookups (one per top-down search) and cache misses do not move, for any
/// family. Cold and warm, what is served validates against the family's
/// schema.
#[test]
fn warm_hits_answer_without_chase_and_backchase() {
    let scale = DataScale::new(120, 7);
    for w in suite() {
        let db = w.generate_at(scale);
        let mut server = server_for(w.as_ref());
        let (plan, _) = server.serve(&db, &w.serving_query(scale, 0)).unwrap();
        assert!(!plan.cache_hit, "{}: first request must miss", w.name());
        assert_valid(w.as_ref(), &plan);
        let lookups = server.skeletons().lookups();
        assert!(lookups > 0, "{}: a cold miss must search", w.name());
        for pick in 1..8u64 {
            let (plan, _) = server.serve(&db, &w.serving_query(scale, pick)).unwrap();
            assert!(plan.cache_hit, "{}: warmed pick {pick} must hit", w.name());
            assert_valid(w.as_ref(), &plan);
        }
        assert_eq!(
            server.skeletons().lookups(),
            lookups,
            "{}: a warm hit invoked the optimizer",
            w.name()
        );
        assert_eq!(server.cache().misses(), 1, "{}", w.name());
        assert_eq!(server.cache().hits(), 7, "{}", w.name());
    }
}

/// The two cache levels keep separate books. A capacity-8 churn over EC2
/// select shapes (one skeleton) reaches skeleton hits, while the plan
/// cache's hits, misses and evictions are exactly those of a bare
/// `PlanCache::bounded(8)` replaying the same fingerprints: the skeleton
/// memo moves none of them.
#[test]
fn skeleton_hits_leave_the_plan_cache_books_alone() {
    let scale = DataScale::new(120, 7);
    let w = cnb_workloads::Ec2::new(2, 2, 1);
    let mut server = server_for(&w).with_cache_capacity(8);
    let mut bare = PlanCache::bounded(8);
    let base = w.serving_query(scale, 0);
    // Three hot shapes, every other request; between them a tail walking the
    // twelve ordered pairs of outputs.
    let hot = [vec![0, 1, 2, 3], vec![3, 2], vec![1]];
    let tail: Vec<Vec<usize>> = (0..4)
        .flat_map(|a| (0..4).filter(move |&b| b != a).map(move |b| vec![a, b]))
        .collect();
    let shapes = (0..96).map(|i| match i % 2 {
        0 => &hot[(i / 2) % hot.len()],
        _ => &tail[(i / 2) % tail.len()],
    });
    for (i, shape) in shapes.enumerate() {
        let mut q = w.serving_query(scale, i as u64);
        q.select = shape.iter().map(|&j| base.select[j].clone()).collect();
        server.plan(&q);
        let template = parameterize(&q).template;
        let fp = Fingerprint::new(&template, server.optimizer().constraints());
        if bare.lookup(&fp, &template).is_none() {
            let plans = vec![template.clone()];
            bare.insert(
                fp,
                CachedPlans {
                    template,
                    plans,
                    explored: 0,
                },
            );
        }
    }
    let (cache, memo) = (server.cache(), server.skeletons());
    assert!(bare.evictions() > 0, "the shapes must churn the cache");
    assert_eq!(
        (cache.hits(), cache.misses(), cache.evictions()),
        (bare.hits(), bare.misses(), bare.evictions())
    );
    assert_eq!(memo.lookups(), cache.misses());
    assert_eq!(memo.hits(), memo.lookups() - 1, "one skeleton");
    assert!(memo.imported() > 0);
}

/// A served plan names its source. On one EC2 skeleton: the first shape
/// misses both levels (cold), a second shape over the same skeleton misses
/// the plan cache and starts from the skeleton memo, and the first shape
/// again hits the plan cache. `cache_hit` says the same as the source.
#[test]
fn a_served_plan_names_its_cache_level() {
    let scale = DataScale::new(120, 7);
    let w = cnb_workloads::Ec2::new(2, 2, 1);
    let mut server = server_for(&w);
    let base = w.serving_query(scale, 0);
    let shaped = |i: u64, shape: &[usize]| {
        let mut q = w.serving_query(scale, i);
        q.select = shape.iter().map(|&j| base.select[j].clone()).collect();
        q
    };
    let sources: Vec<(PlanSource, bool)> =
        [shaped(0, &[0, 1]), shaped(1, &[1]), shaped(2, &[0, 1])]
            .iter()
            .map(|q| {
                let served = server.plan(q);
                (served.source, served.cache_hit)
            })
            .collect();
    assert_eq!(
        sources,
        [
            (PlanSource::Cold, false),
            (PlanSource::Skeleton, false),
            (PlanSource::Cache, true),
        ]
    );
    assert_eq!(
        (server.skeletons().lookups(), server.skeletons().hits()),
        (2, 1)
    );
}

/// Sweeping the whole pick domain partitions the central query: the pooled
/// *distinct* rows over every point pick equal the full query's distinct
/// rows. This pins that the cached template + bound constant is
/// semantically the central query — a fingerprint collision, a mis-bound
/// parameter, or a wrong plan would all break the partition. Distinct
/// rather than multiset because C&B minimization is set-semantics (join
/// elimination may change multiplicities, as the paper's containment
/// theory allows).
#[test]
fn point_picks_partition_the_central_query() {
    let scale = DataScale::new(90, 7);
    // Each family's serving pick domain (the modulus its `serving_query`
    // applies at this scale; see the per-family impls).
    let domains: [(Box<dyn Workload>, u64); 5] = [
        (Box::new(cnb_workloads::Ec1::new(3, 1)), scale.rows as u64),
        (
            Box::new(cnb_workloads::Ec2::new(2, 2, 1)),
            scale.rows as u64,
        ),
        (
            Box::new(cnb_workloads::Ec3::new(3, 1)),
            (scale.rows / 3).max(2) as u64,
        ),
        (Box::new(cnb_workloads::Ec4::new(3, 2, 1)), 20),
        (
            Box::new(cnb_workloads::Ec5::triangle()),
            (scale.rows / 2).max(2) as u64,
        ),
    ];
    for (w, domain) in &domains {
        let db = w.generate_at(scale);
        let mut full: Vec<String> = cnb_engine::execute(&db, &w.query())
            .unwrap()
            .rows
            .iter()
            .map(|r| r.to_string())
            .collect();
        let mut server = server_for(w.as_ref());
        let mut pooled: Vec<String> = Vec::new();
        for pick in 0..*domain {
            let (_, exec) = server.serve(&db, &w.serving_query(scale, pick)).unwrap();
            pooled.extend(exec.rows.iter().map(|r| r.to_string()));
        }
        full.sort();
        full.dedup();
        pooled.sort();
        pooled.dedup();
        assert_eq!(
            full,
            pooled,
            "{}: point picks over the domain 0..{domain} do not partition the central query",
            w.name()
        );
        assert_eq!(
            server.cache().misses(),
            1,
            "{}: one shape, one miss",
            w.name()
        );
    }
}
