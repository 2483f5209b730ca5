//! The serving executor: plan-cache frontend plus a concurrent request pool
//! with a robustness layer between them.
//!
//! [`PlanServer`] is the "answer many" half of the serving discipline: it
//! owns a C&B [`Optimizer`] and two cache levels, and turns an incoming
//! query into an executable plan by template lookup. The first level, a
//! [`PlanCache`], is keyed by the (shape, constraint set) fingerprint: a hit
//! substitutes the request's constants into the cached template plan
//! ([`bind_params`]) and goes straight to execution. A miss runs chase &
//! backchase on the template — but not from nothing: the second level, a
//! [`SkeletonMemo`] keyed by the template's `from` / `where` skeleton, hands
//! the search every verdict an earlier shape with that skeleton proved that
//! holds for this one's select list, and keeps what the search proves. The
//! search still chases its own universal plan and induces its own plans, so
//! what a miss caches is what a cold optimization would — its left-deep
//! plans, the only ones [`execute`] runs: a miss certifies no generic-join
//! twin.
//!
//! [`PlanServer::serve_batch_under`] is the pressure-aware batch path.
//! A server whose optimizer refused its constraint set at construction
//! ([`Optimizer::certified`]) serves nothing: every request comes back as
//! [`ServeError::Uncertified`] before it is planned. Between "a batch of
//! requests" and the worker pool sit three typed, deterministic gates:
//!
//! 1. **Admission** — each request's plan is priced with the server's
//!    [`CostModel`]; over-budget requests are shed as
//!    [`ServeError::Rejected`] before touching the pool.
//! 2. **Deadlines** — judged against an injectable [`Clock`]
//!    (deterministic virtual time in tests, wall time in the bench).
//!    A request whose deadline passes before dispatch, or whose executor
//!    slot is never evaluated after a cooperative pool stop, comes back as
//!    [`ServeError::DeadlineExpired`] — never partial rows, never a panic.
//! 3. **Faults** — a seeded [`FaultPlan`] fails requests by index before
//!    they execute; each one surfaces as [`ServeError::FaultInjected`].
//!
//! Planning and all gate decisions run on the caller's thread in request
//! order (they mutate the cache and must be reproducible); execution fans
//! out over the crate's scoped worker pool (an atomic cursor over the batch)
//! and results come back **in request order** — so with a deterministic
//! clock the entire outcome vector, rows included, is byte-identical at any
//! executor thread count. Scheduling may reorder *execution*, never
//! *results*. The `threads` argument is the only source of a thread count.
//!
//! Time enters only through the [`Clock`] a caller passes: the attribute
//! below makes any wall-clock read in this module a clippy error that no
//! `#[expect]` can sanction.

#![forbid(clippy::disallowed_methods)]

use cnb_ir::prelude::Query;

use cnb_core::cost::CostModel;
use cnb_core::prelude::{
    bind_params, constraint_digest, parameterize, CachedPlans, Fingerprint, Optimizer,
    OptimizerConfig, PlanCache, SkeletonMemo,
};
use cnb_core::serving::unbound_param;

use crate::clock::{Clock, VirtualClock};
use crate::database::Database;
use crate::error::{ExecError, ServeError};
use crate::eval::{execute, ExecResult};
use crate::pool;
use crate::pressure::{FaultPlan, ServeConfig};

/// A plan produced by the serving frontend.
#[derive(Clone, Debug)]
pub struct ServedPlan {
    /// The executable (fully bound) plan.
    pub plan: Query,
    /// True when the plan came from the cache without re-optimizing.
    pub cache_hit: bool,
}

/// One request's outcome in a [`PlanServer::serve_batch`] run.
pub type ServedResult = Result<(ServedPlan, ExecResult), ServeError>;

/// One request's outcome under pressure.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Rows + plan on success; the typed shed/expiry/fault verdict otherwise.
    pub result: ServedResult,
}

/// Aggregate counters over one batch's outcomes — what the pressure tests
/// reconcile (`served + rejected + expired + faulted + failed == requests`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PressureTally {
    /// Requests that returned rows.
    pub served: usize,
    /// Admission-control sheds ([`ServeError::Rejected`]).
    pub rejected: usize,
    /// Deadline expiries ([`ServeError::DeadlineExpired`]).
    pub expired: usize,
    /// Fault casualties ([`ServeError::FaultInjected`]).
    pub faulted: usize,
    /// Execution errors and refusals ([`ServeError::Exec`],
    /// [`ServeError::Uncertified`]).
    pub failed: usize,
}

impl PressureTally {
    /// Tallies a batch of outcomes.
    pub fn of(outcomes: &[ServeOutcome]) -> PressureTally {
        let mut t = PressureTally::default();
        for o in outcomes {
            match &o.result {
                Ok(_) => t.served += 1,
                Err(ServeError::Rejected { .. }) => t.rejected += 1,
                Err(ServeError::DeadlineExpired) => t.expired += 1,
                Err(ServeError::FaultInjected { .. }) => t.faulted += 1,
                Err(ServeError::Exec(_) | ServeError::Uncertified(_)) => t.failed += 1,
            }
        }
        t
    }

    /// Sum of all outcome classes — must equal the batch size.
    pub fn total(&self) -> usize {
        self.served + self.rejected + self.expired + self.faulted + self.failed
    }
}

/// Plan-cache frontend over a fixed schema + constraint set.
pub struct PlanServer {
    optimizer: Optimizer,
    config: OptimizerConfig,
    cache: PlanCache,
    /// The second level: verdict borders per query skeleton, as many
    /// skeletons as the cache holds shapes.
    skeletons: SkeletonMemo,
    cost_model: CostModel,
    /// [`constraint_digest`] of the optimizer's constraint set, which is
    /// fixed once the optimizer is built: digested here, not per request.
    constraints: u64,
}

impl PlanServer {
    /// A server for `optimizer`'s schema and constraints, optimizing cache
    /// misses under `config`, with an unbounded cache and a default cost
    /// model (admission prices everything with static estimates until a
    /// measured model is installed).
    pub fn new(optimizer: Optimizer, config: OptimizerConfig) -> PlanServer {
        PlanServer {
            constraints: constraint_digest(optimizer.constraints()),
            optimizer,
            config,
            cache: PlanCache::new(),
            skeletons: SkeletonMemo::new(),
            cost_model: CostModel::default(),
        }
    }

    /// Bounds the plan cache at `capacity` shapes with the segmented
    /// observed-frequency eviction policy, and the skeleton memo at as many
    /// skeletons, least recently used out (builder style; replaces both, so
    /// call at construction time).
    pub fn with_cache_capacity(mut self, capacity: usize) -> PlanServer {
        self.cache = PlanCache::bounded(capacity);
        self.skeletons = SkeletonMemo::bounded(capacity);
        self
    }

    /// Installs the cost model admission control prices plans with
    /// (builder style) — typically seeded from the database's measured
    /// cardinalities, or fed back from [`crate::feed_cost_model`].
    pub fn with_cost_model(mut self, model: CostModel) -> PlanServer {
        self.cost_model = model;
        self
    }

    /// The underlying optimizer (schema + constraints).
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// The plan cache (hit/miss/eviction accounting lives here).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The skeleton memo a cache miss optimizes with (its lookup, hit and
    /// import counters live here).
    pub fn skeletons(&self) -> &SkeletonMemo {
        &self.skeletons
    }

    /// The admission cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Plans one request: parameterize, fingerprint, look up — optimizing
    /// the template only on a miss, with the skeleton memo's verdicts
    /// ([`PlanServer::skeletons`]). The returned plan has the request's
    /// constants bound back in and is ready to execute.
    ///
    /// A miss caches *all* template plans the optimizer emitted
    /// (best-first); serving always binds the best one. They are left-deep
    /// plans only ([`Optimizer::optimize_in`]): `serve` only runs
    /// [`execute`], so a miss never computes a generic-join twin. If
    /// optimization produced no plan (a budget ran out), the template
    /// itself is cached as the only plan — the request then executes as
    /// written, and so does every later request with the same shape.
    ///
    /// This is the checked door for untrusted requests: one that breaks the
    /// scoping rule ([`Query::validate`]), or any request to a server whose
    /// constraint set was refused ([`Optimizer::certified`], read, not
    /// re-run), is handed back as written — nothing parameterized, optimized
    /// or cached, no counter moved. [`execute`]'s prologue reports the first
    /// as [`crate::error::ExecError::InvalidQuery`]; [`PlanServer::serve`]
    /// and the batch paths refuse the second as [`ServeError::Uncertified`].
    pub fn plan(&mut self, q: &Query) -> ServedPlan {
        if q.validate().is_err() || self.optimizer.certified().is_err() {
            return ServedPlan {
                plan: q.clone(),
                cache_hit: false,
            };
        }
        self.plan_valid(q)
    }

    /// [`ServeError::Uncertified`] when the optimizer refused its
    /// constraint set.
    fn refusal(&self) -> Result<(), ServeError> {
        self.optimizer
            .certified()
            .map_err(|e| ServeError::Uncertified(e.clone()))
    }

    /// [`PlanServer::plan`] behind the door: `q` passed [`Query::validate`].
    fn plan_valid(&mut self, q: &Query) -> ServedPlan {
        let parameterized = parameterize(q);
        let fp = Fingerprint::with_digest(&parameterized.template, self.constraints);
        if let Some(entry) = self.cache.lookup(&fp, &parameterized.template) {
            return ServedPlan {
                plan: bind_params(&entry.plans[0], &parameterized.params),
                cache_hit: true,
            };
        }
        let result =
            self.optimizer
                .optimize_in(&parameterized.template, &self.config, &mut self.skeletons);
        let mut plans: Vec<Query> = result.plans.into_iter().map(|p| p.query).collect();
        if plans.is_empty() {
            plans.push(parameterized.template.clone());
        }
        let best = bind_params(&plans[0], &parameterized.params);
        self.cache.insert(
            fp,
            CachedPlans {
                template: parameterized.template,
                plans,
                explored: result.explored,
            },
        );
        ServedPlan {
            plan: best,
            cache_hit: false,
        }
    }

    /// Plans and executes one request against `db`; refused with
    /// [`ServeError::Uncertified`] when the constraint set was.
    pub fn serve(&mut self, db: &Database, q: &Query) -> ServedResult {
        self.refusal()?;
        let served = self.plan(q);
        debug_assert!(
            unbound_param(&served.plan).is_none(),
            "served plan still contains a parameter placeholder"
        );
        let exec = execute(db, &served.plan).map_err(ServeError::Exec)?;
        Ok((served, exec))
    }

    /// The polite-world batch path: no budget, no deadline, no faults —
    /// exactly [`PlanServer::serve_batch_under`] with
    /// [`ServeConfig::unbounded`] and a frozen virtual clock. Kept as the
    /// convenience entry point for callers that only want the pool.
    pub fn serve_batch(
        &mut self,
        db: &Database,
        requests: &[Query],
        threads: usize,
    ) -> Vec<ServedResult> {
        self.serve_batch_under(
            db,
            requests,
            threads,
            &ServeConfig::unbounded(),
            &VirtualClock::frozen(),
            None,
        )
        .into_iter()
        .map(|o| o.result)
        .collect()
    }

    /// Serves a batch under pressure: admission control, per-request
    /// deadlines on `clock`, and seeded fault injection.
    ///
    /// Phase 1 runs on the caller's thread in request order (planning
    /// mutates the cache): every request to an uncertified server is settled
    /// as [`ServeError::Uncertified`], and a request that breaks the scoping
    /// rule as [`ExecError::InvalidQuery`], before any gate looks at it; every
    /// other one is planned, priced against `config.cost_budget`, and
    /// checked for `config.deadline` against `clock` — producing a typed
    /// verdict per request. Phase 2 maps the pool over the batch on up to
    /// `threads` scoped workers (clamped to `1..=64`; `0` means 1) sharing
    /// `db` read-only, skipping the slots phase 1 settled; each worker
    /// re-checks the deadline before evaluating an item and requests a
    /// cooperative pool stop when it has passed, so unevaluated slots come
    /// back as [`ServeError::DeadlineExpired`] instead of panicking (and a
    /// started request always returns *all* its rows or none). A request
    /// `faults` fails, a pure function of its index, is not executed.
    ///
    /// Outcomes come back in request order. With a deterministic clock the
    /// whole outcome vector — admission decisions, fault casualties, and
    /// every served row — is byte-identical at any `threads`.
    pub fn serve_batch_under(
        &mut self,
        db: &Database,
        requests: &[Query],
        threads: usize,
        config: &ServeConfig,
        clock: &dyn Clock,
        faults: Option<&FaultPlan>,
    ) -> Vec<ServeOutcome> {
        let started = clock.now();
        let deadline = config.deadline.map(|d| started + d);
        let expired = || deadline.is_some_and(|dl| clock.now() > dl);

        // Phase 1 — caller thread, request order: the door, plan, admit, check
        // the deadline. Every gate yields a typed verdict, never a panic.
        let verdicts: Vec<Result<ServedPlan, ServeError>> = requests
            .iter()
            .map(|q| {
                self.refusal()?;
                q.validate()
                    .map_err(|e| ServeError::Exec(ExecError::InvalidQuery(e)))?;
                let served = self.plan_valid(q);
                if let Some(budget) = config.cost_budget {
                    let cost = self.cost_model.cost(&served.plan);
                    if cost > budget {
                        return Err(ServeError::Rejected { cost, budget });
                    }
                }
                if expired() {
                    return Err(ServeError::DeadlineExpired);
                }
                Ok(served)
            })
            .collect();

        // Phase 2 — the pool, over the whole batch; `Some(None)` is a slot
        // phase 1 already settled.
        let executed = pool::map_in_order(threads, requests.len(), |request| {
            let Ok(served) = &verdicts[request] else {
                return Some(None);
            };
            if expired() {
                // Past deadline: stop the pool cooperatively. Every
                // unevaluated slot becomes a typed expiry below.
                return None;
            }
            if faults.is_some_and(|f| f.fails(request)) {
                return Some(Some(Err(ServeError::FaultInjected { request })));
            }
            Some(Some(execute(db, &served.plan).map_err(ServeError::Exec)))
        });

        // An admitted request whose slot was never evaluated (cooperative
        // deadline stop) is a typed expiry, not a panic.
        verdicts
            .into_iter()
            .zip(executed)
            .map(|(verdict, slot)| {
                let result = match (verdict, slot.flatten()) {
                    (Err(e), _) => Err(e),
                    (Ok(_), None) => Err(ServeError::DeadlineExpired),
                    (Ok(plan), Some(exec)) => exec.map(|x| (plan, x)),
                };
                ServeOutcome { result }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnb_core::prelude::Strategy;
    use cnb_ir::prelude::*;

    /// EC1-style single relation with a primary index, point lookups.
    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation(
            "R",
            [
                (sym("K"), Type::Int),
                (sym("N"), Type::Int),
                (sym("D"), Type::Int),
            ],
        );
        add_primary_index(&mut s, sym("R"), sym("K"), "PI");
        s
    }

    fn db(schema: &Schema) -> Database {
        let mut db = Database::new();
        let rows: Vec<Value> = (0..50)
            .map(|i| {
                Value::record([
                    (sym("K"), Value::Int(i)),
                    (sym("N"), Value::Int((i * 7) % 50)),
                    (sym("D"), Value::Int(i * 100)),
                ])
            })
            .collect();
        db.load_table(sym("R"), rows);
        db.materialize_physical(schema).unwrap();
        db
    }

    fn point(k: i64) -> Query {
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        q.equate(PathExpr::from(r).dot("K"), PathExpr::from(k));
        q.output("D", PathExpr::from(r).dot("D"));
        q
    }

    #[test]
    fn warm_hits_skip_the_optimizer_and_answer_correctly() {
        let schema = schema();
        let db = db(&schema);
        let mut server = PlanServer::new(
            Optimizer::new(schema),
            OptimizerConfig::with_strategy(Strategy::Full),
        );

        let (cold, rows) = server.serve(&db, &point(3)).unwrap();
        assert!(!cold.cache_hit);
        assert_eq!(
            rows.rows,
            vec![Value::record([(sym("D"), Value::Int(300))])]
        );

        // Different constant, same shape: a hit. The optimizer only runs
        // after a counted miss, so one miss in two lookups means one
        // optimization (`tests/pressure.rs` audits the searches behind it
        // with the server's own skeleton lookups).
        let (warm, rows) = server.serve(&db, &point(7)).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(
            rows.rows,
            vec![Value::record([(sym("D"), Value::Int(700))])]
        );
        let cache = server.cache();
        assert_eq!((cache.lookups(), cache.hits(), cache.misses()), (2, 1, 1));
    }

    /// The digest stored at construction keys requests exactly as
    /// re-digesting the constraint set per request did, on every family.
    #[test]
    fn stored_digest_fingerprints_like_fingerprint_new() {
        use cnb_workloads::DataScale;
        for w in cnb_workloads::suite() {
            let mut server = PlanServer::new(
                w.optimizer(),
                OptimizerConfig::with_strategy(Strategy::Full),
            );
            let q = w.serving_query(DataScale::smoke(), 0);
            let template = parameterize(&q).template;
            let expected = Fingerprint::new(&template, server.optimizer.constraints());
            assert_eq!(
                Fingerprint::with_digest(&template, server.constraints),
                expected,
                "{}",
                w.name()
            );
            server.plan(&q);
            assert!(server.cache.contains(&expected), "{}", w.name());
        }
    }

    /// EC5's triangle has a certified WCOJ gap, so the optimizer emits
    /// generic-join twins; the cache must hold each rewriting once.
    #[test]
    fn generic_join_twins_are_not_cached_as_duplicate_plans() {
        use cnb_workloads::Workload;
        let w = cnb_workloads::Ec5::triangle();
        let mut server = PlanServer::new(
            w.optimizer(),
            OptimizerConfig::with_strategy(Strategy::Full),
        );
        server.plan(&w.query());
        let template = parameterize(&w.query()).template;
        let fp = Fingerprint::new(&template, server.optimizer.constraints());
        let entry = server.cache.lookup(&fp, &template).expect("just planted");
        let mut keys: Vec<String> = entry.plans.iter().map(Query::canonical_key).collect();
        let cached = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cached, "two cached plans share a canonical key");
    }

    #[test]
    fn batch_results_are_request_ordered_at_any_thread_count() {
        let schema = schema();
        let db = db(&schema);
        let requests: Vec<Query> = (0..20).map(|i| point(i % 10)).collect();
        let baseline: Vec<Vec<Value>> = {
            let mut server = PlanServer::new(
                Optimizer::new(schema.clone()),
                OptimizerConfig::with_strategy(Strategy::Full),
            );
            server
                .serve_batch(&db, &requests, 1)
                .into_iter()
                .map(|r| r.unwrap().1.rows)
                .collect()
        };
        for threads in [2, 4, 8] {
            let mut server = PlanServer::new(
                Optimizer::new(schema.clone()),
                OptimizerConfig::with_strategy(Strategy::Full),
            );
            let got: Vec<Vec<Value>> = server
                .serve_batch(&db, &requests, threads)
                .into_iter()
                .map(|r| r.unwrap().1.rows)
                .collect();
            assert_eq!(got, baseline, "threads={threads}");
            // One shape across all 20 requests: a single cold miss.
            assert_eq!(server.cache().misses(), 1);
            assert_eq!(server.cache().hits(), 19);
        }
    }

    #[test]
    fn executor_rejects_unbound_templates_typed() {
        let schema = schema();
        let db = db(&schema);
        let template = cnb_core::prelude::parameterize(&point(3)).template;
        let err = execute(&db, &template).unwrap_err();
        assert_eq!(err, ExecError::UnboundParam(0), "got: {err}");
    }

    #[test]
    fn tally_reconciles_every_outcome_class() {
        let outcomes: Vec<ServeOutcome> = [
            Err(ServeError::Rejected {
                cost: 9.0,
                budget: 1.0,
            }),
            Err(ServeError::DeadlineExpired),
            Err(ServeError::FaultInjected { request: 2 }),
            Err(ServeError::Exec(ExecError::NoEvaluableBinding)),
        ]
        .into_iter()
        .map(|result| ServeOutcome { result })
        .collect();
        let t = PressureTally::of(&outcomes);
        assert_eq!(
            (t.served, t.rejected, t.expired, t.faulted, t.failed),
            (0, 1, 1, 1, 1)
        );
        assert_eq!(t.total(), outcomes.len());
    }
}
