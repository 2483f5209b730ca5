//! The three serving workloads: `serve_point`, `serve_star`, `serve_churn`.
//!
//! All three send a seeded cycle of requests through
//! [`PlanServer::serve`], one at a time. They differ in which families they
//! serve and in whether the plan cache can hold the working set.

use std::time::{Duration, Instant};

use cnb_core::prelude::{
    bind_params, parameterize, CachedPlans, Fingerprint, FxHashMap, FxHashSet, PlanCache,
};
use cnb_engine::prng::SplitMix64;
use cnb_engine::{
    cmp_value, execute, execute_legacy, Database, FaultPlan, PlanServer, ServeConfig, WallClock,
};
use cnb_ir::prelude::{Query, Value};
use cnb_workloads::{suite, DataScale};

use crate::stats::{digest_rows, geomean, median_ns, Fnv};
use crate::trace::Tracer;
use crate::{
    database_costs, derive_seed, one_thread, permutation, prepare, traced_window, two_cpus, Layers,
    Op, Size, Traced, Workload,
};

/// Rows per relation of every serving database.
const ROWS: usize = 2000;
/// Generator seed of the serving databases. The data is the same for every
/// `--seed`: the work a request does depends on how often its constants
/// occur, and with one database per family that moved `serve_star`'s tuple
/// count by ±6 % from seed to seed. `--seed` chooses the requests, their
/// shapes and their order.
const DATA_SEED: u64 = 0x5eed_da7a;
/// Plan-cache capacity of `serve_churn`.
const CHURN_CAPACITY: usize = 8;
/// Distinct request shapes of `serve_churn`: four times what the cache holds.
const CHURN_SHAPES: usize = 32;
/// Seed of `serve_churn`'s shapes and of the order they are asked in. Like
/// the data it is the same for every `--seed`: a cycle that repeats locks
/// the bounded cache into a regime that depends on the order of shapes, and
/// with seeded orders of the same mix 37–44 % of the requests missed, a
/// 15 % swing in throughput. `--seed` chooses the constants asked for.
const SHAPE_SEED: u64 = 0x5eed_5a9e;

/// Which serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeKind {
    /// EC1, EC2, EC3, EC5 point requests on a warm, unbounded cache.
    Point,
    /// The EC4 star mix on a warm, unbounded cache.
    Star,
    /// 32 EC2 shapes through a cache of 8.
    Churn,
}

struct Family {
    name: &'static str,
    workload: Box<dyn cnb_workloads::Workload>,
    scale: DataScale,
    db: Database,
    server: PlanServer,
    /// Compare answers as sets (EC5: a wedge view dedups two-hop paths).
    set_semantics: bool,
}

impl Family {
    fn fresh_server(&self) -> PlanServer {
        let cfg = one_thread(self.workload.expectations().strategy);
        PlanServer::new(self.workload.optimizer(), cfg)
    }
}

struct Request {
    family: usize,
    /// Rank of the request's shape on `serve_churn`, 0 elsewhere.
    shape: usize,
    query: Query,
    /// Digest of the rows an oracle-checked serve returned.
    expected: u64,
    /// The oracle pass accepted this request's answer.
    verified: bool,
}

/// The benchmark's own copy of the serving frontend, assembled from
/// `cnb_core`'s public pieces so each piece can be timed. It sees the same
/// requests as the server and must produce the same plans.
struct Shadow {
    cache: PlanCache,
    /// Template plans by shape, so an evicted shape re-enters the shadow
    /// cache without a second optimization.
    memo: FxHashMap<Fingerprint, CachedPlans>,
}

/// A serving workload, built.
pub struct Serve {
    kind: ServeKind,
    families: Vec<Family>,
    cycle: Vec<Request>,
    shadows: Vec<Shadow>,
    /// Σ `tuples_considered` over traced operations.
    traced_tuples: u64,
}

/// The ordered, non-empty selections of `n` select entries, in a fixed
/// enumeration order.
fn select_arrangements(n: usize) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    for _ in 0..n {
        let mut next = Vec::new();
        for prefix in &frontier {
            for j in (0..n).filter(|j| !prefix.contains(j)) {
                let mut longer = prefix.clone();
                longer.push(j);
                next.push(longer);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

impl Serve {
    /// Builds a serving workload: databases, servers, warm caches, the cycle.
    pub fn build(kind: ServeKind, seed: u64, size: Size) -> Serve {
        let members: Vec<Box<dyn cnb_workloads::Workload>> = suite()
            .into_iter()
            .filter(|w| match kind {
                ServeKind::Point => w.name() != "EC4",
                ServeKind::Star => w.name() == "EC4",
                ServeKind::Churn => w.name() == "EC2",
            })
            .collect();
        let mut families: Vec<Family> = members
            .into_iter()
            .enumerate()
            .map(|(f, workload)| {
                let scale = DataScale::new(ROWS, derive_seed(DATA_SEED, 1 + f as u64));
                let cfg = one_thread(workload.expectations().strategy);
                let mut server = PlanServer::new(workload.optimizer(), cfg);
                if kind == ServeKind::Churn {
                    server = server.with_cache_capacity(CHURN_CAPACITY);
                }
                Family {
                    name: workload.name(),
                    set_semantics: workload.name() == "EC5",
                    db: workload.generate_at(scale),
                    scale,
                    server,
                    workload,
                }
            })
            .collect();

        let mut rng = SplitMix64::seed_from_u64(derive_seed(seed, 100));
        // Short cycles: a window then repeats each request dozens of times,
        // which is what makes its floor a floor.
        let len = match kind {
            ServeKind::Point => size.pick(400, 40),
            ServeKind::Star => size.pick(20, 4),
            ServeKind::Churn => size.pick(500, 60),
        };
        let shapes = (kind == ServeKind::Churn)
            .then(|| churn_shapes(&families[0], derive_seed(SHAPE_SEED, 1)));
        // Zipf(1) over shape ranks: of the cycle's requests, shape r gets a
        // share in proportion to 1/r.
        let ranks = zipf_ranks(len, derive_seed(SHAPE_SEED, 2));
        // The star mix has 20 distinct requests (`pick % 20`) of very
        // different cost. A seeded order of 0..len asks for each once, so
        // the seed moves the order, not the mix.
        let star_picks = permutation(len, derive_seed(seed, 102));
        let cycle: Vec<Request> = (0..len)
            .map(|j| {
                let family = j % families.len();
                let fam = &families[family];
                let pick = match kind {
                    ServeKind::Star => star_picks[j] as u64,
                    _ => rng.next_u64(),
                };
                let mut query = fam.workload.serving_query(fam.scale, pick);
                let mut shape = 0;
                if let Some(shapes) = &shapes {
                    shape = ranks[j];
                    query = reshaped(&query, &shapes[shape]);
                }
                Request {
                    family,
                    shape,
                    query,
                    expected: 0,
                    verified: false,
                }
            })
            .collect();

        // Warm caches: one cold request per family plants its template.
        // The churn cache cannot hold its working set; the warm-up window
        // brings it to its steady mix instead.
        if kind != ServeKind::Churn {
            for (f, fam) in families.iter_mut().enumerate() {
                let first = cycle
                    .iter()
                    .find(|r| r.family == f)
                    .expect("every family is asked");
                // Planned, not served: what executing it costs depends on
                // which request the seed put first (4–40 ms on the star mix).
                fam.server.plan(&first.query);
            }
        }
        let shadows = families
            .iter()
            .map(|_| Shadow {
                cache: match kind {
                    ServeKind::Churn => PlanCache::bounded(CHURN_CAPACITY),
                    _ => PlanCache::new(),
                },
                memo: FxHashMap::default(),
            })
            .collect();
        Serve {
            kind,
            families,
            cycle,
            shadows,
            traced_tuples: 0,
        }
    }

    /// The shadow frontend for request `i`: the four steps of
    /// `PlanServer::plan`, each under its own span. Returns the bound plan.
    fn shadow_plan(&mut self, i: usize, t: &mut Tracer) -> Query {
        let req = &self.cycle[i % self.cycle.len()];
        let fam = &self.families[req.family];
        let shadow = &mut self.shadows[req.family];
        let (point, request) = (fam.name, i as u64);
        let optimizer = fam.server.optimizer();
        let (bound, _) = t.span("shadow.frontend", point, request, |t| {
            let (pq, _) = t.span("core.serving.parameterize", point, request, |_| {
                parameterize(&req.query)
            });
            let (fp, _) = t.span("core.serving.fingerprint", point, request, |_| {
                Fingerprint::new(&pq.template, optimizer.constraints())
            });
            let start = t.now_ns();
            let hit = shadow.cache.lookup(&fp, &pq.template);
            t.leaf("core.serving.lookup", point, request, start, t.now_ns());
            if let Some(entry) = hit {
                let start = t.now_ns();
                let bound = bind_params(&entry.plans[0], &pq.params);
                t.leaf("core.serving.bind", point, request, start, t.now_ns());
                return bound;
            }
            let entry = shadow.memo.entry(fp.clone()).or_insert_with(|| {
                let cfg = one_thread(fam.workload.expectations().strategy);
                let result = optimizer.optimize(&pq.template, &cfg);
                let mut plans: Vec<Query> = result.plans.into_iter().map(|p| p.query).collect();
                if plans.is_empty() {
                    plans.push(pq.template.clone());
                }
                CachedPlans {
                    template: pq.template.clone(),
                    plans,
                    explored: result.explored,
                }
            });
            shadow.cache.insert(fp, entry.clone());
            bind_params(&entry.plans[0], &pq.params)
        });
        bound
    }

    /// Cache counters over exactly one cycle on fresh servers, planning
    /// only (no execution): hits, misses, evictions and the time of each
    /// `PlanServer::plan` call that missed.
    fn count_pass(&self) -> (usize, usize, usize, Vec<u64>) {
        let mut servers: Vec<PlanServer> = self
            .families
            .iter()
            .map(|fam| match self.kind {
                ServeKind::Churn => fam.fresh_server().with_cache_capacity(CHURN_CAPACITY),
                _ => fam.fresh_server(),
            })
            .collect();
        let mut cold = Vec::new();
        for req in &self.cycle {
            let t = Instant::now();
            let served = servers[req.family].plan(&req.query);
            let nanos = t.elapsed().as_nanos() as u64;
            if !served.cache_hit {
                cold.push(nanos);
            }
        }
        let sum = |f: fn(&PlanCache) -> usize| servers.iter().map(|s| f(s.cache())).sum();
        (
            sum(PlanCache::hits),
            sum(PlanCache::misses),
            sum(PlanCache::evictions),
            cold,
        )
    }

    /// Median `execute` of the request as written over median `execute` of
    /// the plan the server binds for it, per family; geometric mean.
    fn first_plan_payoff(&self, per_family: usize) -> f64 {
        let ratios: Vec<f64> = self
            .families
            .iter()
            .enumerate()
            .map(|(f, fam)| {
                let mut server = fam.fresh_server();
                let (mut written, mut served) = (Vec::new(), Vec::new());
                for req in self.cycle.iter().filter(|r| r.family == f).take(per_family) {
                    let plan = server.plan(&req.query).plan;
                    let t = Instant::now();
                    std::hint::black_box(execute(&fam.db, &req.query).map(|r| r.rows.len()).ok());
                    written.push(t.elapsed().as_nanos() as u64);
                    let t = Instant::now();
                    std::hint::black_box(execute(&fam.db, &plan).map(|r| r.rows.len()).ok());
                    served.push(t.elapsed().as_nanos() as u64);
                }
                median_ns(&written) as f64 / median_ns(&served) as f64
            })
            .collect();
        geomean(&ratios)
    }

    /// Seconds for `PlanServer::serve_batch` (or, with `gated`,
    /// `serve_batch_under` with an admission budget, a deadline and a
    /// zero-rate fault plan on the wall clock) over the first `per_family`
    /// requests of each family, on warm unbounded servers. The fastest of
    /// three batches per family: the differences taken from these are a few
    /// microseconds a request, far below what host noise adds to one batch.
    fn batch_secs(&self, per_family: usize, threads: usize, gated: bool) -> f64 {
        let mut total = Duration::ZERO;
        for (f, fam) in self.families.iter().enumerate() {
            let queries: Vec<Query> = self
                .cycle
                .iter()
                .filter(|r| r.family == f)
                .take(per_family)
                .map(|r| r.query.clone())
                .collect();
            let mut server = fam.fresh_server();
            for q in &queries {
                server.plan(q);
            }
            total += (0..3)
                .map(|_| Self::one_batch(fam, &mut server, &queries, threads, gated))
                .min()
                .expect("three batches");
        }
        total.as_secs_f64()
    }

    fn one_batch(
        fam: &Family,
        server: &mut PlanServer,
        queries: &[Query],
        threads: usize,
        gated: bool,
    ) -> Duration {
        let t = Instant::now();
        if gated {
            let cfg = ServeConfig::unbounded()
                .with_cost_budget(f64::INFINITY)
                .with_deadline(Duration::from_secs(3600));
            let faults = FaultPlan::failures(1, 0.0);
            let clock = WallClock::start();
            let outcomes =
                server.serve_batch_under(&fam.db, queries, threads, &cfg, &clock, Some(&faults));
            assert!(
                outcomes.iter().all(|o| o.result.is_ok()),
                "the gates admit everything"
            );
        } else {
            let results = server.serve_batch(&fam.db, queries, threads);
            assert!(
                results.iter().all(Result::is_ok),
                "warm batch requests succeed"
            );
        }
        t.elapsed()
    }
}

/// The select-clause arrangements that make `serve_churn`'s shapes: a
/// seeded choice of [`CHURN_SHAPES`] from the ordered, non-empty selections
/// of the family's select entries. Select-label order is part of the
/// fingerprint, so each arrangement is its own cache entry.
fn churn_shapes(fam: &Family, seed: u64) -> Vec<Vec<usize>> {
    let base = fam.workload.serving_query(fam.scale, 0);
    let all = select_arrangements(base.select.len().min(4));
    let shapes: Vec<Vec<usize>> = permutation(all.len(), seed)
        .into_iter()
        .take(CHURN_SHAPES)
        .map(|k| all[k].clone())
        .collect();
    let distinct: FxHashSet<Fingerprint> = shapes
        .iter()
        .map(|shape| {
            let template = parameterize(&reshaped(&base, shape)).template;
            Fingerprint::new(&template, fam.server.optimizer().constraints())
        })
        .collect();
    assert_eq!(
        distinct.len(),
        CHURN_SHAPES,
        "select arrangements must be distinct plan-cache shapes"
    );
    shapes
}

/// The shape rank (from 0) of each of a cycle's `len` requests: rank r gets
/// `len / (r + 1)` of them up to rounding (largest remainders first), in a
/// shuffled order.
fn zipf_ranks(len: usize, seed: u64) -> Vec<usize> {
    let total: f64 = (1..=CHURN_SHAPES).map(|r| 1.0 / r as f64).sum();
    let quota = |r: usize| len as f64 / (r + 1) as f64 / total;
    let mut count: Vec<usize> = (0..CHURN_SHAPES).map(|r| quota(r) as usize).collect();
    let mut by_remainder: Vec<usize> = (0..CHURN_SHAPES).collect();
    by_remainder.sort_by(|a, b| quota(*b).fract().total_cmp(&quota(*a).fract()));
    let short = len - count.iter().sum::<usize>();
    for r in by_remainder.into_iter().take(short) {
        count[r] += 1;
    }
    let ranks: Vec<usize> = (0..CHURN_SHAPES)
        .flat_map(|r| std::iter::repeat_n(r, count[r]))
        .collect();
    permutation(len, seed)
        .into_iter()
        .map(|k| ranks[k])
        .collect()
}

/// `q` with its select clause re-ordered and sub-set to `shape`.
fn reshaped(q: &Query, shape: &[usize]) -> Query {
    let mut out = q.clone();
    out.select = shape.iter().map(|&j| q.select[j].clone()).collect();
    out
}

/// Multiset equality of two answers, or set equality.
fn same_answer(mut want: Vec<Value>, mut got: Vec<Value>, as_sets: bool) -> bool {
    want.sort_by(cmp_value);
    got.sort_by(cmp_value);
    if as_sets {
        want.dedup();
        got.dedup();
    }
    want == got
}

impl Workload for Serve {
    fn points(&self) -> Vec<&'static str> {
        match self.kind {
            ServeKind::Churn => vec!["hit", "miss"],
            _ => self.families.iter().map(|f| f.name).collect(),
        }
    }

    fn period(&self) -> usize {
        self.cycle.len()
    }

    /// The oracle pass, untimed: every request of the cycle is served once
    /// through a fresh unbounded server and compared with `execute_legacy`
    /// on the request as written — as multisets, or as sets for EC5. The
    /// digest of each accepted answer is what the timed pass must reproduce.
    fn verify(&mut self) -> (Vec<(String, u64)>, Vec<String>) {
        let mut servers: Vec<PlanServer> = self.families.iter().map(Family::fresh_server).collect();
        let (mut rows, mut tuples, mut mismatches) = (0u64, 0u64, 0u64);
        let mut cycle_digest = Fnv::default();
        for req in &mut self.cycle {
            let fam = &self.families[req.family];
            let want = execute_legacy(&fam.db, &req.query);
            let got = servers[req.family].serve(&fam.db, &req.query);
            if let (Ok(want), Ok((_, got))) = (want, got) {
                req.expected = digest_rows(&got.rows);
                req.verified = same_answer(want.rows, got.rows, fam.set_semantics);
                rows += got.stats.rows_out as u64;
                tuples += got.stats.tuples_considered as u64;
            }
            mismatches += u64::from(!req.verified);
            cycle_digest.u64(req.expected);
        }
        let counts = vec![
            ("cycle_ops".to_string(), self.cycle.len() as u64),
            ("cycle_rows".to_string(), rows),
            ("cycle_tuples".to_string(), tuples),
            ("cycle_digest".to_string(), cycle_digest.0),
            ("oracle_mismatches".to_string(), mismatches),
        ];
        (counts, Vec::new())
    }

    fn smoke_ops(&self) -> usize {
        match self.kind {
            ServeKind::Point => 80,
            ServeKind::Star => 8,
            ServeKind::Churn => 60,
        }
    }

    fn op(&mut self, i: usize, tracer: Option<&mut Tracer>) -> Op {
        let slot = i % self.cycle.len();
        let (family, shape, expected, verified) = {
            let r = &self.cycle[slot];
            (r.family, r.shape, r.expected, r.verified)
        };
        let (nanos, hit, digest, shadow_agrees) = match tracer {
            None => {
                let fam = &mut self.families[family];
                let t = Instant::now();
                let result = fam.server.serve(&fam.db, &self.cycle[slot].query);
                let nanos = t.elapsed().as_nanos() as u64;
                match result {
                    Ok((plan, exec)) => {
                        (nanos, plan.cache_hit, Some(digest_rows(&exec.rows)), true)
                    }
                    Err(_) => (nanos, true, None, true),
                }
            }
            Some(t) => {
                let fam = &mut self.families[family];
                let query = &self.cycle[slot].query;
                let (point, request) = (fam.name, i as u64);
                let ((served, result), nanos) = t.span("request", point, request, |t| {
                    let start = t.now_ns();
                    let served = fam.server.plan(query);
                    let outcome = if served.cache_hit { "hit" } else { "miss" };
                    t.leaf("engine.serving.plan", outcome, request, start, t.now_ns());
                    let (result, _) = t.span("engine.eval.execute", point, request, |_| {
                        execute(&fam.db, &served.plan)
                    });
                    (served, result)
                });
                let agrees = self.shadow_plan(i, t) == served.plan;
                match result {
                    Ok(exec) => {
                        self.traced_tuples += exec.stats.tuples_considered as u64;
                        (
                            nanos,
                            served.cache_hit,
                            Some(digest_rows(&exec.rows)),
                            agrees,
                        )
                    }
                    Err(_) => (nanos, served.cache_hit, None, agrees),
                }
            }
        };
        Op {
            point: match self.kind {
                ServeKind::Point => family,
                ServeKind::Star => 0,
                ServeKind::Churn => usize::from(!hit),
            },
            // On the warm workloads a slot of the cycle is one request against
            // one database. Through the churning cache the same slot hits in
            // one cycle and misses in the next, so there a class is a shape
            // and whether it hit: a miss is one C&B run on the shape's
            // template, a hit a bind and a point lookup of 0–9 rows.
            class: match self.kind {
                ServeKind::Churn => 2 * shape + usize::from(!hit),
                _ => slot,
            },
            nanos,
            ok: verified && digest == Some(expected) && shadow_agrees,
        }
    }
}

/// The traced pass of a serving workload and its per-layer metrics.
pub fn trace(kind: ServeKind, seed: u64, size: Size) -> Traced {
    let mut p = prepare(size, &|| Serve::build(kind, seed, size));
    let windows = traced_window(&mut p.workload, size);
    let w = &p.workload;
    let t = &windows.tracer;
    let us = |name: &str| median_ns(&t.durations(name)) as f64 / 1e3;
    let total = |name: &str| t.durations(name).iter().sum::<u64>() as f64;

    let mut layers = Layers::new();
    for step in ["parameterize", "fingerprint", "lookup", "bind"] {
        let span = format!("core.serving.{step}");
        layers.insert(format!("{span}_us"), Some(us(&span)));
    }
    let (hits, misses, evictions, cold) = w.count_pass();
    layers.insert(
        "core.serving.hit_rate".into(),
        Some(hits as f64 / (hits + misses) as f64),
    );
    layers.insert("core.serving.evictions".into(), Some(evictions as f64));
    let warm: Vec<u64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "engine.serving.plan" && s.point == "hit")
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    layers.insert(
        "engine.serving.plan_warm_us".into(),
        Some(median_ns(&warm) as f64 / 1e3),
    );
    layers.insert(
        "engine.serving.plan_cold_ms".into(),
        Some(median_ns(&cold) as f64 / 1e6),
    );
    layers.insert(
        "engine.serving.frontend_share".into(),
        Some(total("engine.serving.plan") / total("request")),
    );
    layers.insert(
        "engine.eval.execute_us".into(),
        Some(us("engine.eval.execute")),
    );
    let count = |name: &str| crate::count(&p.counts, name);
    layers.insert(
        "engine.eval.tuples_per_row".into(),
        Some(count("cycle_tuples") as f64 / count("cycle_rows").max(1) as f64),
    );
    layers.insert(
        "engine.eval.tuples_per_s".into(),
        Some(w.traced_tuples as f64 / (total("engine.eval.execute") / 1e9)),
    );
    let probe = match kind {
        ServeKind::Star => size.pick(12, 2),
        _ => size.pick(100, 4),
    };
    layers.insert(
        "core.optimizer.first_plan_payoff_x".into(),
        Some(w.first_plan_payoff(probe)),
    );
    let one = w.batch_secs(probe, 1, false);
    let gated = w.batch_secs(probe, 1, true);
    let requests = (probe * w.families.len()) as f64;
    layers.insert(
        "engine.pressure.gate_overhead_us".into(),
        Some((gated - one) / requests * 1e6),
    );
    layers.insert(
        "engine.serving.batch_speedup_2t".into(),
        two_cpus().then(|| one / w.batch_secs(probe, 2, false)),
    );
    let (generate_s, materialize_s) = w
        .families
        .iter()
        .map(|fam| {
            database_costs(&fam.workload.schema(), || {
                fam.workload.generate_at(fam.scale)
            })
        })
        .fold((0.0, 0.0), |acc, c| (acc.0 + c.0, acc.1 + c.1));
    layers.insert("engine.database.generate_s".into(), Some(generate_s));
    layers.insert("engine.database.materialize_s".into(), Some(materialize_s));
    windows.finish(p, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_ranks_share_a_cycle_in_proportion_to_one_over_rank() {
        let ranks = zipf_ranks(500, 1);
        assert_eq!(ranks.len(), 500);
        let count = |r| ranks.iter().filter(|x| **x == r).count();
        // 500 / H(32) = 123.2 for the first rank, half of that for the second.
        assert_eq!((count(0), count(1), count(31)), (123, 62, 4));
        assert!((1..CHURN_SHAPES).all(|r| count(r) <= count(r - 1)));
        assert_ne!(ranks, zipf_ranks(500, 2));
    }
}
