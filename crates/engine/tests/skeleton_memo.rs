//! The plan server's second cache level against cold optimization.
//!
//! A cache miss optimizes with the verdict borders every earlier search over
//! the same `from` / `where` skeleton proved (`cnb_core::memo`). That may
//! change where a verdict comes from and nothing else: for every request the
//! bound plan, the cached template plans and their order, and `explored`
//! equal what a cold [`Optimizer::optimize`] of the same template gives. A
//! select set already proved, in any order, runs no chase at all. And
//! nothing crosses to a search that is not over the same skeleton: another
//! constraint set, another `where`, a universal chase cut short, a select
//! list that repeats a label. Debug builds re-prove every imported verdict
//! by a chase, so the debug run of this file audits every import; the
//! release run trusts them, as serving does. And a miss computes no
//! generic-join twin: `optimize_in` emits exactly the left-deep plans of
//! `optimize`, in its order.

use cnb_core::prelude::{
    bind_params, parameterize, CertifyError, Fingerprint, OptimizeResult, Optimizer,
    OptimizerConfig, SkeletonMemo, Strategy,
};
use cnb_engine::prng::SplitMix64;
use cnb_engine::PlanServer;
use cnb_ir::prelude::{sym, Constraint, ExecStrategy, PathExpr, Query, Range, Symbol, Value};
use cnb_workloads::{suite, DataScale, Workload};

/// The ordered, non-empty selections of `n` select entries — the
/// enumeration `serve_churn` draws its shapes from (64 for `n = 4`).
fn arrangements(n: usize) -> Vec<Vec<usize>> {
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

/// `q` with its select clause re-ordered and sub-set to `shape`.
fn reshaped(q: &Query, shape: &[usize]) -> Query {
    let mut out = q.clone();
    out.select = shape.iter().map(|&j| q.select[j].clone()).collect();
    out
}

/// A seeded order of `0..n`.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

fn ec2() -> Box<dyn Workload> {
    suite()
        .into_iter()
        .find(|w| w.name() == "EC2")
        .expect("the suite has EC2")
}

fn config(w: &dyn Workload) -> OptimizerConfig {
    OptimizerConfig::with_strategy(w.expectations().strategy)
}

/// The left-deep plans, best first: what `PlanServer::plan` caches.
fn left_deep(result: &OptimizeResult) -> Vec<Query> {
    result
        .plans
        .iter()
        .filter(|p| p.strategy == ExecStrategy::LeftDeep)
        .map(|p| p.query.clone())
        .collect()
}

/// One request and what a cold optimization of its template gives.
struct Cold {
    request: Query,
    template: Query,
    params: Vec<Value>,
    plans: Vec<Query>,
    explored: usize,
}

impl Cold {
    fn of(opt: &Optimizer, cfg: &OptimizerConfig, request: Query) -> Cold {
        let pq = parameterize(&request);
        let result = opt.optimize(&pq.template, cfg);
        Cold {
            plans: left_deep(&result),
            explored: result.explored,
            request,
            template: pq.template,
            params: pq.params,
        }
    }

    /// `result`, of `optimize_in` on this template, is the cold one.
    fn assert_matches(&self, result: &OptimizeResult, what: &str) {
        let plans: Vec<Query> = result.plans.iter().map(|p| p.query.clone()).collect();
        assert_eq!(plans, self.plans, "{what}: plans or their order");
        assert_eq!(result.explored, self.explored, "{what}: explored");
    }
}

/// The requests of `w` under every arrangement of its first `n` outputs,
/// each with its cold optimization.
fn shapes_of(w: &dyn Workload, n: usize) -> Vec<Cold> {
    let scale = DataScale::smoke();
    let (opt, cfg) = (w.optimizer(), config(w));
    let base = w.serving_query(scale, 0);
    arrangements(base.select.len().min(n))
        .iter()
        .enumerate()
        .map(|(k, shape)| {
            let request = reshaped(&w.serving_query(scale, k as u64), shape);
            Cold::of(&opt, &cfg, request)
        })
        .collect()
}

/// Plans `shapes` through `server` in `order`, holding each request to its
/// cold optimization: the bound plan, the cached plan list and its order,
/// and `explored`.
fn assert_serves_cold(server: &mut PlanServer, shapes: &[Cold], order: &[usize], what: &str) {
    for &k in order {
        let cold = &shapes[k];
        let served = server.plan(&cold.request);
        let what = format!("{what}, shape {k}");
        assert_eq!(
            served.plan,
            bind_params(&cold.plans[0], &cold.params),
            "{what}: bound plan"
        );
        let fp = Fingerprint::new(&cold.template, server.optimizer().constraints());
        let mut peek = server.cache().clone();
        let entry = peek
            .lookup(&fp, &cold.template)
            .expect("the shape just planned is resident");
        assert_eq!(
            entry.plans, cold.plans,
            "{what}: cached plans or their order"
        );
        assert_eq!(entry.explored, cold.explored, "{what}: explored");
    }
}

/// All 64 EC2 select arrangements, in three seeded orders, through servers
/// of capacity 1, 8 and unbounded: every request is served what a cold
/// optimization gives, and the sibling shapes do share one skeleton.
#[test]
fn ec2_select_arrangements_are_served_cold_plans() {
    let w = ec2();
    let shapes = shapes_of(w.as_ref(), 4);
    assert_eq!(shapes.len(), 64);
    for seed in [1u64, 2, 3] {
        let order = shuffled(shapes.len(), seed);
        for capacity in [Some(1), Some(8), None] {
            let mut server = PlanServer::new(w.optimizer(), config(w.as_ref()));
            if let Some(c) = capacity {
                server = server.with_cache_capacity(c);
            }
            let what = format!("seed {seed}, capacity {capacity:?}");
            assert_serves_cold(&mut server, &shapes, &order, &what);
            let memo = server.skeletons();
            assert_eq!(memo.lookups(), server.cache().misses(), "{what}");
            assert_eq!(memo.hits(), memo.lookups() - 1, "{what}: one skeleton");
            assert!(memo.imported() > 0, "{what}");
        }
    }
}

/// The zero-chase audit: once a select *set* has been proved, a shape that
/// asks for it again — in any order — gets every verdict from the memo.
/// Of the 64 arrangements of four outputs, 15 are first sightings of a set.
#[test]
fn a_proved_select_set_runs_no_chase_in_any_order() {
    let w = ec2();
    let shapes = shapes_of(w.as_ref(), 4);
    let (opt, cfg) = (w.optimizer(), config(w.as_ref()));
    for seed in [1u64, 2, 3] {
        let mut memo = SkeletonMemo::new();
        let mut proved: Vec<Vec<Symbol>> = Vec::new();
        let mut chase_free = 0;
        for k in shuffled(shapes.len(), seed) {
            let cold = &shapes[k];
            let result = opt.optimize_in(&cold.template, &cfg, &mut memo);
            cold.assert_matches(&result, &format!("seed {seed}, shape {k}"));
            let mut labels: Vec<Symbol> = cold.template.select.iter().map(|(l, _)| *l).collect();
            labels.sort();
            if proved.contains(&labels) {
                assert_eq!(
                    result.explored, result.inferred,
                    "seed {seed}, shape {k}: a proved select set ran a chase"
                );
            } else {
                proved.push(labels);
            }
            chase_free += usize::from(result.explored == result.inferred);
        }
        assert_eq!(proved.len(), 15);
        assert!(
            chase_free >= 64 - 15,
            "seed {seed}: {chase_free} chase-free"
        );
    }
}

/// The other four families (two of them OQF, so fragments key the memo)
/// under select sub-lists: served exactly what a cold optimization gives.
#[test]
fn other_families_with_select_sub_lists_are_served_cold_plans() {
    for w in suite().into_iter().filter(|w| w.name() != "EC2") {
        let shapes = shapes_of(w.as_ref(), 3);
        let mut server = PlanServer::new(w.optimizer(), config(w.as_ref()));
        let order: Vec<usize> = (0..shapes.len()).collect();
        assert_serves_cold(&mut server, &shapes, &order, w.name());
        assert!(server.skeletons().hits() > 0, "{}", w.name());
    }
}

/// What crosses to a search that is not over the same skeleton: nothing.
/// Each negative runs on a memo that already holds the EC2 template's
/// skeleton, and must neither hit it nor import from it — and still give
/// the cold answer for what it asked. Last comes an optimizer whose
/// constraint set was refused at construction: it touches the memo not at
/// all.
#[test]
fn nothing_is_imported_across_skeletons_or_by_an_uncertified_optimizer() {
    let w = ec2();
    let (opt, cfg) = (w.optimizer(), config(w.as_ref()));
    let template = parameterize(&w.serving_query(DataScale::smoke(), 0)).template;
    let mut memo = SkeletonMemo::new();
    opt.optimize_in(&template, &cfg, &mut memo);
    let planted = (memo.hits(), memo.imported());
    let imports_nothing = |memo: &SkeletonMemo, what: &str| {
        assert_eq!((memo.hits(), memo.imported()), planted, "{what}");
    };
    let same_as_cold = |opt: &Optimizer, q: &Query, cfg: &OptimizerConfig, got: &OptimizeResult| {
        let cold = opt.optimize(q, cfg);
        assert_eq!(left_deep(got), left_deep(&cold));
        assert_eq!((got.explored, got.inferred), (cold.explored, cold.inferred));
    };

    // An optimizer that drops one constraint is another skeleton.
    let fewer = Optimizer::with_constraints(w.schema(), opt.constraints()[1..].to_vec());
    let got = fewer.optimize_in(&template, &cfg, &mut memo);
    imports_nothing(&memo, "one constraint dropped");
    same_as_cold(&fewer, &template, &cfg, &got);

    // So is a template whose `where` differs by one equality.
    let mut looser = template.clone();
    looser.where_.pop();
    let got = opt.optimize_in(&looser, &cfg, &mut memo);
    imports_nothing(&memo, "one equality fewer");
    same_as_cold(&opt, &looser, &cfg, &got);

    // A select list that repeats a label bypasses the memo.
    let mut repeated = template.clone();
    let label = repeated.select[0].0;
    let path = repeated.select[1].1.clone();
    repeated.select.push((label, path));
    let lookups = memo.lookups();
    let got = opt.optimize_in(&repeated, &cfg, &mut memo);
    imports_nothing(&memo, "a repeated label");
    assert_eq!(memo.lookups(), lookups, "a repeated label does not look up");
    same_as_cold(&opt, &repeated, &cfg, &got);

    // The planted skeleton is still there, and still answers.
    let got = opt.optimize_in(&template, &cfg, &mut memo);
    assert_eq!(memo.hits(), planted.0 + 1);
    assert_eq!(got.explored, got.inferred, "the same select list again");

    // An optimizer whose constraint set is refused at construction runs
    // nothing: no chase, no verdict, no plan, and no memo counter moves —
    // not even a lookup. `S1_1.B ⊆ S1_1.A` invents an `S1_1.B` per step.
    let mut feedback = Constraint::new("S1_1_B_in_S1_1_A");
    let x = feedback.forall("x", Range::Name(sym("S1_1")));
    let y = feedback.exists("y", Range::Name(sym("S1_1")));
    feedback.then(PathExpr::from(x).dot("B"), PathExpr::from(y).dot("A"));
    let mut refused = opt.constraints().to_vec();
    refused.push(feedback);
    let uncertified = Optimizer::with_constraints(w.schema(), refused);
    assert!(matches!(
        uncertified.certified(),
        Err(CertifyError::NonTerminating { .. })
    ));
    let counters = |memo: &SkeletonMemo| (memo.lookups(), memo.hits(), memo.imported());
    let before = counters(&memo);
    let got = uncertified.optimize_in(&template, &cfg, &mut memo);
    assert_eq!(
        counters(&memo),
        before,
        "an uncertified optimizer moved the memo"
    );
    assert_eq!((got.explored, got.plans.len()), (0, 0));
    assert_eq!(got.chase_stats.steps_applied, 0, "no chase ran");
}

/// A miss runs only what a left-deep executor reads: on every family's
/// serving template and paper query under every strategy, `optimize_in`
/// emits `optimize`'s left-deep plans — query, physical structures and all
/// — in `optimize`'s order, with its counts, and not one generic-join twin,
/// while `optimize` itself still emits twins where a gap is certified
/// (EC5's triangle).
#[test]
fn a_miss_computes_no_generic_join_twin() {
    let mut twins = 0;
    for w in suite() {
        let opt = w.optimizer();
        let serving = parameterize(&w.serving_query(DataScale::smoke(), 0)).template;
        for (template, strategy) in [serving, w.query()]
            .iter()
            .flat_map(|q| [Strategy::Full, Strategy::Oqf, Strategy::Ocs].map(|s| (q, s)))
        {
            let what = format!("{} {strategy}", w.name());
            let cfg = OptimizerConfig::with_strategy(strategy);
            let cold = opt.optimize(template, &cfg);
            let got = opt.optimize_in(template, &cfg, &mut SkeletonMemo::new());
            let summary = |r: &OptimizeResult| -> Vec<(Query, Vec<Symbol>)> {
                r.plans
                    .iter()
                    .filter(|p| p.strategy == ExecStrategy::LeftDeep)
                    .map(|p| (p.query.clone(), p.physical_used.clone()))
                    .collect()
            };
            assert_eq!(got.plans.len(), summary(&got).len(), "{what}: a twin");
            assert_eq!(
                summary(&got),
                summary(&cold),
                "{what}: plans or their order"
            );
            assert_eq!(
                (got.explored, got.inferred, got.pruned),
                (cold.explored, cold.inferred, cold.pruned),
                "{what}"
            );
            twins += cold.plans.len() - summary(&cold).len();
        }
    }
    assert!(twins > 0, "the suite must certify a generic-join twin");
}
