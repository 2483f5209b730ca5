//! The measured mode, replayed. `Optimizer::optimize_measured` runs the
//! configured strategy for a left-deep executor (`Optimizer::optimize_in`),
//! seeds its bottom-up pass with the cheapest `WcojAwarePricer` price among
//! those plans, and certifies generic-join twins once, for the plans it
//! keeps. The flow it replaced ran `Optimizer::optimize` — the same plans
//! with their twins, ranked — seeded the pass with the cheapest `plan_price`
//! among plans and twins, and then certified the kept plans' twins again.
//! The WCOJ-aware price of a left-deep plan is the cheaper of its own price
//! and its twin's, so the two seeds are one `f64`; this file holds the two
//! flows to each other: the seed bit for bit, then plan text, strategy and
//! order, `explored`, `pruned` and the verdict sources.
//!
//! `plan_text_golden` pins the two measured `optimize_cold` points under
//! `CostModel::default()`; here the models are fed from data, as the
//! `exec_analytic` benchmark workload feeds them: every suite family's
//! central query under its expected strategy, with the cardinalities of its
//! database at `DataScale::smoke()`, and again after the selectivities one
//! `execute` of the query measures; and EC5's triangle over its skewed
//! graph, both ways.

use chase_too_far::core::cost::{heuristic_rank, CostModel, PlanPricer, WcojAwarePricer};
use chase_too_far::core::prelude::*;
use chase_too_far::engine::{execute, feed_cost_model, Database};
use chase_too_far::ir::prelude::{ExecStrategy, Query};
use chase_too_far::workloads::{suite, DataScale, Ec5, Workload};

/// What the two flows must agree on.
#[derive(Debug, PartialEq)]
struct Observed {
    plans: Vec<String>,
    explored: usize,
    pruned: usize,
    verdicts: [usize; 6],
}

/// A run's verdict sources, in `VerdictSources` field order.
fn sources(v: &VerdictSources) -> [usize; 6] {
    [
        v.refuted_by_border,
        v.malformed,
        v.refuted_by_derivations,
        v.proved_by_border,
        v.proved_under_support,
        v.chased_in_full,
    ]
}

fn observed(plans: &[PlanInfo], explored: usize, pruned: usize, verdicts: [usize; 6]) -> Observed {
    Observed {
        plans: plans
            .iter()
            .map(|p| format!("{:?} :: {}", p.strategy, p.query))
            .collect(),
        explored,
        pruned,
        verdicts,
    }
}

/// The measured mode as it ran before it priced once: `optimize`, the
/// cheapest `plan_price` over plans and twins as the bound, the bottom-up
/// pass, then twins and the price sort over what that pass kept.
fn replay(optimizer: &Optimizer, q: &Query, cfg: &OptimizerConfig, model: &CostModel) -> Observed {
    let schema = optimizer.schema();
    let first = optimizer.optimize(q, cfg);
    let seed = first
        .plans
        .iter()
        .map(|p| plan_price(model, p))
        .fold(f64::INFINITY, f64::min);
    let pricer = WcojAwarePricer { schema, model };
    let left_deep_seed = optimizer
        .optimize_in(q, cfg, &mut SkeletonMemo::bounded(0))
        .plans
        .iter()
        .map(|p| pricer.price(&p.query))
        .fold(f64::INFINITY, f64::min);
    assert_eq!(
        seed.to_bits(),
        left_deep_seed.to_bits(),
        "the two seeds differ on\n{q}"
    );
    let bounded = bottom_up_backchase(
        q,
        optimizer.constraints(),
        &cfg.backchase,
        &pricer,
        seed.is_finite().then_some(seed),
    );
    assert!(!first.timed_out && !bounded.timed_out, "a replay timed out");
    let mut plans = first.plans;
    if !bounded.plans.is_empty() {
        plans = bounded
            .plans
            .iter()
            .map(|query| PlanInfo {
                physical_used: schema.physical_anchors(query).collect(),
                strategy: ExecStrategy::LeftDeep,
                wcoj: None,
                query: query.clone(),
            })
            .collect();
        let twins: Vec<PlanInfo> = plans
            .iter()
            .filter_map(|p| {
                wcoj_candidate(schema, &p.query).map(|a| PlanInfo {
                    query: p.query.clone(),
                    physical_used: p.physical_used.clone(),
                    strategy: ExecStrategy::Wcoj,
                    wcoj: Some(a),
                })
            })
            .collect();
        plans.extend(twins);
    }
    plans.sort_by(|a, b| {
        plan_price(model, a)
            .total_cmp(&plan_price(model, b))
            .then_with(|| heuristic_rank(schema, &a.query).cmp(&heuristic_rank(schema, &b.query)))
            .then_with(|| a.query.canonical_key().cmp(&b.query.canonical_key()))
            .then_with(|| {
                (a.strategy == ExecStrategy::Wcoj).cmp(&(b.strategy == ExecStrategy::Wcoj))
            })
    });
    let (first_sources, bounded_sources) = (sources(&first.verdicts), sources(&bounded.verdicts));
    observed(
        &plans,
        first.explored + bounded.explored,
        first.pruned + bounded.pruned,
        std::array::from_fn(|i| first_sources[i] + bounded_sources[i]),
    )
}

/// Holds `optimize_measured` to the replay on `w`'s central query over `db`,
/// under the cardinalities of `db` and then with one execution's
/// selectivities fed in as well; returns the two observations.
fn check(tag: &str, w: &dyn Workload, db: &Database) -> Vec<Observed> {
    let (optimizer, q) = (w.optimizer(), w.query());
    let cfg = OptimizerConfig::with_strategy(w.expectations().strategy);
    let mut model = CostModel::default().with_cardinalities(db.cardinalities());
    let mut out = Vec::new();
    for fed in [false, true] {
        if fed {
            let run = execute(db, &q).expect("the central query executes");
            feed_cost_model(&run.stats, &mut model);
        }
        let product = optimizer.optimize_measured(&q, &cfg, &model);
        assert!(!product.timed_out, "{tag}: timed out");
        assert!(!product.plans.is_empty(), "{tag}: no plans");
        let got = observed(
            &product.plans,
            product.explored,
            product.pruned,
            sources(&product.verdicts),
        );
        assert_eq!(
            got,
            replay(&optimizer, &q, &cfg, &model),
            "{tag}, fed {fed}"
        );
        out.push(got);
    }
    out
}

/// Some bound in `runs` prunes.
fn assert_prunes(tag: &str, runs: &[Observed]) {
    assert!(runs.iter().any(|r| r.pruned > 0), "{tag}: nothing pruned");
}

#[test]
fn measured_mode_equals_its_replay_under_fed_models() {
    let mut runs = Vec::new();
    for w in suite() {
        let db = w.generate_at(DataScale::smoke());
        runs.extend(check(w.name(), w.as_ref(), &db));
    }
    assert_prunes("suite", &runs);
}

#[test]
fn measured_mode_equals_its_replay_on_the_skewed_triangle() {
    let triangle = Ec5::triangle();
    let db = triangle
        .generate_skewed_at(DataScale::smoke())
        .expect("EC5 has a skewed generator");
    let runs = check("EC5 skewed", &triangle, &db);
    assert_prunes("EC5 skewed", &runs);
    // Fed an execution's selectivities, the model ranks the base
    // triangle's generic-join twin first.
    assert!(runs[1].plans[0].starts_with("Wcoj"), "{:?}", runs[1]);
}
