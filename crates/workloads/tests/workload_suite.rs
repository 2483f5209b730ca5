//! The generic suite: every family behind the [`Workload`] trait satisfies
//! its own [`Expectations`] through the full pipeline — schema → optimize
//! (chase + backchase) → seeded generation → batched execution — using only
//! trait methods, the way future engine/optimizer PRs are judged.
//!
//! It also runs the workloads' one differential (`support`) over every
//! case: every plan of every family answers its request, rows and order are
//! a pure function of (data, plan) and match the `execute_legacy` oracle,
//! and the plans whose *multiset* of rows is not the request's are pinned
//! by name. The release run counts too: it is the profile the benchmark
//! runs.

mod support;

use cnb_engine::execute;
use cnb_workloads::{suite, AgmExpectation, DataScale};

/// Optimization invariants, per family: no timeout, a universal chase that
/// reached its fixpoint, the promised plan floor, and — where promised — a plan
/// ranging over a physical structure.
#[test]
fn every_workload_meets_its_plan_expectations() {
    for w in suite() {
        let exp = w.expectations();
        let res = w.optimize();
        assert!(!res.timed_out, "{}: optimization timed out", w.name());
        assert!(
            !res.chase_stats.truncated,
            "{}: a universal chase hit its cap",
            w.name()
        );
        assert!(
            res.plans.len() >= exp.min_plans,
            "{}: expected ≥ {} plans, got {}",
            w.name(),
            exp.min_plans,
            res.plans.len()
        );
        if exp.physical_plan {
            assert!(
                res.plans.iter().any(|p| !p.physical_used.is_empty()),
                "{}: no plan uses a physical structure",
                w.name()
            );
        }
        assert!(
            res.plans.iter().any(|p| p.physical_used.is_empty()),
            "{}: the original (physical-free) query must be among the plans",
            w.name()
        );
    }
}

/// Measured-ranking invariants, per family: where a family's plans are
/// [`AgmExpectation::WcojClosed`], optimizing its central query under a
/// cost model fed with its *skewed* dataset's measured cardinalities and
/// selectivities must (a) prune candidates against the WCOJ-aware bound and
/// (b) rank the generic-join twin of a base-scan plan first — skew inflates
/// every binary intermediate past the AGM-bounded generic-join price. Other
/// families assert nothing here.
#[test]
fn measured_ranking_matches_expectations() {
    use cnb_core::prelude::{CostModel, OptimizerConfig};
    use cnb_engine::feed_cost_model;
    use cnb_ir::prelude::ExecStrategy;
    for w in suite() {
        let exp = w.expectations();
        if exp.agm != AgmExpectation::WcojClosed {
            continue;
        }
        let db = w
            .generate_skewed_at(DataScale::smoke())
            .expect("a wcoj-closed family must have a skewed generator");
        let q = w.query();
        // The fig. 9 feedback loop: true cardinalities for every stored
        // collection (base and physical), measured join selectivities from
        // one execution of the central query.
        let mut model = CostModel::default();
        for (name, card) in db.cardinalities() {
            model.observe_cardinality(name, card);
        }
        let run = execute(&db, &q).unwrap();
        feed_cost_model(&run.stats, &mut model);
        let cfg = OptimizerConfig::with_strategy(exp.strategy);
        let res = w.optimizer().optimize_measured(&q, &cfg, &model);
        assert!(!res.plans.is_empty(), "{}: no plans", w.name());
        let first = &res.plans[0];
        assert!(
            res.pruned > 0,
            "{}: the WCOJ-aware bound must prune candidates",
            w.name()
        );
        assert_eq!(
            first.strategy,
            ExecStrategy::Wcoj,
            "{}: expected the generic-join twin first, got:\n{}",
            w.name(),
            first.query
        );
        assert!(
            first.physical_used.is_empty(),
            "{}: the winning WCOJ plan must range over base scans",
            w.name()
        );
        assert!(
            first.wcoj.is_some(),
            "{}: the winning plan must carry its cover certificate",
            w.name()
        );
    }
}

/// Every plan of every case executes deterministically: the request's
/// answer is nonempty, and each plan's rows and their order are a pure
/// function of the data and equal the nested-loop oracle's.
#[test]
fn every_workload_executes_all_plans_consistently() {
    for case in support::cases() {
        support::assert_rows_are_exact(&case);
    }
}

/// Every plan of every case answers its request as a set; the plans whose
/// multisets differ, and whether the served answer does, are
/// `support::GOLDEN`'s. A new family joins by being registered in
/// `suite()`.
#[test]
fn every_plan_answers_its_request() {
    let got: Vec<support::Verdict> = support::cases().iter().map(support::verdict).collect();
    let golden: Vec<support::Verdict> = support::GOLDEN
        .iter()
        .map(|g| support::golden(g.0))
        .collect();
    assert_eq!(got, golden);
}
