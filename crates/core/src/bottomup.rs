//! Bottom-up backchase with cost-based pruning — the paper's §7
//! "possible improvements and extensions", implemented.
//!
//! The top-down backchase finds a first plan fast but cannot prune by cost
//! (a later removal might still improve a subquery). The bottom-up variant
//! assembles candidates from small binding subsets upward; when the
//! [`PlanPricer`] is *monotone* — adding a binding can only increase the
//! estimate, as with the plain left-deep `CostModel` — any candidate whose
//! price already exceeds the best equivalent plan found so far can be
//! pruned with its entire up-set. A non-monotone pricer (the WCOJ-aware
//! one) still prunes the candidate itself but keeps growing its supersets.
//! The paper suggests combining both searches: run top-down to get a first
//! plan, then bottom-up with its cost as the initial bound — which is what
//! [`bottom_up_backchase`] does when given a `seed_bound`.
//!
//! This is the second traversal of [`crate::backchase::Lattice`]: chasing,
//! induction, the verdict, the deadline and plan collection are the
//! lattice's and the sink's; what lives here is the by-size growth order
//! and the pricer rule above. Most small subsets are not subqueries at all —
//! a range or the output is out of reach — and `Lattice::well_formed`
//! answers those from the lattice's range and select borders. A candidate
//! within the bound is judged by [`Lattice::verdict`], as the top-down
//! search judges, and minimality comes from the equivalence border: a
//! verdict of yes is learnt there, and a superset of a proved set is
//! skipped before it is asked. So no border gives a verdict here — the
//! search never meets a proved set's superset, nor, visiting by size and
//! each subset once, a subset of a refuted one.
//!
//! [`Lattice::verdict`]: crate::backchase::Lattice::verdict
//!
//! # Price before you build
//!
//! Under a bound, most of the subsets that *are* subqueries are there to be
//! dropped: on `ec1_4_2` the measured pass counts 1 717 pruned candidates
//! for 60 it keeps. A price needs the candidate — induced from the universal
//! plan, where-clause and all, some 4 µs of it in `restricted_where` — so the
//! search first asks the pricer for [`PlanPricer::floor`], a lower bound on
//! the price of anything with the candidate's from-clause ranges, which
//! induction keeps from the universal plan. A candidate whose floor already
//! exceeds the bound is counted in `pruned` (and in
//! [`BackchaseResult::floored`]) and grown or dropped exactly as if it had
//! been induced, priced and found too dear; since `floor <= price` holds as
//! an `f64` comparison, that is what would have happened, and plans,
//! `explored`, `pruned` and the bound are the ones a floorless search
//! computes (`tests/floor_differential.rs`; the inequality itself,
//! `tests/floor_soundness.rs` and a `debug_assert!` on every candidate that
//! is priced). A non-monotone pricer may use its floor too: the floor is a
//! sum over the ranges, monotone in the binding set even when the price is
//! not, and such a pricer drops only the one candidate either way — never
//! an up-set, on a price or on a floor.

use cnb_ir::prelude::{Constraint, Query, Range};

use crate::backchase::{BackchaseConfig, BackchaseResult, Lattice, PlanSink};
use crate::bitset::VarSet;
use crate::cost::PlanPricer;

/// Runs chase + bottom-up backchase. Candidates are enumerated by size
/// (1, 2, …); the first equivalent candidates found are the minimal plans.
/// When `seed_bound` is set, candidates pricier than the bound are pruned:
/// under a monotone [`PlanPricer`] (the plain `CostModel`) together with
/// their whole up-set, under a non-monotone one (the WCOJ-aware pricer,
/// where a superset may price *cheaper* than its parts) only the candidate
/// itself — its supersets keep growing.
pub fn bottom_up_backchase(
    q0: &Query,
    constraints: &[Constraint],
    cfg: &BackchaseConfig,
    pricer: &dyn PlanPricer,
    seed_bound: Option<f64>,
) -> BackchaseResult {
    let mut lattice = Lattice::chase(q0, constraints, cfg);
    let mut result = BackchaseResult::default();
    let mut sink = PlanSink::new(cfg.max_plans);
    let bindings = lattice.bindings().to_vec();
    let n = bindings.len();

    // Cost pruning is active only when a bound is seeded (the paper's
    // combined mode: top-down finds a first plan, bottom-up uses its cost);
    // without a seed, enumerate the complete minimal-plan set.
    let pruning = seed_bound.is_some();
    let mut best_cost = seed_bound.unwrap_or(f64::INFINITY);
    // Frontier of current-size candidate subsets, as sorted index vectors:
    // growing one by the indices past its last generates every larger
    // subset exactly once, from the one parent that is its prefix.
    let mut frontier: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    // The candidate's ranges, for its floor.
    let mut ranges: Vec<&Range> = Vec::new();

    'search: while !frontier.is_empty() {
        let mut next: Vec<Vec<usize>> = Vec::new();
        for subset in frontier.drain(..) {
            if lattice.expired() {
                result.timed_out = true;
                break 'search;
            }
            let keep = VarSet::from_iter(subset.iter().map(|&i| bindings[i].var));
            // Minimality: a superset of a proved set — a plan already
            // emitted — is not asked.
            if lattice.equivalence.covers_yes(&keep) {
                continue;
            }
            let mut grow = || {
                for j in subset.last().map_or(0, |&last| last + 1)..n {
                    let mut bigger = subset.clone();
                    bigger.push(j);
                    next.push(bigger);
                }
            };
            if !lattice.well_formed(&keep) {
                // Output not recoverable yet; more bindings may fix that.
                grow();
                continue;
            }
            // Cost-based pruning, on the floor where that already decides
            // and on the price of the induced candidate where it does not.
            // Only a monotone pricer may drop the up-set with the
            // candidate: under a WCOJ-aware price, a superset can price
            // below its parts (two triangle edges cost N², the full
            // triangle N^{3/2}), so its children must grow.
            ranges.clear();
            ranges.extend(subset.iter().map(|&i| &bindings[i].range));
            let floor = pricer.floor(&ranges);
            let floored = floor > best_cost;
            let within_bound = if floored {
                None
            } else {
                let cand = lattice.induced(&keep);
                let cost = pricer.price(&cand);
                debug_assert!(floor <= cost, "floor {floor} above price {cost} of {cand}");
                if cost > best_cost {
                    None
                } else {
                    Some((cand, cost))
                }
            };
            let Some((cand, cost)) = within_bound else {
                result.pruned += 1;
                result.floored += usize::from(floored);
                if !pricer.monotone() {
                    grow();
                }
                continue;
            };
            let Some(equivalent) = lattice.verdict(&keep) else {
                result.timed_out = true;
                break 'search;
            };
            result.explored += 1;
            if !equivalent {
                grow();
                continue;
            }
            if pruning {
                best_cost = best_cost.min(cost);
            }
            sink.emit(&mut lattice.scratch, cand);
            if sink.full() {
                break 'search;
            }
        }
        frontier = next;
    }
    lattice.finish(result, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backchase::chase_and_backchase;
    use crate::cost::CostModel;
    use cnb_ir::prelude::*;

    fn index_schema(n: usize) -> Schema {
        let mut schema = Schema::new();
        for i in 1..=n {
            schema.add_relation(
                format!("B{i}"),
                [(sym("A"), Type::Int), (sym("B"), Type::Int)],
            );
            add_primary_index(
                &mut schema,
                sym(&format!("B{i}")),
                sym("A"),
                format!("BI{i}"),
            );
        }
        schema
    }

    fn chain_query(n: usize) -> Query {
        let mut q = Query::new();
        let vars: Vec<Var> = (1..=n)
            .map(|i| q.bind(&format!("b{i}"), Range::Name(sym(&format!("B{i}")))))
            .collect();
        for w in vars.windows(2) {
            q.equate(PathExpr::from(w[0]).dot("B"), PathExpr::from(w[1]).dot("A"));
        }
        q.output("A", PathExpr::from(vars[0]).dot("A"));
        q
    }

    /// Bottom-up finds the same minimal plans as top-down.
    #[test]
    fn agrees_with_top_down() {
        for n in 1..=3usize {
            let schema = index_schema(n);
            let q = chain_query(n);
            let cs = schema.all_constraints();
            let cfg = BackchaseConfig::default();
            let top = chase_and_backchase(&q, &cs, &cfg);
            let bottom = bottom_up_backchase(&q, &cs, &cfg, &CostModel::default(), None);
            assert_eq!(top.plans.len(), bottom.plans.len(), "n={n}");
            for bp in &bottom.plans {
                assert!(
                    top.plans
                        .iter()
                        .any(|tp| crate::equivalence::same_plan(tp, bp)),
                    "bottom-up plan missing from top-down:\n{}",
                    bp
                );
            }
        }
    }

    /// Bottom-up emits the *cheapest* plan first (breadth-first by size),
    /// and a tight cost bound prunes the expensive alternatives entirely.
    #[test]
    fn cost_bound_prunes() {
        let schema = index_schema(2);
        let q = chain_query(2);
        let cs = schema.all_constraints();
        let cfg = BackchaseConfig::default();
        // Make base-table scans expensive and index domains cheap.
        let model = CostModel {
            default_cardinality: 1000.0,
            ..CostModel::default()
        }
        .with_cardinality(sym("BI1"), 10.0)
        .with_cardinality(sym("BI2"), 10.0);

        let free = bottom_up_backchase(&q, &cs, &cfg, &model, None);
        assert_eq!(free.plans.len(), 4, "2^2 plans without a bound");

        // Seed with the cost of the all-index plan: everything costlier
        // is pruned, so only cheap plans survive.
        let cheapest = free
            .plans
            .iter()
            .map(|p| model.cost(p))
            .fold(f64::INFINITY, f64::min);
        let bounded = bottom_up_backchase(&q, &cs, &cfg, &model, Some(cheapest));
        assert!(bounded.pruned > 0, "the bound must prune candidates");
        assert!(bounded.plans.len() < free.plans.len());
        assert!(bounded
            .plans
            .iter()
            .all(|p| model.cost(p) <= cheapest + 1e-9));
    }

    /// A non-monotone (WCOJ-aware) pricer keeps growing pruned candidates:
    /// the triangle's 2-edge subsets price above an AGM-tight bound, yet
    /// the full triangle prices *below* it — so the plan is only reachable
    /// if pruning does not drop the up-set. A monotone pricer at the same
    /// bound loses the plan entirely.
    #[test]
    fn non_monotone_pricer_grows_through_pruned_candidates() {
        use crate::cost::{PlanPricer, WcojAwarePricer};
        let mut schema = Schema::new();
        schema.add_relation("E", [(sym("S"), Type::Int), (sym("T"), Type::Int)]);
        let mut q = Query::new();
        let e1 = q.bind("e1", Range::Name(sym("E")));
        let e2 = q.bind("e2", Range::Name(sym("E")));
        let e3 = q.bind("e3", Range::Name(sym("E")));
        q.equate(PathExpr::from(e1).dot("T"), PathExpr::from(e2).dot("S"));
        q.equate(PathExpr::from(e2).dot("T"), PathExpr::from(e3).dot("S"));
        q.equate(PathExpr::from(e3).dot("T"), PathExpr::from(e1).dot("S"));
        q.output("N1", PathExpr::from(e1).dot("S"));

        let mut model = CostModel::default().with_cardinality(sym("E"), 600.0);
        model.observe_join_selectivity(0.1); // skew: most probes match
        let pricer = WcojAwarePricer {
            schema: &schema,
            model: &model,
        };
        let bound = pricer.price(&q); // the AGM price: Σ|E| + |E|^{3/2}
        let cfg = BackchaseConfig::default();

        let aware = bottom_up_backchase(&q, &[], &cfg, &pricer, Some(bound));
        assert_eq!(aware.plans.len(), 1, "the triangle itself survives");
        assert!(aware.pruned > 0, "2-edge candidates were pruned");

        let monotone = bottom_up_backchase(&q, &[], &cfg, &model, Some(bound));
        assert!(
            monotone.plans.is_empty(),
            "up-set pruning under a monotone pricer loses the plan"
        );
    }

    /// Supersets of found plans are skipped (minimality).
    #[test]
    fn minimality_respected() {
        // Redundant self-join: only the 1-binding core is a plan.
        let mut q = Query::new();
        let r1 = q.bind("r1", Range::Name(sym("R")));
        let r2 = q.bind("r2", Range::Name(sym("R")));
        q.equate(PathExpr::from(r1).dot("A"), PathExpr::from(r2).dot("A"));
        q.output("A", PathExpr::from(r1).dot("A"));
        let res = bottom_up_backchase(
            &q,
            &[],
            &BackchaseConfig::default(),
            &CostModel::default(),
            None,
        );
        assert_eq!(res.plans.len(), 1);
        assert_eq!(res.plans[0].from.len(), 1);
    }
}
