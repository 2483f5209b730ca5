//! The optimizer facade: FB, OQF and OCS behind one entry point.
//!
//! Mirrors the prototype architecture of §4: the plan generator takes a
//! query plus the schema's constraints (semantic constraints and skeleton
//! pairs) and produces the set of minimal equivalent plans, under one of the
//! three backchase strategies evaluated in the paper.
//!
//! The constraint set is fixed when an [`Optimizer`] is built, and is
//! certified then, once ([`certify`]): every constraint well-scoped and the
//! set weakly acyclic, so every chase the optimizer runs reaches its
//! fixpoint. An optimizer whose set is refused runs nothing: every
//! `optimize*` call returns [`OptimizeResult::default`] at once.

use std::time::{Duration, Instant};

use cnb_ir::prelude::{Constraint, ExecStrategy, Query, Schema, Symbol, WcojAnalysis};

use crate::backchase::{chase_and_backchase_in, BackchaseConfig, BackchaseResult, PlanSink};
use crate::bottomup::bottom_up_backchase;
use crate::canon::CanonDb;
use crate::chase::ChaseStats;
use crate::cost::{heuristic_rank, wcoj_candidate, CostModel, WcojAwarePricer};
use crate::fragments::{combine_plans, decompose};
use crate::memo::SkeletonMemo;
use crate::strata::{certify, regroup, stratify, CertifyError};

/// Which backchase strategy to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Full backchase with all constraints (FB).
    Full,
    /// On-line query fragmentation (OQF, Algorithm 3.1).
    Oqf,
    /// Off-line constraint stratification (OCS, Algorithm 3.3).
    Ocs,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Full => write!(f, "FB"),
            Strategy::Oqf => write!(f, "OQF"),
            Strategy::Ocs => write!(f, "OCS"),
        }
    }
}

/// Optimizer configuration.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// Strategy to use.
    pub strategy: Strategy,
    /// Limits shared by all chase/backchase invocations.
    pub backchase: BackchaseConfig,
    /// OCS only: merge this many natural strata per pipeline stage (fig. 8's
    /// granularity sweep). `None` keeps the natural strata.
    pub stratum_group_size: Option<usize>,
}

impl Default for OptimizerConfig {
    fn default() -> OptimizerConfig {
        OptimizerConfig {
            strategy: Strategy::Full,
            backchase: BackchaseConfig::default(),
            stratum_group_size: None,
        }
    }
}

impl OptimizerConfig {
    /// Config with the given strategy and defaults otherwise.
    pub fn with_strategy(strategy: Strategy) -> OptimizerConfig {
        OptimizerConfig {
            strategy,
            ..OptimizerConfig::default()
        }
    }

    /// Sets the wall-clock budget.
    pub fn timeout(mut self, t: Duration) -> OptimizerConfig {
        self.backchase.timeout = Some(t);
        self
    }
}

/// One generated plan with provenance metadata.
#[derive(Clone, Debug)]
pub struct PlanInfo {
    /// The plan query.
    pub query: Query,
    /// Physical structures (indexes, views, ASRs) the plan ranges over.
    pub physical_used: Vec<Symbol>,
    /// How the engine should execute this plan. A `Wcoj` entry is a *twin*
    /// of a left-deep plan over the same query: same rows, but evaluated
    /// variable-at-a-time with intermediates certified by `wcoj`'s cover.
    pub strategy: ExecStrategy,
    /// The certified gap analysis backing a `Wcoj` strategy (the AGM bound
    /// and the full-query cover certificate); `None` for left-deep plans.
    pub wcoj: Option<WcojAnalysis>,
}

/// The result of one optimization run.
#[derive(Clone, Debug, Default)]
pub struct OptimizeResult {
    /// Generated plans (deduplicated; best-first if requested).
    pub plans: Vec<PlanInfo>,
    /// Size of the universal plan(s) — summed over every search run
    /// (fragments, stages, and both searches of
    /// [`Optimizer::optimize_measured`]).
    pub universal_arity: usize,
    /// Subqueries explored (subsets judged) across all invocations.
    pub explored: usize,
    /// Of those, the verdicts the searches' borders gave without a chase
    /// ([`BackchaseResult::inferred`], summed).
    pub inferred: usize,
    /// Of those, the verdicts the universal plans' derivations refuted
    /// without a chase ([`BackchaseResult::underivable`], summed).
    pub underivable: usize,
    /// Time spent chasing.
    pub chase_time: Duration,
    /// Time spent in backchase search.
    pub backchase_time: Duration,
    /// End-to-end optimization time.
    pub total_time: Duration,
    /// True if a budget ran out in any phase: the deadline or a chase cap
    /// (`chase_stats.truncated` says which).
    pub timed_out: bool,
    /// Number of OQF fragments (1 when not fragmenting).
    pub fragments: usize,
    /// Number of OCS pipeline stages (1 when not stratifying).
    pub strata: usize,
    /// Candidates dropped by cost-bound pruning
    /// ([`Optimizer::optimize_measured`] only; 0 otherwise).
    pub pruned: usize,
    /// Of `pruned`, the candidates dropped before induction
    /// ([`BackchaseResult::floored`], summed).
    pub floored: usize,
    /// Chase statistics (summed).
    pub chase_stats: ChaseStats,
}

impl OptimizeResult {
    /// Adds one search run's counters, times and chase statistics to this
    /// result — everything of a [`BackchaseResult`] except its plans.
    fn absorb(&mut self, run: &BackchaseResult) {
        self.universal_arity += run.universal_arity;
        self.explored += run.explored;
        self.inferred += run.inferred;
        self.underivable += run.underivable;
        self.pruned += run.pruned;
        self.floored += run.floored;
        self.chase_time += run.chase_time;
        self.backchase_time += run.backchase_time;
        self.timed_out |= run.timed_out;
        self.chase_stats.steps_applied += run.chase_stats.steps_applied;
        self.chase_stats.homs_found += run.chase_stats.homs_found;
        self.chase_stats.satisfied_skips += run.chase_stats.satisfied_skips;
        self.chase_stats.rounds += run.chase_stats.rounds;
        self.chase_stats.truncated |= run.chase_stats.truncated;
    }
}

/// The C&B optimizer for a fixed schema and constraint set.
pub struct Optimizer {
    schema: Schema,
    constraints: Vec<Constraint>,
    /// [`certify`]'s verdict on `constraints`, taken at construction.
    certified: Result<(), CertifyError>,
}

impl Optimizer {
    /// Builds an optimizer from a schema, taking all of its constraints,
    /// and certifies them ([`Optimizer::with_constraints`]).
    pub fn new(schema: Schema) -> Optimizer {
        let constraints = schema.all_constraints();
        Optimizer::with_constraints(schema, constraints)
    }

    /// Overrides the constraint set (used by experiment scripts that feed
    /// constraints in stages, as the paper's script language does). The set
    /// is certified here, once; if [`certify`] refuses it, the optimizer
    /// runs nothing ([`Optimizer::certified`]).
    pub fn with_constraints(schema: Schema, constraints: Vec<Constraint>) -> Optimizer {
        let certified = certify(&schema, &constraints);
        Optimizer {
            schema,
            constraints,
            certified,
        }
    }

    /// Why the constraint set was refused at construction, if it was. An
    /// uncertified optimizer's `optimize*` calls return
    /// [`OptimizeResult::default`] at once: no chase, no plan, `explored` 0.
    pub fn certified(&self) -> Result<(), &CertifyError> {
        self.certified.as_ref().copied()
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The active constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Optimizes `q` under the configured strategy, every call cold: the
    /// left-deep plans of [`Optimizer::optimize_in`] under a memo that keeps
    /// nothing, with their generic-join twins ranked in beside them. Nothing
    /// at all when the constraint set is uncertified.
    pub fn optimize(&self, q: &Query, cfg: &OptimizerConfig) -> OptimizeResult {
        self.run(q, cfg, &mut SkeletonMemo::bounded(0), true)
    }

    /// Optimizes `q` under the configured strategy for a left-deep
    /// executor, every top-down search (the whole query, each OQF fragment,
    /// each OCS stage) starting from what `memo` holds for its skeleton and
    /// leaving there what it proves ([`crate::memo`]). The plans are
    /// [`Optimizer::optimize`]'s left-deep ones in its order, and `explored`
    /// is its count; only `inferred` can rise. No generic-join twin is
    /// computed: a twin shares its sibling's query, and certifying its gap
    /// is work a left-deep executor never reads. An uncertified optimizer
    /// returns nothing and leaves `memo` alone.
    pub fn optimize_in(
        &self,
        q: &Query,
        cfg: &OptimizerConfig,
        memo: &mut SkeletonMemo,
    ) -> OptimizeResult {
        self.run(q, cfg, memo, false)
    }

    /// The search behind [`Optimizer::optimize`] and
    /// [`Optimizer::optimize_in`]; `twins` asks for the generic-join twins.
    /// Ranking is a stable sort and a twin ranks as its sibling, so leaving
    /// the twins out leaves the left-deep plans in the same order.
    fn run(
        &self,
        q: &Query,
        cfg: &OptimizerConfig,
        memo: &mut SkeletonMemo,
        twins: bool,
    ) -> OptimizeResult {
        if self.certified.is_err() {
            return OptimizeResult::default();
        }
        // Entry contract: the input query must be well-formed. This guards
        // ad-hoc callers in debug builds only — untrusted requests go
        // through `cnb_engine::PlanServer`, which runs the same check in
        // every build. The constraints were certified at construction.
        debug_assert_eq!(
            q.validate(),
            Ok(()),
            "Optimizer::optimize called with ill-formed query"
        );
        // Stats-only timing; the strategies never read the clock themselves.
        #[expect(clippy::disallowed_methods)]
        let start = Instant::now();
        let mut result = match cfg.strategy {
            Strategy::Full => self.run_full(q, cfg, memo),
            Strategy::Oqf => self.run_oqf(q, cfg, memo),
            Strategy::Ocs => self.run_ocs(q, cfg, memo),
        };
        if twins {
            self.emit_wcoj_twins(&mut result.plans);
        }
        result.total_time = start.elapsed();
        // Best first: more physical structures, then fewer loops.
        result
            .plans
            .sort_by_key(|p| heuristic_rank(&self.schema, &p.query));
        result
    }

    /// Appends a generic-join twin for every emitted left-deep plan with a
    /// *certified WCOJ gap* — no binary order of its bindings meets the
    /// AGM bound (`cnb_ir::hypergraph::wcoj_gap`), so only the multiway
    /// operator executes it within bound. The twin ranges over the same
    /// query; its `wcoj` analysis carries the cover certificate.
    fn emit_wcoj_twins(&self, plans: &mut Vec<PlanInfo>) {
        let twins: Vec<PlanInfo> = plans
            .iter()
            .filter(|p| p.strategy == ExecStrategy::LeftDeep)
            .filter_map(|p| {
                wcoj_candidate(&self.schema, &p.query).map(|a| PlanInfo {
                    query: p.query.clone(),
                    physical_used: p.physical_used.clone(),
                    strategy: ExecStrategy::Wcoj,
                    wcoj: Some(a),
                })
            })
            .collect();
        plans.extend(twins);
    }

    fn plan_info(&self, query: Query) -> PlanInfo {
        PlanInfo {
            physical_used: self.schema.physical_anchors(&query).collect(),
            strategy: ExecStrategy::LeftDeep,
            wcoj: None,
            query,
        }
    }

    /// Optimizes `q` with the *measured* cost model in the loop, the
    /// paper's §7 combined mode extended with the WCOJ-aware pricer:
    ///
    /// 1. run the configured strategy to get the minimal-plan set and seed
    ///    the cost bound with its cheapest measured price;
    /// 2. re-run the search bottom-up under a [`WcojAwarePricer`], pruning
    ///    candidates the bound rules out *during* search (not post-hoc) —
    ///    non-monotone-safely, so gapped cyclic cores are still reached;
    /// 3. emit generic-join twins and rank everything by measured price
    ///    (ties: heuristic rank, then canonical key, left-deep first).
    ///
    /// Falls back to the phase-1 plans if the bounded search returns none
    /// (a budget ran out); `pruned` reports the candidates the bound dropped.
    /// Nothing at all when the constraint set is uncertified.
    pub fn optimize_measured(
        &self,
        q: &Query,
        cfg: &OptimizerConfig,
        model: &CostModel,
    ) -> OptimizeResult {
        if self.certified.is_err() {
            return OptimizeResult::default();
        }
        #[expect(clippy::disallowed_methods)]
        let start = Instant::now();
        let mut result = self.optimize(q, cfg);
        let seed = result
            .plans
            .iter()
            .map(|p| plan_price(model, p))
            .fold(f64::INFINITY, f64::min);
        let pricer = WcojAwarePricer {
            schema: &self.schema,
            model,
        };
        let bounded = bottom_up_backchase(
            q,
            &self.constraints,
            &cfg.backchase,
            &pricer,
            seed.is_finite().then_some(seed),
        );
        result.absorb(&bounded);
        if !bounded.plans.is_empty() {
            result.plans = bounded
                .plans
                .into_iter()
                .map(|p| self.plan_info(p))
                .collect();
            self.emit_wcoj_twins(&mut result.plans);
        }
        let schema = &self.schema;
        result.plans.sort_by(|a, b| {
            plan_price(model, a)
                .total_cmp(&plan_price(model, b))
                .then_with(|| {
                    heuristic_rank(schema, &a.query).cmp(&heuristic_rank(schema, &b.query))
                })
                .then_with(|| a.query.canonical_key().cmp(&b.query.canonical_key()))
                .then_with(|| {
                    (a.strategy == ExecStrategy::Wcoj).cmp(&(b.strategy == ExecStrategy::Wcoj))
                })
        });
        result.total_time = start.elapsed();
        result
    }

    fn run_full(
        &self,
        q: &Query,
        cfg: &OptimizerConfig,
        memo: &mut SkeletonMemo,
    ) -> OptimizeResult {
        let res = chase_and_backchase_in(q, &self.constraints, &cfg.backchase, memo);
        let mut out = OptimizeResult {
            fragments: 1,
            strata: 1,
            ..OptimizeResult::default()
        };
        out.absorb(&res);
        out.plans = res.plans.into_iter().map(|p| self.plan_info(p)).collect();
        out
    }

    fn run_oqf(&self, q: &Query, cfg: &OptimizerConfig, memo: &mut SkeletonMemo) -> OptimizeResult {
        let frags = decompose(q, self.schema.skeletons());
        // An output over bindings of two fragments (a struct of both) has
        // no provider to project it from: plan the query whole.
        let provided = |label| frags.iter().any(|f| f.provides.contains(label));
        if frags.len() <= 1 || !q.select.iter().all(|(label, _)| provided(label)) {
            return self.run_full(q, cfg, memo);
        }
        let mut out = OptimizeResult {
            fragments: frags.len(),
            strata: 1,
            ..OptimizeResult::default()
        };
        let mut per_fragment: Vec<Vec<Query>> = Vec::with_capacity(frags.len());
        for f in &frags {
            let res = chase_and_backchase_in(&f.query, &self.constraints, &cfg.backchase, memo);
            out.absorb(&res);
            per_fragment.push(res.plans);
        }
        if per_fragment.iter().any(|p| p.is_empty()) {
            // A fragment produced nothing (a budget ran out): no combined plans.
            return out;
        }
        // Cartesian product of fragment plans (Algorithm 3.1, Step 3).
        let mut idx = vec![0usize; per_fragment.len()];
        loop {
            let choice: Vec<&Query> = idx
                .iter()
                .enumerate()
                .map(|(i, &j)| &per_fragment[i][j])
                .collect();
            let combined = combine_plans(q, &frags, &choice);
            out.plans.push(self.plan_info(combined));
            // Odometer increment.
            let mut carry = true;
            for i in (0..idx.len()).rev() {
                if !carry {
                    break;
                }
                idx[i] += 1;
                if idx[i] < per_fragment[i].len() {
                    carry = false;
                } else {
                    idx[i] = 0;
                }
            }
            if carry {
                break;
            }
        }
        out
    }

    fn run_ocs(&self, q: &Query, cfg: &OptimizerConfig, memo: &mut SkeletonMemo) -> OptimizeResult {
        let mut strata = stratify(&self.constraints);
        if let Some(g) = cfg.stratum_group_size {
            strata = regroup(&strata, g);
        }
        let mut out = OptimizeResult {
            fragments: 1,
            strata: strata.len(),
            ..OptimizeResult::default()
        };
        // EGDs (keys, functional dependencies) are available in *every*
        // pipeline stage: they are query-independent, cheap to chase with,
        // and a view can only splice into a kept hub through them. This is
        // what reproduces the paper's EC2 OCS plan counts (3/5/8).
        let egds: Vec<Constraint> = self
            .constraints
            .iter()
            .filter(|c| c.kind() == cnb_ir::prelude::ConstraintKind::Egd)
            .cloned()
            .collect();
        let mut pool: Vec<Query> = vec![q.clone()];
        let mut scratch = CanonDb::empty();
        for stratum in &strata {
            let mut cs: Vec<Constraint> = stratum
                .iter()
                .map(|&i| self.constraints[i].clone())
                .collect();
            for e in &egds {
                if !cs.iter().any(|c| c.name == e.name) {
                    cs.push(e.clone());
                }
            }
            let mut next = PlanSink::new(cfg.backchase.max_plans);
            for p in &pool {
                let res = chase_and_backchase_in(p, &cs, &cfg.backchase, memo);
                out.absorb(&res);
                for plan in res.plans {
                    next.emit(&mut scratch, plan);
                }
            }
            pool = next.plans;
        }
        out.plans = pool.into_iter().map(|p| self.plan_info(p)).collect();
        out
    }
}

/// The measured price of a plan under its execution strategy: the AGM
/// cover price for a generic-join plan, the left-deep estimate otherwise.
pub fn plan_price(model: &CostModel, plan: &PlanInfo) -> f64 {
    match (&plan.strategy, &plan.wcoj) {
        (ExecStrategy::Wcoj, Some(a)) => model.cost_wcoj(a),
        _ => model.cost(&plan.query),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnb_ir::prelude::*;

    /// EC1-style schema: n chain relations with primary indexes, first j with
    /// secondary indexes.
    fn ec1_schema(n: usize, j: usize) -> Schema {
        let mut schema = Schema::new();
        for i in 1..=n {
            schema.add_relation(
                format!("R{i}"),
                [
                    (sym("K"), Type::Int),
                    (sym("N"), Type::Int),
                    (sym("D"), Type::Int),
                ],
            );
            add_primary_index(
                &mut schema,
                sym(&format!("R{i}")),
                sym("K"),
                format!("PI{i}"),
            );
            if i <= j {
                add_secondary_index(
                    &mut schema,
                    sym(&format!("R{i}")),
                    sym("N"),
                    format!("SI{i}"),
                );
            }
        }
        schema
    }

    fn ec1_query(n: usize) -> Query {
        let mut q = Query::new();
        let vars: Vec<Var> = (1..=n)
            .map(|i| q.bind(&format!("r{i}"), Range::Name(sym(&format!("R{i}")))))
            .collect();
        for w in vars.windows(2) {
            q.equate(PathExpr::from(w[0]).dot("N"), PathExpr::from(w[1]).dot("K"));
        }
        for (i, v) in vars.iter().enumerate() {
            q.output(&format!("K{}", i + 1), PathExpr::from(*v).dot("K"));
        }
        q
    }

    /// All three strategies agree on EC1 (paper §5.3.1: "the three strategies
    /// yielded the same number of generated plans in configurations EC1 and
    /// EC3").
    #[test]
    fn strategies_agree_on_ec1() {
        let schema = ec1_schema(3, 1);
        let q = ec1_query(3);
        let opt = Optimizer::new(schema);
        let mut counts = Vec::new();
        for strategy in [Strategy::Full, Strategy::Oqf, Strategy::Ocs] {
            let res = opt.optimize(&q, &OptimizerConfig::with_strategy(strategy));
            assert!(!res.timed_out, "{strategy} timed out");
            counts.push(res.plans.len());
        }
        assert_eq!(counts[0], counts[1], "FB vs OQF");
        assert_eq!(counts[0], counts[2], "FB vs OCS");
        assert!(counts[0] >= 4, "at least scan/index per loop: {counts:?}");
    }

    /// OQF explores far fewer subqueries than FB on EC1 (Example 3.1's
    /// analysis: 2n + assembly vs 2^(2n)).
    #[test]
    fn oqf_explores_less_than_fb() {
        let schema = ec1_schema(3, 0);
        let q = ec1_query(3);
        let opt = Optimizer::new(schema);
        let fb = opt.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Full));
        let oqf = opt.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Oqf));
        assert_eq!(fb.plans.len(), oqf.plans.len());
        assert!(
            oqf.explored < fb.explored,
            "OQF {} vs FB {}",
            oqf.explored,
            fb.explored
        );
        assert_eq!(oqf.fragments, 3);
    }

    /// Best-first ordering puts a physical-structure plan at the front.
    #[test]
    fn best_first_ordering() {
        let schema = ec1_schema(2, 0);
        let q = ec1_query(2);
        let opt = Optimizer::new(schema);
        let res = opt.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Full));
        assert!(
            !res.plans[0].physical_used.is_empty(),
            "first plan should use indexes"
        );
        let last = res.plans.last().unwrap();
        assert!(last.physical_used.len() <= res.plans[0].physical_used.len());
    }

    /// plan_info reports physical usage.
    #[test]
    fn plan_info_metadata() {
        let schema = ec1_schema(1, 0);
        let q = ec1_query(1);
        let opt = Optimizer::new(schema);
        let res = opt.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Full));
        assert_eq!(res.plans.len(), 2);
        let idx_plan = res
            .plans
            .iter()
            .find(|p| !p.physical_used.is_empty())
            .unwrap();
        assert_eq!(idx_plan.physical_used, vec![sym("PI1")]);
    }
}
