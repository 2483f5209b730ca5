//! The floor is invisible. `bottom_up_backchase` asks its pricer for a
//! [`PlanPricer::floor`] and drops a candidate on it before the candidate is
//! induced; a pricer that keeps the trait's default floor — `0.0`, no bound
//! known — has every candidate induced and priced, which is the search as it
//! was before there was a floor. The two must agree on everything but the
//! `floored` count: plans, their order and text, `explored`, `pruned`,
//! `inferred`, `timed_out`. Checked on the suite's five workloads, the two
//! measured points of the `optimize_cold` benchmark workload, the three
//! schemas of `bottomup.rs`'s unit tests (the non-monotone triangle among
//! them), under the left-deep and the WCOJ-aware pricer, with no bound, the
//! cheapest and the dearest plan's price as the bound, and seeded random
//! bounds in between.
//!
//! The default-floor run prices every candidate either run induces, so it
//! also holds the one cost kernel to the loop it replaced: a copy of that
//! `O(bindings × equalities)` loop, kept here, must equal `CostModel::cost`
//! bit for bit on each of them.
//!
//! Last, what the floor saves on the two benchmark points is pinned:
//! `floored`, of `pruned`, under the default model.
//!
//! The release run is the one that counts: the search's own `debug_assert!`
//! on every candidate it prices is compiled out there.

use chase_too_far::core::cost::{CostModel, PlanPricer, WcojAwarePricer};
use chase_too_far::core::prelude::*;
use chase_too_far::engine::prng::SplitMix64;
use chase_too_far::ir::prelude::*;
use chase_too_far::workloads::{suite, Ec1, Ec5};

/// `CostModel::cost` as it was written before the floor: the variables of
/// every equality collected afresh for every binding.
fn cost_loop_before(model: &CostModel, q: &Query) -> f64 {
    let card = |s: &Symbol| {
        let known = model.cardinalities.get(s).copied();
        known.unwrap_or(model.default_cardinality)
    };
    let mut bound: Vec<Var> = Vec::new();
    let mut running = 1.0f64;
    let mut total = 0.0f64;
    for b in &q.from {
        let base = match &b.range {
            Range::Name(s) => card(s),
            Range::Dom(s) => card(s),
            Range::Expr(_) => model.fanout,
        };
        let mut connecting = 0usize;
        for eq in &q.where_ {
            let vars = eq.vars();
            let mentions_new = vars.contains(&b.var);
            let mentions_old = vars.iter().any(|v| bound.contains(v));
            if mentions_new && mentions_old {
                connecting += 1;
            }
        }
        let sel = model.join_selectivity.powi(connecting as i32);
        running = (running * base * sel).max(1.0);
        total += base + running;
        bound.push(b.var);
    }
    total
}

/// `inner`, without its floor; every query it is asked to price is first put
/// to both cost loops.
struct DefaultFloor<'a> {
    inner: &'a dyn PlanPricer,
    model: &'a CostModel,
}

impl PlanPricer for DefaultFloor<'_> {
    fn price(&self, q: &Query) -> f64 {
        let (before, now) = (cost_loop_before(self.model, q), self.model.cost(q));
        assert_eq!(
            before.to_bits(),
            now.to_bits(),
            "cost moved: {before} before, {now} now, on\n{q}"
        );
        self.inner.price(q)
    }
}

/// Everything of a run the floor must leave alone.
fn observed(r: &BackchaseResult) -> (Vec<String>, [usize; 3], bool) {
    let plans = r
        .plans
        .iter()
        .map(|p| {
            format!(
                "{:?} :: {p}",
                VarSet::from_iter(p.from.iter().map(|b| b.var))
            )
        })
        .collect();
    (
        plans,
        [r.explored, r.pruned, r.verdicts.inferred()],
        r.timed_out,
    )
}

/// One schema, query and model to search under.
struct Case {
    tag: String,
    schema: Schema,
    query: Query,
    constraints: Vec<Constraint>,
    model: CostModel,
}

impl Case {
    /// Runs the search with `pricer` and with `pricer` stripped of its floor,
    /// holds the two to each other and returns the first.
    fn search(&self, label: &str, pricer: &dyn PlanPricer, bound: Option<f64>) -> BackchaseResult {
        let cfg = BackchaseConfig {
            timeout: None,
            ..BackchaseConfig::default()
        };
        let (q, cs) = (&self.query, &self.constraints[..]);
        let with_floor = bottom_up_backchase(q, cs, &cfg, pricer, bound);
        let stripped = DefaultFloor {
            inner: pricer,
            model: &self.model,
        };
        let without = bottom_up_backchase(q, cs, &cfg, &stripped, bound);
        assert_eq!(
            observed(&with_floor),
            observed(&without),
            "{}, {label}, bound {bound:?}: the floor changed the search",
            self.tag
        );
        assert_eq!(
            without.floored, 0,
            "{}: the default floor drops nothing",
            self.tag
        );
        assert!(with_floor.floored <= with_floor.pruned);
        with_floor
    }

    /// The differential under one pricer: unbounded, then bounded by the
    /// cheapest plan's price, the dearest's, and `draws` prices in between.
    /// Returns the run bounded by the cheapest.
    fn sweep(
        &self,
        label: &str,
        pricer: &dyn PlanPricer,
        draws: usize,
        rng: &mut SplitMix64,
    ) -> BackchaseResult {
        let free = self.search(label, pricer, None);
        assert_eq!(
            (free.pruned, free.floored),
            (0, 0),
            "{}: no bound, no pruning",
            self.tag
        );
        let prices: Vec<f64> = free.plans.iter().map(|p| pricer.price(p)).collect();
        let cheapest = prices.iter().copied().fold(f64::INFINITY, f64::min);
        let dearest = prices.iter().copied().fold(cheapest, f64::max);
        self.search(label, pricer, Some(dearest));
        for _ in 0..draws {
            let bound = cheapest + rng.gen_f64() * (dearest - cheapest);
            self.search(label, pricer, Some(bound));
        }
        self.search(label, pricer, Some(cheapest))
    }

    /// [`Case::sweep`] under the left-deep and the WCOJ-aware pricer; returns
    /// the latter's run bounded by its cheapest plan — the bottom-up pass of
    /// `Optimizer::optimize_measured`.
    fn sweep_both(&self, draws: usize, rng: &mut SplitMix64) -> BackchaseResult {
        self.sweep("left-deep", &self.model, draws, rng);
        let aware = WcojAwarePricer {
            schema: &self.schema,
            model: &self.model,
        };
        self.sweep("wcoj-aware", &aware, draws, rng)
    }
}

#[test]
fn default_floor_search_is_the_same_search_on_the_workloads() {
    let mut rng = SplitMix64::seed_from_u64(0xF100_4D1F);
    for w in suite() {
        let case = Case {
            tag: w.name().to_string(),
            schema: w.schema(),
            query: w.query(),
            constraints: w.constraints(),
            model: CostModel::default(),
        };
        case.sweep_both(4, &mut rng);
    }
}

/// The two measured points of `optimize_cold`, swept, and then their
/// bottom-up passes as `Optimizer::optimize_measured` runs them — seeded with
/// the cheapest WCOJ-aware price among the first pass's left-deep plans. The counts
/// are the ones `plan_text_golden` pins for `ec1_4_2.oqf.measured` and
/// `ec5_tri_wedge_idx.fb.measured`, less their first pass (36 and 3 183
/// explored).
#[test]
fn default_floor_search_is_the_same_search_on_the_benchmark_points() {
    let mut rng = SplitMix64::seed_from_u64(0xF100_4D20);
    let (ec1, ec5) = (Ec1::new(4, 2), Ec5::new(3, true, true));
    let (oqf, fb) = (Strategy::Oqf, Strategy::Full);
    let points = [
        ("ec1_4_2", ec1.schema(), ec1.query(), oqf, [60, 1717]),
        (
            "ec5_tri_wedge_idx",
            ec5.schema(),
            ec5.cycle_query(),
            fb,
            [6, 830],
        ),
    ];
    for (tag, schema, query, strategy, counts) in points {
        let case = Case {
            tag: tag.to_string(),
            constraints: schema.all_constraints(),
            schema,
            query,
            model: CostModel::default(),
        };
        case.sweep_both(6, &mut rng);
        let aware = WcojAwarePricer {
            schema: &case.schema,
            model: &case.model,
        };
        let seed = Optimizer::new(case.schema.clone())
            .optimize_in(
                &case.query,
                &OptimizerConfig::with_strategy(strategy),
                &mut SkeletonMemo::bounded(0),
            )
            .plans
            .iter()
            .map(|p| aware.price(&p.query))
            .fold(f64::INFINITY, f64::min);
        let measured = case.search("measured pass", &aware, Some(seed));
        assert_eq!([measured.explored, measured.pruned], counts, "{tag}");
        assert!(
            measured.floored * 4 > measured.pruned * 3,
            "{tag}: {measured:?}"
        );
    }
}

/// What the floor saves where it was sized, through the door the benchmark
/// uses. `explored` and `pruned` are `plan_text_golden`'s; `floored` may rise
/// with a tighter sound floor and must not fall.
#[test]
fn floored_on_the_measured_benchmark_points() {
    let (ec1, ec5) = (Ec1::new(4, 2), Ec5::new(3, true, true));
    let model = CostModel::default();
    let oqf = Optimizer::new(ec1.schema()).optimize_measured(
        &ec1.query(),
        &OptimizerConfig::with_strategy(Strategy::Oqf),
        &model,
    );
    assert_eq!([oqf.explored, oqf.pruned, oqf.floored], [96, 1717, 1321]);
    let fb = Optimizer::new(ec5.schema()).optimize_measured(
        &ec5.cycle_query(),
        &OptimizerConfig::with_strategy(Strategy::Full),
        &model,
    );
    assert_eq!([fb.explored, fb.pruned, fb.floored], [3189, 830, 796]);
}

/// `bottomup.rs`'s unit-test schemas: an indexed chain under a model that
/// makes its index domains cheap, the triangle whose two-edge subsets price
/// above the whole under a measured selectivity, and a redundant self-join.
#[test]
fn default_floor_search_is_the_same_search_on_the_unit_test_schemas() {
    let mut rng = SplitMix64::seed_from_u64(0xF100_4D21);

    let mut chain_schema = Schema::new();
    let mut chain = Query::new();
    let vars: Vec<Var> = (1..=2)
        .map(|i| {
            let rel = format!("B{i}");
            chain_schema.add_relation(rel.as_str(), [(sym("A"), Type::Int), (sym("B"), Type::Int)]);
            add_primary_index(&mut chain_schema, sym(&rel), sym("A"), format!("BI{i}"));
            chain.bind(&format!("b{i}"), Range::Name(sym(&rel)))
        })
        .collect();
    chain.equate(
        PathExpr::from(vars[0]).dot("B"),
        PathExpr::from(vars[1]).dot("A"),
    );
    chain.output("A", PathExpr::from(vars[0]).dot("A"));

    let mut edges = Schema::new();
    edges.add_relation("E", [(sym("S"), Type::Int), (sym("T"), Type::Int)]);
    let mut triangle = Query::new();
    let e: Vec<Var> = (1..=3)
        .map(|i| triangle.bind(&format!("e{i}"), Range::Name(sym("E"))))
        .collect();
    for i in 0..3 {
        triangle.equate(
            PathExpr::from(e[i]).dot("T"),
            PathExpr::from(e[(i + 1) % 3]).dot("S"),
        );
    }
    triangle.output("N1", PathExpr::from(e[0]).dot("S"));
    let mut skewed = CostModel::default().with_cardinality(sym("E"), 600.0);
    skewed.observe_join_selectivity(0.1);

    let mut self_join = Query::new();
    let r1 = self_join.bind("r1", Range::Name(sym("R")));
    let r2 = self_join.bind("r2", Range::Name(sym("R")));
    self_join.equate(PathExpr::from(r1).dot("A"), PathExpr::from(r2).dot("A"));
    self_join.output("A", PathExpr::from(r1).dot("A"));

    let cheap_domains = CostModel::default()
        .with_cardinality(sym("BI1"), 10.0)
        .with_cardinality(sym("BI2"), 10.0);
    let cases = [
        ("indexed chain", chain_schema, chain, cheap_domains),
        ("triangle", edges, triangle, skewed),
        ("self-join", Schema::new(), self_join, CostModel::default()),
    ];
    for (tag, schema, query, model) in cases {
        let case = Case {
            tag: tag.to_string(),
            constraints: schema.all_constraints(),
            schema,
            query,
            model,
        };
        let aware = case.sweep_both(6, &mut rng);
        if tag == "triangle" {
            // The plan is reachable only through candidates the bound prunes:
            // `non_monotone_pricer_grows_through_pruned_candidates`.
            assert_eq!(aware.plans.len(), 1);
            assert!(aware.pruned > 0, "{aware:?}");
        }
    }
}
