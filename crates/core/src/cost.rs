//! A simple cardinality-based cost model.
//!
//! The paper deliberately ran C&B *without* cost-based pruning ("we
//! considered valuable as a first step to measure the effect of the
//! C&B-specific issues in isolation", §7) and picked best plans either by
//! executing all of them or with the "prefer plans that use more views or
//! indexes" heuristic. This module provides both: a heuristic score and a
//! textbook left-deep cost estimate for choosing a plan to execute.
//!
//! The estimate is written once (`CostModel::left_deep`) and read two ways:
//! [`CostModel::cost`] supplies each binding's connecting-equality count from
//! the where clause; the model's [`PlanPricer::floor`] says it does not know
//! them and gets the least the estimate can come to for a from-clause —
//! which lets the bottom-up search drop a candidate without building it. The
//! floor contract, and why it must hold in `f64` and not only in the reals,
//! is on [`PlanPricer`].

use crate::bitset::VarSet;
use crate::fxhash::FxHashMap;
use cnb_ir::prelude::{
    generic_join_supported, wcoj_gap, Query, Range, Schema, Symbol, WcojAnalysis,
};

/// Statistics + estimation parameters.
///
/// Parameters start as static defaults and can be *measured*: the execution
/// engine records each operator's observed input/output cardinalities and
/// folds them back in through [`CostModel::observe_cardinality`],
/// [`CostModel::observe_join_selectivity`] and [`CostModel::observe_fanout`]
/// (`cnb_engine::feed_cost_model`), so plan ranking (fig. 9) runs on
/// measured selectivities once any plan has executed.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Cardinality per collection (sets: element count; dictionaries: key
    /// count). Deterministic fxhash map — no random iteration order.
    pub cardinalities: FxHashMap<Symbol, f64>,
    /// Default cardinality for unknown collections.
    pub default_cardinality: f64,
    /// Selectivity of an equi-join predicate.
    pub join_selectivity: f64,
    /// Average entries per key for set-valued dictionary ranges.
    pub fanout: f64,
    /// Number of measured selectivities folded into `join_selectivity`
    /// (0 = the static default is still in effect).
    pub selectivity_samples: usize,
    /// Number of measured fan-outs folded into `fanout`.
    pub fanout_samples: usize,
    /// Per-collection count of *measured* cardinality observations (builder
    /// seeds are static estimates and do not count). Same role as
    /// `selectivity_samples`: 0 means any stored value is still an estimate.
    pub cardinality_samples: FxHashMap<Symbol, usize>,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            cardinalities: FxHashMap::default(),
            default_cardinality: 1000.0,
            join_selectivity: 0.01,
            fanout: 4.0,
            selectivity_samples: 0,
            fanout_samples: 0,
            cardinality_samples: FxHashMap::default(),
        }
    }
}

impl CostModel {
    /// Sets a collection's cardinality (builder style).
    pub fn with_cardinality(mut self, name: Symbol, card: f64) -> CostModel {
        self.cardinalities.insert(name, card);
        self
    }

    /// Seeds many cardinalities at once (builder style) — pairs well with
    /// `Database::cardinalities()`.
    pub fn with_cardinalities(
        mut self,
        cards: impl IntoIterator<Item = (Symbol, f64)>,
    ) -> CostModel {
        self.cardinalities.extend(cards);
        self
    }

    /// Records a measured collection cardinality. Same policy as
    /// [`CostModel::observe_join_selectivity`]: the first *measurement*
    /// replaces whatever estimate is stored (static default or builder
    /// seed), later ones fold in as a running mean. A replace-every-call
    /// policy would let one anomalous batch overwrite a converged estimate
    /// under repeated cached-plan execution.
    pub fn observe_cardinality(&mut self, name: Symbol, card: f64) {
        let card = card.max(0.0);
        let samples = self.cardinality_samples.entry(name).or_insert(0);
        let n = *samples as f64;
        let merged = match self.cardinalities.get(&name) {
            Some(prev) if *samples > 0 => (prev * n + card) / (n + 1.0),
            _ => card,
        };
        self.cardinalities.insert(name, merged);
        *samples += 1;
    }

    /// Folds one measured equi-join selectivity into the model. The first
    /// observation *replaces* the static default; later ones average in
    /// (running mean), so repeated executions converge on the workload's
    /// true selectivity.
    pub fn observe_join_selectivity(&mut self, sel: f64) {
        let sel = sel.clamp(1e-9, 1.0);
        let n = self.selectivity_samples as f64;
        self.join_selectivity = if self.selectivity_samples == 0 {
            sel
        } else {
            (self.join_selectivity * n + sel) / (n + 1.0)
        };
        self.selectivity_samples += 1;
    }

    /// Folds one measured set-path fan-out into the model (same running
    /// mean as [`CostModel::observe_join_selectivity`]).
    pub fn observe_fanout(&mut self, fanout: f64) {
        let fanout = fanout.max(0.0);
        let n = self.fanout_samples as f64;
        self.fanout = if self.fanout_samples == 0 {
            fanout
        } else {
            (self.fanout * n + fanout) / (n + 1.0)
        };
        self.fanout_samples += 1;
    }

    fn card(&self, name: Symbol) -> f64 {
        self.cardinalities
            .get(&name)
            .copied()
            .unwrap_or(self.default_cardinality)
    }

    /// What one more loop over `range` reads: the collection's cardinality,
    /// or one set-valued lookup per outer row.
    fn base(&self, range: &Range) -> f64 {
        match range {
            Range::Name(s) | Range::Dom(s) => self.card(*s),
            Range::Expr(_) => self.fanout,
        }
    }

    /// The left-deep estimate over `ranges` in from-clause order — the one
    /// place it is written. `connecting(i)` is the number of where-clause
    /// equalities that join range `i` to earlier ones, or `None` when that is
    /// not known: the intermediate result is then taken at the least it can
    /// be, which is its clamp (for the first range, with nothing before it to
    /// be selective against, `max(base, 1)` — what a known count of 0 gives).
    fn left_deep<'r>(
        &self,
        ranges: impl IntoIterator<Item = &'r Range>,
        mut connecting: impl FnMut(usize) -> Option<usize>,
    ) -> f64 {
        let mut running = 1.0f64;
        let mut total = 0.0f64;
        for (i, range) in ranges.into_iter().enumerate() {
            let base = self.base(range);
            running = match connecting(i) {
                Some(n) => {
                    let sel = self.join_selectivity.powi(n as i32);
                    (running * base * sel).max(1.0)
                }
                None if i == 0 => base.max(1.0),
                None => 1.0,
            };
            total += base + running;
        }
        total
    }

    /// Estimated cost of a left-deep evaluation in from-clause order: each
    /// binding contributes its *input* cost — the rows scanned (or, for a
    /// hash join, built) from its range — plus the intermediate result it
    /// produces, discounted by the join selectivity once per where-clause
    /// equality that connects it to earlier bindings. Without the input
    /// term, probing a huge pre-materialized collection would be priced as
    /// free whenever the probe output is small.
    pub fn cost(&self, q: &Query) -> f64 {
        // Each equality's variables, collected once: "mentions the new
        // binding and an earlier one" is then two bit tests per equality.
        let mentioned: Vec<VarSet> = q
            .where_
            .iter()
            .map(|eq| {
                let mut vars = VarSet::new();
                let mut add = |v| {
                    vars.insert(v);
                    true
                };
                eq.lhs.vars_all(&mut add);
                eq.rhs.vars_all(&mut add);
                vars
            })
            .collect();
        let mut bound = VarSet::new();
        self.left_deep(q.from.iter().map(|b| &b.range), |i| {
            let var = q.from[i].var;
            let connecting = mentioned
                .iter()
                .filter(|vars| vars.contains(var) && vars.intersects(&bound))
                .count();
            bound.insert(var);
            Some(connecting)
        })
    }

    /// Estimated cost of a generic-join (worst-case optimal) execution
    /// priced from its cover certificate: the input cost of sorting/
    /// indexing each scanned collection (`Σ |R_e|`) plus the AGM output
    /// bound (`Π |R_e|^{w_e}`), which bounds every intermediate of the
    /// variable-at-a-time enumeration (NPRR). The left-deep estimator has
    /// no rule for an n-ary intersection; this is its counterpart.
    pub fn cost_wcoj(&self, analysis: &WcojAnalysis) -> f64 {
        let mut input = 0.0f64;
        let mut bound = 1.0f64;
        for e in &analysis.cover {
            let card = e
                .relation
                .map_or(self.default_cardinality, |r| self.card(r))
                .max(1.0);
            input += card;
            bound *= card.powf(e.weight.to_f64());
        }
        input + bound
    }
}

/// The paper's "best plan first" heuristic score: more physical structures
/// first, then fewer bindings. Lower scores are better.
pub fn heuristic_rank(schema: &Schema, q: &Query) -> (i64, i64) {
    let physical = schema.physical_anchors(q).count() as i64;
    (-(physical), q.from.len() as i64)
}

/// A generic-join candidacy check shared by pricing and plan emission:
/// the query must have the supported flat-join shape, range only over
/// *logical* collections (a plan leaning on a physical structure keeps its
/// left-deep pricing — the structure is the point of the plan), and have a
/// certified WCOJ gap (no binary order meets the AGM bound). Analysis
/// failures (e.g. malformed subqueries mid-search) simply mean "not a
/// candidate".
pub fn wcoj_candidate(schema: &Schema, q: &Query) -> Option<WcojAnalysis> {
    if !generic_join_supported(schema, q) || schema.physical_anchors(q).next().is_some() {
        return None;
    }
    wcoj_gap(schema, q).ok().flatten()
}

/// Prices candidate plans during backchase search.
///
/// A price need not grow with the binding set: a WCOJ-aware price falls as a
/// cycle closes (two triangle edges price `N²`, all three `N^{3/2}`). So the
/// bottom-up search drops only a candidate found too dear, never its
/// supersets.
///
/// # The floor
///
/// Most candidates a bounded search prices are priced to be dropped, and a
/// price needs the candidate built: induced from the universal plan, where
/// clause and all. [`PlanPricer::floor`] is what can be said from the
/// from-clause alone. The contract: `floor(ranges) <= price(q)`, **as an
/// `f64` comparison**, for every query `q` whose from-clause has these ranges
/// in this order — induction rewrites the path of a `Range::Expr`, so one
/// stands for any path range. A search may then treat `floor(ranges) > bound`
/// exactly as it treats `price(q) > bound`, without `q`; `0.0`, the default,
/// claims nothing and changes nothing.
pub trait PlanPricer {
    /// Estimated execution cost of the candidate (lower is better).
    fn price(&self, q: &Query) -> f64;
    /// A lower bound on `price` over every query with these from-clause
    /// ranges, in this order (see "The floor" above). `0.0`: none known.
    fn floor(&self, _ranges: &[&Range]) -> f64 {
        0.0
    }
}

impl PlanPricer for CostModel {
    fn price(&self, q: &Query) -> f64 {
        self.cost(q)
    }

    /// [`CostModel::cost`] with every connecting count unknown. It is a
    /// floor as an `f64` comparison, not only in the reals: both sums add
    /// `base + running` per range in the same order, each `running` here is
    /// at most the one there, and IEEE addition is monotone in either
    /// argument.
    fn floor(&self, ranges: &[&Range]) -> f64 {
        self.left_deep(ranges.iter().copied(), |_| None)
    }
}

/// A pricer that knows about the generic-join operator: a candidate with a
/// certified WCOJ gap is priced at the *cheaper* of its left-deep estimate
/// and its AGM-bound cost, because the engine will get to execute it with
/// the multiway intersection — so a superset can price below its parts.
pub struct WcojAwarePricer<'a> {
    /// Schema, for shape/physical gating and hypergraph construction.
    pub schema: &'a Schema,
    /// The measured model supplying cardinalities and selectivities.
    pub model: &'a CostModel,
}

impl PlanPricer for WcojAwarePricer<'_> {
    fn price(&self, q: &Query) -> f64 {
        let left_deep = self.model.cost(q);
        match wcoj_candidate(self.schema, q) {
            Some(a) => left_deep.min(self.model.cost_wcoj(&a)),
            None => left_deep,
        }
    }

    /// The left-deep floor, lowered to `Σ card + 1` over a from-clause of
    /// named collections — the only shape [`wcoj_candidate`] accepts, whose
    /// [`CostModel::cost_wcoj`] adds each `max(card, 1)` in the same order
    /// and then an AGM product of factors that are at least 1.
    fn floor(&self, ranges: &[&Range]) -> f64 {
        let left_deep = self.model.floor(ranges);
        let mut input = 0.0f64;
        for range in ranges {
            let Range::Name(s) = range else {
                return left_deep;
            };
            input += self.model.card(*s);
        }
        left_deep.min(input + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnb_ir::prelude::*;

    #[test]
    fn fewer_joins_cost_less() {
        let model = CostModel::default();
        let mut q1 = Query::new();
        let a = q1.bind("a", Range::Name(sym("A")));
        q1.output("X", PathExpr::from(a).dot("X"));

        let mut q2 = Query::new();
        let a = q2.bind("a", Range::Name(sym("A")));
        let b = q2.bind("b", Range::Name(sym("B")));
        q2.equate(PathExpr::from(a).dot("X"), PathExpr::from(b).dot("X"));
        q2.output("X", PathExpr::from(a).dot("X"));

        assert!(model.cost(&q1) < model.cost(&q2));
    }

    #[test]
    fn join_predicates_reduce_intermediate_size() {
        let model = CostModel::default();
        // Cross product vs equi-join of the same two relations.
        let mut cross = Query::new();
        let a = cross.bind("a", Range::Name(sym("A")));
        let _b = cross.bind("b", Range::Name(sym("B")));
        cross.output("X", PathExpr::from(a).dot("X"));

        let mut join = Query::new();
        let a = join.bind("a", Range::Name(sym("A")));
        let b = join.bind("b", Range::Name(sym("B")));
        join.equate(PathExpr::from(a).dot("X"), PathExpr::from(b).dot("X"));
        join.output("X", PathExpr::from(a).dot("X"));

        assert!(model.cost(&join) < model.cost(&cross));
    }

    #[test]
    fn cardinalities_matter() {
        let model = CostModel::default()
            .with_cardinality(sym("BIG"), 1e6)
            .with_cardinality(sym("SMALL"), 10.0);
        let mk = |name: &str| {
            let mut q = Query::new();
            let v = q.bind("v", Range::Name(sym(name)));
            q.output("X", PathExpr::from(v).dot("X"));
            q
        };
        assert!(model.cost(&mk("SMALL")) < model.cost(&mk("BIG")));
    }

    #[test]
    fn observations_replace_then_average() {
        let mut model = CostModel::default();
        assert_eq!(model.join_selectivity, 0.01, "static default");
        model.observe_join_selectivity(0.5);
        assert_eq!(model.join_selectivity, 0.5, "first sample replaces");
        model.observe_join_selectivity(0.1);
        assert!((model.join_selectivity - 0.3).abs() < 1e-12, "running mean");
        assert_eq!(model.selectivity_samples, 2);

        model.observe_fanout(6.0);
        model.observe_fanout(2.0);
        assert!((model.fanout - 4.0).abs() < 1e-12);

        model.observe_cardinality(sym("R"), 123.0);
        assert_eq!(model.cardinalities.get(&sym("R")), Some(&123.0));
        model.observe_cardinality(sym("R"), 1.0);
        assert_eq!(
            model.cardinalities.get(&sym("R")),
            Some(&62.0),
            "second measurement averages in instead of replacing"
        );
        assert_eq!(model.cardinality_samples.get(&sym("R")), Some(&2));
    }

    #[test]
    fn cardinality_builder_seed_is_an_estimate_not_a_sample() {
        // A builder seed is a static estimate: the first *measurement*
        // replaces it outright (matching the selectivity/fanout policy),
        // and only later measurements average against each other.
        let mut model = CostModel::default().with_cardinality(sym("R"), 1e6);
        model.observe_cardinality(sym("R"), 100.0);
        assert_eq!(model.cardinalities.get(&sym("R")), Some(&100.0));
        model.observe_cardinality(sym("R"), 300.0);
        assert_eq!(model.cardinalities.get(&sym("R")), Some(&200.0));
        // An anomalous batch shifts the mean, it no longer overwrites it.
        model.observe_cardinality(sym("R"), 1e6);
        let got = *model.cardinalities.get(&sym("R")).unwrap();
        assert!((got - (100.0 + 300.0 + 1e6) / 3.0).abs() < 1e-9);
        assert!(got < 1e6, "converged estimate survives the outlier");
    }

    #[test]
    fn measured_selectivity_changes_ranking() {
        // Two plans: a 2-way join vs a single wide scan. With the static 1%
        // selectivity the join looks cheap; a measured selectivity of ~1
        // (non-selective predicate) flips the preference.
        let mut join = Query::new();
        let a = join.bind("a", Range::Name(sym("BIG_A")));
        let b = join.bind("b", Range::Name(sym("BIG_B")));
        join.equate(PathExpr::from(a).dot("X"), PathExpr::from(b).dot("X"));
        join.output("X", PathExpr::from(a).dot("X"));

        let mut scan = Query::new();
        let v = scan.bind("v", Range::Name(sym("WIDE")));
        scan.output("X", PathExpr::from(v).dot("X"));

        let mut model = CostModel::default()
            .with_cardinalities([(sym("BIG_A"), 100.0), (sym("BIG_B"), 100.0)])
            .with_cardinality(sym("WIDE"), 5000.0);
        assert!(model.cost(&join) < model.cost(&scan), "static guess");
        model.observe_join_selectivity(1.0);
        assert!(model.cost(&join) > model.cost(&scan), "measured truth");
    }

    #[test]
    fn heuristic_prefers_physical() {
        let mut schema = Schema::new();
        schema.add_relation("R", [(sym("K"), Type::Int)]);
        add_primary_index(&mut schema, sym("R"), sym("K"), "PI");

        let mut scan = Query::new();
        let r = scan.bind("r", Range::Name(sym("R")));
        scan.output("K", PathExpr::from(r).dot("K"));

        let mut idx = Query::new();
        let k = idx.bind("k", Range::Dom(sym("PI")));
        idx.output("K", PathExpr::from(k));

        assert!(heuristic_rank(&schema, &idx) < heuristic_rank(&schema, &scan));
    }

    #[test]
    fn probing_a_huge_collection_is_not_free() {
        // The input term: scanning/probing a 1e6-row view costs at least
        // its size even when the probe output is tiny.
        let model = CostModel::default().with_cardinality(sym("HUGE"), 1e6);
        let mut q = Query::new();
        let v = q.bind("v", Range::Name(sym("HUGE")));
        q.output("X", PathExpr::from(v).dot("X"));
        assert!(model.cost(&q) >= 1e6);
    }

    fn triangle_query() -> Query {
        let mut q = Query::new();
        let e1 = q.bind("e1", Range::Name(sym("E")));
        let e2 = q.bind("e2", Range::Name(sym("E")));
        let e3 = q.bind("e3", Range::Name(sym("E")));
        q.equate(PathExpr::from(e1).dot("T"), PathExpr::from(e2).dot("S"));
        q.equate(PathExpr::from(e2).dot("T"), PathExpr::from(e3).dot("S"));
        q.equate(PathExpr::from(e3).dot("T"), PathExpr::from(e1).dot("S"));
        q.output("N1", PathExpr::from(e1).dot("S"));
        q
    }

    fn edge_schema_with_wedge() -> Schema {
        let mut schema = Schema::new();
        schema.add_relation("E", [(sym("S"), Type::Int), (sym("T"), Type::Int)]);
        let mut def = Query::new();
        let e1 = def.bind("e1", Range::Name(sym("E")));
        let e2 = def.bind("e2", Range::Name(sym("E")));
        def.equate(PathExpr::from(e1).dot("T"), PathExpr::from(e2).dot("S"));
        def.output("S", PathExpr::from(e1).dot("S"));
        def.output("M", PathExpr::from(e1).dot("T"));
        def.output("T", PathExpr::from(e2).dot("T"));
        add_materialized_view(&mut schema, "W", &def);
        schema
    }

    /// The satellite fix pinned: an n-ary intersection is *not* priced as
    /// a scan — under skewed observed stats (a wedge view quadratically
    /// larger than the edge table) the WCOJ price `Σ|E| + |E|^{3/2}`
    /// undercuts the wedge-probe plan, while under uniform stats the
    /// wedge plan stays cheaper. The two plans must never price equal.
    #[test]
    fn wedge_and_wcoj_price_differently_under_skewed_stats() {
        let schema = edge_schema_with_wedge();
        let tri = triangle_query();
        let analysis = wcoj_candidate(&schema, &tri).expect("triangle has a certified gap");

        // Wedge-probe plan: scan W, close the cycle against E.
        let mut wedge = Query::new();
        let w = wedge.bind("w", Range::Name(sym("W")));
        let e3 = wedge.bind("e3", Range::Name(sym("E")));
        wedge.equate(PathExpr::from(w).dot("T"), PathExpr::from(e3).dot("S"));
        wedge.equate(PathExpr::from(e3).dot("T"), PathExpr::from(w).dot("S"));
        wedge.output("N1", PathExpr::from(w).dot("S"));

        // Skewed observations: |E| = 600, |W| = 26k (hub wedges).
        let skewed = CostModel::default()
            .with_cardinality(sym("E"), 600.0)
            .with_cardinality(sym("W"), 26_000.0);
        let wcoj_price = skewed.cost_wcoj(&analysis);
        let wedge_price = skewed.cost(&wedge);
        assert!(
            wcoj_price < wedge_price,
            "skewed: wcoj {wcoj_price} vs wedge {wedge_price}"
        );
        let expected = 3.0 * 600.0 + 600.0f64.powf(1.5);
        assert!((wcoj_price - expected).abs() < 1e-6, "Σ|E| + |E|^ρ*");

        // Uniform observations: |W| ≈ |E|²/N stays small.
        let uniform = CostModel::default()
            .with_cardinality(sym("E"), 600.0)
            .with_cardinality(sym("W"), 3_600.0);
        assert!(
            uniform.cost(&wedge) < uniform.cost_wcoj(&analysis),
            "uniform data keeps the wedge probe cheaper"
        );
    }

    #[test]
    fn wcoj_candidacy_gates_on_shape_and_physical_scans() {
        let schema = edge_schema_with_wedge();
        // The base triangle qualifies…
        assert!(wcoj_candidate(&schema, &triangle_query()).is_some());
        // …a plan ranging over the physical view does not…
        let mut viewed = Query::new();
        let w = viewed.bind("w", Range::Name(sym("W")));
        viewed.output("S", PathExpr::from(w).dot("S"));
        assert!(wcoj_candidate(&schema, &viewed).is_none());
        // …and neither does a gap-free chain.
        let mut chain = Query::new();
        let a = chain.bind("a", Range::Name(sym("E")));
        let b = chain.bind("b", Range::Name(sym("E")));
        chain.equate(PathExpr::from(a).dot("T"), PathExpr::from(b).dot("S"));
        chain.output("S", PathExpr::from(a).dot("S"));
        assert!(wcoj_candidate(&schema, &chain).is_none());
    }

    #[test]
    fn wcoj_aware_price_falls_as_the_cycle_closes() {
        let schema = edge_schema_with_wedge();
        let model = CostModel::default().with_cardinality(sym("E"), 600.0);
        let pricer = WcojAwarePricer {
            schema: &schema,
            model: &model,
        };
        // On the triangle the aware price is the (cheaper) AGM price…
        let tri = triangle_query();
        let a = wcoj_candidate(&schema, &tri).unwrap();
        assert_eq!(
            pricer.price(&tri),
            model.cost(&tri).min(model.cost_wcoj(&a))
        );
        // …and the 2-edge sub-join prices *higher* than the full triangle
        // under these stats.
        let mut two = Query::new();
        let e1 = two.bind("e1", Range::Name(sym("E")));
        let e2 = two.bind("e2", Range::Name(sym("E")));
        two.equate(PathExpr::from(e1).dot("T"), PathExpr::from(e2).dot("S"));
        two.output("N1", PathExpr::from(e1).dot("S"));
        let mut flat = CostModel::default().with_cardinality(sym("E"), 600.0);
        flat.observe_join_selectivity(0.1); // hub-heavy: most probes match
        let sub_pricer = WcojAwarePricer {
            schema: &schema,
            model: &flat,
        };
        assert!(sub_pricer.price(&two) > sub_pricer.price(&tri));
    }
}
