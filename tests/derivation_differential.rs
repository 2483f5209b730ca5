//! Differential suite for refutation by derivations
//! (`cnb_core::derivations`): a candidate the universal plan's derivations
//! refute is one the chase refutes too. For every binding subset of the
//! five universal plans `induction_differential` sweeps, and of the
//! universal plans of random certified constraint sets (the generator of
//! `property_based::certified_sets_chase_to_a_fixpoint`), a refuted subset
//! is malformed or its induced query is not equivalent by
//! `EquivChecker::equivalent` on a fresh database. The release run is the
//! one that counts: debug builds re-prove every refutation by a chase inside
//! the lattice as well.
//!
//! Two cases show where the line falls: EC5's triangle from one wedge
//! alone, whose chase produces edges but no triangle — refuted, where a
//! check on which collections a chase can produce would not refute it — and
//! `ec2_1_4_2.fb`'s one candidate that the chase refutes and the
//! derivations cannot. The sources of the verdicts the `optimize_cold`
//! benchmark workload's nine points explore are pinned: the two chase
//! sources are the chases run.
//!
//! A verdict proved under a support (`cnb_core::derivations`) rests on the
//! monotonicity of ROADMAP item 19: equivalence under a subset of Σ is
//! equivalence under Σ. Its gate is per verdict: on every subset of the five
//! universal plans, and on every verdict the nine points' searches prove
//! under a support (their searches replayed here, counts checked against
//! the pinned ones), `EquivChecker` over the support's constraints alone
//! finds the induced candidate equivalent, and so does the full chase.
//!
//! A support chase that proves nothing is widened: the lattice goes on
//! chasing the same database under all of Σ from the support's fixpoint,
//! and the verdict's source is `chased_in_full`. That rests on the chase's
//! result being a universal model whatever order its steps ran in, so the
//! same sweeps gate every such verdict: `EquivChecker` over all of Σ, on a
//! fresh database, gives the induced candidate the same answer. Of the nine
//! points, only `ec2_1_4_2.fb` (one candidate) and `ec2_2_3_1.ocs` (three)
//! widen a chase.

use std::cell::Cell;

use chase_too_far::core::backchase::Lattice;
use chase_too_far::core::bitset::VarSet;
use chase_too_far::core::cost::{CostModel, PlanPricer, WcojAwarePricer};
use chase_too_far::core::prelude::*;
use chase_too_far::ir::prelude::*;
use chase_too_far::workloads::{Ec1, Ec2, Ec3, Ec4, Ec5};

mod arbitrary;

use arbitrary::{arb_constraints, arb_query, cases, chain_schema};

/// Sweeps every binding subset of `q`'s universal plan under `constraints`:
/// each well-formed one the lattice's derivations refute must not be
/// equivalent. Returns how many were checked so.
fn assert_refutations_hold(tag: &str, q: &Query, constraints: &[Constraint]) -> usize {
    let (udb, stats) = chase_query(q, constraints, ChaseConfig::default());
    assert!(!stats.truncated, "{tag}: chase truncated");
    let vars: Vec<Var> = udb.query.from.iter().map(|b| b.var).collect();
    let n = vars.len();
    assert!(
        n <= 14,
        "{tag}: universal arity {n} out of the sweep's range"
    );
    let checker = EquivChecker::new(q, constraints, ChaseConfig::default());
    let mut lattice = Lattice::chase(q, constraints, &BackchaseConfig::default());
    let mut checked = 0;
    for mask in 0u32..1 << n {
        let keep = VarSet::from_iter((0..n).filter(|i| mask & (1 << i) != 0).map(|i| vars[i]));
        if !lattice.underivable(&keep) {
            continue;
        }
        if let Some(candidate) = lattice.induce(&keep) {
            checked += 1;
            assert!(
                !checker.equivalent(&candidate).0,
                "{tag}: {keep:?} is refuted and equivalent:\n{candidate}"
            );
        }
    }
    checked
}

/// EC4's refutations are all of malformed subsets: the derivations refute
/// none of its well-formed ones, as on `ec4_4_3_2.fb`, whose chases all
/// prove equivalence.
#[test]
fn no_workload_refutation_meets_an_equivalent_candidate() {
    let ec1 = Ec1::new(3, 1);
    let ec2 = Ec2::new(1, 3, 2);
    let ec3 = Ec3::new(2, 0);
    let ec4 = Ec4::new(3, 2, 2);
    let ec5 = Ec5::new(3, true, true);
    for (tag, q, schema) in [
        ("ec1_3_1", ec1.query(), ec1.schema()),
        ("ec2_1_3_2", ec2.query(), ec2.schema()),
        ("ec3_2", ec3.query(), ec3.schema()),
        ("ec4_3_2_2", ec4.query(), ec4.schema()),
        ("ec5_tri_wedge_idx", ec5.cycle_query(), ec5.schema()),
    ] {
        let checked = assert_refutations_hold(tag, &q, &schema.all_constraints());
        assert_eq!(checked == 0, tag == "ec4_3_2_2", "{tag}: {checked} checked");
    }
}

#[test]
fn no_certified_set_refutation_meets_an_equivalent_candidate() {
    let schema = chain_schema();
    let (certified, checked) = (Cell::new(0), Cell::new(0));
    cases("refutations_hold_on_certified_sets", 64, |rng| {
        let q = arb_query(rng);
        let cs = arb_constraints(rng);
        if certify(&schema, &cs).is_ok() {
            certified.set(certified.get() + 1);
            checked.set(checked.get() + assert_refutations_hold(&q.to_string(), &q, &cs));
        }
    });
    let drawn = (certified.get(), checked.get());
    assert!(
        drawn.0 >= 10 && drawn.1 > 0,
        "(certified, checked) = {drawn:?}"
    );
}

/// `select e1.S, e2.S, e3.S` over the triangle, with the wedge view `W` and
/// the edge index `EI`. One wedge alone chases into two edges — every
/// collection the query ranges over — but never into a third that closes
/// them: refuted, by the derivations as by the chase.
#[test]
fn one_wedge_alone_is_refuted_though_its_chase_produces_edges() {
    let ec5 = Ec5::new(3, true, true);
    let (q, constraints) = (ec5.cycle_query(), ec5.schema().all_constraints());
    let mut lattice = Lattice::chase(&q, &constraints, &BackchaseConfig::default());
    let (udb, _) = chase_query(&q, &constraints, ChaseConfig::default());
    let wedge = udb
        .query
        .from
        .iter()
        .find(|b| b.range == Range::Name(ec5.wedge()))
        .map(|b| VarSet::from_iter([b.var]))
        .expect("the chase adds the wedge view");
    let candidate = lattice
        .induce(&wedge)
        .expect("one wedge gives every output");
    let (chased, _) = chase_query(&candidate, &constraints, ChaseConfig::default());
    let edges = chased.query.from.iter();
    let edges = edges
        .filter(|b| b.range == Range::Name(ec5.edges()))
        .count();
    assert!(edges >= 2, "the wedge's chase produces its edges: {edges}");
    assert!(lattice.underivable(&wedge));
    assert_eq!(lattice.equivalent(&wedge), Some(false));
    let (equivalent, _) =
        EquivChecker::new(&q, &constraints, ChaseConfig::default()).equivalent(&candidate);
    assert!(!equivalent);
}

/// `ec2_1_4_2` without `R1`: both views chase back into an `R1` tuple, and
/// in the universal plan their witness is the query's own `r1`, joined with
/// `S1_4` too. The chase's fresh tuple is joined with nothing the views do
/// not cover, so the candidate is not equivalent; the derivations cannot
/// tell, and leave it to the chase — the one chase of `ec2_1_4_2.fb` that
/// returns `false`.
#[test]
fn a_view_whose_witness_joins_more_than_it_is_left_to_the_chase() {
    let ec2 = Ec2::new(1, 4, 2);
    let (q, constraints) = (ec2.query(), ec2.schema().all_constraints());
    let mut lattice = Lattice::chase(&q, &constraints, &BackchaseConfig::default());
    let (udb, _) = chase_query(&q, &constraints, ChaseConfig::default());
    let without_r1 = VarSet::from_iter(
        udb.query
            .from
            .iter()
            .filter(|b| b.range != Range::Name(ec2.hub(1)))
            .map(|b| b.var),
    );
    assert_eq!(without_r1.len(), 6);
    assert!(!lattice.underivable(&without_r1));
    assert_eq!(lattice.verdict(&without_r1), Some(false));
}

/// The nine `optimize_cold` points, as `benchmark/src/optimize.rs` runs
/// them: `(point, explored, sources)`, the sources in `VerdictSources`'
/// field order — refuted by border, malformed, refuted by derivations,
/// proved by border, proved under a support, chased in full. They sum to
/// `explored`. The last two are the chases run: 51 on `ec1_4_2.fb`, which
/// ran 591 before the derivations refuted anything, all of them proved
/// under their supports.
#[rustfmt::skip]
const SOURCES: &[(&str, usize, [usize; 6])] = &[
    ("ec1_4_2.fb", 2579, [412, 728, 540, 848, 51, 0]),
    ("ec1_4_2.oqf", 36, [2, 12, 0, 6, 16, 0]),
    ("ec2_1_4_2.fb", 63, [27, 19, 0, 10, 6, 1]),
    ("ec2_2_3_1.ocs", 122, [44, 53, 10, 3, 9, 3]),
    ("ec3_3.fb", 143, [17, 72, 18, 25, 11, 0]),
    ("ec4_4_3_2.fb", 1565, [756, 432, 0, 318, 59, 0]),
    ("ec5_tri_wedge_idx.fb", 3183, [280, 1464, 80, 1309, 50, 0]),
    ("ec1_4_2.oqf.measured", 96, [2, 12, 59, 6, 17, 0]),
    ("ec5_tri_wedge_idx.fb.measured", 3189, [280, 1464, 83, 1309, 53, 0]),
];

/// The nine points' optimizers, queries and configurations, in [`SOURCES`]
/// order: `(schema, query, strategy, measured)`.
fn optimize_cold_points() -> Vec<(Schema, Query, Strategy, bool)> {
    let ec1 = Ec1::new(4, 2);
    let ec2_views = Ec2::new(1, 4, 2);
    let ec2_stars = Ec2::new(2, 3, 1);
    let ec3 = Ec3::new(3, 0);
    let ec4 = Ec4::new(4, 3, 2);
    let ec5 = Ec5::new(3, true, true);
    let (fb, oqf, ocs) = (Strategy::Full, Strategy::Oqf, Strategy::Ocs);
    vec![
        (ec1.schema(), ec1.query(), fb, false),
        (ec1.schema(), ec1.query(), oqf, false),
        (ec2_views.schema(), ec2_views.query(), fb, false),
        (ec2_stars.schema(), ec2_stars.query(), ocs, false),
        (ec3.schema(), ec3.query(), fb, false),
        (ec4.schema(), ec4.query(), fb, false),
        (ec5.schema(), ec5.cycle_query(), fb, false),
        (ec1.schema(), ec1.query(), oqf, true),
        (ec5.schema(), ec5.cycle_query(), fb, true),
    ]
}

/// A source table row: `VerdictSources` in field order.
fn sources_row(v: &VerdictSources) -> [usize; 6] {
    [
        v.refuted_by_border,
        v.malformed,
        v.refuted_by_derivations,
        v.proved_by_border,
        v.proved_under_support,
        v.chased_in_full,
    ]
}

#[test]
fn the_optimize_cold_points_run_these_chases() {
    let observed: Vec<_> = SOURCES
        .iter()
        .zip(optimize_cold_points())
        .map(|(&(name, ..), (schema, q, strategy, measured))| {
            let optimizer = Optimizer::new(schema);
            let cfg = OptimizerConfig::with_strategy(strategy);
            let r = if measured {
                optimizer.optimize_measured(&q, &cfg, &CostModel::default())
            } else {
                optimizer.optimize(&q, &cfg)
            };
            assert!(!r.timed_out, "{name}");
            assert_eq!(r.verdicts.total(), r.explored, "{name}");
            (name, r.explored, sources_row(&r.verdicts))
        })
        .collect();
    let table: String = observed
        .iter()
        .map(|(name, explored, row)| format!("    ({name:?}, {explored}, {row:?}),\n"))
        .collect();
    assert_eq!(observed, SOURCES, "observed:\n{table}");
}

/// Variable ids past 64 live in `VarSet`'s spill words: the same search
/// with every query variable shifted there refutes the same candidates.
#[test]
fn refutation_does_not_stop_at_variable_id_64() {
    let ec1 = Ec1::new(4, 2);
    let constraints = ec1.schema().all_constraints();
    let cfg = BackchaseConfig::default();
    let counts = |q: &Query| {
        let r = chase_and_backchase(q, &constraints, &cfg);
        (r.explored, sources_row(&r.verdicts))
    };
    let q = ec1.query();
    assert_eq!(counts(&q.offset_vars(100)), counts(&q));
    assert_eq!(counts(&q), (SOURCES[0].1, SOURCES[0].2));
}

/// A lattice whose every support-proved verdict is held to ROADMAP 19's
/// gate as it is given.
struct Gate<'a> {
    tag: &'a str,
    q: &'a Query,
    constraints: &'a [Constraint],
    lattice: Lattice<'a>,
    /// The universal plan's bindings.
    bindings: Vec<Binding>,
    /// Support-proved verdicts checked so far.
    checked: usize,
    /// Widened verdicts checked so far.
    widened: usize,
}

impl<'a> Gate<'a> {
    fn new(tag: &'a str, q: &'a Query, constraints: &'a [Constraint]) -> Gate<'a> {
        let (udb, stats) = chase_query(q, constraints, ChaseConfig::default());
        assert!(!stats.truncated, "{tag}: chase truncated");
        Gate {
            tag,
            q,
            constraints,
            lattice: Lattice::chase(q, constraints, &BackchaseConfig::default()),
            bindings: udb.query.from,
            checked: 0,
            widened: 0,
        }
    }

    /// `Lattice::verdict`, gated.
    fn verdict(&mut self, keep: &VarSet) -> bool {
        self.gated(keep, |lattice| lattice.verdict(keep))
    }

    /// `Lattice::equivalent`, gated.
    fn equivalent(&mut self, keep: &VarSet) -> bool {
        self.gated(keep, |lattice| lattice.equivalent(keep))
    }

    fn gated(&mut self, keep: &VarSet, ask: impl FnOnce(&mut Lattice<'a>) -> Option<bool>) -> bool {
        let before = self.lattice.sources();
        let verdict = ask(&mut self.lattice).expect("no budget runs out");
        let after = self.lattice.sources();
        if after.proved_under_support > before.proved_under_support {
            self.assert_support_proves(keep);
        }
        if after.chased_in_full > before.chased_in_full {
            self.assert_widening_agrees(keep, verdict);
        }
        verdict
    }

    /// The widened verdict's gate: `EquivChecker` over the whole set, on a
    /// fresh database, gives the candidate induced by `keep` the same answer.
    fn assert_widening_agrees(&mut self, keep: &VarSet, verdict: bool) {
        let candidate = self
            .lattice
            .induce(keep)
            .expect("a chased candidate is a subquery");
        let fresh = EquivChecker::new(self.q, self.constraints, ChaseConfig::default())
            .equivalent(&candidate)
            .0;
        assert_eq!(fresh, verdict, "{}: {keep:?} widened", self.tag);
        self.widened += 1;
    }

    /// The gate: the candidate induced by `keep` is equivalent by
    /// `EquivChecker` under its support alone, and under the whole set.
    fn assert_support_proves(&mut self, keep: &VarSet) {
        let (tag, q) = (self.tag, self.q);
        let support = self
            .lattice
            .support(keep)
            .expect("a proved verdict is not refuted");
        let slice: Vec<Constraint> = support
            .iter()
            .map(|&i| self.constraints[i].clone())
            .collect();
        let candidate = self
            .lattice
            .induce(keep)
            .expect("a proved candidate is a subquery");
        let equivalent = |cs: &[Constraint]| {
            EquivChecker::new(q, cs, ChaseConfig::default())
                .equivalent(&candidate)
                .0
        };
        assert!(
            equivalent(&slice),
            "{tag}: {keep:?} under its support {support:?}"
        );
        assert!(
            equivalent(self.constraints),
            "{tag}: {keep:?} under the whole set"
        );
        self.checked += 1;
    }

    /// `chase_and_backchase`'s depth-first search, replayed; returns
    /// `explored`.
    fn top_down(&mut self) -> usize {
        fn explore(gate: &mut Gate<'_>, s: &VarSet, memo: &mut FxHashMap<VarSet, bool>) {
            for v in s.iter().collect::<Vec<_>>() {
                let child = s.without(v);
                if memo.contains_key(&child) {
                    continue;
                }
                let verdict = gate.verdict(&child);
                memo.insert(child.clone(), verdict);
                if verdict {
                    explore(gate, &child, memo);
                }
            }
        }
        let mut memo = FxHashMap::default();
        let all = VarSet::from_iter(self.bindings.iter().map(|b| b.var));
        explore(self, &all, &mut memo);
        memo.len()
    }

    /// `bottom_up_backchase`'s search by size under `pricer` and `seed`,
    /// replayed; returns `explored`.
    fn bottom_up(&mut self, pricer: &dyn PlanPricer, seed: Option<f64>) -> usize {
        let (bindings, n) = (self.bindings.clone(), self.bindings.len());
        let mut best = seed.unwrap_or(f64::INFINITY);
        let mut frontier: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let mut found: Vec<VarSet> = Vec::new();
        let mut explored = 0;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for subset in frontier.drain(..) {
                let keep = VarSet::from_iter(subset.iter().map(|&i| bindings[i].var));
                if found.iter().any(|f| f.is_subset(&keep)) {
                    continue;
                }
                let last = subset[subset.len() - 1];
                let mut grow = || {
                    next.extend((last + 1..n).map(|j| {
                        let mut bigger = subset.clone();
                        bigger.push(j);
                        bigger
                    }))
                };
                let Some(candidate) = self.lattice.induce(&keep) else {
                    grow();
                    continue;
                };
                let ranges: Vec<&Range> = subset.iter().map(|&i| &bindings[i].range).collect();
                let within = pricer.floor(&ranges) <= best && pricer.price(&candidate) <= best;
                if !within {
                    grow();
                    continue;
                }
                explored += 1;
                if !self.equivalent(&keep) {
                    grow();
                    continue;
                }
                if seed.is_some() {
                    best = best.min(pricer.price(&candidate));
                }
                found.push(keep);
            }
            frontier = next;
        }
        explored
    }
}

/// The searches `Optimizer::optimize` runs for one strategy, replayed
/// through gates: `(explored, support-proved verdicts checked, widened
/// verdicts checked)`.
fn gated_optimize(
    tag: &str,
    schema: &Schema,
    q: &Query,
    strategy: Strategy,
) -> (usize, usize, usize) {
    let constraints = schema.all_constraints();
    let (mut explored, mut checked, mut widened) = (0, 0, 0);
    let mut search = |q: &Query, cs: &[Constraint]| {
        let mut gate = Gate::new(tag, q, cs);
        explored += gate.top_down();
        checked += gate.checked;
        widened += gate.widened;
    };
    match strategy {
        Strategy::Full => search(q, &constraints),
        Strategy::Oqf => {
            let frags = decompose(q, schema.skeletons());
            let provided = |l| frags.iter().any(|f| f.provides.contains(l));
            if frags.len() <= 1 || !q.select.iter().all(|(l, _)| provided(l)) {
                search(q, &constraints);
            } else {
                for f in &frags {
                    search(&f.query, &constraints);
                }
            }
        }
        Strategy::Ocs => {
            let egds = constraints
                .iter()
                .filter(|c| c.kind() == ConstraintKind::Egd);
            let mut pool = vec![q.clone()];
            for stratum in stratify(&constraints) {
                let mut cs: Vec<Constraint> =
                    stratum.iter().map(|&i| constraints[i].clone()).collect();
                for e in egds.clone() {
                    if !cs.iter().any(|c| c.name == e.name) {
                        cs.push(e.clone());
                    }
                }
                let mut next: Vec<Query> = Vec::new();
                for p in &pool {
                    search(p, &cs);
                    let plans = chase_and_backchase(p, &cs, &BackchaseConfig::default()).plans;
                    for plan in plans {
                        if !next.iter().any(|kept| same_plan(kept, &plan)) {
                            next.push(plan);
                        }
                    }
                }
                pool = next;
            }
        }
    }
    (explored, checked, widened)
}

/// ROADMAP 19's gate, and the widened verdicts' gate, on every subset of the
/// five universal plans the refutation sweep covers, each asked of the
/// lattice unbordered. Only `ec2_1_3_2` widens a chase (12 of its subsets).
#[test]
fn every_support_proof_holds_under_its_support_alone() {
    let ec1 = Ec1::new(3, 1);
    let ec2 = Ec2::new(1, 3, 2);
    let ec3 = Ec3::new(2, 0);
    let ec4 = Ec4::new(3, 2, 2);
    let ec5 = Ec5::new(3, true, true);
    for (tag, q, schema) in [
        ("ec1_3_1", ec1.query(), ec1.schema()),
        ("ec2_1_3_2", ec2.query(), ec2.schema()),
        ("ec3_2", ec3.query(), ec3.schema()),
        ("ec4_3_2_2", ec4.query(), ec4.schema()),
        ("ec5_tri_wedge_idx", ec5.cycle_query(), ec5.schema()),
    ] {
        let constraints = schema.all_constraints();
        let mut gate = Gate::new(tag, &q, &constraints);
        let n = gate.bindings.len();
        assert!(n <= 14, "{tag}: universal arity {n}");
        let vars: Vec<Var> = gate.bindings.iter().map(|b| b.var).collect();
        for mask in 0u32..1 << n {
            let keep = VarSet::from_iter((0..n).filter(|i| mask & (1 << i) != 0).map(|i| vars[i]));
            gate.equivalent(&keep);
        }
        assert!(gate.checked > 0, "{tag}: no support proved anything");
        // Only EC2's view candidates need more than their supports.
        assert_eq!(
            gate.widened > 0,
            tag == "ec2_1_3_2",
            "{tag}: {} widened",
            gate.widened
        );
    }
}

/// ROADMAP 19's gate on every verdict the nine `optimize_cold` points prove
/// under a support, and the widened verdicts' gate on every verdict they
/// widen. Each point's searches are replayed through gates — the top-down
/// search over the query, each OQF fragment or each OCS stage, and for a
/// measured point the bounded bottom-up search after it — and explore what
/// the optimizer explores; the support-proved and widened verdicts checked
/// are the pinned ones, and only two points widen.
#[test]
fn every_optimize_cold_support_proof_holds_under_its_support_alone() {
    let model = CostModel::default();
    let mut widening = Vec::new();
    for (&(name, explored, sources), (schema, q, strategy, measured)) in
        SOURCES.iter().zip(optimize_cold_points())
    {
        let (mut seen, mut checked, mut widened) = gated_optimize(name, &schema, &q, strategy);
        if measured {
            let pricer = WcojAwarePricer {
                schema: &schema,
                model: &model,
            };
            let seed = Optimizer::new(schema.clone())
                .optimize_in(
                    &q,
                    &OptimizerConfig::with_strategy(strategy),
                    &mut SkeletonMemo::bounded(0),
                )
                .plans
                .iter()
                .map(|p| pricer.price(&p.query))
                .fold(f64::INFINITY, f64::min);
            let constraints = schema.all_constraints();
            let mut gate = Gate::new(name, &q, &constraints);
            seen += gate.bottom_up(&pricer, seed.is_finite().then_some(seed));
            checked += gate.checked;
            widened += gate.widened;
        }
        assert_eq!(
            (seen, checked, widened),
            (explored, sources[4], sources[5]),
            "{name}"
        );
        if widened > 0 {
            widening.push((name, widened));
        }
    }
    assert_eq!(widening, [("ec2_1_4_2.fb", 1), ("ec2_2_3_1.ocs", 3)]);
}
