//! The floor is a floor. `bottom_up_backchase` drops a candidate whose
//! [`PlanPricer::floor`] exceeds the bound without building it, so the
//! contract — `floor(ranges) <= price(q)`, as an `f64` comparison, for the
//! subquery `q` induced on those ranges — is what keeps `pruned`, the bound
//! and the plans what they were. Checked here on every well-formed subset of
//! seven universal plans (all of them up to 12 bindings, a seeded sample
//! beyond), under both pricers and models that exercise each term of the
//! estimate: fractional and sub-1 cardinalities (the `max(·, 1)` clamps), a
//! join selectivity of 1 and of 1e-9, a fan-out of 0, and every cardinality
//! exactly 1 — where the generic-join price of a triangle *is* its floor.
//!
//! The ranges are the universal plan's, as in the search: induction keeps a
//! kept binding's range but for the path of a `Range::Expr`.
//!
//! Release is where this file earns its place — the search's own
//! `debug_assert!` on every candidate it prices is compiled out there.

use chase_too_far::core::backchase::Lattice;
use chase_too_far::core::bitset::VarSet;
use chase_too_far::core::cost::{CostModel, PlanPricer, WcojAwarePricer};
use chase_too_far::core::prelude::{chase_query, BackchaseConfig, ChaseConfig};
use chase_too_far::engine::prng::SplitMix64;
use chase_too_far::ir::prelude::{Binding, Query, Range};
use chase_too_far::workloads::{suite, DataScale, Ec1, Ec5, Workload};

/// Universal plans above this many bindings are sampled, not swept.
const EXHAUSTIVE_BINDINGS: usize = 12;
const SAMPLES: usize = 4096;

/// The models: default, all-ones, measured cardinalities made fractional
/// (every third one below 1), either end of the selectivity clamp, and no
/// fan-out.
fn models(w: &dyn Workload) -> Vec<(&'static str, CostModel)> {
    let cards = w.generate_at(DataScale::new(40, 7)).cardinalities();
    let fractional = cards
        .into_iter()
        .enumerate()
        .map(|(i, (name, card))| (name, (card + 0.37) / if i % 3 == 0 { 1e4 } else { 3.0 }));
    let seeded = CostModel::default().with_cardinalities(fractional);
    assert!(
        seeded.cardinalities.values().any(|c| *c < 1.0)
            && seeded.cardinalities.values().any(|c| c.fract() != 0.0),
        "{}: the seeded model must hold sub-1 and fractional cardinalities",
        w.name()
    );
    let observed = |f: fn(&mut CostModel)| {
        let mut m = seeded.clone();
        f(&mut m);
        m
    };
    vec![
        ("default", CostModel::default()),
        (
            "unit",
            CostModel {
                default_cardinality: 1.0,
                ..CostModel::default()
            },
        ),
        (
            "selectivity 1",
            observed(|m| m.observe_join_selectivity(1.0)),
        ),
        (
            "selectivity 1e-9",
            observed(|m| m.observe_join_selectivity(1e-9)),
        ),
        ("fanout 0", observed(|m| m.observe_fanout(0.0))),
        ("seeded", seeded),
    ]
}

/// Every subset mask of `n` bindings, or a seeded sample of them.
fn masks(n: usize) -> Vec<u64> {
    if n <= EXHAUSTIVE_BINDINGS {
        return (1..1u64 << n).collect();
    }
    let mut rng = SplitMix64::seed_from_u64(0xF100_04ED);
    (0..SAMPLES).map(|_| rng.gen_range(1..1u64 << n)).collect()
}

fn assert_floor_holds(tag: &str, pricer: &dyn PlanPricer, candidates: &[(Vec<&Range>, Query)]) {
    for (ranges, cand) in candidates {
        let (floor, price) = (pricer.floor(ranges), pricer.price(cand));
        assert!(
            floor <= price,
            "{tag}: floor {floor} above price {price} of\n{cand}"
        );
    }
}

#[test]
fn floor_never_exceeds_the_price_of_an_induced_subquery() {
    let mut workloads = suite();
    workloads.push(Box::new(Ec1::new(4, 2)));
    workloads.push(Box::new(Ec5::new(3, true, true)));
    for w in &workloads {
        let (schema, q, cs) = (w.schema(), w.query(), w.constraints());
        let universal: Vec<Binding> = chase_query(&q, &cs, ChaseConfig::default()).0.query.from;
        let n = universal.len();
        let cfg = BackchaseConfig {
            timeout: None,
            ..BackchaseConfig::default()
        };
        let mut lattice = Lattice::chase(&q, &cs, &cfg);
        let candidates: Vec<(Vec<&Range>, Query)> = masks(n)
            .into_iter()
            .filter_map(|mask| {
                let kept = || {
                    universal
                        .iter()
                        .enumerate()
                        .filter(move |(i, _)| mask >> i & 1 != 0)
                };
                let keep = VarSet::from_iter(kept().map(|(_, b)| b.var));
                let cand = lattice.induce(&keep)?;
                Some((kept().map(|(_, b)| &b.range).collect(), cand))
            })
            .collect();
        assert!(
            candidates.len() >= n,
            "{} ({n} bindings): only {} well-formed subsets",
            w.name(),
            candidates.len()
        );
        for (label, model) in models(w.as_ref()) {
            let tag = format!("{} ({n} bindings), {label} model", w.name());
            assert_floor_holds(&format!("{tag}, left-deep"), &model, &candidates);
            let aware = WcojAwarePricer {
                schema: &schema,
                model: &model,
            };
            assert_floor_holds(&format!("{tag}, wcoj-aware"), &aware, &candidates);
        }
    }
}
