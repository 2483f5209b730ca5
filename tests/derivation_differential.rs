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
//! derivations cannot. Last, the chases the `optimize_cold` benchmark
//! workload's nine points run are pinned, as `(explored, inferred,
//! underivable)`: `explored - inferred - underivable` is the chases run.

use std::cell::Cell;

use chase_too_far::core::backchase::Lattice;
use chase_too_far::core::bitset::VarSet;
use chase_too_far::core::cost::CostModel;
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
/// them: `(point, explored, inferred, underivable)`. Chases run are
/// `explored - inferred - underivable`: 51 on `ec1_4_2.fb`, which ran 591
/// before the derivations refuted anything.
#[rustfmt::skip]
const CHASES: &[(&str, usize, usize, usize)] = &[
    ("ec1_4_2.fb", 2579, 1988, 540),
    ("ec1_4_2.oqf", 36, 20, 0),
    ("ec2_1_4_2.fb", 63, 56, 0),
    ("ec2_2_3_1.ocs", 122, 100, 10),
    ("ec3_3.fb", 143, 114, 18),
    ("ec4_4_3_2.fb", 1565, 1506, 0),
    ("ec5_tri_wedge_idx.fb", 3183, 3053, 80),
    ("ec1_4_2.oqf.measured", 96, 20, 59),
    ("ec5_tri_wedge_idx.fb.measured", 3189, 3053, 83),
];

#[test]
fn the_optimize_cold_points_run_these_chases() {
    let ec1 = Ec1::new(4, 2);
    let ec2_views = Ec2::new(1, 4, 2);
    let ec2_stars = Ec2::new(2, 3, 1);
    let ec3 = Ec3::new(3, 0);
    let ec4 = Ec4::new(4, 3, 2);
    let ec5 = Ec5::new(3, true, true);
    let (fb, oqf, ocs) = (Strategy::Full, Strategy::Oqf, Strategy::Ocs);
    let points = [
        (ec1.schema(), ec1.query(), fb, false),
        (ec1.schema(), ec1.query(), oqf, false),
        (ec2_views.schema(), ec2_views.query(), fb, false),
        (ec2_stars.schema(), ec2_stars.query(), ocs, false),
        (ec3.schema(), ec3.query(), fb, false),
        (ec4.schema(), ec4.query(), fb, false),
        (ec5.schema(), ec5.cycle_query(), fb, false),
        (ec1.schema(), ec1.query(), oqf, true),
        (ec5.schema(), ec5.cycle_query(), fb, true),
    ];
    let observed: Vec<_> = CHASES
        .iter()
        .zip(points)
        .map(|(&(name, ..), (schema, q, strategy, measured))| {
            let optimizer = Optimizer::new(schema);
            let cfg = OptimizerConfig::with_strategy(strategy);
            let r = if measured {
                optimizer.optimize_measured(&q, &cfg, &CostModel::default())
            } else {
                optimizer.optimize(&q, &cfg)
            };
            assert!(!r.timed_out, "{name}");
            (name, r.explored, r.inferred, r.underivable)
        })
        .collect();
    assert_eq!(observed, CHASES);
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
        (r.explored, r.inferred, r.underivable)
    };
    let q = ec1.query();
    assert_eq!(counts(&q.offset_vars(100)), counts(&q));
    assert_eq!(counts(&q), (2579, 1988, 540));
}
