//! Plan text, pinned. Every search the optimizer can run — the nine
//! configurations of the `optimize_cold` benchmark workload through
//! [`Optimizer`], and top-down, bottom-up (unbounded and seeded with the
//! top-down plans' cheapest price) and plan-capped backchases called
//! directly — must emit the same plans, in the same order, with the same
//! text and the same `explored` / `pruned` / `universal_arity` as at the
//! commit that recorded [`GOLDEN`].
//!
//! Plan text is downstream of everything the house contract protects: term
//! ids, union order, worklist order and class-member order all feed
//! `class_paths_over`'s `(size, id)` tie-break and `restricted_where`'s
//! class order. A change to the congruence closure, the homomorphism search
//! or subquery induction that is meant to keep behaviour keeps this file
//! green unmodified; three changes proved that by hand with a scratch dump
//! before this file existed.
//!
//! A row is `digest lines explored pruned universal_arity`, where `digest`
//! is FNV-1a over the plans' lines (`"{bindings:?} :: {query}"` for a
//! backchase, `"{strategy:?} :: {query}"` for an [`Optimizer`] result, which
//! keeps no binding sets), each followed by a newline. Beside each row is the
//! run's `inferred` (`VerdictSources::inferred`): how many of its
//! `explored` verdicts the lattice's borders gave without a chase — recorded
//! when the borders were introduced, with every row unchanged. The rest come
//! from the universal plan's derivations or from a chase, under a support or
//! in full; `tests/derivation_differential.rs` pins every source for the
//! nine `optimize_cold` points. On a mismatch the failure message prints the
//! whole table as observed.

use chase_too_far::core::cost::CostModel;
use chase_too_far::core::prelude::*;
use chase_too_far::ir::prelude::{Constraint, Query};
use chase_too_far::workloads::{Ec1, Ec2, Ec3, Ec4, Ec5};

/// `(configuration, row, inferred)`. A search stops exploring when a plan cap
/// fills its sink, so the capped rows explore less than the uncapped ones.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, usize)] = &[
    ("ec1_4_2.fb", "7aa5788e605555dd 36 2579 0 12", 1988),
    ("ec1_4_2.oqf", "519d4c1fb37af5fb 36 36 0 12", 20),
    ("ec2_1_4_2.fb", "5b677ba756dd6cfa 4 63 0 7", 56),
    ("ec2_2_3_1.ocs", "4debeea5ee7cedfb 4 122 0 42", 100),
    ("ec3_3.fb", "e0c8085e7b8479a8 4 143 0 8", 114),
    ("ec4_4_3_2.fb", "7c9a1a166ab7f7d0 24 1565 0 12", 1506),
    ("ec5_tri_wedge_idx.fb", "f19657260e058473 18 3183 0 12", 3053),
    ("ec1_4_2.oqf.measured", "aedf20e279a3e004 1 96 1717 24", 20),
    ("ec5_tri_wedge_idx.fb.measured", "6934a2e7ec055fee 3 3189 830 24", 3053),
    ("ec1_4_2.top_down", "7029a996f0592fbf 36 2579 0 12", 1988),
    ("ec1_4_2.bottom_up", "ab200c802f104e4f 36 1056 0 12", 0),
    ("ec1_4_2.bottom_up.seeded", "4e8f55b011e2019b 1 35 1742 12", 0),
    ("ec1_4_2.top_down.max_plans_2", "ad87427fa73c7ce7 2 24 0 12", 11),
    ("ec2_1_4_2.top_down", "53f4a6d5f12268c2 4 63 0 7", 56),
    ("ec2_1_4_2.bottom_up", "9a8dfcfd0abf24a2 4 21 0 7", 0),
    ("ec2_1_4_2.bottom_up.seeded", "993740305f490032 1 1 26 7", 0),
    ("ec2_1_4_2.top_down.max_plans_2", "9b3a0b99b4fa6822 2 16 0 7", 11),
    ("ec2_2_3_1.top_down", "e3dad30f3549746d 4 154 0 10", 142),
    ("ec2_2_3_1.bottom_up", "03512fa229f5826f 4 79 0 10", 0),
    ("ec2_2_3_1.bottom_up.seeded", "a12d94d98633d40a 1 1 84 10", 0),
    ("ec2_2_3_1.top_down.max_plans_2", "69a8e20f1a6a5811 2 36 0 10", 29),
    ("ec3_3.top_down", "adc0d75e7afab420 4 143 0 8", 114),
    ("ec3_3.bottom_up", "0525743138558acb 4 32 0 8", 0),
    ("ec3_3.bottom_up.seeded", "bbc60f818b90e959 1 1 46 8", 0),
    ("ec3_3.top_down.max_plans_2", "60e449b117d1c75f 2 28 0 8", 18),
    ("ec4_4_3_2.top_down", "094531ad8c90c6ae 24 1565 0 12", 1506),
    ("ec4_4_3_2.bottom_up", "6c008e3aca7bd50c 24 24 0 12", 0),
    ("ec4_4_3_2.bottom_up.seeded", "5fb37fd65a18780b 8 8 135 12", 0),
    ("ec4_4_3_2.top_down.max_plans_2", "ac74cb5059844b04 2 37 0 12", 29),
    ("ec5_tri_wedge_idx.top_down", "f03a37e3e89984b8 17 3183 0 12", 3053),
    ("ec5_tri_wedge_idx.bottom_up", "190b2f614988ce3c 17 354 0 12", 0),
    ("ec5_tri_wedge_idx.bottom_up.seeded", "3e01133ac37d1cbf 3 6 830 12", 0),
    ("ec5_tri_wedge_idx.top_down.max_plans_2", "acb81e40741cbad6 2 27 0 12", 13),
];

fn fnv1a(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn row(lines: &[String], explored: usize, pruned: usize, universal_arity: usize) -> String {
    format!(
        "{:016x} {} {explored} {pruned} {universal_arity}",
        fnv1a(lines),
        lines.len()
    )
}

fn backchase_row(name: String, r: &BackchaseResult) -> (String, String, usize) {
    assert!(!r.timed_out);
    let lines: Vec<String> = r
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
        name,
        row(&lines, r.explored, r.pruned, r.universal_arity),
        r.verdicts.inferred(),
    )
}

fn optimizer_row(name: String, r: &OptimizeResult) -> (String, String, usize) {
    assert!(!r.timed_out);
    let lines: Vec<String> = r
        .plans
        .iter()
        .map(|p| format!("{:?} :: {}", p.strategy, p.query))
        .collect();
    (
        name,
        row(&lines, r.explored, r.pruned, r.universal_arity),
        r.verdicts.inferred(),
    )
}

/// Every configuration's `(name, row, inferred)`, in [`GOLDEN`] order.
fn observe() -> Vec<(String, String, usize)> {
    let mut out = Vec::new();
    let ec1 = Ec1::new(4, 2);
    let ec2_views = Ec2::new(1, 4, 2);
    let ec2_stars = Ec2::new(2, 3, 1);
    let ec3 = Ec3::new(3, 0);
    let ec4 = Ec4::new(4, 3, 2);
    let ec5 = Ec5::new(3, true, true);

    // The nine `optimize_cold` points, as `benchmark/src/optimize.rs` runs them.
    let (fb, oqf, ocs) = (Strategy::Full, Strategy::Oqf, Strategy::Ocs);
    let mut point = |name: &str, optimizer: Optimizer, q: Query, strategy, measured: bool| {
        let cfg = OptimizerConfig::with_strategy(strategy);
        let r = if measured {
            optimizer.optimize_measured(&q, &cfg, &CostModel::default())
        } else {
            optimizer.optimize(&q, &cfg)
        };
        out.push(optimizer_row(name.to_string(), &r));
    };
    let opt = Optimizer::new;
    point("ec1_4_2.fb", opt(ec1.schema()), ec1.query(), fb, false);
    point("ec1_4_2.oqf", opt(ec1.schema()), ec1.query(), oqf, false);
    point(
        "ec2_1_4_2.fb",
        opt(ec2_views.schema()),
        ec2_views.query(),
        fb,
        false,
    );
    point(
        "ec2_2_3_1.ocs",
        opt(ec2_stars.schema()),
        ec2_stars.query(),
        ocs,
        false,
    );
    point("ec3_3.fb", opt(ec3.schema()), ec3.query(), fb, false);
    point("ec4_4_3_2.fb", opt(ec4.schema()), ec4.query(), fb, false);
    point(
        "ec5_tri_wedge_idx.fb",
        opt(ec5.schema()),
        ec5.cycle_query(),
        fb,
        false,
    );
    point(
        "ec1_4_2.oqf.measured",
        opt(ec1.schema()),
        ec1.query(),
        oqf,
        true,
    );
    point(
        "ec5_tri_wedge_idx.fb.measured",
        opt(ec5.schema()),
        ec5.cycle_query(),
        fb,
        true,
    );

    // The searches called directly, binding sets included.
    let direct: [(&str, Query, Vec<Constraint>); 6] = [
        ("ec1_4_2", ec1.query(), ec1.schema().all_constraints()),
        (
            "ec2_1_4_2",
            ec2_views.query(),
            ec2_views.schema().all_constraints(),
        ),
        (
            "ec2_2_3_1",
            ec2_stars.query(),
            ec2_stars.schema().all_constraints(),
        ),
        ("ec3_3", ec3.query(), ec3.schema().all_constraints()),
        ("ec4_4_3_2", ec4.query(), ec4.schema().all_constraints()),
        (
            "ec5_tri_wedge_idx",
            ec5.cycle_query(),
            ec5.schema().all_constraints(),
        ),
    ];
    let model = CostModel::default();
    for (name, q, cs) in &direct {
        let cfg = BackchaseConfig::default();
        let top = chase_and_backchase(q, cs, &cfg);
        out.push(backchase_row(format!("{name}.top_down"), &top));
        let free = bottom_up_backchase(q, cs, &cfg, &model, None);
        out.push(backchase_row(format!("{name}.bottom_up"), &free));
        let seed = top
            .plans
            .iter()
            .map(|p| model.cost(p))
            .fold(f64::INFINITY, f64::min);
        let seeded = bottom_up_backchase(q, cs, &cfg, &model, Some(seed));
        out.push(backchase_row(format!("{name}.bottom_up.seeded"), &seeded));
        let capped = chase_and_backchase(
            q,
            cs,
            &BackchaseConfig {
                max_plans: 2,
                ..cfg
            },
        );
        out.push(backchase_row(
            format!("{name}.top_down.max_plans_2"),
            &capped,
        ));
    }
    out
}

#[test]
fn plan_text_is_what_it_was() {
    let observed = observe();
    let table = observed
        .iter()
        .map(|(n, row, inferred)| format!("    ({n:?}, {row:?}, {inferred}),"))
        .collect::<Vec<_>>()
        .join("\n");
    let matches = observed.len() == GOLDEN.len()
        && observed
            .iter()
            .zip(GOLDEN)
            .all(|((n, row, inferred), (gn, grow, ginferred))| {
                n == gn && row == grow && inferred == ginferred
            });
    assert!(matches, "plan text moved; observed:\n{table}");
}
