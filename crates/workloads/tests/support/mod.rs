//! The workload families' one differential, shared by the suites that run
//! it (lives in a subdirectory so cargo does not treat it as a test target
//! of its own): one list of [`cases`], one determinism check
//! ([`assert_rows_are_exact`]), one agreement check ([`verdict`]) and its
//! [`GOLDEN`]. `workload_suite.rs` runs both checks over every case; the
//! per-family suites run them on their own cases by label. Each suite uses
//! its own subset of the helpers.
#![allow(dead_code)]

use cnb_core::prelude::OptimizerConfig;
use cnb_engine::datagen::EdgeDist;
use cnb_engine::{execute, execute_legacy, Database, PlanServer};
use cnb_ir::prelude::Value;
use cnb_workloads::{ec5::Ec5DataSpec, suite, DataScale, Ec5, Workload};
use std::collections::BTreeSet;
use std::rc::Rc;

/// The distinct answer set, as strings. C&B proves each plan equivalent to
/// its request under the paper's *set* semantics, while the engine returns
/// bags: a plan may repeat rows the request does not (see [`GOLDEN`] for
/// the plans that do), so this is the comparison every plan must pass.
pub fn distinct(rows: &[Value]) -> BTreeSet<String> {
    rows.iter().map(ToString::to_string).collect()
}

/// The rows as a sorted multiset.
fn bag(rows: &[Value]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(ToString::to_string).collect();
    v.sort();
    v
}

/// One workload on one dataset.
pub struct Case {
    pub label: &'static str,
    pub workload: Rc<dyn Workload>,
    /// Builds the dataset; called once per independent generation.
    pub generate: Box<dyn Fn() -> Database>,
}

/// Every `suite()` family at smoke scale, then the EC5 triangle (uniform
/// and `Skewed(2.0)`) and 4-cycle (uniform) on a graph small enough to
/// keep outputs in the hundreds. A new family joins by being registered in
/// `suite()`.
pub fn cases() -> Vec<Case> {
    let mut cases: Vec<Case> = suite()
        .into_iter()
        .map(|w| {
            let workload: Rc<dyn Workload> = Rc::from(w);
            let w = Rc::clone(&workload);
            Case {
                label: workload.name(),
                workload,
                generate: Box::new(move || w.generate_at(DataScale::smoke())),
            }
        })
        .collect();
    for (label, ec5, dist) in [
        ("EC5 triangle, uniform", Ec5::triangle(), EdgeDist::Uniform),
        (
            "EC5 triangle, skewed",
            Ec5::triangle(),
            EdgeDist::Skewed(2.0),
        ),
        ("EC5 4-cycle, uniform", Ec5::four_cycle(), EdgeDist::Uniform),
    ] {
        let graph = Ec5DataSpec {
            nodes: 50,
            edges: 250,
            dist,
            seed: 11,
        };
        cases.push(Case {
            label,
            workload: Rc::new(ec5),
            generate: Box::new(move || ec5.generate(graph)),
        });
    }
    cases
}

/// The case of [`cases`] labelled `label`.
pub fn case(label: &str) -> Case {
    cases()
        .into_iter()
        .find(|c| c.label == label)
        .unwrap_or_else(|| panic!("no case labelled {label}"))
}

/// The determinism contract, on two independent generations of the case's
/// data: the request's answer is nonempty and identical on both, and every
/// plan's rows and their order are identical on both and equal
/// `execute_legacy`'s.
pub fn assert_rows_are_exact(c: &Case) {
    let (db, twin) = ((c.generate)(), (c.generate)());
    let label = c.label;
    let q = c.workload.query();
    let request = execute(&db, &q).unwrap().rows;
    assert!(
        !request.is_empty(),
        "{label}: the request's answer is empty"
    );
    assert_eq!(
        request,
        execute(&twin, &q).unwrap().rows,
        "{label}: the request's rows are not a pure function of the data"
    );
    let res = c.workload.optimize();
    assert!(!res.timed_out, "{label}: optimization timed out");
    for (i, p) in res.plans.iter().enumerate() {
        let rows = execute(&db, &p.query).unwrap().rows;
        assert_eq!(
            rows,
            execute(&twin, &p.query).unwrap().rows,
            "{label}: plan {i}'s row order differs across identical data:\n{}",
            p.query
        );
        assert_eq!(
            rows,
            execute_legacy(&db, &p.query).unwrap().rows,
            "{label}: plan {i} diverges from the nested-loop oracle:\n{}",
            p.query
        );
    }
}

/// What the agreement check learns of one case: its label, how many plans
/// `optimize` returns, the indices of the plans whose multiset of rows
/// differs from the request's, and whether `PlanServer::serve`'s answer
/// does.
pub type Verdict = (&'static str, usize, Vec<usize>, bool);

/// Every plan's answer *set* is the request's (asserted here); the
/// multiplicities are returned as the case's [`Verdict`], for [`GOLDEN`].
pub fn verdict(c: &Case) -> Verdict {
    let db = (c.generate)();
    let label = c.label;
    let q = c.workload.query();
    let request = execute(&db, &q).unwrap().rows;
    assert!(
        !request.is_empty(),
        "{label}: the request's answer is empty"
    );
    let res = c.workload.optimize();
    assert!(!res.timed_out, "{label}: optimization timed out");
    let mut bag_differs = Vec::new();
    for (i, p) in res.plans.iter().enumerate() {
        let rows = execute(&db, &p.query).unwrap().rows;
        assert_eq!(
            distinct(&rows),
            distinct(&request),
            "{label}: plan {i}'s answer set is not the request's:\n{}",
            p.query
        );
        if bag(&rows) != bag(&request) {
            bag_differs.push(i);
        }
    }
    let cfg = OptimizerConfig::with_strategy(c.workload.expectations().strategy);
    let (_, served) = PlanServer::new(c.workload.optimizer(), cfg)
        .serve(&db, &q)
        .unwrap();
    let served_differs = bag(&served.rows) != bag(&request);
    (label, res.plans.len(), bag_differs, served_differs)
}

/// The [`Verdict`] of every case, in [`cases`] order. Every plan's answer
/// set is the request's; multiplicities are another matter, since C&B
/// proves set equivalence only. A plan whose wedge views (`W`) cover one
/// edge of the cycle twice counts that edge's parallel copies once per
/// wedge: on EC5's graphs, which have parallel edges, the triangle's
/// wedge-pair plans 0–2 (`W ⋈ W`; the server serves plan 0) and the
/// 4-cycle's plans 2–5 repeat rows the request does not.
pub const GOLDEN: [(&str, usize, &[usize], bool); 8] = [
    ("EC1", 12, &[], false),
    ("EC2", 4, &[], false),
    ("EC3", 5, &[], false),
    ("EC4", 8, &[], false),
    ("EC5", 8, &[], false),
    ("EC5 triangle, uniform", 8, &[0, 1, 2], true),
    ("EC5 triangle, skewed", 8, &[0, 1, 2], true),
    ("EC5 4-cycle, uniform", 11, &[2, 3, 4, 5], false),
];

/// [`GOLDEN`]'s verdict for the case labelled `label`.
pub fn golden(label: &str) -> Verdict {
    let &(label, plans, differs, served) = GOLDEN
        .iter()
        .find(|g| g.0 == label)
        .unwrap_or_else(|| panic!("no golden for {label}"));
    (label, plans, differs.to_vec(), served)
}

/// Asserts that the case labelled `label` reads its [`GOLDEN`] verdict.
pub fn assert_verdict_is_golden(label: &str) {
    assert_eq!(verdict(&case(label)), golden(label));
}
