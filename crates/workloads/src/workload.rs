//! The [`Workload`] trait: one uniform surface over every experimental
//! configuration.
//!
//! A workload bundles everything a scenario needs to be judged end to end —
//! a schema (logical relations plus physical structures *described as
//! constraints*), the scenario's central query, a seeded data generator at a
//! requested [`DataScale`], and [`Expectations`]: the plan/row invariants
//! the generic golden, differential and smoke suites assert for it. EC1–EC3
//! (the paper's §5.1 configurations) and the post-paper EC4 (star schema)
//! and EC5 (cyclic joins) families all implement it, so every engine or
//! optimizer change is exercised against five scenario families by the same
//! generic code paths.
//!
//! Adding a new family is two steps: implement the trait and register the
//! canonical instance in [`suite`]; the generic suites, the plan-versus-
//! request differential included, pick the rest up automatically. Its
//! figure, if it has one, is one entry of `cnb_bench::FIGURES` (a routine
//! in `cnb_bench::figs`).

use cnb_core::prelude::{OptimizeResult, Optimizer, OptimizerConfig, Strategy};
use cnb_engine::Database;
use cnb_ir::prelude::{Constraint, Query, Schema};

/// A seeded dataset-size request, uniform across workloads.
///
/// `rows` is each family's base size knob — tuples per relation (EC1/EC2/
/// EC4), objects per class (EC3), or graph edges (EC5); families derive
/// their secondary sizes (dimension rows, node counts, fan-outs) from it so
/// one number scales the whole dataset. Generation is a pure function of
/// `(workload parameters, DataScale)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataScale {
    /// Base size (see the struct docs for the per-family meaning).
    pub rows: usize,
    /// RNG seed; identical scales generate identical databases.
    pub seed: u64,
}

impl DataScale {
    /// A scale with the given base size and seed.
    pub fn new(rows: usize, seed: u64) -> DataScale {
        DataScale { rows, seed }
    }

    /// The seconds-scale size the smoke/golden suites run at: big enough
    /// that every canonical instance returns a nonempty result, small
    /// enough for `cargo test -q`.
    pub fn smoke() -> DataScale {
        DataScale::new(200, 7)
    }
}

/// The AGM verdict a family declares for its backchase plans; the
/// `cnb_analyze` certifier asserts the computed verdict matches.
///
/// `Certified` means every emitted plan's worst binding-order prefix stays
/// within the central query's fractional-edge-cover bound (acyclic
/// families: EC1–EC4). `WcojClosed` means no *left-deep* plan over base
/// scans meets the bound, but the optimizer's generic-join (WCOJ) plan
/// twin does — its intermediates are capped at `N^{ρ*}` by construction,
/// with the full-query fractional edge cover as the certificate (cyclic
/// EC5 since the WCOJ operator landed). A family whose plans meet neither
/// has no expectation to declare: the certifier's other verdicts fail it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AgmExpectation {
    /// All plans within the query's AGM bound.
    Certified,
    /// Left-deep base plans exceed the bound; the WCOJ plan twin meets it.
    /// The family also promises that on its skewed dataset
    /// ([`Workload::generate_skewed_at`]) the measured WCOJ-aware ranking
    /// puts the generic-join twin of a base-scan plan first: skew inflates
    /// every binary intermediate past the AGM-bounded WCOJ price.
    WcojClosed,
}

/// Plan/row invariants a workload instance promises; the generic suites
/// (golden + differential tests, bench smoke) assert them.
#[derive(Clone, Copy, Debug)]
pub struct Expectations {
    /// The backchase strategy the suites optimize the instance under (the
    /// cheapest one that still surfaces the family's interesting plans).
    pub strategy: Strategy,
    /// The optimizer must emit at least this many plans.
    pub min_plans: usize,
    /// At least one plan must range over a *physical* structure (an index,
    /// view or ASR) — a plan that join reordering over the original query's
    /// collections could never produce.
    pub physical_plan: bool,
    /// The AGM certification verdict the family's plans must earn.
    pub agm: AgmExpectation,
}

/// One experimental configuration, generically drivable end to end:
/// parse/build → chase → backchase → (batched) execution.
pub trait Workload {
    /// Short family name ("EC1" … "EC5"), used in suite labels.
    fn name(&self) -> &'static str;

    /// The schema: logical collections, semantic constraints, and physical
    /// structures with their skeleton constraint-pairs.
    fn schema(&self) -> Schema;

    /// The scenario's central query (against the logical schema).
    fn query(&self) -> Query;

    /// Generates the seeded dataset and materializes every physical
    /// structure of [`Workload::schema`].
    fn generate_at(&self, scale: DataScale) -> Database;

    /// The family's *skewed* dataset at `scale`, if it has one: the same
    /// shape as [`Workload::generate_at`] but with hub-concentrated value
    /// distributions — the regime where AGM-bounded (WCOJ) plans separate
    /// from binary join orders. `None` for families whose generators have
    /// no skew knob.
    fn generate_skewed_at(&self, scale: DataScale) -> Option<Database> {
        let _ = scale;
        None
    }

    /// The invariants this instance promises (see [`Expectations`]).
    fn expectations(&self) -> Expectations;

    /// One request of the family's *serving mix*: the central query
    /// specialized with a selective constant predicate derived from `pick`
    /// (e.g. a point lookup on a serial key). All picks of a family share
    /// one query shape, so a plan cache keyed by canonical fingerprint
    /// sees a miss on the first request and hits on every later one; the
    /// constant is chosen within the `scale`'s generated value domain so
    /// requests probe data that exists. The default is the central query
    /// unchanged (a family with no natural parameter still serves).
    fn serving_query(&self, scale: DataScale, pick: u64) -> Query {
        let _ = (scale, pick);
        self.query()
    }

    /// Every constraint optimization runs under: semantic constraints plus
    /// both directions of every skeleton.
    fn constraints(&self) -> Vec<Constraint> {
        self.schema().all_constraints()
    }

    /// An optimizer over this workload's schema.
    fn optimizer(&self) -> Optimizer {
        Optimizer::new(self.schema())
    }

    /// Optimizes the central query under the expected strategy with default
    /// limits — what the generic suites run.
    fn optimize(&self) -> OptimizeResult {
        let strategy = self.expectations().strategy;
        self.optimizer()
            .optimize(&self.query(), &OptimizerConfig::with_strategy(strategy))
    }
}

/// The canonical instance of every family, boxed for generic iteration —
/// sized so that optimizing and executing all five at [`DataScale::smoke`]
/// stays in test budget.
pub fn suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(crate::Ec1::new(3, 1)),
        Box::new(crate::Ec2::new(2, 2, 1)),
        Box::new(crate::Ec3::new(3, 1)),
        Box::new(crate::Ec4::new(3, 2, 1)),
        Box::new(crate::Ec5::triangle()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_plain_data() {
        let s = DataScale::new(10, 3);
        assert_eq!(s, DataScale { rows: 10, seed: 3 });
        assert_eq!(DataScale::smoke(), DataScale::smoke());
    }

    /// Every family's serving mix is well-formed: each pick typechecks,
    /// validates, and all picks of a family share one canonical template
    /// shape (so a plan cache sees exactly one cold miss per family).
    #[test]
    fn serving_queries_share_one_shape_per_family() {
        use cnb_core::prelude::parameterize;
        let scale = DataScale::smoke();
        for w in suite() {
            let schema = w.schema();
            let shape0 = parameterize(&w.serving_query(scale, 0))
                .template
                .canonical_key();
            for pick in 0..8u64 {
                let q = w.serving_query(scale, pick);
                q.validate()
                    .unwrap_or_else(|e| panic!("{} pick {pick}: invalid: {e}", w.name()));
                cnb_ir::prelude::check_query(&schema, &q)
                    .unwrap_or_else(|e| panic!("{} pick {pick}: ill-typed: {e}", w.name()));
                assert_eq!(
                    parameterize(&q).template.canonical_key(),
                    shape0,
                    "{} pick {pick}: serving shape drifted",
                    w.name()
                );
            }
        }
    }

    /// Every suite member typechecks its query, keeps its expectations
    /// internally consistent, and generates a deterministic smoke dataset.
    #[test]
    fn suite_members_are_well_formed() {
        let names: Vec<&str> = suite().iter().map(|w| w.name()).collect();
        assert_eq!(names, ["EC1", "EC2", "EC3", "EC4", "EC5"]);
        for w in suite() {
            let schema = w.schema();
            cnb_ir::prelude::check_query(&schema, &w.query())
                .unwrap_or_else(|e| panic!("{}: query ill-typed: {e}", w.name()));
            assert!(
                !w.constraints().is_empty(),
                "{}: a workload without constraints cannot exercise the backchase",
                w.name()
            );
            assert!(w.expectations().min_plans >= 1, "{}", w.name());
            let scale = DataScale::smoke();
            let (a, b) = (w.generate_at(scale), w.generate_at(scale));
            assert_eq!(
                a.cardinalities(),
                b.cardinalities(),
                "{}: generation must be a pure function of the scale",
                w.name()
            );
        }
    }
}
