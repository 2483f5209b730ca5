//! # cnb-analyze — static analysis for the C&B workspace
//!
//! The repo's two load-bearing properties — chase termination for the
//! paper's path-conjunctive constraint class and byte-identical determinism
//! at every thread count — were historically enforced only *dynamically*
//! (differential suites, a two-process stdout diff in `scripts/check.sh`).
//! This crate proves what can be proven statically, in three prongs:
//!
//! - [`validate`]: a semantic validator over the IR. Queries and
//!   constraints (the scoping rule, which lives in [`cnb_ir::scope`], plus
//!   arity/schema agreement via the typechecker), constraint *sets*
//!   (through `cnb_core::strata::certify`, the weak-acyclicity check every
//!   optimizer runs at construction), and physical plans (binding-order soundness plus
//!   join-connectivity analysis that rejects cross-product shapes
//!   statically).
//! - [`taint`]: the determinism scan. The ban list is `clippy.toml`, written
//!   once and embedded; the scan matches its entries in the logic crates'
//!   lexed source ([`strip`] removes comments and literal contents), takes
//!   `#[expect(clippy::disallowed_*)]` on the line above as the only
//!   sanction, and reports every unsanctioned needle and every stale
//!   attribute at its own line, plus any wall-clock read in the serving
//!   layer.
//! - [`agm`]: the AGM-bound plan certifier — exact rational fractional
//!   edge covers (the checked-arithmetic solver lives in
//!   [`cnb_ir::cover`]) over [`cnb_ir::hypergraph`] exports, certifying
//!   each left-deep plan's worst binding-order prefix — and each
//!   generic-join twin's full-query exponent — against its query's bound;
//!   cyclic shapes the WCOJ operator now covers report `wcoj-closed`,
//!   shapes no emitted plan can meet report `wcoj-needed`.
//!
//! The `cnb-analyze [ROOT] [--json FILE]` binary runs every prong in one
//! pass — the scan, then [`suite::validate_suite`], which optimizes each
//! suite workload once and validates and certifies its plans — as the
//! `==> cnb-analyze` tier of `scripts/check.sh`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agm;
pub mod report;
pub mod strip;
pub mod suite;
pub mod taint;
pub mod validate;

/// One-stop imports.
pub mod prelude {
    pub use crate::agm::{plan_agm, plan_agm_wcoj, shape_report, Verdict};
    pub use crate::suite::validate_suite;
    pub use crate::taint::{taint_files, taint_workspace, TaintFinding};
    pub use crate::validate::{
        join_components, validate_constraint, validate_plan, validate_query, validate_schema,
        ValidateError,
    };
    pub use cnb_ir::cover::{CoverError, Rat};
}
