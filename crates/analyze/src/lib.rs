//! # cnb-analyze — the semantic half of the C&B workspace's static checks
//!
//! The paper's guarantees rest on semantic facts: constraints are
//! well-scoped, the chase terminates, and emitted plans are valid and
//! bounded. This crate checks them, in two prongs, and runs them over the
//! suite as tests (`cargo test --release -q -p cnb-analyze`):
//!
//! - [`validate`]: a semantic validator over the IR. Queries and
//!   constraints (the scoping rule, which lives in [`cnb_ir::scope`], plus
//!   arity/schema agreement via the typechecker), constraint *sets*
//!   (through `cnb_core::strata::certify`, the weak-acyclicity check every
//!   optimizer runs at construction), and physical plans (binding-order
//!   soundness plus join-connectivity analysis that rejects cross-product
//!   shapes statically).
//! - [`agm`]: the AGM-bound plan certifier — exact rational fractional
//!   edge covers (the checked-arithmetic solver lives in
//!   [`cnb_ir::cover`]) over [`cnb_ir::hypergraph`] exports, certifying
//!   each left-deep plan's worst binding-order prefix — and each
//!   generic-join twin's full-query exponent — against its query's bound;
//!   cyclic shapes the WCOJ operator now covers report `wcoj-closed`,
//!   shapes no emitted plan can meet report `wcoj-needed`.
//!
//! [`suite::validate_suite`] is the one pass over the suite: it optimizes
//! each workload once and validates and certifies its plans.
//!
//! The determinism rules are not here: `clippy.toml` is the one ban list
//! and `cargo clippy --all-targets -- -D warnings` its one enforcer
//! (`tests/workspace_clean.rs` pins the sanctions per crate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agm;
pub mod suite;
pub mod validate;

/// One-stop imports.
pub mod prelude {
    pub use crate::agm::{plan_agm, plan_agm_wcoj, Verdict};
    pub use crate::suite::validate_suite;
    pub use crate::validate::{
        join_components, validate_constraint, validate_plan, validate_query, validate_schema,
        ValidateError,
    };
    pub use cnb_ir::cover::{CoverError, Rat};
}
