//! # cnb-core — the Chase & Backchase optimizer
//!
//! Implements the two phases of the C&B technique of *"A Chase Too Far?"*:
//!
//! * [`chase`] — rewrite a query forward with all applicable constraints into
//!   a *universal plan* mentioning every relevant physical structure;
//! * [`backchase`] — walk the subqueries of the universal plan top-down,
//!   removing bindings justified by constraint implication, emitting the
//!   minimal equivalent subqueries as plans.
//!
//! plus the two stratification strategies that make the backchase practical:
//! [`fragments`] (on-line query fragmentation, OQF, §3.2.1) and [`strata`]
//! (off-line constraint stratification, OCS, §3.2.2), tied together by the
//! [`optimizer`] facade, which certifies its constraint set once, at
//! construction, with [`strata::certify`]. Both searches are sequential
//! and remember what they prove (the borders of [`backchase`]); a
//! [`memo::SkeletonMemo`] keeps those borders from one top-down search to
//! the next over the same query skeleton. Nothing in this crate spawns a
//! thread — the one pool serves batches of requests in `cnb-engine`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod backchase;
pub mod bitset;
pub mod bottomup;
pub mod canon;
pub mod chase;
pub mod congruence;
pub mod cost;
pub mod derivations;
pub mod equivalence;
pub mod fragments;
pub mod homomorphism;
pub mod memo;
pub mod optimizer;
pub mod serving;
pub mod strata;
pub mod subquery;

// `fxhash` moved to `cnb-ir` (so the IR's own maps can use it without a
// dependency cycle); this re-export keeps the long-standing path alive.
pub use cnb_ir::fxhash;

/// One-stop imports.
pub mod prelude {
    pub use crate::backchase::{
        chase_and_backchase, chase_and_backchase_runs, BackchaseConfig, BackchaseResult,
    };
    pub use crate::bitset::{Border, VarSet};
    pub use crate::bottomup::bottom_up_backchase;
    pub use crate::canon::CanonDb;
    pub use crate::chase::{chase, chase_query, ChaseConfig, ChaseStats};
    pub use crate::congruence::{Congruence, Savepoint, TermId, TermNode};
    pub use crate::cost::{wcoj_candidate, CostModel, PlanPricer, WcojAwarePricer};
    pub use crate::equivalence::{same_plan, EquivChecker};
    pub use crate::fragments::{decompose, Fragment};
    pub use crate::fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
    pub use crate::homomorphism::{find_homs, HomConfig, HomMap};
    pub use crate::memo::SkeletonMemo;
    pub use crate::optimizer::{
        plan_price, OptimizeResult, Optimizer, OptimizerConfig, PlanInfo, Strategy,
    };
    pub use crate::serving::{
        bind_params, constraint_digest, parameterize, unbound_param, CachedPlans, Fingerprint,
        ParameterizedQuery, PlanCache,
    };
    pub use crate::strata::{certify, regroup, stratify, CertifyError};
    pub use crate::subquery::{all_bindings, induce_subquery, induce_subquery_pure, load_subquery};
}
