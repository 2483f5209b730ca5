//! # cnb-engine — the in-memory execution substrate
//!
//! The paper executed its plans on IBM DB2 6.1 (§5.4); this crate is the
//! from-scratch substitute: in-memory tables and insertion-ordered
//! dictionaries, physical structure materialization driven by skeleton
//! specs, a **batched** (column-at-a-time) executor with build/probe hash
//! joins and greedy join ordering, and a seeded data generator with
//! controlled join selectivities. Relative plan execution times — the only
//! thing figs. 9 and 10 depend on — are preserved, and output row order is
//! a pure function of `(database, plan)`: every hash table is keyed by the
//! deterministic [`cnb_core::fxhash`] and probed in first-insertion order
//! (see [`eval`]). Observed per-operator cardinalities feed back into the
//! optimizer's cost model via [`eval::feed_cost_model`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

mod batch;
pub mod clock;
pub mod database;
pub mod datagen;
pub mod error;
pub mod eval;
mod join;
mod pool;
pub mod pressure;
pub mod prng;
pub mod serving;
pub mod wcoj;

pub use clock::{Clock, VirtualClock, WallClock};
pub use database::{Database, OrderedDict};
pub use error::{ExecError, ServeError};
pub use eval::{
    execute, execute_legacy, execute_wcoj, feed_cost_model, ExecResult, ExecStats, OpStats,
};
pub use pressure::{FaultPlan, ServeConfig};
pub use serving::{PlanServer, PlanSource, PressureTally, ServeOutcome, ServedPlan, ServedResult};
pub use wcoj::cmp_value;
