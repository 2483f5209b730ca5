//! # cnb-workloads — the workload suite
//!
//! Generators for five experimental configuration families, all behind the
//! unified [`Workload`] trait (schema + constraints + queries + seeded data
//! generation + expected plan/row invariants):
//!
//! * **EC1–EC3** — the paper's §5.1 configurations (relational chains with
//!   indexes; chain-of-stars with materialized views and keys;
//!   object-oriented navigation with inverse constraints and ASRs), plus
//!   the motivating examples of §2.
//! * **EC4** — a TPC-style star schema: fact + dimension tables, fact–dim
//!   materialized views and FK indexes as backchase constraints.
//! * **EC5** — cyclic join shapes (triangle, 4-cycle, cliques, paths) over
//!   an edge relation, with a materialized wedge view and uniform/skewed
//!   graph generators.
//!
//! [`workload::suite`] returns the canonical instance of every family for
//! generic golden/differential/smoke suites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ec1;
pub mod ec2;
pub mod ec3;
pub mod ec4;
pub mod ec5;
pub mod examples;
pub mod workload;

pub use ec1::Ec1;
pub use ec2::Ec2;
pub use ec3::Ec3;
pub use ec4::Ec4;
pub use ec5::Ec5;
pub use examples::{Example21, Example22};
pub use workload::{suite, AgmExpectation, DataScale, Expectations, Workload};
