//! # cnb-ir — the path-conjunctive language of the C&B optimizer
//!
//! This crate defines the intermediate representation shared by every other
//! crate in the workspace: values, types, path expressions, queries,
//! embedded dependencies (constraints), schemas, and an OQL-like surface
//! parser, reproducing the language of *"A Chase Too Far?"* (Popa, Deutsch,
//! Sahuguet, Tannen).
//!
//! The language is ODMG OQL/ODL extended with dictionary operations:
//! `dom M` (the key set of a dictionary) and `M[k]` (lookup). Dictionaries
//! model indexes, class extents and access support relations, which lets one
//! language describe logical queries, physical plans *and* the constraints
//! connecting them (Appendix A of the paper).
//!
//! ## Quick tour
//!
//! ```
//! use cnb_ir::prelude::*;
//!
//! // select struct(A = r.A) from R r, S s where r.A = s.A
//! let mut q = Query::new();
//! let r = q.bind("r", Range::Name(sym("R")));
//! let s = q.bind("s", Range::Name(sym("S")));
//! q.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
//! q.output("A", PathExpr::from(r).dot("A"));
//! assert_eq!(q.arity(), 2);
//!
//! // forall (r in R) exists (s in S) r.A = s.A
//! let mut ric = Constraint::new("RIC");
//! let r = ric.forall("r", Range::Name(sym("R")));
//! let s = ric.exists("s", Range::Name(sym("S")));
//! ric.then(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
//! assert_eq!(ric.kind(), ConstraintKind::Tgd);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod constraint;
pub mod cover;
pub mod fxhash;
pub mod hypergraph;
pub mod parser;
pub mod path;
pub mod physical;
mod print;
pub mod query;
pub mod schema;
pub mod scope;
pub mod symbol;
pub mod typecheck;
pub mod types;
pub mod unionfind;
pub mod value;

/// One-stop imports for downstream crates.
pub mod prelude {
    pub use crate::constraint::{Constraint, ConstraintKind, PhysicalSpec, Skeleton};
    pub use crate::cover::{cover_lp, verify_cover, CoverError, CoverLp, Rat};
    pub use crate::fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
    pub use crate::hypergraph::{
        generic_join_supported, prefix_hypergraph, query_hypergraph, subset_hypergraph, wcoj_gap,
        weighted_cover, worst_prefix, CoverEdge, ExecStrategy, HyperEdge, QueryHypergraph,
        WcojAnalysis,
    };
    pub use crate::parser::{parse_constraint, parse_query, ParseError};
    pub use crate::path::{Equality, PathExpr, Var};
    pub use crate::physical::{
        add_composite_index, add_materialized_view, add_primary_index, add_secondary_index,
        foreign_key, inverse_relationship, key_constraint,
    };
    pub use crate::query::{Binding, Query, Range, RangeShape};
    pub use crate::schema::{CollType, Decl, Layer, Schema};
    pub use crate::scope::{Clause, ScopeError};
    pub use crate::symbol::{sym, Symbol};
    pub use crate::typecheck::{check_constraint, check_query, TypeEnv};
    pub use crate::types::Type;
    pub use crate::value::Value;
}
