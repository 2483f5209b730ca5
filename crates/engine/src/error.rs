//! Typed engine and serving errors.
//!
//! Two layers, matching the two halves of the crate:
//!
//! * [`ExecError`] — what can go wrong *executing one plan*: an ill-formed
//!   query, an unbound `?k` parameter placeholder, a join order that cannot
//!   be scheduled, a row missing an attribute during physical
//!   materialization, or an intermediate result too large for row ids.
//! * [`ServeError`] — what can go wrong *serving a request under pressure*:
//!   the server's constraint set was refused at construction, admission
//!   control rejected it over budget, its deadline expired before (or
//!   during) dispatch, a seeded fault failed it, or execution itself failed
//!   ([`ServeError::Exec`]).
//!
//! Variants carry structured fields, so callers match on the enum instead
//! of substring-matching a rendered message — a shed request is
//! `ServeError::Rejected { .. }`, not a string that happens to contain
//! "budget", and an ill-formed one is
//! `ExecError::InvalidQuery(ScopeError::Unbound { clause, var })`, the
//! [`cnb_ir::scope`] violation itself. Both types render human-readable
//! messages through `Display` for logs and panics.

use std::fmt;

use cnb_core::strata::CertifyError;
use cnb_ir::prelude::{ScopeError, Symbol};

/// An execution-engine failure for one (database, plan) pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The query failed [`cnb_ir::prelude::Query::validate`]: the scoping
    /// violation, by clause and variable or binding.
    InvalidQuery(ScopeError),
    /// The query still contains the `?k` parameter placeholder: the serving
    /// path's bind step was skipped or the parameter vector was too short.
    UnboundParam(u32),
    /// The join planner found no binding it can evaluate next (cyclic range
    /// dependencies).
    NoEvaluableBinding,
    /// A row of `relation` lacks an attribute a physical structure is built
    /// on: a primary, composite or secondary index key.
    MissingAttribute {
        /// The relation being materialized.
        relation: Symbol,
        /// The missing attribute.
        attribute: Symbol,
    },
    /// The generic-join (WCOJ) executor was asked to run a query outside
    /// its supported shape: a binding that does not range over a named
    /// relation, or an equality side that is not a flat `binding.attr`
    /// term or constant. The optimizer's WCOJ plan twins are gated on the
    /// same shape check, so reaching this from a planned execution is a
    /// dispatch bug.
    GenericJoinUnsupported(String),
    /// An intermediate result or a build-side table outgrew the executor's
    /// 32-bit row ids. The request fails as a whole; no rows are returned.
    RowIdOverflow {
        /// What was being numbered (`"batch"`, a build table, …).
        what: &'static str,
        /// How many rows it had.
        rows: usize,
        /// The largest count row ids can address.
        limit: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InvalidQuery(e) => write!(f, "invalid query: {e}"),
            ExecError::UnboundParam(k) => write!(
                f,
                "query contains unbound parameter ?{k}; bind parameters before executing"
            ),
            ExecError::NoEvaluableBinding => {
                write!(f, "no evaluable binding (cyclic range dependencies?)")
            }
            ExecError::MissingAttribute {
                relation,
                attribute,
            } => write!(f, "{relation} row lacks attribute {attribute}"),
            ExecError::GenericJoinUnsupported(msg) => {
                write!(f, "generic join unsupported: {msg}")
            }
            ExecError::RowIdOverflow { what, rows, limit } => {
                write!(f, "{what} of {rows} rows exceeds the row-id limit {limit}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// A serving-path failure for one request of a batch.
///
/// Every pressure mechanism surfaces here as a typed, deterministic
/// decision — never a panic, never partial rows: a request either returns
/// its full row set or exactly one of these variants.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// Admission control: the request's (cached or freshly optimized) plan
    /// priced over the configured cost budget and was shed before dispatch.
    Rejected {
        /// The plan's estimated cost under the server's [`cnb_core::cost::CostModel`].
        cost: f64,
        /// The configured admission budget it exceeded.
        budget: f64,
    },
    /// The request's deadline passed before it was dispatched, or the batch
    /// deadline expired while it was still queued on the executor pool (its
    /// slot was never evaluated — no partial rows exist).
    DeadlineExpired,
    /// A seeded fault failed this request before it executed.
    FaultInjected {
        /// Request index within the batch.
        request: usize,
    },
    /// Execution of the (admitted, in-deadline, non-faulted) plan failed.
    Exec(ExecError),
    /// The server's optimizer refused its constraint set at construction
    /// ([`cnb_core::optimizer::Optimizer::certified`]): a chase with it may
    /// not terminate, or may read a variable out of scope. Every request is
    /// refused, before it is planned.
    Uncertified(CertifyError),
}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> ServeError {
        ServeError::Exec(e)
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected { cost, budget } => write!(
                f,
                "admission rejected: plan cost {cost:.1} exceeds budget {budget:.1}"
            ),
            ServeError::DeadlineExpired => write!(f, "deadline expired before evaluation"),
            ServeError::FaultInjected { request } => {
                write!(f, "injected fault on request {request}")
            }
            ServeError::Exec(e) => write!(f, "execution failed: {e}"),
            ServeError::Uncertified(e) => write!(f, "constraint set refused: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Exec(e) => Some(e),
            ServeError::Uncertified(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnb_ir::prelude::sym;

    #[test]
    fn exec_error_displays() {
        assert_eq!(
            ExecError::UnboundParam(3).to_string(),
            "query contains unbound parameter ?3; bind parameters before executing"
        );
        assert_eq!(
            ExecError::MissingAttribute {
                relation: sym("R"),
                attribute: sym("K"),
            }
            .to_string(),
            "R row lacks attribute K"
        );
        assert_eq!(
            ExecError::NoEvaluableBinding.to_string(),
            "no evaluable binding (cyclic range dependencies?)"
        );
        assert_eq!(
            ExecError::InvalidQuery(ScopeError::Duplicate { binding: sym("x") }).to_string(),
            "invalid query: variable x bound twice"
        );
    }

    #[test]
    fn serve_error_displays_and_wraps() {
        let e = ServeError::Rejected {
            cost: 1200.0,
            budget: 100.0,
        };
        assert!(e.to_string().contains("1200.0"), "{e}");
        let wrapped = ServeError::from(ExecError::UnboundParam(0));
        assert_eq!(wrapped, ServeError::Exec(ExecError::UnboundParam(0)));
        assert!(std::error::Error::source(&wrapped).is_some());
        assert!(std::error::Error::source(&ServeError::DeadlineExpired).is_none());
    }

    #[test]
    fn variants_are_matchable_not_stringly() {
        // The point of the typed enum: classification by match, not by
        // substring. One arm per pressure mechanism.
        let outcomes = [
            ServeError::Rejected {
                cost: 2.0,
                budget: 1.0,
            },
            ServeError::DeadlineExpired,
            ServeError::FaultInjected { request: 4 },
            ServeError::Exec(ExecError::NoEvaluableBinding),
            ServeError::Uncertified(CertifyError::NonTerminating {
                cycle: "R.B ~> R.B".into(),
            }),
        ];
        let classes: Vec<&str> = outcomes
            .iter()
            .map(|e| match e {
                ServeError::Rejected { .. } => "rejected",
                ServeError::DeadlineExpired => "expired",
                ServeError::FaultInjected { .. } => "faulted",
                ServeError::Exec(_) => "exec",
                ServeError::Uncertified(_) => "uncertified",
            })
            .collect();
        assert_eq!(
            classes,
            vec!["rejected", "expired", "faulted", "exec", "uncertified"]
        );
    }
}
