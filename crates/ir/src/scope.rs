//! The scoping rule of path-conjunctive queries and embedded dependencies.
//!
//! The paper's language (§2, Appendix A) is defined by one discipline: a
//! binding's range mentions only variables bound *earlier*, no variable is
//! bound twice, and every other clause — where, select, premise,
//! conclusion — mentions only variables in scope where it stands. Chase
//! soundness presupposes it. [`Scope`] is that rule, written once;
//! [`crate::query::Query::validate`] and
//! [`crate::constraint::Constraint::validate`] are a few calls into it, and
//! everything that rejects an ill-formed input (parser, executor, serving
//! frontend, static analyzer) reports the [`ScopeError`] it returns.

use std::fmt;

use crate::fxhash::FxHashSet;
use crate::path::{Equality, PathExpr, Var};
use crate::query::{Binding, Range};
use crate::symbol::Symbol;

/// Where in a query or constraint a scoping defect sits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clause {
    /// A query's from-clause (binding ranges).
    From,
    /// A query's where-clause.
    Where,
    /// A query's select-clause: the output with this label.
    Select(Symbol),
    /// A constraint's universally quantified bindings.
    Universal,
    /// A constraint's premise — only universal variables are in scope.
    Premise,
    /// A constraint's existentially quantified bindings.
    Existential,
    /// A constraint's conclusion.
    Conclusion,
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Clause::From => write!(f, "from-clause"),
            Clause::Where => write!(f, "where-clause"),
            Clause::Select(label) => write!(f, "select-clause (output {label})"),
            Clause::Universal => write!(f, "universal part"),
            Clause::Premise => write!(f, "premise"),
            Clause::Existential => write!(f, "existential part"),
            Clause::Conclusion => write!(f, "conclusion"),
        }
    }
}

/// A violation of the scoping rule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScopeError {
    /// `clause` mentions a variable that is not in scope there. In a
    /// premise this includes existential variables: they are bound, but
    /// only after the premise.
    Unbound {
        /// The offending clause.
        clause: Clause,
        /// The out-of-scope variable.
        var: Var,
    },
    /// The range of `binding` mentions a variable its own binding list
    /// binds at or after it — unsound as a binding order.
    ForwardReference {
        /// Display name of the binding whose range looks ahead.
        binding: Symbol,
        /// The variable bound too late.
        var: Var,
    },
    /// `binding` binds a variable that is already in scope.
    Duplicate {
        /// Display name of the second binding.
        binding: Symbol,
    },
}

impl fmt::Display for ScopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScopeError::Unbound {
                clause: Clause::Premise,
                var,
            } => write!(f, "premise mentions non-universal variable ${}", var.0),
            ScopeError::Unbound { clause, var } => {
                write!(f, "{clause} mentions unbound variable ${}", var.0)
            }
            ScopeError::ForwardReference { binding, var } => write!(
                f,
                "range of {binding} mentions ${}, a variable bound later",
                var.0
            ),
            ScopeError::Duplicate { binding } => write!(f, "variable {binding} bound twice"),
        }
    }
}

impl std::error::Error for ScopeError {}

/// The variables in scope so far. Bind each binding list in order with
/// [`Scope::bind`]; check every other clause where it stands with
/// [`Scope::check`] / [`Scope::check_all`].
#[derive(Default)]
pub struct Scope {
    bound: FxHashSet<Var>,
}

impl Scope {
    /// Brings `bindings` into scope in order. Each range may mention only
    /// variables already in scope, and each bound variable must be new.
    pub fn bind(&mut self, clause: Clause, bindings: &[Binding]) -> Result<(), ScopeError> {
        for (i, b) in bindings.iter().enumerate() {
            let unbound = match &b.range {
                Range::Expr(p) => self.first_unbound(p),
                Range::Name(_) | Range::Dom(_) => None,
            };
            if let Some(var) = unbound {
                let binding = b.name;
                return Err(if bindings[i..].iter().any(|later| later.var == var) {
                    ScopeError::ForwardReference { binding, var }
                } else {
                    ScopeError::Unbound { clause, var }
                });
            }
            if !self.bound.insert(b.var) {
                return Err(ScopeError::Duplicate { binding: b.name });
            }
        }
        Ok(())
    }

    /// Checks that `path` mentions only variables in scope.
    pub fn check(&self, clause: Clause, path: &PathExpr) -> Result<(), ScopeError> {
        match self.first_unbound(path) {
            Some(var) => Err(ScopeError::Unbound { clause, var }),
            None => Ok(()),
        }
    }

    /// [`Scope::check`] on both sides of every equality of a conjunction.
    pub fn check_all(&self, clause: Clause, eqs: &[Equality]) -> Result<(), ScopeError> {
        eqs.iter()
            .flat_map(|eq| [&eq.lhs, &eq.rhs])
            .try_for_each(|p| self.check(clause, p))
    }

    fn first_unbound(&self, path: &PathExpr) -> Option<Var> {
        let mut missing = None;
        path.vars_all(&mut |v| {
            let ok = self.bound.contains(&v);
            if !ok {
                missing = Some(v);
            }
            ok
        });
        missing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::query::Query;
    use crate::symbol::sym;

    fn binding(var: u32, name: &str, range: Range) -> Binding {
        Binding {
            var: Var(var),
            name: sym(name),
            range,
        }
    }

    /// `M[$v].N` — a set-valued range over variable `v`.
    fn over(v: u32) -> Range {
        Range::Expr(PathExpr::from(Var(v)).lookup_in("M").dot("N"))
    }

    fn rel(name: &str) -> Range {
        Range::Name(sym(name))
    }

    /// `select struct(A = r.A) from R r where r.A = 0`, then `f` breaks it.
    fn query(f: impl FnOnce(&mut Query)) -> Result<(), ScopeError> {
        let mut q = Query::new();
        let r = q.bind("r", rel("R"));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(0i64));
        q.output("A", PathExpr::from(r).dot("A"));
        f(&mut q);
        q.validate()
    }

    /// `forall (r in R) r.A = 0 => exists (s in S) r.A = s.A`, then `f`
    /// breaks it.
    fn constraint(f: impl FnOnce(&mut Constraint)) -> Result<(), ScopeError> {
        let mut c = Constraint::new("c");
        let r = c.forall("r", rel("R"));
        c.given(PathExpr::from(r).dot("A"), PathExpr::from(0i64));
        let s = c.exists("s", rel("S"));
        c.then(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
        f(&mut c);
        c.validate()
    }

    fn unbound(clause: Clause, var: u32) -> Result<(), ScopeError> {
        Err(ScopeError::Unbound {
            clause,
            var: Var(var),
        })
    }

    fn forward(binding: &str, var: u32) -> Result<(), ScopeError> {
        Err(ScopeError::ForwardReference {
            binding: sym(binding),
            var: Var(var),
        })
    }

    fn duplicate(binding: &str) -> Result<(), ScopeError> {
        Err(ScopeError::Duplicate {
            binding: sym(binding),
        })
    }

    #[test]
    fn well_formed_controls_pass() {
        assert_eq!(query(|_| {}), Ok(()));
        assert_eq!(constraint(|_| {}), Ok(()));
        // A range over an earlier binding is the legal dependent shape.
        assert_eq!(query(|q| q.from.push(binding(1, "o", over(0)))), Ok(()));
    }

    #[test]
    fn query_unbound_by_clause() {
        assert_eq!(
            query(|q| q.from.push(binding(1, "o", over(99)))),
            unbound(Clause::From, 99)
        );
        // Either side of an equality; struct fields are searched too.
        assert_eq!(
            query(|q| q.equate(PathExpr::from(Var(98)).dot("K"), PathExpr::from(1i64))),
            unbound(Clause::Where, 98)
        );
        assert_eq!(
            query(|q| q.equate(
                PathExpr::from(1i64),
                PathExpr::MkStruct(vec![(sym("F"), PathExpr::from(Var(97)))])
            )),
            unbound(Clause::Where, 97)
        );
        assert_eq!(
            query(|q| q.output("X", PathExpr::from(Var(96)).dot("N"))),
            unbound(Clause::Select(sym("X")), 96)
        );
    }

    #[test]
    fn query_forward_reference_names_the_binding_and_the_variable() {
        // `k` ranges over `o`, bound one entry later.
        assert_eq!(
            query(|q| q
                .from
                .extend([binding(1, "k", over(2)), binding(2, "o", rel("R"))])),
            forward("k", 2)
        );
        // A range over its own variable looks ahead too.
        assert_eq!(
            query(|q| q.from.push(binding(1, "k", over(1)))),
            forward("k", 1)
        );
    }

    #[test]
    fn query_duplicate_binding() {
        assert_eq!(
            query(|q| q.from.push(binding(0, "r2", rel("S")))),
            duplicate("r2")
        );
        // The case the old `unreachable!` arm sat behind: a variable bound
        // twice with a range over it in between (and after) — the range
        // sees the first binding, the second binding is the error.
        assert_eq!(
            query(|q| q.from.extend([
                binding(1, "o", over(0)),
                binding(0, "r2", rel("S")),
                binding(2, "p", over(0)),
            ])),
            duplicate("r2")
        );
    }

    #[test]
    fn constraint_unbound_by_clause() {
        assert_eq!(
            constraint(|c| c.universal.push(binding(5, "u", over(99)))),
            unbound(Clause::Universal, 99)
        );
        // An existential variable is not yet in scope for a universal
        // range, nor for the premise.
        assert_eq!(
            constraint(|c| c.universal.push(binding(5, "u", over(1)))),
            unbound(Clause::Universal, 1)
        );
        assert_eq!(
            constraint(|c| c.given(PathExpr::from(Var(1)).dot("A"), PathExpr::from(0i64))),
            unbound(Clause::Premise, 1)
        );
        assert_eq!(
            constraint(|c| c.existential.push(binding(5, "e", over(98)))),
            unbound(Clause::Existential, 98)
        );
        assert_eq!(
            constraint(|c| c.then(PathExpr::from(Var(0)), PathExpr::from(Var(7)).dot("K"))),
            unbound(Clause::Conclusion, 7)
        );
    }

    #[test]
    fn constraint_forward_reference_in_either_quantifier_list() {
        assert_eq!(
            constraint(|c| c
                .universal
                .extend([binding(5, "u", over(6)), binding(6, "v", rel("R"))])),
            forward("u", 6)
        );
        assert_eq!(
            constraint(|c| c
                .existential
                .extend([binding(5, "e", over(6)), binding(6, "f", rel("S"))])),
            forward("e", 6)
        );
        // Existential ranges over universal and earlier existential
        // variables are legal.
        assert_eq!(
            constraint(|c| c
                .existential
                .extend([binding(5, "e", over(0)), binding(6, "f", over(5))])),
            Ok(())
        );
    }

    #[test]
    fn constraint_duplicate_binding_within_and_across_quantifier_lists() {
        assert_eq!(
            constraint(|c| c.universal.push(binding(0, "r2", rel("R")))),
            duplicate("r2")
        );
        assert_eq!(
            constraint(|c| c.existential.push(binding(1, "s2", rel("S")))),
            duplicate("s2")
        );
        // An existential may not rebind a universal variable.
        assert_eq!(
            constraint(|c| c.existential.push(binding(0, "r2", rel("S")))),
            duplicate("r2")
        );
    }

    #[test]
    fn errors_render_the_clause_and_the_variable() {
        let show = |r: Result<(), ScopeError>| r.unwrap_err().to_string();
        assert_eq!(
            show(unbound(Clause::Select(sym("X")), 99)),
            "select-clause (output X) mentions unbound variable $99"
        );
        assert_eq!(
            show(unbound(Clause::Premise, 1)),
            "premise mentions non-universal variable $1"
        );
        assert_eq!(
            show(forward("k", 2)),
            "range of k mentions $2, a variable bound later"
        );
        assert_eq!(show(duplicate("r2")), "variable r2 bound twice");
    }
}
