//! Path expressions — the terms of the path-conjunctive language.
//!
//! A path is built from a variable or constant by field projection (`r.A`),
//! dictionary lookup (`I[k]`) and struct construction
//! (`struct(A = s.A, B = 3)`). Paths are what where-clauses equate, what
//! select-clauses output, and (for set-valued paths like `M[k].N`) what
//! from-clauses may range over.

use std::fmt;

use crate::print::{dollar, Printer};
use crate::symbol::Symbol;
use crate::value::Value;

/// A query or constraint variable.
///
/// Variables are allocated from their owning [`crate::query::Query`] or
/// [`crate::constraint::Constraint`] and are only meaningful within it (or
/// within queries derived from it, such as subqueries and chase results).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Var(pub u32);

impl Var {
    /// Dense index for side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A path expression.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PathExpr {
    /// A variable.
    Var(Var),
    /// A constant.
    Const(Value),
    /// Field projection `base.field`.
    Field(Box<PathExpr>, Symbol),
    /// Dictionary lookup `Dict[key]`; the symbol names a schema dictionary.
    Lookup(Symbol, Box<PathExpr>),
    /// Struct construction `struct(f1 = p1, ..., fn = pn)`.
    MkStruct(Vec<(Symbol, PathExpr)>),
}

impl PathExpr {
    /// `self.field`
    pub fn dot(self, field: impl Into<Symbol>) -> PathExpr {
        PathExpr::Field(Box::new(self), field.into())
    }

    /// `dict[self]`
    pub fn lookup_in(self, dict: impl Into<Symbol>) -> PathExpr {
        PathExpr::Lookup(dict.into(), Box::new(self))
    }

    /// The variable at the root of this path, if any. Struct constructors may
    /// have several roots; this returns the first.
    pub fn root_var(&self) -> Option<Var> {
        match self {
            PathExpr::Var(v) => Some(*v),
            PathExpr::Const(_) => None,
            PathExpr::Field(base, _) => base.root_var(),
            PathExpr::Lookup(_, key) => key.root_var(),
            PathExpr::MkStruct(fields) => fields.iter().find_map(|(_, p)| p.root_var()),
        }
    }

    /// Collects every variable mentioned anywhere in the path.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    /// Appends every variable mentioned in the path to `out` (may duplicate).
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            PathExpr::Var(v) => out.push(*v),
            PathExpr::Const(_) => {}
            PathExpr::Field(base, _) => base.collect_vars(out),
            PathExpr::Lookup(_, key) => key.collect_vars(out),
            PathExpr::MkStruct(fields) => {
                for (_, p) in fields {
                    p.collect_vars(out);
                }
            }
        }
    }

    /// True if every variable of the path satisfies `pred`.
    pub fn vars_all(&self, pred: &mut impl FnMut(Var) -> bool) -> bool {
        match self {
            PathExpr::Var(v) => pred(*v),
            PathExpr::Const(_) => true,
            PathExpr::Field(base, _) => base.vars_all(pred),
            PathExpr::Lookup(_, key) => key.vars_all(pred),
            PathExpr::MkStruct(fields) => fields.iter().all(|(_, p)| p.vars_all(pred)),
        }
    }

    /// Rewrites every variable through `f`, leaving the shape intact.
    pub fn map_vars(&self, f: &mut impl FnMut(Var) -> PathExpr) -> PathExpr {
        match self {
            PathExpr::Var(v) => f(*v),
            PathExpr::Const(c) => PathExpr::Const(c.clone()),
            PathExpr::Field(base, field) => PathExpr::Field(Box::new(base.map_vars(f)), *field),
            PathExpr::Lookup(dict, key) => PathExpr::Lookup(*dict, Box::new(key.map_vars(f))),
            PathExpr::MkStruct(fields) => PathExpr::MkStruct(
                fields
                    .iter()
                    .map(|(name, p)| (*name, p.map_vars(f)))
                    .collect(),
            ),
        }
    }

    /// Rewrites every constant through `f`, leaving the shape intact — the
    /// dual of [`PathExpr::map_vars`]. The serving path uses this twice:
    /// lifting constants into [`Value::Param`] placeholders when a query is
    /// templated, and substituting the actual values back into a cached
    /// plan at bind time.
    pub fn map_consts(&self, f: &mut impl FnMut(&Value) -> Value) -> PathExpr {
        match self {
            PathExpr::Var(v) => PathExpr::Var(*v),
            PathExpr::Const(c) => PathExpr::Const(f(c)),
            PathExpr::Field(base, field) => PathExpr::Field(Box::new(base.map_consts(f)), *field),
            PathExpr::Lookup(dict, key) => PathExpr::Lookup(*dict, Box::new(key.map_consts(f))),
            PathExpr::MkStruct(fields) => PathExpr::MkStruct(
                fields
                    .iter()
                    .map(|(name, p)| (*name, p.map_consts(f)))
                    .collect(),
            ),
        }
    }

    /// Calls `f` on every constant, in [`PathExpr::map_consts`] order,
    /// without rebuilding the path.
    pub fn visit_consts(&self, f: &mut impl FnMut(&Value)) {
        match self {
            PathExpr::Var(_) => {}
            PathExpr::Const(c) => f(c),
            PathExpr::Field(base, _) => base.visit_consts(f),
            PathExpr::Lookup(_, key) => key.visit_consts(f),
            PathExpr::MkStruct(fields) => fields.iter().for_each(|(_, p)| p.visit_consts(f)),
        }
    }

    /// Number of AST nodes; used as a crude complexity measure.
    pub fn size(&self) -> usize {
        match self {
            PathExpr::Var(_) | PathExpr::Const(_) => 1,
            PathExpr::Field(base, _) => 1 + base.size(),
            PathExpr::Lookup(_, key) => 1 + key.size(),
            PathExpr::MkStruct(fields) => 1 + fields.iter().map(|(_, p)| p.size()).sum::<usize>(),
        }
    }
}

impl From<Var> for PathExpr {
    fn from(v: Var) -> PathExpr {
        PathExpr::Var(v)
    }
}

impl From<Value> for PathExpr {
    fn from(v: Value) -> PathExpr {
        PathExpr::Const(v)
    }
}

impl From<i64> for PathExpr {
    fn from(v: i64) -> PathExpr {
        PathExpr::Const(Value::Int(v))
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Printer::new(f, dollar).path(self)
    }
}

/// An equality between two paths — the only predicate of the language
/// (the chase technique handles equality conditions only; paper §8).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Equality {
    /// Left-hand side.
    pub lhs: PathExpr,
    /// Right-hand side.
    pub rhs: PathExpr,
}

impl Equality {
    /// Builds `lhs = rhs`.
    pub fn new(lhs: impl Into<PathExpr>, rhs: impl Into<PathExpr>) -> Equality {
        Equality {
            lhs: lhs.into(),
            rhs: rhs.into(),
        }
    }

    /// All variables of both sides.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = self.lhs.vars();
        self.rhs.collect_vars(&mut out);
        out
    }

    /// Rewrites both sides through `f`.
    pub fn map_vars(&self, f: &mut impl FnMut(Var) -> PathExpr) -> Equality {
        Equality {
            lhs: self.lhs.map_vars(f),
            rhs: self.rhs.map_vars(f),
        }
    }
}

impl fmt::Display for Equality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Printer::new(f, dollar).conjunction(std::slice::from_ref(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    #[test]
    fn builders_and_display() {
        let r = Var(0);
        let p = PathExpr::from(r).dot("A");
        assert_eq!(p.to_string(), "$0.A");
        let l = PathExpr::from(Var(1)).lookup_in("I").dot("E");
        assert_eq!(l.to_string(), "I[$1].E");
    }

    #[test]
    fn root_var_and_vars() {
        let p = PathExpr::from(Var(3)).dot("A").dot("B");
        assert_eq!(p.root_var(), Some(Var(3)));
        assert_eq!(p.vars(), vec![Var(3)]);
        let s = PathExpr::MkStruct(vec![
            (sym("A"), PathExpr::from(Var(1)).dot("A")),
            (sym("B"), PathExpr::from(2i64)),
            (sym("C"), PathExpr::from(Var(2))),
        ]);
        assert_eq!(s.root_var(), Some(Var(1)));
        assert_eq!(s.vars(), vec![Var(1), Var(2)]);
        assert_eq!(PathExpr::from(5i64).root_var(), None);
    }

    #[test]
    fn map_vars_substitution() {
        let p = PathExpr::from(Var(0)).dot("A");
        let q = p.map_vars(&mut |_| PathExpr::from(Var(7)));
        assert_eq!(q, PathExpr::from(Var(7)).dot("A"));
    }

    #[test]
    fn map_consts_substitution() {
        let p = PathExpr::MkStruct(vec![
            (sym("A"), PathExpr::from(Var(1)).dot("A")),
            (sym("B"), PathExpr::from(Value::Param(0)).dot("F")),
        ]);
        let q = p.map_consts(&mut |c| match c {
            Value::Param(0) => Value::Int(42),
            other => other.clone(),
        });
        assert_eq!(
            q,
            PathExpr::MkStruct(vec![
                (sym("A"), PathExpr::from(Var(1)).dot("A")),
                (sym("B"), PathExpr::from(Value::Int(42)).dot("F")),
            ])
        );
    }

    #[test]
    fn equality_vars() {
        let e = Equality::new(
            PathExpr::from(Var(0)).dot("A"),
            PathExpr::from(Var(1)).dot("B"),
        );
        assert_eq!(e.vars(), vec![Var(0), Var(1)]);
        assert_eq!(e.to_string(), "$0.A = $1.B");
    }

    #[test]
    fn size_counts_nodes() {
        let p = PathExpr::from(Var(0)).dot("A").dot("B");
        assert_eq!(p.size(), 3);
        let s = PathExpr::MkStruct(vec![(sym("A"), PathExpr::from(Var(0)))]);
        assert_eq!(s.size(), 2);
    }

    #[test]
    fn vars_all_predicate() {
        let p = PathExpr::MkStruct(vec![
            (sym("A"), PathExpr::from(Var(1))),
            (sym("B"), PathExpr::from(Var(2))),
        ]);
        assert!(p.vars_all(&mut |v| v.0 >= 1));
        assert!(!p.vars_all(&mut |v| v.0 >= 2));
    }
}
