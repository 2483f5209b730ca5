//! Path-conjunctive queries.
//!
//! A query has the OQL shape used throughout the paper:
//!
//! ```text
//! select struct(L1 = P1, ..., Lk = Pk)
//! from   Range1 x1, ..., Rangen xn
//! where  Pa = Pb and ...
//! ```
//!
//! where ranges are schema names (`R`), dictionary domains (`dom M`) or
//! set-valued paths over earlier variables (`M[k].N`).

use std::fmt;

use crate::path::{Equality, PathExpr, Var};
use crate::print::{dollar, named, Printer};
use crate::scope::{Clause, Scope, ScopeError};
use crate::symbol::Symbol;
use crate::value::Value;

/// What a from-clause binding ranges over.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Range {
    /// A named set or relation in the schema: `R x`.
    Name(Symbol),
    /// The domain of a named dictionary: `dom M k`.
    Dom(Symbol),
    /// A set-valued path over previously bound variables: `M[k].N o`.
    Expr(PathExpr),
}

impl Range {
    /// The schema name this range is anchored at: `R` for `Name(R)`, `M` for
    /// `Dom(M)`, and the dictionary of the innermost lookup for `Expr` paths
    /// (used as a fast pre-filter in homomorphism search).
    pub fn anchor(&self) -> Option<Symbol> {
        match self {
            Range::Name(s) | Range::Dom(s) => Some(*s),
            Range::Expr(p) => {
                fn anchor_of(p: &PathExpr) -> Option<Symbol> {
                    match p {
                        PathExpr::Lookup(dict, _) => Some(*dict),
                        PathExpr::Field(base, _) => anchor_of(base),
                        _ => None,
                    }
                }
                anchor_of(p)
            }
        }
    }

    /// Variables mentioned by the range (empty for `Name`/`Dom`).
    pub fn vars(&self) -> Vec<Var> {
        match self {
            Range::Name(_) | Range::Dom(_) => Vec::new(),
            Range::Expr(p) => p.vars(),
        }
    }

    /// Rewrites range variables through `f`.
    pub fn map_vars(&self, f: &mut impl FnMut(Var) -> PathExpr) -> Range {
        match self {
            Range::Name(s) => Range::Name(*s),
            Range::Dom(s) => Range::Dom(*s),
            Range::Expr(p) => Range::Expr(p.map_vars(f)),
        }
    }

    /// A structural discriminant used to pre-filter candidate bindings during
    /// homomorphism search: two ranges can only be equal (under any
    /// congruence) if their shapes agree.
    pub fn shape(&self) -> RangeShape {
        match self {
            Range::Name(s) => RangeShape::Name(*s),
            Range::Dom(s) => RangeShape::Dom(*s),
            Range::Expr(p) => RangeShape::Expr(expr_shape(p)),
        }
    }
}

/// See [`Range::shape`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum RangeShape {
    /// Named set.
    Name(Symbol),
    /// Dictionary domain.
    Dom(Symbol),
    /// Path range summarized as (anchor dictionary, trailing field labels).
    Expr(Vec<Symbol>),
}

fn expr_shape(p: &PathExpr) -> Vec<Symbol> {
    // Outer-to-inner spine of field labels and lookup dictionary names.
    let mut spine = Vec::new();
    let mut cur = p;
    loop {
        match cur {
            PathExpr::Field(base, f) => {
                spine.push(*f);
                cur = base;
            }
            PathExpr::Lookup(dict, _) => {
                spine.push(*dict);
                break;
            }
            _ => break,
        }
    }
    spine.reverse();
    spine
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Printer::new(f, dollar).range(self)
    }
}

/// One from-clause entry: `range var`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Binding {
    /// The bound variable.
    pub var: Var,
    /// Human-readable variable name (display only).
    pub name: Symbol,
    /// What the variable ranges over.
    pub range: Range,
}

impl fmt::Display for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Printer::new(f, dollar).bindings(std::slice::from_ref(self))
    }
}

/// A path-conjunctive query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Query {
    /// Output struct: ordered labeled paths.
    pub select: Vec<(Symbol, PathExpr)>,
    /// From-clause bindings, in dependency order.
    pub from: Vec<Binding>,
    /// Conjunction of equalities.
    pub where_: Vec<Equality>,
    next_var: u32,
}

impl Default for Query {
    fn default() -> Query {
        Query::new()
    }
}

impl Query {
    /// An empty query (no bindings, no output).
    pub fn new() -> Query {
        Query {
            select: Vec::new(),
            from: Vec::new(),
            where_: Vec::new(),
            next_var: 0,
        }
    }

    /// Allocates a fresh variable (display names live on bindings).
    pub fn fresh_var(&mut self) -> Var {
        let v = Var(self.next_var);
        self.next_var += 1;
        v
    }

    /// Allocates a fresh variable and immediately binds it to `range`,
    /// returning the variable.
    pub fn bind(&mut self, name: &str, range: Range) -> Var {
        let var = Var(self.next_var);
        self.next_var += 1;
        self.from.push(Binding {
            var,
            name: Symbol::new(name),
            range,
        });
        var
    }

    /// Adds `lhs = rhs` to the where-clause.
    pub fn equate(&mut self, lhs: impl Into<PathExpr>, rhs: impl Into<PathExpr>) {
        self.where_.push(Equality::new(lhs, rhs));
    }

    /// Adds an output field.
    pub fn output(&mut self, label: &str, path: impl Into<PathExpr>) {
        self.select.push((Symbol::new(label), path.into()));
    }

    /// The number of from-clause bindings ("loops" in the paper).
    pub fn arity(&self) -> usize {
        self.from.len()
    }

    /// Empties the query (bindings, conditions, outputs, variable cursor)
    /// while keeping allocated capacity — `cnb-core`'s equivalence checker
    /// rebuilds candidate databases into one recycled query this way.
    pub fn clear(&mut self) {
        self.select.clear();
        self.from.clear();
        self.where_.clear();
        self.next_var = 0;
    }

    /// Upper bound (exclusive) on variable ids allocated so far.
    pub fn var_bound(&self) -> u32 {
        self.next_var
    }

    /// Reserves variable ids so that ids below `bound` are never reallocated.
    /// Used when grafting bindings from a related query (chase, fragments).
    pub fn reserve_vars(&mut self, bound: u32) {
        self.next_var = self.next_var.max(bound);
    }

    /// The binding for `var`, if any.
    pub fn binding(&self, var: Var) -> Option<&Binding> {
        self.from.iter().find(|b| b.var == var)
    }

    /// Checks well-formedness under the scoping rule ([`crate::scope`]):
    /// ranges mention only *earlier* bindings, no variable is bound twice,
    /// and where/select paths mention only bound variables. Returns the
    /// first violation in from / where / select order.
    pub fn validate(&self) -> Result<(), ScopeError> {
        let mut scope = Scope::default();
        scope.bind(Clause::From, &self.from)?;
        scope.check_all(Clause::Where, &self.where_)?;
        self.select
            .iter()
            .try_for_each(|(label, p)| scope.check(Clause::Select(*label), p))
    }

    /// Renames every variable by adding `offset`; used when grafting plans
    /// from independently optimized fragments into one query.
    pub fn offset_vars(&self, offset: u32) -> Query {
        let mut shift = |v: Var| PathExpr::Var(Var(v.0 + offset));
        Query {
            select: self
                .select
                .iter()
                .map(|(l, p)| (*l, p.map_vars(&mut shift)))
                .collect(),
            from: self
                .from
                .iter()
                .map(|b| Binding {
                    var: Var(b.var.0 + offset),
                    name: b.name,
                    range: b.range.map_vars(&mut |v| PathExpr::Var(Var(v.0 + offset))),
                })
                .collect(),
            where_: self.where_.iter().map(|e| e.map_vars(&mut shift)).collect(),
            next_var: self.next_var + offset,
        }
    }

    /// Every path of the query that can hold a constant, in the one order
    /// the serving path numbers `?k` placeholders by: from-clause range
    /// expressions, then where-clause equalities (lhs before rhs), then
    /// select paths. [`Query::paths_mut`] is its mutable twin.
    fn paths(&self) -> impl Iterator<Item = &PathExpr> {
        let ranges = self.from.iter().filter_map(|b| match &b.range {
            Range::Expr(p) => Some(p),
            _ => None,
        });
        let sides = self.where_.iter().flat_map(|eq| [&eq.lhs, &eq.rhs]);
        ranges
            .chain(sides)
            .chain(self.select.iter().map(|(_, p)| p))
    }

    fn paths_mut(&mut self) -> impl Iterator<Item = &mut PathExpr> {
        let ranges = self.from.iter_mut().filter_map(|b| match &mut b.range {
            Range::Expr(p) => Some(p),
            _ => None,
        });
        let sides = self
            .where_
            .iter_mut()
            .flat_map(|eq| [&mut eq.lhs, &mut eq.rhs]);
        ranges
            .chain(sides)
            .chain(self.select.iter_mut().map(|(_, p)| p))
    }

    /// Rewrites every constant of the query through `f`, leaving the shape
    /// intact. Constants are visited in a fixed order (ranges, where lhs
    /// then rhs, select), so an `f` that numbers what it sees numbers
    /// structurally identical queries identically.
    pub fn map_consts(&self, f: &mut impl FnMut(&Value) -> Value) -> Query {
        let mut out = self.clone();
        for p in out.paths_mut() {
            *p = p.map_consts(f);
        }
        out
    }

    /// Calls `f` on every constant of the query, in [`Query::map_consts`]
    /// order, without cloning anything.
    pub fn visit_consts(&self, f: &mut impl FnMut(&Value)) {
        for p in self.paths() {
            p.visit_consts(f);
        }
    }

    /// A canonical string key identifying the query up to variable renaming
    /// and where/select-clause ordering, written by the printer behind
    /// `Display` with each variable named `#i` after its binding's position
    /// and the select and where entries sorted. Constants print as they
    /// parse, so two queries share a key only if they differ at most in NaN
    /// payloads. Used to deduplicate plans produced along different rewrite
    /// orders.
    pub fn canonical_key(&self) -> String {
        crate::print::canonical_key(self)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Printer::new(f, named(self.from.iter())).query(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    fn chain2() -> Query {
        // select struct(A = r1.A, B = r2.B) from R1 r1, R2 r2 where r1.B = r2.A
        let mut q = Query::new();
        let r1 = q.bind("r1", Range::Name(sym("R1")));
        let r2 = q.bind("r2", Range::Name(sym("R2")));
        q.equate(PathExpr::from(r1).dot("B"), PathExpr::from(r2).dot("A"));
        q.output("A", PathExpr::from(r1).dot("A"));
        q.output("B", PathExpr::from(r2).dot("B"));
        q
    }

    #[test]
    fn build_and_validate() {
        let q = chain2();
        assert_eq!(q.arity(), 2);
        q.validate().expect("well-formed");
    }

    /// The order placeholder numbering (and so every serving fingerprint)
    /// rests on: range expressions, where lhs then rhs, select.
    #[test]
    fn consts_are_walked_ranges_then_where_then_select() {
        let mut q = Query::new();
        let o = q.bind("o", Range::Expr(PathExpr::from(1i64).lookup_in("M")));
        q.equate(PathExpr::from(2i64), PathExpr::from(o).dot("A"));
        q.equate(PathExpr::from(o).dot("B"), PathExpr::from(3i64));
        q.output("C", PathExpr::from(4i64));
        let mut seen = Vec::new();
        q.visit_consts(&mut |v| seen.push(v.clone()));
        assert_eq!(seen, [1, 2, 3, 4].map(Value::Int));
        let mut mapped = Vec::new();
        let same = q.map_consts(&mut |v| {
            mapped.push(v.clone());
            v.clone()
        });
        assert_eq!((same, mapped), (q, seen));
    }

    #[test]
    fn display_uses_names() {
        let q = chain2();
        let s = q.to_string();
        assert!(s.contains("select struct(A = r1.A, B = r2.B)"), "{s}");
        assert!(s.contains("from R1 r1, R2 r2"), "{s}");
        assert!(s.contains("where r1.B = r2.A"), "{s}");
    }

    #[test]
    fn validate_catches_unbound_where() {
        let mut q = chain2();
        q.equate(PathExpr::Var(Var(99)), PathExpr::from(0i64));
        assert_eq!(
            q.validate(),
            Err(ScopeError::Unbound {
                clause: Clause::Where,
                var: Var(99)
            })
        );
    }

    #[test]
    fn validate_catches_forward_range_reference() {
        let mut q = Query::new();
        // k ranges over M1[o].N where o is bound *later* — invalid.
        let k = q.fresh_var();
        let o = Var(k.0 + 1); // simulate a forward reference
        q.from.push(Binding {
            var: k,
            name: sym("k"),
            range: Range::Expr(PathExpr::from(o).lookup_in("M1").dot("N")),
        });
        q.from.push(Binding {
            var: o,
            name: sym("o"),
            range: Range::Name(sym("R")),
        });
        q.reserve_vars(o.0 + 1);
        assert_eq!(
            q.validate(),
            Err(ScopeError::ForwardReference {
                binding: sym("k"),
                var: o
            })
        );
    }

    #[test]
    fn validate_catches_duplicate_binding() {
        let mut q = Query::new();
        let v = q.bind("x", Range::Name(sym("R")));
        q.from.push(Binding {
            var: v,
            name: sym("x2"),
            range: Range::Name(sym("S")),
        });
        assert_eq!(
            q.validate(),
            Err(ScopeError::Duplicate { binding: sym("x2") })
        );
    }

    #[test]
    fn range_anchor_and_shape() {
        let r = Range::Name(sym("R"));
        assert_eq!(r.anchor(), Some(sym("R")));
        let d = Range::Dom(sym("M"));
        assert_eq!(d.anchor(), Some(sym("M")));
        let e = Range::Expr(PathExpr::from(Var(0)).lookup_in("M1").dot("N"));
        assert_eq!(e.anchor(), Some(sym("M1")));
        assert_eq!(
            e.shape(),
            RangeShape::Expr(vec![sym("M1"), sym("N")]),
            "shape is the lookup/field spine"
        );
    }

    #[test]
    fn dom_range_display() {
        let mut q = Query::new();
        let k = q.bind("k", Range::Dom(sym("M1")));
        q.output("F", PathExpr::from(k));
        assert!(q.to_string().contains("dom M1 k"));
    }

    #[test]
    fn offset_vars_preserves_structure() {
        let q = chain2();
        let q2 = q.offset_vars(10);
        q2.validate().unwrap();
        assert_eq!(q2.from[0].var, Var(10));
        assert_eq!(q2.from[1].var, Var(11));
        assert_eq!(q.to_string(), q2.to_string(), "display is name-based");
    }

    #[test]
    fn canonical_key_invariant_under_renaming_and_order() {
        let q = chain2();
        let q2 = q.offset_vars(5);
        assert_eq!(q.canonical_key(), q2.canonical_key());
        // Flipping an equality or reordering where-clauses keeps the key.
        let mut q3 = q.clone();
        let e = q3.where_.pop().unwrap();
        q3.where_.push(Equality::new(e.rhs, e.lhs));
        assert_eq!(q.canonical_key(), q3.canonical_key());
        // A genuinely different query gets a different key.
        let mut q4 = q.clone();
        q4.where_.clear();
        assert_ne!(q.canonical_key(), q4.canonical_key());
        // An int and the float of the same number are different constants.
        let with = |v: Value| {
            let mut q = q.clone();
            q.output("C", PathExpr::from(v));
            q.canonical_key()
        };
        assert_ne!(with(Value::Int(7)), with(Value::Float(7.0)));
        assert_ne!(with(Value::Float(0.0)), with(Value::Float(-0.0)));
        // A quote inside a string cannot forge an entry boundary.
        let mut two = q.clone();
        two.select.clear();
        let mut one = two.clone();
        two.output("A", PathExpr::from(Value::str("a")));
        two.output("B", PathExpr::from(Value::str("b")));
        one.output("A", PathExpr::from(Value::str("a',B='b")));
        assert_ne!(two.canonical_key(), one.canonical_key());
    }

    /// Display prints the parser's literals: a float keeps its decimal
    /// point and a string doubles its quotes.
    #[test]
    fn constants_print_as_literals() {
        let mut q = chain2();
        q.output("F", PathExpr::from(Value::Float(7.0)));
        q.output("S", PathExpr::from(Value::str("it's")));
        let s = q.to_string();
        assert!(s.contains("F = 7.0, S = 'it''s'"), "{s}");
        assert!(q.canonical_key().contains("F=7.0,S='it''s'"));
    }

    #[test]
    fn clear_resets_everything() {
        let mut q = chain2();
        q.clear();
        assert_eq!(q.arity(), 0);
        assert!(q.select.is_empty() && q.where_.is_empty());
        assert_eq!(q.var_bound(), 0, "variable cursor restarts");
        let v = q.bind("x", Range::Name(sym("R")));
        assert_eq!(v, Var(0));
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut q = Query::new();
        let a = q.fresh_var();
        let b = q.fresh_var();
        assert_ne!(a, b);
        assert_eq!(q.var_bound(), 2);
    }
}
