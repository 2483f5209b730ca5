//! Canonical database representation of a query.
//!
//! Following the paper's architecture (§4), a query is compiled into `DB(Q)`:
//! a term arena plus congruence closure seeded with the from-clause bindings
//! and the where-clause equalities. Chasing a query and evaluating a
//! constraint over a small database become the same operation, and equality
//! implication checks ("does P₁ = P₂ follow from the where clause?") are
//! union-find lookups.
//!
//! The check comes in two forms. [`CanonDb::implied`] takes the two paths as
//! written. [`CanonDb::implied_mapped`] takes each path with a variable
//! assignment and asks about the images — what a homomorphism search needs,
//! whose paths belong to a constraint (or to the original query) and never
//! change, while the assignment changes with every target it tries. Both
//! intern the same probe terms in the same order: the mapped form renames
//! variables as it interns ([`Congruence::intern_path_mapped`]) and never
//! builds the substituted path. [`substitute`] does build it, for the one
//! caller that keeps the result — a chase step adding its conclusion to the
//! query.

use cnb_ir::prelude::{Binding, Equality, PathExpr, Query, Range, Var};

use crate::congruence::{Congruence, TermId};

/// A query together with its congruence closure.
pub struct CanonDb {
    /// The (possibly chased) query. Bindings only grow; where-clause
    /// equalities are mirrored into the congruence as they are added.
    pub query: Query,
    /// The congruence closure over the query's terms.
    pub cong: Congruence,
    /// Recycled scratch closure of [`crate::subquery::restricted_where`]:
    /// every restriction of this database reduces its equalities in here,
    /// so the buffers live as long as the database does.
    pub(crate) redux: Congruence,
    /// Recycled by [`crate::subquery::load_subquery`] loading a subquery
    /// into this database: the universal plan's class representatives.
    pub(crate) reps: Vec<TermId>,
    /// Recycled likewise: each universal-plan term's copy in here, once it
    /// has one ([`Congruence::copy_term`]).
    pub(crate) copies: Vec<Option<TermId>>,
}

impl CanonDb {
    /// A database over the empty query — the starting point for
    /// [`CanonDb::reset_to`]-style scratch reuse.
    pub fn empty() -> CanonDb {
        CanonDb {
            query: Query::new(),
            cong: Congruence::new(),
            redux: Congruence::new(),
            reps: Vec::new(),
            copies: Vec::new(),
        }
    }

    /// Compiles `query` into its canonical database.
    pub fn new(query: &Query) -> CanonDb {
        let mut db = CanonDb::empty();
        db.load(query);
        db
    }

    /// Rebuilds this database from `query` in place, reusing the arena and
    /// hash-table allocations of whatever it held before. Equivalent to
    /// `*self = CanonDb::new(query)` — same term ids, same closure — without
    /// the per-candidate allocation churn; the equivalence checker recycles
    /// one scratch database through thousands of candidates this way.
    pub fn reset_to(&mut self, query: &Query) {
        self.clear();
        self.load(query);
    }

    /// Empties the query and the closure, keeping their allocations.
    pub(crate) fn clear(&mut self) {
        self.query.clear();
        self.cong.clear();
    }

    fn load(&mut self, query: &Query) {
        self.query.reserve_vars(query.var_bound());
        self.query.select.clone_from(&query.select);
        for b in &query.from {
            self.push_binding(b.clone());
        }
        for eq in &query.where_ {
            self.assert_equality(eq);
        }
        for (_, p) in &query.select {
            self.cong.intern_path(p);
        }
    }

    /// Appends `b`, variable and all, to the from-clause and interns its terms.
    pub(crate) fn push_binding(&mut self, b: Binding) {
        self.query.from.push(b);
        self.register_binding_terms(self.query.from.len() - 1);
    }

    fn register_binding_terms(&mut self, idx: usize) {
        let b = &self.query.from[idx];
        self.cong.intern_path(&PathExpr::Var(b.var));
        if let Range::Expr(p) = &b.range {
            self.cong.intern_path(p);
        }
    }

    /// Adds a binding (during a chase step), returning its variable.
    pub fn add_binding(&mut self, name: &str, range: Range) -> Var {
        let var = self.query.bind(name, range);
        self.register_binding_terms(self.query.from.len() - 1);
        var
    }

    /// Adds `eq` to the where-clause and the congruence.
    pub fn assert_equality(&mut self, eq: &Equality) {
        self.assert_owned(eq.clone());
    }

    /// [`CanonDb::assert_equality`] of an equality built for the purpose (a
    /// chase step's substituted conclusion): moved in, not cloned.
    pub(crate) fn assert_owned(&mut self, eq: Equality) {
        let l = self.cong.intern_path(&eq.lhs);
        let r = self.cong.intern_path(&eq.rhs);
        self.cong.merge(l, r);
        self.query.where_.push(eq);
    }

    /// True if `lhs = rhs` is implied by the where-clause (plus congruence).
    /// Probe terms are interned in scratch mode so they are not offered as
    /// rewrite targets while they live.
    ///
    /// Under a savepoint (every backchase induction and candidate check),
    /// probe terms are part of the trailed delta and vanish at rollback —
    /// that is how homomorphism probes "roll back" in this codebase. The
    /// scratch flag is *not* redundant with the savepoint, though: within
    /// one delta, live probes must still be filtered out of
    /// `class_paths_over`/`rewrite_over`, and rolling each probe back
    /// individually instead would be unsound for byte-compatibility —
    /// probes can trigger real congruence merges (e.g. a probe `base.f`
    /// whose class holds a struct member derives a real equality), and
    /// later answers within the same delta legitimately depend on them.
    pub fn implied(&mut self, lhs: &PathExpr, rhs: &PathExpr) -> bool {
        self.implied_mapped((lhs, &[]), (rhs, &[]))
    }

    /// [`CanonDb::implied`] for the images of the two paths under variable
    /// assignments (indexed by variable id, as
    /// [`Congruence::intern_path_mapped`] reads them): what a homomorphism
    /// search asks for every condition, range and output path it maps —
    /// same probe terms, same order, no substituted path built.
    pub fn implied_mapped(
        &mut self,
        lhs: (&PathExpr, &[Option<Var>]),
        rhs: (&PathExpr, &[Option<Var>]),
    ) -> bool {
        self.cong.probe_equal(lhs, rhs)
    }

    /// Interns a path in scratch mode and returns its term.
    pub fn probe_term(&mut self, p: &PathExpr) -> TermId {
        self.cong.set_scratch_mode(true);
        let t = self.cong.intern_path(p);
        self.cong.set_scratch_mode(false);
        t
    }

    /// The term of a bound variable.
    pub fn var_term(&mut self, v: Var) -> TermId {
        self.cong.intern_path(&PathExpr::Var(v))
    }

    /// Number of bindings.
    pub fn arity(&self) -> usize {
        self.query.from.len()
    }
}

/// Substitutes constraint variables through an assignment (indexed by
/// variable id), leaving unassigned variables untouched (they must not occur
/// for the result to be meaningful). Only a chase step needs this — it adds
/// the substituted equalities to the query; a probe maps its path while
/// interning it ([`CanonDb::implied_mapped`]).
pub fn substitute(p: &PathExpr, map: &[Option<Var>]) -> PathExpr {
    p.map_vars(&mut |v| PathExpr::Var(map.get(v.index()).copied().flatten().unwrap_or(v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnb_ir::prelude::*;

    fn example_query() -> Query {
        // select struct(A = r.A) from R r, S s where r.A = s.A and s.B = 3
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("S")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
        q.equate(PathExpr::from(s).dot("B"), PathExpr::from(3i64));
        q.output("A", PathExpr::from(r).dot("A"));
        q
    }

    #[test]
    fn where_equalities_are_implied() {
        let q = example_query();
        let r = q.from[0].var;
        let s = q.from[1].var;
        let mut db = CanonDb::new(&q);
        assert!(db.implied(&PathExpr::from(r).dot("A"), &PathExpr::from(s).dot("A")));
        assert!(db.implied(&PathExpr::from(s).dot("B"), &PathExpr::from(3i64)));
        assert!(!db.implied(&PathExpr::from(r).dot("B"), &PathExpr::from(s).dot("B")));
    }

    #[test]
    fn congruence_derives_new_equalities() {
        // r = s implies r.A = s.A even if never stated.
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("R")));
        q.equate(PathExpr::from(r), PathExpr::from(s));
        let mut db = CanonDb::new(&q);
        assert!(db.implied(&PathExpr::from(r).dot("A"), &PathExpr::from(s).dot("A")));
    }

    #[test]
    fn transitivity_through_constants() {
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("S")));
        q.equate(PathExpr::from(r).dot("B"), PathExpr::from(7i64));
        q.equate(PathExpr::from(s).dot("C"), PathExpr::from(7i64));
        let mut db = CanonDb::new(&q);
        assert!(db.implied(&PathExpr::from(r).dot("B"), &PathExpr::from(s).dot("C")));
    }

    #[test]
    fn add_binding_and_assert() {
        let q = example_query();
        let mut db = CanonDb::new(&q);
        let v = db.add_binding("v", Range::Name(sym("V")));
        let r = db.query.from[0].var;
        db.assert_equality(&Equality::new(
            PathExpr::from(v).dot("K"),
            PathExpr::from(r).dot("A"),
        ));
        let s = db.query.from[1].var;
        assert!(db.implied(&PathExpr::from(v).dot("K"), &PathExpr::from(s).dot("A")));
        assert_eq!(db.arity(), 3);
    }

    #[test]
    fn substitute_maps_vars() {
        let map = [Some(Var(5))];
        let p = PathExpr::from(Var(0)).dot("A");
        assert_eq!(substitute(&p, &map), PathExpr::from(Var(5)).dot("A"));
        let q = PathExpr::from(Var(1)).dot("B");
        assert_eq!(substitute(&q, &map), q);
    }

    #[test]
    fn probe_terms_are_scratch() {
        let q = example_query();
        let mut db = CanonDb::new(&q);
        let t = db.probe_term(&PathExpr::from(Var(0)).dot("Z"));
        assert!(db.cong.is_scratch(t));
        let real = db.var_term(Var(0));
        assert!(!db.cong.is_scratch(real));
    }
}
