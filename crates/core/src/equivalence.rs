//! Constraint-aware query equivalence.
//!
//! The backchase must decide, for each candidate subquery `Q'` of the
//! universal plan, whether `Q' ≡ Q₀` under the constraint set `D`. Since
//! `Q₀ ⊆ Q'` holds by construction (removing bindings can only enlarge the
//! result), only `Q' ⊆ Q₀` must be checked, which by the chase-containment
//! theorem reduces to: chase `Q'` with `D`, then look for a homomorphism of
//! `Q₀`'s body into the chased `Q'` that preserves the output struct. This is
//! exactly checking that the dependency δ of the backchase step (paper,
//! Appendix A) is implied by `D` — "using the chase … when constraints are
//! viewed as boolean-valued queries".
//!
//! The check runs on a scratch database that holds the candidate, and there
//! are two ways to fill it. The backchase loads a candidate straight from
//! the universal plan ([`crate::subquery::load_subquery`]): its bindings,
//! its restricted closure and its outputs, never written out as a query.
//! [`EquivChecker::equivalent`] — and plan dedup, whose plans already are
//! queries — parse a [`Query`] into the scratch database instead
//! (`CompiledChecker::equivalent_into`, [`CanonDb::reset_to`]). What runs
//! on the filled database is one body, `CompiledChecker::check`.

use cnb_ir::prelude::{Constraint, Query, Var};

use crate::canon::CanonDb;
use crate::chase::{ChaseConfig, ChaseStats, Chaser};
use crate::homomorphism::{quick_filter, Body, HomConfig, Homs};

/// Checks subquery equivalence against a fixed original query.
#[derive(Clone, Copy)]
pub struct EquivChecker<'a> {
    /// The equivalence target (the original query of this C&B invocation).
    pub q0: &'a Query,
    /// The active constraint set.
    pub constraints: &'a [Constraint],
    /// Chase limits for the implication chases.
    pub chase_cfg: ChaseConfig,
}

impl<'a> EquivChecker<'a> {
    /// Creates a checker for target `q0` under `constraints`.
    pub fn new(q0: &'a Query, constraints: &'a [Constraint], chase_cfg: ChaseConfig) -> Self {
        EquivChecker {
            q0,
            constraints,
            chase_cfg,
        }
    }

    /// Is `candidate` (a subquery of the universal plan of `q0`, sharing its
    /// variable space) equivalent to `q0` under the constraints? Also
    /// returns the stats of the implication chase.
    ///
    /// Convenience wrapper paying for a compilation and a fresh scratch
    /// database, and for loading `candidate` into it from its text. The
    /// backchase compiles once per lattice, recycles one scratch database
    /// and loads each candidate straight from the universal plan
    /// ([`crate::subquery::load_subquery`]); what runs on the loaded
    /// database is the same check.
    pub fn equivalent(&self, candidate: &Query) -> (bool, ChaseStats) {
        self.compile()
            .equivalent_into(&mut CanonDb::empty(), candidate)
    }

    /// Compiles the constraints and `q0`'s body for repeated checks.
    pub(crate) fn compile(self) -> CompiledChecker<'a> {
        CompiledChecker {
            chaser: Chaser::new(self.constraints, self.chase_cfg),
            body: Body::compile(&self.q0.from, &self.q0.where_),
            homs: Homs::default(),
            spec: self,
        }
    }
}

/// An [`EquivChecker`] with everything that is a property of `q0` and the
/// constraints — and not of the candidate — worked out once: the compiled
/// constraint set, `q0`'s compiled body, the search buffers.
pub(crate) struct CompiledChecker<'a> {
    pub(crate) spec: EquivChecker<'a>,
    pub(crate) chaser: Chaser<'a>,
    body: Body<'a>,
    homs: Homs,
}

impl CompiledChecker<'_> {
    /// [`EquivChecker::equivalent`] into a caller-provided scratch database:
    /// `scratch` is rebuilt from `candidate` in place ([`CanonDb::reset_to`])
    /// and checked.
    pub(crate) fn equivalent_into(
        &mut self,
        scratch: &mut CanonDb,
        candidate: &Query,
    ) -> (bool, ChaseStats) {
        scratch.reset_to(candidate);
        self.check(scratch)
    }

    /// The check proper, on a scratch database that holds the candidate —
    /// its closure, its from-clause and its outputs in `query.select`: chase
    /// it, search it for homomorphisms of `q0`'s body, and accept the first
    /// that maps every output of `q0` onto the candidate's output of the
    /// same label.
    ///
    /// Across thousands of candidates one lattice reuses a single scratch
    /// arena and set of hash tables instead of allocating and dropping a
    /// database per check. The chased structure is a *template* keyed by
    /// nothing: a candidate's chase must start from its own closure, not a
    /// parent candidate's fixpoint, because the chase is not monotone under
    /// binding removal — facts derived from a removed binding are not facts
    /// of the subquery, and reusing them would flip verdicts. What CAN be
    /// reused, and is, is the warm allocation footprint.
    pub(crate) fn check(&mut self, scratch: &mut CanonDb) -> (bool, ChaseStats) {
        let stats = self.chaser.chase(scratch);
        self.body
            .search(scratch, &[], HomConfig::default(), &mut self.homs);
        let verdict = (0..self.homs.count).any(|k| self.preserves_outputs(scratch, k));
        (verdict, stats)
    }

    /// Hands `image` every homomorphism of `q0`'s body into `db` that
    /// preserves the outputs as [`CompiledChecker::check`] requires: the
    /// images of `q0`'s bindings. On the universal plan, whose outputs are
    /// `q0`'s own, that is every output mapped onto itself.
    pub(crate) fn images(&mut self, db: &mut CanonDb, mut image: impl FnMut(&[Var])) {
        self.body
            .search(db, &[], HomConfig::default(), &mut self.homs);
        for k in 0..self.homs.count {
            if self.preserves_outputs(db, k) {
                image(self.homs.image(&self.body, k));
            }
        }
    }

    /// Output preservation of the `k`-th homomorphism the last search found:
    /// each select path of `q0`, mapped, must equal `db`'s path of the same
    /// label.
    fn preserves_outputs(&mut self, db: &mut CanonDb, k: usize) -> bool {
        self.homs.assign(&self.body, k);
        let CanonDb { query, cong, .. } = db;
        self.spec.q0.select.iter().all(|(label, p)| {
            let target = query.select.iter().rev().find(|(l, _)| l == label);
            target.is_some_and(|(_, t)| cong.probe_equal((p, &self.homs.assignment), (t, &[])))
        })
    }
}

/// Are two plans the *same query* up to variable renaming and condition
/// reordering? Checked semantically: equal arity plus mutual constraint-free
/// containment (a cheap canonical-key comparison short-circuits the common
/// case). Plans discovered along different rewrite routes may list the same
/// bindings in different orders; every plan list (each search's, each OCS
/// stage's) is deduplicated by this rule, applied incrementally on a
/// recycled scratch database, and the tests hold it to this function.
pub fn same_plan(a: &Query, b: &Query) -> bool {
    same_arity(a, b)
        && (a.canonical_key() == b.canonical_key()
            || contain_each_other(&mut CanonDb::empty(), a, b))
}

/// The cheap necessary condition of [`same_plan`]: equal arity, and range
/// sets that let a homomorphism map each plan into the other. A
/// homomorphism maps a `Name` / `Dom` binding only onto a binding of the
/// same collection and an `Expr` binding only onto an `Expr` one (the
/// search's quick filter), so each plan's collections — and an `Expr`
/// range, if it has one — must be among the other's before a containment
/// is worth a chase.
pub fn same_arity(a: &Query, b: &Query) -> bool {
    let covered = |a: &Query, b: &Query| {
        a.from
            .iter()
            .all(|x| b.from.iter().any(|y| quick_filter(&x.range, &y.range)))
    };
    a.from.len() == b.from.len()
        && a.select.len() == b.select.len()
        && covered(a, b)
        && covered(b, a)
}

/// Mutual constraint-free containment of two plans of the same arity,
/// checked on a caller-provided scratch database: all of [`same_plan`] for a
/// caller that knows the canonical keys differ.
pub(crate) fn contain_each_other(scratch: &mut CanonDb, a: &Query, b: &Query) -> bool {
    let mut contains = |q0, candidate| {
        let (verdict, _) = EquivChecker::new(q0, &[], ChaseConfig::default())
            .compile()
            .equivalent_into(scratch, candidate);
        verdict
    };
    contains(a, b) && contains(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnb_ir::prelude::*;

    /// Tableau minimization (no constraints): a redundant self-join is
    /// equivalent to its single-binding core.
    #[test]
    fn tableau_minimization() {
        // Q0: select r1.A from R r1, R r2 where r1.A = r2.A — r2 redundant.
        let mut q0 = Query::new();
        let r1 = q0.bind("r1", Range::Name(sym("R")));
        let r2 = q0.bind("r2", Range::Name(sym("R")));
        q0.equate(PathExpr::from(r1).dot("A"), PathExpr::from(r2).dot("A"));
        q0.output("A", PathExpr::from(r1).dot("A"));

        // Candidate: just r1.
        let mut cand = Query::new();
        cand.reserve_vars(q0.var_bound());
        cand.from.push(q0.from[0].clone());
        cand.output("A", PathExpr::from(r1).dot("A"));

        let checker = EquivChecker::new(&q0, &[], ChaseConfig::default());
        let (eq, _) = checker.equivalent(&cand);
        assert!(eq, "redundant join must minimize away");
    }

    /// Dropping a *non*-redundant binding is not equivalent.
    #[test]
    fn real_join_is_not_removable() {
        // Q0: select r.A from R r, S s where r.A = s.A.
        let mut q0 = Query::new();
        let r = q0.bind("r", Range::Name(sym("R")));
        let s = q0.bind("s", Range::Name(sym("S")));
        q0.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
        q0.output("A", PathExpr::from(r).dot("A"));

        let mut cand = Query::new();
        cand.reserve_vars(q0.var_bound());
        cand.from.push(q0.from[0].clone());
        cand.output("A", PathExpr::from(r).dot("A"));
        let _ = s;

        let checker = EquivChecker::new(&q0, &[], ChaseConfig::default());
        let (eq, _) = checker.equivalent(&cand);
        assert!(!eq, "S restricts the result; dropping it changes semantics");
    }

    /// With the RIC of Example 2.1, the joined form *is* equivalent — i.e.
    /// checking the original against the join-enlarged candidate and vice
    /// versa both succeed.
    #[test]
    fn ric_makes_join_removable() {
        let mut ric = Constraint::new("RIC");
        let cr = ric.forall("r", Range::Name(sym("R")));
        let cs = ric.exists("s", Range::Name(sym("S")));
        ric.then(PathExpr::from(cr).dot("A"), PathExpr::from(cs).dot("A"));
        let constraints = [ric];

        let mut q0 = Query::new();
        let r = q0.bind("r", Range::Name(sym("R")));
        let s = q0.bind("s", Range::Name(sym("S")));
        q0.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
        q0.output("A", PathExpr::from(r).dot("A"));

        let mut cand = Query::new();
        cand.reserve_vars(q0.var_bound());
        cand.from.push(q0.from[0].clone());
        cand.output("A", PathExpr::from(r).dot("A"));

        let checker = EquivChecker::new(&q0, &constraints, ChaseConfig::default());
        let (eq, _) = checker.equivalent(&cand);
        assert!(eq, "the RIC guarantees every r joins some s");
    }

    /// Output labels must match; a candidate computing a different output is
    /// rejected even if its body is fine.
    #[test]
    fn output_preservation_enforced() {
        let mut q0 = Query::new();
        let r = q0.bind("r", Range::Name(sym("R")));
        q0.output("A", PathExpr::from(r).dot("A"));

        let mut cand = Query::new();
        cand.reserve_vars(q0.var_bound());
        cand.from.push(q0.from[0].clone());
        cand.output("A", PathExpr::from(r).dot("B"));

        let checker = EquivChecker::new(&q0, &[], ChaseConfig::default());
        let (eq, _) = checker.equivalent(&cand);
        assert!(!eq);
    }

    /// The index-only candidate from the primary-index chase is equivalent.
    #[test]
    fn index_plan_equivalent() {
        let mut schema = Schema::new();
        schema.add_relation("R", [(sym("K"), Type::Int), (sym("N"), Type::Int)]);
        add_primary_index(&mut schema, sym("R"), sym("K"), "PI");
        let constraints = schema.all_constraints();

        let mut q0 = Query::new();
        let r = q0.bind("r", Range::Name(sym("R")));
        q0.output("K", PathExpr::from(r).dot("K"));
        q0.output("N", PathExpr::from(r).dot("N"));

        // Candidate: select PI[k].K, PI[k].N from dom PI k.
        let mut cand = Query::new();
        cand.reserve_vars(q0.var_bound());
        let k = cand.bind("k", Range::Dom(sym("PI")));
        cand.output("K", PathExpr::from(k).lookup_in("PI").dot("K"));
        cand.output("N", PathExpr::from(k).lookup_in("PI").dot("N"));

        let checker = EquivChecker::new(&q0, &constraints, ChaseConfig::default());
        let (eq, _) = checker.equivalent(&cand);
        assert!(eq, "index scan covers the table scan");
    }

    /// A plan over an *unrelated* physical structure is not equivalent.
    #[test]
    fn unrelated_structure_rejected() {
        let mut schema = Schema::new();
        schema.add_relation("R", [(sym("K"), Type::Int)]);
        schema.add_relation("Z", [(sym("K"), Type::Int)]);
        add_primary_index(&mut schema, sym("Z"), sym("K"), "PZ");
        let constraints = schema.all_constraints();

        let mut q0 = Query::new();
        let r = q0.bind("r", Range::Name(sym("R")));
        q0.output("K", PathExpr::from(r).dot("K"));

        let mut cand = Query::new();
        cand.reserve_vars(q0.var_bound());
        let k = cand.bind("k", Range::Dom(sym("PZ")));
        cand.output("K", PathExpr::from(k).lookup_in("PZ").dot("K"));

        let checker = EquivChecker::new(&q0, &constraints, ChaseConfig::default());
        let (eq, _) = checker.equivalent(&cand);
        assert!(!eq);
    }

    /// An output of `7.0` and one of `7` are different plans: their
    /// canonical keys differ, and neither query contains the other.
    #[test]
    fn float_and_int_outputs_are_different_plans() {
        let with = |c: Value| {
            let mut q = Query::new();
            let r = q.bind("r", Range::Name(sym("R")));
            q.output("A", PathExpr::from(r).dot("A"));
            q.output("C", PathExpr::from(c));
            q
        };
        let (float, int) = (with(Value::Float(7.0)), with(Value::Int(7)));
        assert!(same_plan(&float, &float.offset_vars(3)));
        assert!(!same_plan(&float, &int));
    }
}
