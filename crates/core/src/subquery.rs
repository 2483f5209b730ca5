//! Subquery induction (Appendix B).
//!
//! Given a chased query `U` and a subset `S` of its bindings, the *induced
//! subquery* keeps exactly the bindings in `S`, the closure equalities
//! mentioning only `S`-variables, and the original output paths rewritten
//! (through the congruence) onto `S`-variables. Removal candidates whose
//! output or range paths cannot be recovered over `S` are invalid.

use cnb_ir::prelude::{Binding, Equality, PathExpr, Query, Range, Symbol};

use crate::bitset::VarSet;
use crate::canon::CanonDb;
use crate::congruence::{Congruence, TermId};

/// Induces the subquery of `db.query` on the binding subset `keep`, using
/// `select` as the output to recover (usually the original query's select).
///
/// Returns `None` when the subset is not a valid subquery: an output path or
/// a kept binding's range cannot be expressed over the kept variables. Three
/// steps in this order — [`induce_range`] per kept binding,
/// [`restricted_where`], [`induce_select`] — of which only the first and the
/// last can fail; the backchase asks those two alone when all it needs is
/// whether the subset is a subquery.
pub fn induce_subquery(
    db: &mut CanonDb,
    keep: &VarSet,
    select: &[(Symbol, PathExpr)],
) -> Option<Query> {
    let mut out = Query::new();
    out.reserve_vars(db.query.var_bound());

    // From-clause: kept bindings in original order.
    let mut earlier = VarSet::new();
    let CanonDb { query, cong, .. } = &mut *db;
    for b in query.from.iter().filter(|b| keep.contains(b.var)) {
        out.from.push(Binding {
            var: b.var,
            name: b.name,
            range: induce_range(cong, &query.from, &b.range, &earlier)?,
        });
        earlier.insert(b.var);
    }

    // Where-clause: the restriction of the congruence to kept variables.
    out.where_ = restricted_where(db, keep);
    out.select = induce_select(&mut db.cong, select, keep)?;
    debug_assert!(out.validate().is_ok(), "induced subquery ill-formed");
    Some(out)
}

/// The from-clause step of induction for one kept binding of `from`: its
/// range over `earlier`, the kept variables bound before it. A range path
/// must be expressible over those, and every dictionary lookup inside it must
/// stay *guarded* — its key congruent to an earlier kept `dom` binding of the
/// same dictionary. (Ranging over `M[o].N` with `o` not known to be in
/// `dom M` is not well-defined in the paper's dictionary semantics; this is
/// why Example 3.3's original query keeps its `dom M2` binding rather than
/// being "minimized" away.) Whether a range survives depends on `earlier`
/// alone and is monotone in it: a larger set offers more paths and guards.
pub(crate) fn induce_range(
    cong: &mut Congruence,
    from: &[Binding],
    range: &Range,
    earlier: &VarSet,
) -> Option<Range> {
    Some(match range {
        Range::Name(s) => Range::Name(*s),
        Range::Dom(s) => Range::Dom(*s),
        Range::Expr(p) => {
            let t = cong.intern_path(p);
            cong.saturate_class_over(t, earlier);
            let candidates = cong.class_paths_over(t, earlier);
            Range::Expr(candidates.into_iter().find_map(|cand| {
                let path = cong.path_of(cand);
                lookups_guarded(cong, &path, from, earlier).then_some(path)
            })?)
        }
    })
}

/// The select-clause step of induction: each output path rewritten over the
/// kept variables, or `None` when one cannot be. Monotone in `keep`.
pub(crate) fn induce_select(
    cong: &mut Congruence,
    select: &[(Symbol, PathExpr)],
    keep: &VarSet,
) -> Option<Vec<(Symbol, PathExpr)>> {
    select
        .iter()
        .map(|(label, p)| {
            let t = cong.intern_path(p);
            let rw = cong.rewrite_over(t, keep)?;
            Some((*label, cong.path_of(rw)))
        })
        .collect()
}

/// The restriction of `db`'s congruence to the variables in `keep`, as a
/// *reduced* set of equalities: every class is saturated with constructible
/// representatives (so a join condition like `r1.B = r2.A` survives the
/// removal of `r1` as `I[k].B = r2.A` when `r1 ≡ I[k]`), then chained —
/// skipping equalities already derivable by congruence from the ones emitted
/// so far (e.g. `M[k] = M[o]` is redundant once `k = o` is present).
pub fn restricted_where(db: &mut CanonDb, keep: &VarSet) -> Vec<Equality> {
    let mut out = Vec::new();
    // Collect per-class member lists first; process classes whose smallest
    // member is smallest first, so root equalities suppress derived ones.
    let CanonDb { cong, redux, .. } = db;
    let mut classes: Vec<Vec<TermId>> = Vec::new();
    for rep in cong.class_reps() {
        cong.saturate_class_over(rep, keep);
        let members = cong.class_paths_over(rep, keep);
        if members.len() >= 2 {
            classes.push(members);
        }
    }
    classes.sort_by_key(|ms| cong.term_size(ms[0]));
    redux.clear();
    for members in classes {
        let first = cong.path_of(members[0]);
        let ft = redux.intern_path(&first);
        for &m in &members[1..] {
            let mp = cong.path_of(m);
            let mt = redux.intern_path(&mp);
            if redux.equal(ft, mt) {
                continue;
            }
            redux.merge(ft, mt);
            out.push(Equality::new(first.clone(), mp));
        }
    }
    out
}

/// True if every dictionary lookup in `p` has a key provably equal to a
/// guard: a `dom` binding of the same dictionary among `from`'s `earlier`.
fn lookups_guarded(
    cong: &mut Congruence,
    p: &PathExpr,
    from: &[Binding],
    earlier: &VarSet,
) -> bool {
    match p {
        PathExpr::Var(_) | PathExpr::Const(_) => true,
        PathExpr::Field(base, _) => lookups_guarded(cong, base, from, earlier),
        PathExpr::Lookup(dict, key) => {
            lookups_guarded(cong, key, from, earlier)
                && from.iter().any(|g| {
                    earlier.contains(g.var)
                        && matches!(&g.range, Range::Dom(d) if d == dict)
                        && cong.probe_equal((key, &[]), (&PathExpr::Var(g.var), &[]))
                })
        }
        PathExpr::MkStruct(fields) => fields
            .iter()
            .all(|(_, q)| lookups_guarded(cong, q, from, earlier)),
    }
}

/// Pure-function variant of [`induce_subquery`]: a congruence savepoint is
/// taken, the induction runs in place, and the savepoint is rolled back —
/// leaving `db` byte-exactly as it was.
///
/// Induction saturates congruence classes and interns rebuilt terms, so a
/// shared mutable `CanonDb` would make each induced subquery depend on every
/// *previous* induction (term ids feed the `class_paths_over` tie-break).
/// The backchase uses this wrapper so the result is a function of
/// `(db, keep, select)` only, which is the property its determinism — and
/// the soundness of the borders it keeps — rests on. Earlier revisions got
/// purity by cloning the whole database per candidate (the oracle
/// `tests/induction_differential.rs` still compares against); the rollback
/// is O(delta) instead of O(db) and produces identical output, because the
/// savepoint restore is byte-exact: every candidate starts from the same
/// term arena, so the term-id tie-breaks — and with them the emitted query
/// text — cannot drift. Induction never touches `db.query`, so the
/// congruence savepoint covers the entire delta.
pub fn induce_subquery_pure(
    db: &mut CanonDb,
    keep: &VarSet,
    select: &[(Symbol, PathExpr)],
) -> Option<Query> {
    #[cfg(debug_assertions)]
    let (arity_before, len_before) = (db.query.from.len(), db.cong.len());
    let sp = db.cong.save();
    let out = induce_subquery(db, keep, select);
    db.cong.rollback(sp);
    #[cfg(debug_assertions)]
    {
        debug_assert_eq!(
            db.query.from.len(),
            arity_before,
            "induction grew the query"
        );
        debug_assert_eq!(db.cong.len(), len_before, "induction left terms behind");
    }
    out
}

/// The set of all bound variables of a query.
pub fn all_bindings(q: &Query) -> VarSet {
    VarSet::from_iter(q.from.iter().map(|b| b.var))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{chase_query, ChaseConfig};
    use cnb_ir::prelude::*;

    /// R(K, N) with primary index PI; query scans R. After chasing, the
    /// subquery on {k} alone is the index-only plan.
    fn chased_index_db() -> (CanonDb, Query) {
        let mut schema = Schema::new();
        schema.add_relation("R", [(sym("K"), Type::Int), (sym("N"), Type::Int)]);
        add_primary_index(&mut schema, sym("R"), sym("K"), "PI");
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        q.output("K", PathExpr::from(r).dot("K"));
        q.output("N", PathExpr::from(r).dot("N"));
        let (db, _) = chase_query(&q, &schema.all_constraints(), ChaseConfig::default());
        (db, q)
    }

    #[test]
    fn index_only_subquery() {
        let (mut db, q0) = chased_index_db();
        let k = db.query.from[1].var;
        let keep = VarSet::from_iter([k]);
        let sub = induce_subquery(&mut db, &keep, &q0.select).expect("valid");
        assert_eq!(sub.from.len(), 1);
        assert_eq!(sub.from[0].range, Range::Dom(sym("PI")));
        // Outputs rewritten through PI[k].
        let k_out = &sub.select[0].1;
        let n_out = &sub.select[1].1;
        // K = k itself or PI[k].K; N = PI[k].N.
        assert!(
            *k_out == PathExpr::from(k) || *k_out == PathExpr::from(k).lookup_in("PI").dot("K"),
            "{k_out}"
        );
        assert_eq!(*n_out, PathExpr::from(k).lookup_in("PI").dot("N"));
        sub.validate().unwrap();
    }

    #[test]
    fn table_only_subquery() {
        let (mut db, q0) = chased_index_db();
        let r = db.query.from[0].var;
        let keep = VarSet::from_iter([r]);
        let sub = induce_subquery(&mut db, &keep, &q0.select).expect("valid");
        assert_eq!(sub.from.len(), 1);
        assert_eq!(sub.from[0].range, Range::Name(sym("R")));
        assert_eq!(sub.select[0].1, PathExpr::from(r).dot("K"));
    }

    #[test]
    fn unrecoverable_output_is_invalid() {
        // Query over R and S; output needs S; keeping only R is invalid.
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("S")));
        q.output("A", PathExpr::from(s).dot("A"));
        let mut db = CanonDb::new(&q);
        let keep = VarSet::from_iter([r]);
        assert!(induce_subquery(&mut db, &keep, &q.select).is_none());
    }

    #[test]
    fn output_recovered_through_equality() {
        // Output s.A but r.B = s.A, so keeping r suffices.
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("S")));
        q.equate(PathExpr::from(r).dot("B"), PathExpr::from(s).dot("A"));
        q.output("A", PathExpr::from(s).dot("A"));
        let mut db = CanonDb::new(&q);
        let keep = VarSet::from_iter([r]);
        let sub = induce_subquery(&mut db, &keep, &q.select).expect("valid");
        assert_eq!(sub.select[0].1, PathExpr::from(r).dot("B"));
        assert!(sub.where_.is_empty(), "no kept-vars-only equalities remain");
    }

    #[test]
    fn where_clause_is_restricted_closure() {
        // r.A = s.A and s.A = t.A; keeping {r, t} must yield r.A = t.A.
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("S")));
        let t = q.bind("t", Range::Name(sym("T")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
        q.equate(PathExpr::from(s).dot("A"), PathExpr::from(t).dot("A"));
        q.output("A", PathExpr::from(r).dot("A"));
        let mut db = CanonDb::new(&q);
        let keep = VarSet::from_iter([r, t]);
        let sub = induce_subquery(&mut db, &keep, &q.select).expect("valid");
        let mut sdb = CanonDb::new(&sub);
        assert!(
            sdb.implied(&PathExpr::from(r).dot("A"), &PathExpr::from(t).dot("A")),
            "transitive equality must survive the restriction"
        );
    }

    #[test]
    fn range_dependency_blocks_removal() {
        // o ranges over M[k].N; removing k while keeping o is invalid.
        let mut q = Query::new();
        let k = q.bind("k", Range::Dom(sym("M")));
        let o = q.bind("o", Range::Expr(PathExpr::from(k).lookup_in("M").dot("N")));
        q.output("o", PathExpr::from(o));
        let mut db = CanonDb::new(&q);
        let keep = VarSet::from_iter([o]);
        assert!(induce_subquery(&mut db, &keep, &q.select).is_none());
    }

    #[test]
    fn full_set_reproduces_query_semantics() {
        let (mut db, q0) = chased_index_db();
        let keep = all_bindings(&db.query);
        let sub = induce_subquery(&mut db, &keep, &q0.select).expect("valid");
        assert_eq!(sub.from.len(), db.query.from.len());
        sub.validate().unwrap();
    }
}
