//! Homomorphism search with incremental equality pruning.
//!
//! A homomorphism from a body (bindings + conditions) into a query maps
//! variables to the query's variables such that (Appendix A):
//!
//! 1. each binding `P x` corresponds to a query binding `P' h(x)` where
//!    `h(P)` and `P'` are the same expression or `h(P) = P'` follows from the
//!    query's where-clause, and
//! 2. every condition `P₁ = P₂` maps to an equality implied by the query's
//!    where-clause.
//!
//! Finding one is NP-complete in the size of the source body (always small in
//! practice); the search below implements the paper's §3.1 accelerations:
//! congruence-closure implication checks and *incremental* pruning — a
//! partial assignment is abandoned as soon as any condition among its
//! already-assigned variables fails.
//!
//! # Compiled bodies
//!
//! A backchase searches for homomorphisms of the *same* few bodies — each
//! constraint's universal and existential parts, the original query — into
//! thousands of candidate databases. What a search needs to know about a
//! body does not depend on the target: which binding a variable belongs to,
//! and hence the depth at which each condition has all its variables
//! assigned and can be checked; which condition variables have to arrive
//! pre-assigned. `Body::compile` works that out once (per
//! [`crate::chase`] call, per [`crate::backchase::Lattice`]); `Body::search`
//! is the one search, and every caller's — [`find_homs`] compiles and
//! searches for a caller that has one target.
//!
//! A search keeps its partial assignment in a slot array indexed by source
//! variable id (`Homs::assignment`) — the form
//! [`CanonDb::implied_mapped`] maps probe paths through, so no condition,
//! range or output path is ever substituted into a new path — and writes each
//! homomorphism it finds as the images of the body's bindings, in binding
//! order, onto one flat buffer. Both are recycled from search to search:
//! once the buffers have grown, a search allocates nothing. Enumeration
//! order (targets in from-clause order, depth-first) is part of the
//! contract: it is the order in which a chase applies its steps.

use cnb_ir::prelude::{Binding, Equality, Range, Var};

use crate::canon::CanonDb;
use crate::fxhash::FxHashMap;

/// A variable mapping from a source body into a target query, as
/// [`find_homs`] takes and returns it. Keyed with the deterministic
/// [`crate::fxhash`] hasher. Construct empty maps with `HomMap::default()`.
pub type HomMap = FxHashMap<Var, Var>;

/// Search configuration.
#[derive(Clone, Copy, Debug)]
pub struct HomConfig {
    /// Stop after this many homomorphisms (use 1 for satisfaction checks).
    pub max_homs: usize,
    /// Require distinct source bindings to map to distinct target bindings
    /// (used by the OCS constraint-interaction graph).
    pub injective: bool,
}

impl Default for HomConfig {
    fn default() -> HomConfig {
        HomConfig {
            max_homs: usize::MAX,
            injective: false,
        }
    }
}

/// A source body `(bindings, conds)` compiled for searching: everything the
/// search needs to know about the body that does not depend on the target.
pub(crate) struct Body<'a> {
    bindings: &'a [Binding],
    /// The conditions, ordered by when they become checkable (and, among
    /// those of one moment, as the body lists them).
    conds: Vec<&'a Equality>,
    /// `conds[ready[d]..ready[d + 1]]` are the conditions whose last-bound
    /// variable is `bindings[d - 1]`'s — checkable, and checked, the moment
    /// it is assigned. `d = 0`: over pre-assigned variables only, checked
    /// before the search binds anything.
    ready: Vec<usize>,
    /// Condition variables no binding binds; a search with one of them
    /// unassigned has a free variable and finds nothing.
    outer: Vec<Var>,
    /// One past the largest variable id the body mentions: the length of an
    /// assignment that can hold any of its searches.
    slots: usize,
}

impl<'a> Body<'a> {
    pub(crate) fn compile(bindings: &'a [Binding], conds: &'a [Equality]) -> Body<'a> {
        let mut outer = Vec::new();
        let mut slots = 0;
        let mut mention = |v: Var| slots = slots.max(v.index() + 1);
        for b in bindings {
            mention(b.var);
            if let Range::Expr(p) = &b.range {
                p.vars_all(&mut |v| {
                    mention(v);
                    true
                });
            }
        }
        // Each condition with one past the last binding position among its
        // variables; 0 means it only involves pre-assigned ones.
        let mut keyed: Vec<(usize, &Equality)> = Vec::with_capacity(conds.len());
        for eq in conds {
            let mut moment = 0;
            for side in [&eq.lhs, &eq.rhs] {
                side.vars_all(&mut |v| {
                    mention(v);
                    match bindings.iter().rposition(|b| b.var == v) {
                        Some(p) => moment = moment.max(p + 1),
                        None => outer.push(v),
                    }
                    true
                });
            }
            keyed.push((moment, eq));
        }
        keyed.sort_by_key(|&(moment, _)| moment);
        let ready = (0..bindings.len() + 2)
            .map(|d| keyed.partition_point(|&(moment, _)| moment < d))
            .collect();
        Body {
            bindings,
            conds: keyed.into_iter().map(|(_, eq)| eq).collect(),
            ready,
            outer,
            slots,
        }
    }

    /// The conditions that become checkable at `moment` (see `ready`).
    fn ready_at(&self, moment: usize) -> &[&'a Equality] {
        &self.conds[self.ready[moment]..self.ready[moment + 1]]
    }

    /// Finds the homomorphisms of this body into `db.query` that extend
    /// `fixed` (an assignment indexed by source variable id: chase-step
    /// extension checks arrive with the universal variables mapped), leaving
    /// them in `homs`. Targets are tried in from-clause order, depth-first.
    pub(crate) fn search(
        &self,
        db: &mut CanonDb,
        fixed: &[Option<Var>],
        cfg: HomConfig,
        homs: &mut Homs,
    ) {
        homs.images.clear();
        homs.count = 0;
        homs.used.clear();
        homs.assignment.clear();
        homs.assignment.extend_from_slice(fixed);
        if homs.assignment.len() < self.slots {
            homs.assignment.resize(self.slots, None);
        }
        if self
            .outer
            .iter()
            .any(|v| homs.assignment[v.index()].is_none())
        {
            // Unmappable condition (free variable) — no homomorphism exists.
            return;
        }
        if conds_hold(db, self.ready_at(0), &homs.assignment) {
            self.dfs(db, 0, cfg, homs);
        }
    }

    fn dfs(&self, db: &mut CanonDb, depth: usize, cfg: HomConfig, homs: &mut Homs) {
        if homs.count >= cfg.max_homs {
            return;
        }
        if depth == self.bindings.len() {
            #[expect(clippy::expect_used, reason = "full depth assigns every binding")]
            let image = |b: &Binding| homs.assignment[b.var.index()].expect("assigned above");
            homs.images.extend(self.bindings.iter().map(image));
            homs.count += 1;
            return;
        }
        let b = &self.bindings[depth];
        let slot = b.var.index();

        // If pre-fixed, verify range compatibility and conditions, then recurse.
        if let Some(target) = homs.assignment[slot] {
            let at = db.query.from.iter().position(|tb| tb.var == target);
            if at.is_some_and(|i| range_compatible(db, &b.range, &homs.assignment, i))
                && conds_hold(db, self.ready_at(depth + 1), &homs.assignment)
            {
                self.dfs(db, depth + 1, cfg, homs);
            }
            return;
        }

        // Enumerate candidate target bindings. Snapshot count: chase may grow the
        // from-list, but within one search the query is stable.
        let n = db.query.from.len();
        for i in 0..n {
            let tb = &db.query.from[i];
            let tv = tb.var;
            if !quick_filter(&b.range, &tb.range) {
                continue;
            }
            if cfg.injective && homs.used.contains(&tv) {
                continue;
            }
            if !range_compatible(db, &b.range, &homs.assignment, i) {
                continue;
            }
            homs.assignment[slot] = Some(tv);
            homs.used.push(tv);
            if conds_hold(db, self.ready_at(depth + 1), &homs.assignment) {
                self.dfs(db, depth + 1, cfg, homs);
            }
            homs.used.pop();
            homs.assignment[slot] = None;
            if homs.count >= cfg.max_homs {
                return;
            }
        }
    }
}

/// Do `conds`, mapped through `assignment`, all follow from the target's
/// where-clause?
fn conds_hold(db: &mut CanonDb, conds: &[&Equality], assignment: &[Option<Var>]) -> bool {
    conds
        .iter()
        .all(|eq| db.implied_mapped((&eq.lhs, assignment), (&eq.rhs, assignment)))
}

/// The state and the results of a search, recycled from one
/// [`Body::search`] to the next: a chase runs thousands and allocates for
/// none of them once these buffers have grown.
#[derive(Default)]
pub(crate) struct Homs {
    /// The partial assignment, indexed by source variable id. Between
    /// searches it holds what the last one was given as `fixed`.
    pub(crate) assignment: Vec<Option<Var>>,
    /// Targets taken so far, for injective searches.
    used: Vec<Var>,
    /// The images of the body's bindings, in binding order, one
    /// homomorphism after another.
    images: Vec<Var>,
    /// Homomorphisms found (a body without bindings has images of length 0).
    pub(crate) count: usize,
}

impl Homs {
    /// The `k`-th homomorphism found for `body`: the images of its bindings.
    pub(crate) fn image(&self, body: &Body<'_>, k: usize) -> &[Var] {
        let n = body.bindings.len();
        &self.images[k * n..(k + 1) * n]
    }

    /// Makes the `k`-th homomorphism found for `body` the assignment, so it
    /// can map paths or be the `fixed` part of another search.
    pub(crate) fn assign(&mut self, body: &Body<'_>, k: usize) {
        for (i, b) in body.bindings.iter().enumerate() {
            self.assignment[b.var.index()] = Some(self.image(body, k)[i]);
        }
    }
}

/// Finds homomorphisms from `(bindings, conds)` into `db.query`.
///
/// `fixed` pre-assigns variables (used for chase-step extension checks where
/// the universal variables are already mapped, and for seeded containment
/// checks). Conditions mentioning only fixed variables are verified up front.
///
/// Compiles the body for this one call; the chase and the equivalence check
/// compile theirs once (`Body::compile`) and run the same search.
pub fn find_homs(
    db: &mut CanonDb,
    bindings: &[Binding],
    conds: &[Equality],
    fixed: &HomMap,
    cfg: HomConfig,
) -> Vec<HomMap> {
    let body = Body::compile(bindings, conds);
    let mut assignment = vec![None; fixed.keys().map(|v| v.index() + 1).max().unwrap_or(0)];
    for (v, &target) in fixed {
        assignment[v.index()] = Some(target);
    }
    let mut homs = Homs::default();
    body.search(db, &assignment, cfg, &mut homs);
    (0..homs.count)
        .map(|k| {
            let mut h = fixed.clone();
            h.extend(
                bindings
                    .iter()
                    .map(|b| b.var)
                    .zip(homs.image(&body, k).iter().copied()),
            );
            h
        })
        .collect()
}

/// Cheap structural pre-filter: a source range can only match target ranges
/// of the same kind (and, for names/domains, the same schema name). `Expr`
/// ranges are all admitted here and checked properly in
/// [`range_compatible`].
pub(crate) fn quick_filter(src: &Range, tgt: &Range) -> bool {
    match (src, tgt) {
        (Range::Name(a), Range::Name(b)) => a == b,
        (Range::Dom(a), Range::Dom(b)) => a == b,
        (Range::Expr(_), Range::Expr(_)) => true,
        _ => false,
    }
}

/// Full range-compatibility check: the source range mapped through
/// `assignment` must equal the range of the target's `at`-th binding under
/// the query's congruence.
fn range_compatible(db: &mut CanonDb, src: &Range, assignment: &[Option<Var>], at: usize) -> bool {
    // The target range stays where it is: the probe needs the closure only.
    let CanonDb { query, cong, .. } = db;
    match (src, &query.from[at].range) {
        (Range::Name(a), Range::Name(b)) => a == b,
        (Range::Dom(a), Range::Dom(b)) => a == b,
        (Range::Expr(p), Range::Expr(q)) => {
            // All of p's variables must already be assigned (constraint
            // well-formedness orders range variables first).
            p.vars_all(&mut |v| assignment.get(v.index()).is_some_and(Option::is_some))
                && cong.probe_equal((p, assignment), (q, &[]))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnb_ir::prelude::*;

    /// Target: select … from R r, S s where r.A = s.A
    fn target() -> CanonDb {
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("S")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
        CanonDb::new(&q)
    }

    /// Source body: (x in R) with condition x.A = x.A (trivial).
    #[test]
    fn maps_single_binding() {
        let mut db = target();
        let mut src = Query::new();
        let x = src.bind("x", Range::Name(sym("R")));
        let homs = find_homs(
            &mut db,
            &src.from,
            &[],
            &HomMap::default(),
            HomConfig::default(),
        );
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0][&x], db.query.from[0].var);
    }

    #[test]
    fn no_match_for_unknown_relation() {
        let mut db = target();
        let mut src = Query::new();
        src.bind("x", Range::Name(sym("T")));
        let homs = find_homs(
            &mut db,
            &src.from,
            &[],
            &HomMap::default(),
            HomConfig::default(),
        );
        assert!(homs.is_empty());
    }

    #[test]
    fn conditions_filter_assignments() {
        // Target has two R-bindings, only one with r.B = 3.
        let mut q = Query::new();
        let r1 = q.bind("r1", Range::Name(sym("R")));
        let _r2 = q.bind("r2", Range::Name(sym("R")));
        q.equate(PathExpr::from(r1).dot("B"), PathExpr::from(3i64));
        let mut db = CanonDb::new(&q);

        let mut src = Query::new();
        let x = src.bind("x", Range::Name(sym("R")));
        let conds = vec![Equality::new(
            PathExpr::from(x).dot("B"),
            PathExpr::from(3i64),
        )];
        let homs = find_homs(
            &mut db,
            &src.from,
            &conds,
            &HomMap::default(),
            HomConfig::default(),
        );
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0][&x], r1);
    }

    #[test]
    fn equality_condition_via_congruence() {
        let mut db = target();
        let r = db.query.from[0].var;
        let s = db.query.from[1].var;
        // Source: (x in R)(y in S) with x.A = y.A — implied in target.
        let mut src = Query::new();
        let x = src.bind("x", Range::Name(sym("R")));
        let y = src.bind("y", Range::Name(sym("S")));
        let conds = vec![Equality::new(
            PathExpr::from(x).dot("A"),
            PathExpr::from(y).dot("A"),
        )];
        let homs = find_homs(
            &mut db,
            &src.from,
            &conds,
            &HomMap::default(),
            HomConfig::default(),
        );
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0][&x], r);
        assert_eq!(homs[0][&y], s);
    }

    #[test]
    fn multiple_homs_enumerated() {
        let mut q = Query::new();
        q.bind("r1", Range::Name(sym("R")));
        q.bind("r2", Range::Name(sym("R")));
        let mut db = CanonDb::new(&q);
        let mut src = Query::new();
        src.bind("x", Range::Name(sym("R")));
        let homs = find_homs(
            &mut db,
            &src.from,
            &[],
            &HomMap::default(),
            HomConfig::default(),
        );
        assert_eq!(homs.len(), 2);
    }

    #[test]
    fn non_injective_by_default_injective_on_request() {
        let mut q = Query::new();
        q.bind("r", Range::Name(sym("R")));
        let mut db = CanonDb::new(&q);
        // Source has two R-bindings; the only target R-binding must host both
        // unless injectivity is requested.
        let mut src = Query::new();
        src.bind("x", Range::Name(sym("R")));
        src.bind("y", Range::Name(sym("R")));
        let homs = find_homs(
            &mut db,
            &src.from,
            &[],
            &HomMap::default(),
            HomConfig::default(),
        );
        assert_eq!(homs.len(), 1);
        let inj = find_homs(
            &mut db,
            &src.from,
            &[],
            &HomMap::default(),
            HomConfig {
                injective: true,
                max_homs: usize::MAX,
            },
        );
        assert!(inj.is_empty());
    }

    #[test]
    fn fixed_prefix_respected() {
        let mut q = Query::new();
        let r1 = q.bind("r1", Range::Name(sym("R")));
        let r2 = q.bind("r2", Range::Name(sym("R")));
        let mut db = CanonDb::new(&q);
        let mut src = Query::new();
        let x = src.bind("x", Range::Name(sym("R")));
        let mut fixed = HomMap::default();
        fixed.insert(x, r2);
        let homs = find_homs(&mut db, &src.from, &[], &fixed, HomConfig::default());
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0][&x], r2);
        let _ = r1;
    }

    #[test]
    fn expr_ranges_match_under_congruence() {
        // Target: (k in dom M)(o in M[k].N). Source: (k' in dom M)(o' in M[k'].N).
        let mut q = Query::new();
        let k = q.bind("k", Range::Dom(sym("M")));
        let _o = q.bind("o", Range::Expr(PathExpr::from(k).lookup_in("M").dot("N")));
        let mut db = CanonDb::new(&q);
        let mut src = Query::new();
        let k2 = src.bind("k2", Range::Dom(sym("M")));
        let o2 = src.bind(
            "o2",
            Range::Expr(PathExpr::from(k2).lookup_in("M").dot("N")),
        );
        let homs = find_homs(
            &mut db,
            &src.from,
            &[],
            &HomMap::default(),
            HomConfig::default(),
        );
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0][&o2], db.query.from[1].var);
    }

    #[test]
    fn expr_range_mismatch_rejected() {
        // Target ranges over M[k].N; source over M[k].P — no match.
        let mut q = Query::new();
        let k = q.bind("k", Range::Dom(sym("M")));
        q.bind("o", Range::Expr(PathExpr::from(k).lookup_in("M").dot("N")));
        let mut db = CanonDb::new(&q);
        let mut src = Query::new();
        let k2 = src.bind("k2", Range::Dom(sym("M")));
        src.bind(
            "o2",
            Range::Expr(PathExpr::from(k2).lookup_in("M").dot("P")),
        );
        let homs = find_homs(
            &mut db,
            &src.from,
            &[],
            &HomMap::default(),
            HomConfig::default(),
        );
        assert!(homs.is_empty());
    }

    #[test]
    fn max_homs_caps_enumeration() {
        let mut q = Query::new();
        for i in 0..4 {
            q.bind(&format!("r{i}"), Range::Name(sym("R")));
        }
        let mut db = CanonDb::new(&q);
        let mut src = Query::new();
        src.bind("x", Range::Name(sym("R")));
        let homs = find_homs(
            &mut db,
            &src.from,
            &[],
            &HomMap::default(),
            HomConfig {
                max_homs: 2,
                injective: false,
            },
        );
        assert_eq!(homs.len(), 2);
    }
}
