//! The chase — phase 1 of C&B.
//!
//! The chase is implemented as an *inflationary procedure that evaluates the
//! input constraints on the internal representation of the input query*
//! (paper §3.1): for every homomorphism from a constraint's universal part
//! into the query, if the existential part cannot be mapped too (the
//! "triviality" check), the step fires — fresh bindings are added for the
//! existential variables and the conclusion equalities are asserted. EGDs
//! (empty existential part) merge congruence classes instead.
//!
//! The chase terminates, with a universal plan polynomial in the query, on a
//! *weakly acyclic* constraint set — not on every path-conjunctive one
//! (`R.A ⊆ S.A` with `S.B ⊆ R.B` invents a tuple per step forever).
//! [`crate::strata::certify`] decides which sets are, once per
//! [`crate::optimizer::Optimizer`], when its set is fixed: an optimizer
//! chases only a certified set, and the analyzer refuses a suite whose set
//! is not. The step and round caps guard the callers that take a raw
//! constraint slice — [`chase`], [`chase_query`],
//! [`crate::equivalence::EquivChecker::new`] and the two backchase
//! searches. A chase they cut short reports [`ChaseStats::truncated`], and
//! the backchase decides nothing on it: a universal plan short of its
//! fixpoint may lack plans.
//!
//! # A constraint with nothing new to match is not searched
//!
//! Only a step changes what a search can match — a probe adds terms of its
//! own, never an equality between terms that were there — so a constraint
//! searched when the chase had applied as many steps as it has now would
//! find exactly the homomorphisms it found then, every one of them already
//! in the applied set, stepped or found trivial. The round loop records
//! `steps_applied` as it searches each constraint and skips the search
//! while that count stands still; the last round of every chase, which used
//! to re-search every constraint only to find nothing new, searches just
//! the constraints searched before the last step. Skipping creates no term:
//! a search interns its probe terms, but the repeated search would have
//! interned the very terms the first one did, all still in the arena. So
//! the steps, their order, `rounds`, `satisfied_skips` and the term arena
//! are what searching every constraint every round gives
//! (`tests/chase_differential.rs`); only [`ChaseStats::homs_found`] counts
//! fewer.

use std::hash::{Hash, Hasher};

use cnb_ir::prelude::{Constraint, Equality, PathExpr, Var};

use crate::canon::{substitute, CanonDb};
use crate::fxhash::{FxHashMap, FxHasher};
use crate::homomorphism::{Body, HomConfig, Homs};

/// Chase limits.
#[derive(Clone, Copy, Debug)]
pub struct ChaseConfig {
    /// Maximum chase steps applied before giving up.
    pub max_steps: usize,
    /// Maximum passes over the constraint set.
    pub max_rounds: usize,
}

impl Default for ChaseConfig {
    fn default() -> ChaseConfig {
        ChaseConfig {
            max_steps: 10_000,
            max_rounds: 64,
        }
    }
}

/// Counters for the experiment harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaseStats {
    /// TGD/EGD steps actually applied.
    pub steps_applied: usize,
    /// Homomorphisms found for universal parts, by the searches run (a
    /// constraint with nothing new to match is not searched; see
    /// [`chase`]).
    pub homs_found: usize,
    /// Steps skipped because the constraint was already satisfied there.
    pub satisfied_skips: usize,
    /// Passes over the constraint set.
    pub rounds: usize,
    /// True if a cap was hit before reaching a fixpoint.
    pub truncated: bool,
}

/// Chases `db` with `constraints` to a fixpoint (or a cap). Returns stats.
pub fn chase(db: &mut CanonDb, constraints: &[Constraint], cfg: ChaseConfig) -> ChaseStats {
    Chaser::new(constraints, cfg).chase_under(db, None)
}

/// A constraint set ready to chase any number of databases: each
/// constraint's universal and existential parts compiled once
/// ([`Body::compile`]), the search buffers and the applied-step set kept
/// from one chase to the next. The backchase runs one implication chase per
/// candidate; after the first few they allocate only what a step adds to
/// the database.
pub(crate) struct Chaser<'a> {
    constraints: &'a [Constraint],
    /// Per constraint: `(universal, premise)` and `(existential, conclusion)`.
    bodies: Vec<(Body<'a>, Body<'a>)>,
    cfg: ChaseConfig,
    universal: Homs,
    existential: Homs,
    applied: Applied,
    /// Per constraint: `steps_applied` when its universal part was last
    /// searched in this chase, `usize::MAX` before that.
    searched_at: Vec<usize>,
}

impl<'a> Chaser<'a> {
    pub(crate) fn new(constraints: &'a [Constraint], cfg: ChaseConfig) -> Chaser<'a> {
        Chaser {
            constraints,
            bodies: constraints
                .iter()
                .map(|c| {
                    (
                        Body::compile(&c.universal, &c.premise),
                        Body::compile(&c.existential, &c.conclusion),
                    )
                })
                .collect(),
            cfg,
            universal: Homs::default(),
            existential: Homs::default(),
            applied: Applied::default(),
            searched_at: Vec::new(),
        }
    }

    /// Chases `db` to a fixpoint (or a cap) under the constraints `mask`
    /// marks (indexed as the constraint slice; `None` marks all): the others
    /// are never searched or fired. Returns stats. A subset of a weakly
    /// acyclic set is weakly acyclic, so a masked chase of a certified set
    /// terminates too; and `db` may already be chased under a subset, which
    /// this chase continues.
    pub(crate) fn chase_under(&mut self, db: &mut CanonDb, mask: Option<&[bool]>) -> ChaseStats {
        let mut stats = ChaseStats::default();
        self.applied.clear();
        self.searched_at.clear();
        self.searched_at.resize(self.constraints.len(), usize::MAX);

        for _round in 0..self.cfg.max_rounds {
            stats.rounds += 1;
            let mut progress = false;
            for (ci, (c, (universal, existential))) in
                self.constraints.iter().zip(&self.bodies).enumerate()
            {
                // Masked out, or no step since this constraint's last
                // search: it has nothing new to match.
                if mask.is_some_and(|m| !m[ci]) || self.searched_at[ci] == stats.steps_applied {
                    continue;
                }
                self.searched_at[ci] = stats.steps_applied;
                universal.search(db, &[], HomConfig::default(), &mut self.universal);
                stats.homs_found += self.universal.count;
                for k in 0..self.universal.count {
                    if !self.applied.insert(ci, self.universal.image(universal, k)) {
                        continue;
                    }
                    // Trivial where the existential part maps too.
                    self.universal.assign(universal, k);
                    existential.search(
                        db,
                        &self.universal.assignment,
                        EXISTS,
                        &mut self.existential,
                    );
                    if self.existential.count > 0 {
                        stats.satisfied_skips += 1;
                        continue;
                    }
                    // The cap cuts a step that is due, never the last one.
                    if stats.steps_applied >= self.cfg.max_steps {
                        stats.truncated = true;
                        return stats;
                    }
                    // An ill-scoped constraint stops the chase as a cap does.
                    if !apply_step(db, c, &mut self.existential.assignment) {
                        stats.truncated = true;
                        return stats;
                    }
                    stats.steps_applied += 1;
                    progress = true;
                }
            }
            if !progress {
                return stats;
            }
        }
        stats.truncated = true;
        stats
    }

    /// Hands `rule` every homomorphism of a constraint's universal part into
    /// `db`, with one witness of its existential part: the constraint's
    /// index, the images of the universal bindings, then of the existential
    /// ones. Returns false as soon as one has no witness — `db` is not a
    /// fixpoint of this set.
    pub(crate) fn witnesses(
        &mut self,
        db: &mut CanonDb,
        mut rule: impl FnMut(usize, &[Var], &[Var]),
    ) -> bool {
        for (ci, (universal, existential)) in self.bodies.iter().enumerate() {
            universal.search(db, &[], HomConfig::default(), &mut self.universal);
            for k in 0..self.universal.count {
                self.universal.assign(universal, k);
                let fixed = &self.universal.assignment;
                existential.search(db, fixed, EXISTS, &mut self.existential);
                if self.existential.count == 0 {
                    return false;
                }
                rule(
                    ci,
                    self.universal.image(universal, k),
                    self.existential.image(existential, 0),
                );
            }
        }
        true
    }
}

/// The search for a step's existential part: one extension decides.
const EXISTS: HomConfig = HomConfig {
    max_homs: 1,
    injective: false,
};

/// The `(constraint, ordered image of its universal variables)` pairs a
/// chase has processed — the paper's "ruling out homomorphisms previously
/// used" — in one flat buffer, so that a key costs no allocation of its own.
#[derive(Default)]
struct Applied {
    /// Hash of a key → one past the start of the newest entry with it.
    newest: FxHashMap<u64, usize>,
    /// Entries `[one past the start of the next older entry with the same
    /// hash (0: none), constraint, image…]`.
    entries: Vec<usize>,
}

impl Applied {
    fn clear(&mut self) {
        self.newest.clear();
        self.entries.clear();
    }

    /// Adds a key; false if it was there already.
    fn insert(&mut self, constraint: usize, image: &[Var]) -> bool {
        let mut hasher = FxHasher::default();
        (constraint, image).hash(&mut hasher);
        let newest = self.newest.entry(hasher.finish()).or_insert(0);
        let mut at = *newest;
        while at != 0 {
            // Images of one constraint are all of one length.
            let entry = &self.entries[at - 1..];
            if entry[1] == constraint && entry[2..].iter().zip(image).all(|(a, b)| *a == b.index())
            {
                return false;
            }
            at = entry[0];
        }
        let older = std::mem::replace(newest, self.entries.len() + 1);
        self.entries.extend([older, constraint]);
        self.entries.extend(image.iter().map(|v| v.index()));
        true
    }
}

/// Applies one chase step of constraint `c`: `assignment` arrives holding
/// the homomorphism of the universal part and leaves holding the fresh
/// existential variables too. Returns false, the step half applied, when an
/// existential range reads a variable the step has not mapped: `c` is
/// ill-scoped ([`Constraint::validate`] refuses it), and only a caller that
/// passes a raw constraint slice can hand the chase one.
fn apply_step(db: &mut CanonDb, c: &Constraint, assignment: &mut [Option<Var>]) -> bool {
    for b in &c.existential {
        let mut unmapped = false;
        let range = b.range.map_vars(&mut |v| {
            let image = assignment.get(v.index()).copied().flatten();
            unmapped |= image.is_none();
            PathExpr::Var(image.unwrap_or(v))
        });
        if unmapped {
            return false;
        }
        let fresh_name = format!("{}_{}", b.name, db.query.var_bound());
        assignment[b.var.index()] = Some(db.add_binding(&fresh_name, range));
    }
    for eq in &c.conclusion {
        let l = substitute(&eq.lhs, assignment);
        let r = substitute(&eq.rhs, assignment);
        db.assert_owned(Equality::new(l, r));
    }
    true
}

/// Convenience: compile and chase a query in one call.
pub fn chase_query(
    q: &cnb_ir::prelude::Query,
    constraints: &[Constraint],
    cfg: ChaseConfig,
) -> (CanonDb, ChaseStats) {
    let mut db = CanonDb::new(q);
    let stats = chase(&mut db, constraints, cfg);
    (db, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnb_ir::prelude::*;

    /// Example 2.1's query `select r.A from R r` and its RIC `R.A ⊆ S.A`.
    fn ric_example() -> (Query, Var, Constraint) {
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        q.output("A", PathExpr::from(r).dot("A"));

        let mut ric = Constraint::new("RIC");
        let cr = ric.forall("r", Range::Name(sym("R")));
        let cs = ric.exists("s", Range::Name(sym("S")));
        ric.then(PathExpr::from(cr).dot("A"), PathExpr::from(cs).dot("A"));
        (q, r, ric)
    }

    /// Example 2.1: chasing with the RIC introduces the join with S.
    #[test]
    fn ric_adds_binding() {
        let (q, r, ric) = ric_example();
        let (db, stats) = chase_query(&q, &[ric], ChaseConfig::default());
        assert_eq!(stats.steps_applied, 1);
        assert!(!stats.truncated);
        assert_eq!(db.query.from.len(), 2);
        assert_eq!(db.query.from[1].range, Range::Name(sym("S")));
        // And the conclusion equality holds.
        let s = db.query.from[1].var;
        let mut db = db;
        assert!(db.implied(&PathExpr::from(r).dot("A"), &PathExpr::from(s).dot("A")));
    }

    /// A chase that needs exactly `max_steps` steps reaches its fixpoint
    /// under that cap: the cap cuts only a step that is due.
    #[test]
    fn a_chase_of_exactly_max_steps_is_not_truncated() {
        let (q, _, ric) = ric_example();
        let cfg = ChaseConfig {
            max_steps: 1,
            ..ChaseConfig::default()
        };
        let (db, stats) = chase_query(&q, &[ric], cfg);
        assert_eq!(stats.steps_applied, 1);
        assert!(!stats.truncated);
        assert_eq!(db.query.from.len(), 2);
    }

    /// Chasing twice with the same constraint must not duplicate bindings.
    #[test]
    fn chase_is_idempotent() {
        let mut q = Query::new();
        q.bind("r", Range::Name(sym("R")));

        let mut ric = Constraint::new("RIC");
        let cr = ric.forall("r", Range::Name(sym("R")));
        let cs = ric.exists("s", Range::Name(sym("S")));
        ric.then(PathExpr::from(cr).dot("A"), PathExpr::from(cs).dot("A"));

        let (db, _) = chase_query(&q, &[ric.clone(), ric.clone()], ChaseConfig::default());
        assert_eq!(db.query.from.len(), 2, "second application is trivial");
    }

    /// A query that already satisfies the constraint is left unchanged.
    #[test]
    fn satisfied_constraint_is_noop() {
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("S")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));

        let mut ric = Constraint::new("RIC");
        let cr = ric.forall("r", Range::Name(sym("R")));
        let cs = ric.exists("s", Range::Name(sym("S")));
        ric.then(PathExpr::from(cr).dot("A"), PathExpr::from(cs).dot("A"));

        let (db, stats) = chase_query(&q, &[ric], ChaseConfig::default());
        assert_eq!(stats.steps_applied, 0);
        assert_eq!(stats.satisfied_skips, 1);
        assert_eq!(db.query.from.len(), 2);
    }

    /// EGDs merge variables: a key constraint collapses two bindings with
    /// equal keys.
    #[test]
    fn key_constraint_merges() {
        let mut q = Query::new();
        let r1 = q.bind("r1", Range::Name(sym("R")));
        let r2 = q.bind("r2", Range::Name(sym("R")));
        q.equate(PathExpr::from(r1).dot("K"), PathExpr::from(r2).dot("K"));

        let key = key_constraint(sym("R"), sym("K"));
        let (mut db, stats) = chase_query(&q, &[key], ChaseConfig::default());
        assert!(stats.steps_applied >= 1);
        assert!(db.implied(&PathExpr::from(r1), &PathExpr::from(r2)));
        assert!(
            db.implied(&PathExpr::from(r1).dot("B"), &PathExpr::from(r2).dot("B")),
            "congruence must propagate r1 = r2 to fields"
        );
    }

    /// Chasing the Example 2.2 query with both view constraints yields the
    /// universal plan with V1 and V2.
    #[test]
    fn views_produce_universal_plan() {
        let mut schema = Schema::new();
        let b_attrs = |extra: &[(&str, Type)]| {
            let mut v = vec![(sym("A1"), Type::Int), (sym("A2"), Type::Int)];
            for (n, t) in extra {
                v.push((sym(n), t.clone()));
            }
            v
        };
        schema.add_relation("R1", b_attrs(&[("K", Type::Int), ("F", Type::Int)]));
        schema.add_relation("R2", b_attrs(&[("K", Type::Int)]));
        for rel in ["S11", "S12", "S21", "S22"] {
            schema.add_relation(rel, [(sym("A"), Type::Int), (sym("B"), Type::Int)]);
        }
        // V_i joins R_i with S_i1, S_i2.
        for i in 1..=2 {
            let mut def = Query::new();
            let r = def.bind("r", Range::Name(sym(&format!("R{i}"))));
            let s1 = def.bind("s1", Range::Name(sym(&format!("S{i}1"))));
            let s2 = def.bind("s2", Range::Name(sym(&format!("S{i}2"))));
            def.equate(PathExpr::from(r).dot("A1"), PathExpr::from(s1).dot("A"));
            def.equate(PathExpr::from(r).dot("A2"), PathExpr::from(s2).dot("A"));
            def.output("K", PathExpr::from(r).dot("K"));
            def.output("B1", PathExpr::from(s1).dot("B"));
            def.output("B2", PathExpr::from(s2).dot("B"));
            add_materialized_view(&mut schema, format!("V{i}"), &def);
        }

        // Q: the foreign-key join across the whole database.
        let mut q = Query::new();
        let r1 = q.bind("r1", Range::Name(sym("R1")));
        let s11 = q.bind("s11", Range::Name(sym("S11")));
        let s12 = q.bind("s12", Range::Name(sym("S12")));
        let r2 = q.bind("r2", Range::Name(sym("R2")));
        let s21 = q.bind("s21", Range::Name(sym("S21")));
        let s22 = q.bind("s22", Range::Name(sym("S22")));
        q.equate(PathExpr::from(r1).dot("F"), PathExpr::from(r2).dot("K"));
        q.equate(PathExpr::from(r1).dot("A1"), PathExpr::from(s11).dot("A"));
        q.equate(PathExpr::from(r1).dot("A2"), PathExpr::from(s12).dot("A"));
        q.equate(PathExpr::from(r2).dot("A1"), PathExpr::from(s21).dot("A"));
        q.equate(PathExpr::from(r2).dot("A2"), PathExpr::from(s22).dot("A"));
        q.output("B11", PathExpr::from(s11).dot("B"));
        q.output("B12", PathExpr::from(s12).dot("B"));
        q.output("B21", PathExpr::from(s21).dot("B"));
        q.output("B22", PathExpr::from(s22).dot("B"));

        let constraints = schema.all_constraints();
        let (db, stats) = chase_query(&q, &constraints, ChaseConfig::default());
        assert!(!stats.truncated);
        // Universal plan: 6 original bindings + v1 + v2.
        assert_eq!(db.query.from.len(), 8);
        let ranges: Vec<String> = db.query.from.iter().map(|b| b.range.to_string()).collect();
        assert!(ranges.contains(&"V1".to_string()), "{ranges:?}");
        assert!(ranges.contains(&"V2".to_string()), "{ranges:?}");
    }

    /// Primary-index constraints add the dom binding; the lookup path becomes
    /// equal to the tuple variable.
    #[test]
    fn primary_index_chase() {
        let mut schema = Schema::new();
        schema.add_relation("R", [(sym("K"), Type::Int), (sym("N"), Type::Int)]);
        add_primary_index(&mut schema, sym("R"), sym("K"), "PI");

        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        q.output("K", PathExpr::from(r).dot("K"));

        let (mut db, stats) = chase_query(&q, &schema.all_constraints(), ChaseConfig::default());
        assert!(!stats.truncated);
        assert_eq!(db.query.from.len(), 2);
        let k = db.query.from[1].var;
        assert_eq!(db.query.from[1].range, Range::Dom(sym("PI")));
        assert!(db.implied(&PathExpr::from(k), &PathExpr::from(r).dot("K")));
        assert!(db.implied(&PathExpr::from(k).lookup_in("PI"), &PathExpr::from(r)));
        // Congruence: PI[k].K = r.K too.
        assert!(db.implied(
            &PathExpr::from(k).lookup_in("PI").dot("K"),
            &PathExpr::from(r).dot("K")
        ));
    }

    /// Inverse relationships (Example 3.3): chasing the navigation query
    /// flips directions by adding the P-side bindings.
    #[test]
    fn inverse_relationship_chase() {
        let [inv_n, inv_p] = inverse_relationship(sym("M1"), sym("M2"), sym("N"), sym("P"));
        let mut q = Query::new();
        let k1 = q.bind("k1", Range::Dom(sym("M1")));
        let o1 = q.bind(
            "o1",
            Range::Expr(PathExpr::from(k1).lookup_in("M1").dot("N")),
        );
        q.output("F", PathExpr::from(k1));
        q.output("L", PathExpr::from(o1));

        let (db, stats) = chase_query(&q, &[inv_n, inv_p], ChaseConfig::default());
        assert!(!stats.truncated);
        // Chase adds k2 in dom M2 and o2 in M2[k2].P with k2 = o1, o2 = k1.
        assert_eq!(db.query.from.len(), 4);
        assert_eq!(db.query.from[2].range, Range::Dom(sym("M2")));
        let k2 = db.query.from[2].var;
        let o2 = db.query.from[3].var;
        let mut db = db;
        assert!(db.implied(&PathExpr::from(k2), &PathExpr::from(o1)));
        assert!(db.implied(&PathExpr::from(o2), &PathExpr::from(k1)));
    }

    /// The step cap truncates a pathological self-feeding chase when its
    /// 26th step is due.
    #[test]
    fn runaway_chase_truncates() {
        // forall (r in R) exists (s in R) s.P = r.K — keeps generating.
        let mut c = Constraint::new("runaway");
        let r = c.forall("r", Range::Name(sym("R")));
        let s = c.exists("s", Range::Name(sym("R")));
        c.then(PathExpr::from(s).dot("P"), PathExpr::from(r).dot("K"));
        let mut q = Query::new();
        q.bind("r0", Range::Name(sym("R")));
        let cfg = ChaseConfig {
            max_steps: 25,
            max_rounds: 64,
        };
        let (_, stats) = chase_query(&q, &[c], cfg);
        assert!(stats.truncated);
        assert_eq!(stats.steps_applied, 25);
    }

    /// An existential range over a variable the constraint never binds is
    /// ill-scoped, and a raw slice can still hand one to the chase: its step
    /// stops the chase as a cap does, in every build, where it once panicked.
    #[test]
    fn an_ill_scoped_existential_range_stops_the_chase() {
        let (q, _, _) = ric_example();
        let mut c = Constraint::new("range_reads_unbound");
        let r = c.forall("r", Range::Name(sym("R")));
        let z = c.exists("z", Range::Expr(PathExpr::from(Var(9)).dot("N")));
        c.then(PathExpr::from(r).dot("A"), PathExpr::from(z).dot("A"));
        let (_, stats) = chase_query(&q, &[c], ChaseConfig::default());
        assert!(stats.truncated);
        assert_eq!(stats.steps_applied, 0);
    }
}
