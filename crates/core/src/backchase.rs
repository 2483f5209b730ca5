//! The backchase — phase 2 of C&B (full implementation, "FB").
//!
//! Starting from the universal plan, the backchase walks top-down "removing
//! one binding at a time and minimizing recursively the subqueries obtained
//! if they are equivalent" (§4). A subquery with no equivalent single-binding
//! removal is *minimal* and is emitted as a plan. Equivalence verdicts are
//! memoized per binding subset, so each subquery is judged and expanded once.
//!
//! # One lattice, two traversals
//!
//! Every search in this crate walks the binding-subset lattice of a chased
//! universal plan. [`Lattice`] owns what that takes — the universal plan,
//! the [`EquivChecker`], a recycled scratch database, the deadline, the
//! borders, the derivations — and is the only code that chases a universal
//! plan, induces a subquery, checks an equivalence or reads the clock for a
//! deadline; `PlanSink` is the only code that deduplicates and collects
//! plans. The searches are orders of visiting the lattice: **depth-first
//! with a memo** (`Search::explore`, the top-down backchase) and **by size,
//! priced** ([`crate::bottomup`], bottom-up growth under a cost bound —
//! which asks `Lattice::well_formed` whether a subset is a subquery and
//! prices its ranges before it has the lattice induce it).
//!
//! # Borders
//!
//! A verdict used to cost one constraint-implication chase, and those chases
//! are the whole of optimization time (§5). Most prove what an earlier one
//! implies: for well-formed subqueries `S ⊆ T` of the universal plan,
//! `Q₀ ⊆ Q_T ⊆ Q_S` — `T` adds bindings and conditions to `S`'s, and the
//! universal plan, equivalent to `Q₀`, is contained in both — so a
//! well-formed superset of an equivalent subset is equivalent and a subset
//! of a refuted one is refuted. The lattice keeps what it has proved as
//! [`Border`]s and [`Lattice::verdict`] asks them before it induces or
//! chases anything. Three kinds:
//!
//! 1. **equivalence** — minimal subsets a chase proved equivalent, maximal
//!    subsets soundly refuted (a failed check on a well-formed candidate, a
//!    refutation by the derivations below, or a subset the output cannot be
//!    recovered from);
//! 2. **range**, one per `Range::Expr` binding — the sets of *earlier kept*
//!    variables over which its range is, or is not, expressible and guarded
//!    (`subquery::induce_range`: candidate paths and `dom` guards are both
//!    functions of that set and only grow with it);
//! 3. **select** — the kept sets from which every output path is, or is
//!    not, recoverable (`subquery::induce_select`).
//!
//! A range or select border that does not know runs that one induction step
//! under a congruence savepoint and learns the answer. `induce_subquery` is
//! the composition of the same steps, so an induction that does run — for a
//! candidate that is chased, for a plan that is emitted — is the one it
//! always was, term ids and plan text included.
//!
//! A verdict the three borders cannot give has a fourth source before the
//! chase: the universal plan's **derivations** ([`crate::derivations`]),
//! read off it once, at the first verdict that would otherwise be chased. A
//! candidate whose closure under them holds no image of the original query
//! is refuted without a chase ([`BackchaseResult::underivable`]) and learnt
//! into the equivalence border as a chased `false` is; on `ec1_4_2` that is
//! 540 of the 591 chases the borders left. Whatever they do not refute is
//! chased, so plans, `explored` and `inferred` do not move.
//!
//! **(i) Well-formedness is not monotone.** A kept binding whose range needs
//! a dropped variable makes `T` malformed — verdict `false` — while `T`
//! minus that binding can be a plan: on `ec1_4_2`, `{$5,$6,$7,$10,$11}` is
//! equivalent under a malformed superset. Only the three predicates above
//! are monotone: a malformed `false` enters no border, and the proved border
//! is asked only once the subset is known well-formed. Debug builds
//! re-prove by a chase every verdict that did not come from one (against a
//! re-chase that finishes), refutations by the derivations included, so each
//! test suite audits every inference it makes; release trusts them.
//!
//! **(ii) Across select lists, the order is a product.** "The subquery on
//! `X` is equivalent under output set `L`" (`L` the select list's
//! `(label, path)` pairs, order ignored) is monotone in both arguments:
//! upward in `X`, as above, and downward in `L` — a mapping that preserves
//! every output of `L₁` preserves every output of a part of it, and a subset
//! that cannot give `L₂` cannot give more. So a proved yes `(L₁, X₁)`
//! answers every `(L, X)` with `L ⊆ L₁` and `X₁ ⊆ X`; a refuted no
//! `(L₂, X₂)` answers every `(L, X)` with `L₂ ⊆ L` and `X ⊆ X₂`, the
//! "outputs not recoverable" no's included. The select border transfers by
//! the same rule, and the range borders do not read the select list at all.
//! This is what [`crate::memo::SkeletonMemo`] carries from one search to the
//! next over the same `from` / `where`. An output set is recorded as the
//! outputs it *has*, never as complement bits for the ones it dropped: the
//! output universe grows as new select lists arrive, and "everything but
//! `C`" written before output `D` existed would, read afterwards, claim
//! verdicts about `D` that nobody proved.
//!
//! The proved border is why the top-down search is depth-first and
//! sequential: a plan is found *below* everything a breadth-first frontier
//! has already judged, so waves can never use it. Of the 1 439 chases a
//! frontier must still run on `ec5_tri_wedge_idx`, 1 309 are ones only that
//! border removes (depth-first runs 130), and the two-thread frontier
//! measured 0.23× the depth-first search. This crate spawns no thread.
//!
//! The hot loop allocates no databases — the lattice induces in place on its
//! universal plan (rolled back after every candidate) and loads each chased
//! candidate from there into its one scratch database
//! ([`crate::subquery::load_subquery`]: no query text, no reduced
//! where-clause; [`CanonDb`] is not `Clone`) — and recycles every search,
//! chase and closure buffer (`tests/alloc_audit.rs`). Only a plan that is
//! emitted is induced as a query. Plan dedup asks `same_arity`'s range
//! prefilter before it chases a pair.
//! The deadline is checked before every candidate. A budget that runs out —
//! the deadline, or a [`ChaseConfig`] cap on the universal chase or on a
//! candidate's — decides nothing (plans are complete only at the chase's
//! fixpoint, §3): the search returns the plans found so far with
//! [`BackchaseResult::timed_out`] set. Every chase here runs under
//! [`ChaseConfig::default`]. An [`crate::optimizer::Optimizer`] searches
//! only a constraint set [`crate::strata::certify`] accepted, whose chases
//! all reach their fixpoints, so there only the deadline runs out; the caps
//! guard a caller of [`chase_and_backchase`] or
//! [`crate::bottomup::bottom_up_backchase`] that passes an uncertified
//! slice.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cnb_ir::prelude::{Binding, Constraint, Query, Range};

use crate::bitset::{Border, VarSet};
use crate::canon::CanonDb;
use crate::chase::{ChaseConfig, ChaseStats};
use crate::congruence::Congruence;
use crate::derivations::Derivations;
use crate::equivalence::{contain_each_other, same_arity, CompiledChecker, EquivChecker};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::memo::SkeletonMemo;
use crate::subquery::{
    all_bindings, induce_range, induce_select, induce_subquery_pure, load_subquery,
};

/// Backchase limits.
#[derive(Clone, Debug)]
pub struct BackchaseConfig {
    /// Wall-clock budget; `None` = unlimited. The paper used 2 minutes.
    pub timeout: Option<Duration>,
    /// Stop after this many plans (safety valve; paper never needed one).
    pub max_plans: usize,
    /// Inert: read by nothing in this crate — both searches are sequential,
    /// see "Borders" in the module docs — and written only by `benchmark/`,
    /// which is why the field is still here (ROADMAP item 1f).
    pub threads: usize,
}

impl Default for BackchaseConfig {
    fn default() -> BackchaseConfig {
        BackchaseConfig {
            timeout: Some(Duration::from_secs(120)),
            max_plans: 100_000,
            threads: 0,
        }
    }
}

/// Result of one backchase run.
#[derive(Clone, Debug, Default)]
pub struct BackchaseResult {
    /// Minimal plans — the induced (minimal, equivalent) subqueries — in
    /// discovery order (depth-first: plans using many physical structures
    /// surface early). A plan keeps exactly the universal-plan bindings its
    /// from-clause lists: induction keeps each kept binding's variable.
    pub plans: Vec<Query>,
    /// Subqueries explored (subsets judged) — the paper's search-space size
    /// measure.
    pub explored: usize,
    /// Of the explored, those whose verdict the borders gave (running at most
    /// the induction steps one of them did not know).
    pub inferred: usize,
    /// Of the explored, those the universal plan's derivations refuted
    /// without a chase ([`crate::derivations`]): `explored - inferred -
    /// underivable` is the chases run, in either search.
    pub underivable: usize,
    /// Candidates pruned by a cost bound (bottom-up strategy only).
    pub pruned: usize,
    /// Of the pruned, those whose [`crate::cost::PlanPricer::floor`] was
    /// already above the bound, dropped before induction: `pruned - floored`
    /// is the subqueries the bound still had built and priced to drop them.
    pub floored: usize,
    /// Universal-plan size (number of bindings).
    pub universal_arity: usize,
    /// Chase stats for building the universal plan; `truncated` is also set
    /// when a candidate's implication chase hit a cap.
    pub chase_stats: ChaseStats,
    /// Time spent chasing the input query into the universal plan.
    pub chase_time: Duration,
    /// Time spent in the backchase proper.
    pub backchase_time: Duration,
    /// True if a budget ran out before the search finished: the deadline or
    /// a chase cap (`chase_stats.truncated` says which).
    pub timed_out: bool,
}

/// The binding-subset lattice of one chased universal plan: what a search
/// needs to judge a candidate subset, owned in one place.
///
/// The universal plan is mutated only transiently — every induction is a
/// savepoint/rollback pair — so between calls it always holds the exact
/// chased state, and a verdict is a pure function of the subset.
pub struct Lattice<'a> {
    /// The equivalence check, compiled once: every candidate is chased with
    /// the same constraint bodies and searched with the same `q0` body.
    checker: CompiledChecker<'a>,
    udb: CanonDb,
    /// Recycled candidate database for equivalence checks, and for the
    /// containments behind [`PlanSink::emit`].
    pub(crate) scratch: CanonDb,
    start: Instant,
    deadline: Option<Instant>,
    chase_stats: ChaseStats,
    chase_time: Duration,
    /// Is the subquery on a subset equivalent to the original query? Asked
    /// of well-formed subsets only (rule (i)).
    pub(crate) equivalence: Border,
    /// Per universal-plan binding: is its range expressible and guarded over
    /// a set of earlier kept variables? Empty unless it is a `Range::Expr`.
    pub(crate) ranges: Vec<Border>,
    /// Is every output path recoverable from a subset?
    pub(crate) select: Border,
    /// Verdicts given without a chase.
    inferred: usize,
    /// The universal plan's derivations, read off it at the first verdict
    /// that would otherwise be chased.
    derivations: Option<Derivations>,
    /// Verdicts the derivations refuted, without a chase.
    underivable: usize,
}

/// `border`'s answer for `set`; one it does not have is worked out by `step`
/// under a congruence savepoint and learnt.
fn ask(
    border: &mut Border,
    set: &VarSet,
    cong: &mut Congruence,
    step: impl FnOnce(&mut Congruence) -> bool,
) -> bool {
    let known = border.covers_yes(set);
    if !known && !border.covers_no(set) {
        let sp = cong.save();
        let holds = step(cong);
        cong.rollback(sp);
        border.learn(set, holds);
        return holds;
    }
    known
}

impl<'a> Lattice<'a> {
    /// Chases `q0` under `constraints` into its universal plan. The time
    /// budget of `cfg` starts here; it only ever truncates a search and sets
    /// `timed_out`, so with no timeout configured the clock is inert. A
    /// universal chase cut short by a cap leaves it [`Lattice::expired`].
    pub fn chase(q0: &'a Query, constraints: &'a [Constraint], cfg: &BackchaseConfig) -> Self {
        #[expect(clippy::disallowed_methods)]
        let start = Instant::now();
        let mut checker = EquivChecker::new(q0, constraints, ChaseConfig::default()).compile();
        let mut udb = CanonDb::new(q0);
        let chase_stats = checker.chaser.chase(&mut udb);
        Lattice {
            checker,
            ranges: vec![Border::default(); udb.query.from.len()],
            udb,
            scratch: CanonDb::empty(),
            start,
            deadline: cfg.timeout.map(|t| start + t),
            chase_stats,
            chase_time: start.elapsed(),
            equivalence: Border::default(),
            select: Border::default(),
            inferred: 0,
            derivations: None,
            underivable: 0,
        }
    }

    /// The universal plan's from-clause. Induction keeps a kept binding's
    /// variable and its range's kind and collection; only the path of a
    /// `Range::Expr` is rewritten.
    pub(crate) fn bindings(&self) -> &[Binding] {
        &self.udb.query.from
    }

    /// The subquery of the universal plan induced by `keep`; `None` when a kept
    /// range or the original output is not recoverable from those bindings.
    pub fn induce(&mut self, keep: &VarSet) -> Option<Query> {
        self.well_formed(keep).then(|| self.induced(keep))
    }

    /// The subquery on a subset that [`Lattice::well_formed`] has accepted.
    pub(crate) fn induced(&mut self, keep: &VarSet) -> Query {
        induce_subquery_pure(&mut self.udb, keep, &self.checker.spec.q0.select)
            .expect("a well-formed subset induces a subquery")
    }

    /// Is the subquery on `keep` equivalent to the original query under the
    /// constraints? The borders are neither asked nor taught: the universal
    /// plan's derivations refute what they can, and the rest is chased.
    /// `None` means a budget ran out ([`Lattice::verdict`]).
    pub fn equivalent(&mut self, keep: &VarSet) -> Option<bool> {
        if self.expired() {
            return None;
        }
        if self.underivable(keep) {
            return Some(false);
        }
        let verdict = self.chased(keep);
        self.chase_stats.truncated |= verdict.is_none();
        verdict
    }

    /// Is the subquery induced by `keep` equivalent to the original query?
    /// `None` means a budget ran out before the verdict was computed: the
    /// lattice [`expired`](Lattice::expired), or the candidate's implication
    /// chase hit a cap — which spends the lattice's budget as the deadline
    /// does, so every later verdict is `None` too. The borders are asked
    /// first, then the derivations; what neither can tell is chased.
    pub fn verdict(&mut self, keep: &VarSet) -> Option<bool> {
        if self.expired() {
            return None;
        }
        let inferred = if self.equivalence.covers_no(keep) || !self.well_formed(keep) {
            Some(false)
        } else {
            // Rule (i): only now that `keep` is known to be a subquery.
            self.equivalence.covers_yes(keep).then_some(true)
        };
        if let Some(verdict) = inferred {
            debug_assert!(self.chased(keep).is_none_or(|c| c == verdict), "{keep:?}");
            self.inferred += 1;
            return inferred;
        }
        if self.underivable(keep) {
            self.equivalence.learn(keep, false);
            return Some(false);
        }
        let Some(verdict) = self.chased(keep) else {
            self.chase_stats.truncated = true;
            return None;
        };
        self.equivalence.learn(keep, verdict);
        Some(verdict)
    }

    /// Is `keep` a subquery? `induce_subquery`'s from- and select-clause
    /// steps, in its order, each answered by its border where that knows.
    pub(crate) fn well_formed(&mut self, keep: &VarSet) -> bool {
        let Lattice {
            udb: CanonDb { query, cong, .. },
            checker,
            equivalence,
            ranges,
            select,
            ..
        } = self;
        let mut earlier = VarSet::new();
        for (b, border) in query.from.iter().zip(ranges) {
            if !keep.contains(b.var) {
                continue;
            }
            if matches!(b.range, Range::Expr(_))
                && !ask(border, &earlier, cong, |cong| {
                    induce_range(cong, &query.from, &b.range, &earlier).is_some()
                })
            {
                return false;
            }
            earlier.insert(b.var);
        }
        let outputs = &checker.spec.q0.select;
        let recoverable = ask(select, keep, cong, |cong| {
            induce_select(cong, outputs, keep).is_some()
        });
        if !recoverable {
            // Nor does any subset of `keep` recover the output: malformed
            // or not, none of them is equivalent.
            equivalence.learn(keep, false);
        }
        recoverable
    }

    /// Do the universal plan's derivations refute `keep`
    /// ([`crate::derivations`])? They are read off the universal plan at the
    /// first call. A refutation is counted, and re-proved by a chase in debug
    /// builds.
    pub fn underivable(&mut self, keep: &VarSet) -> bool {
        let Lattice {
            checker,
            udb,
            derivations,
            ..
        } = self;
        let refuted = derivations
            .get_or_insert_with(|| Derivations::build(checker, udb))
            .refutes(keep);
        if refuted {
            debug_assert!(self.chased(keep).is_none_or(|c| !c), "{keep:?}");
            self.underivable += 1;
        }
        refuted
    }

    /// The verdict on `keep` by induction and chase, as before there were
    /// borders; `None` when the implication chase hit a cap. Touches no
    /// border.
    fn chased(&mut self, keep: &VarSet) -> Option<bool> {
        let select = &self.checker.spec.q0.select;
        if !load_subquery(&mut self.udb, keep, select, &mut self.scratch) {
            return Some(false);
        }
        let (verdict, stats) = self.checker.check(&mut self.scratch);
        (!stats.truncated).then_some(verdict)
    }

    /// Has a budget run out: a chase hit a cap (the universal one, or a
    /// candidate's), or the deadline passed?
    pub fn expired(&self) -> bool {
        if self.chase_stats.truncated {
            return true;
        }
        #[expect(clippy::disallowed_methods)]
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Closes a search over this lattice: `result` carries the search's
    /// counters, `sink` its plans; the lattice adds what the chase measured.
    pub(crate) fn finish(&self, result: BackchaseResult, sink: PlanSink) -> BackchaseResult {
        BackchaseResult {
            plans: sink.plans,
            universal_arity: self.udb.query.from.len(),
            chase_stats: self.chase_stats,
            chase_time: self.chase_time,
            backchase_time: self.start.elapsed() - self.chase_time,
            inferred: self.inferred,
            underivable: self.underivable,
            ..result
        }
    }
}

/// Where every search, and each OCS stage, puts its plans: deduplicated, in
/// discovery order, capped at [`BackchaseConfig::max_plans`].
pub(crate) struct PlanSink {
    /// The plans kept, in the order they were offered.
    pub(crate) plans: Vec<Query>,
    /// Canonical keys of every query offered so far.
    keys: FxHashSet<String>,
    cap: usize,
}

impl PlanSink {
    pub(crate) fn new(cap: usize) -> PlanSink {
        PlanSink {
            plans: Vec::new(),
            keys: FxHashSet::default(),
            cap,
        }
    }

    /// Has the plan cap been reached? Searches stop when it has.
    pub(crate) fn full(&self) -> bool {
        self.plans.len() >= self.cap
    }

    /// Adds a plan unless it is already there. Fast syntactic dedup first;
    /// semantic dedup ([`crate::equivalence::same_plan`]) catches plans whose
    /// from-clauses list the same bindings in other orders. A plan that got
    /// past the key set has a key no stored plan has, so what is left of the
    /// semantic check is the containments — run on `scratch`.
    pub(crate) fn emit(&mut self, scratch: &mut CanonDb, query: Query) {
        let same = |p: &Query| same_arity(p, &query) && contain_each_other(scratch, p, &query);
        if !self.full() && self.keys.insert(query.canonical_key()) && !self.plans.iter().any(same) {
            self.plans.push(query);
        }
    }
}

/// Process-wide count of [`chase_and_backchase`] invocations. Its one
/// reader is `benchmark/`, which counts a workload's C&B runs with it; the
/// tests audit a server's own counters instead. It goes once the benchmark
/// counts from the server under test (ROADMAP 1g, 7a).
static RUNS: AtomicUsize = AtomicUsize::new(0);

/// Process-wide total of [`chase_and_backchase`] calls so far.
pub fn chase_and_backchase_runs() -> usize {
    RUNS.load(Ordering::Relaxed)
}

/// Runs chase + full (top-down) backchase of `q0` under `constraints`.
pub fn chase_and_backchase(
    q0: &Query,
    constraints: &[Constraint],
    cfg: &BackchaseConfig,
) -> BackchaseResult {
    chase_and_backchase_in(q0, constraints, cfg, &mut SkeletonMemo::bounded(0))
}

/// [`chase_and_backchase`] starting from what `memo` holds for `q0`'s
/// skeleton and leaving there what it proves: the same plans, in the same
/// order, with the same `explored`; only `inferred` can rise.
pub(crate) fn chase_and_backchase_in(
    q0: &Query,
    constraints: &[Constraint],
    cfg: &BackchaseConfig,
    memo: &mut SkeletonMemo,
) -> BackchaseResult {
    debug_assert_eq!(
        q0.validate(),
        Ok(()),
        "chase_and_backchase called with ill-formed query"
    );
    debug_assert!(
        constraints.iter().all(|c| c.validate().is_ok()),
        "chase_and_backchase called with an ill-formed constraint"
    );
    RUNS.fetch_add(1, Ordering::Relaxed);
    let mut lattice = Lattice::chase(q0, constraints, cfg);
    let ticket = memo.seed(&mut lattice, q0, constraints);
    let all = all_bindings(&lattice.udb.query);
    let mut search = Search {
        lattice: &mut lattice,
        memo: FxHashMap::default(),
        sink: PlanSink::new(cfg.max_plans),
        result: BackchaseResult::default(),
    };
    search.explore(&all);
    let Search { result, sink, .. } = search;
    if let Some(ticket) = ticket {
        memo.keep(ticket, &lattice);
    }
    lattice.finish(result, sink)
}

/// The top-down search: a memo of the verdicts it has asked for.
struct Search<'l, 'a> {
    lattice: &'l mut Lattice<'a>,
    /// Equivalence verdict per binding subset. A subset is expanded when
    /// its verdict is first recorded `true` (the root directly), so a
    /// remembered verdict never expands anything again.
    memo: FxHashMap<VarSet, bool>,
    sink: PlanSink,
    /// `explored` and `timed_out` accumulate here.
    result: BackchaseResult,
}

impl Search<'_, '_> {
    /// Depth-first from `s`, which is known equivalent: expand its children
    /// and emit it if none of them is equivalent.
    fn explore(&mut self, s: &VarSet) {
        let mut minimal = true;
        // All children decided? A budget that ran out leaves minimality
        // unproven, so the subset must not be emitted as a plan.
        let mut decided = true;
        for v in s.iter().collect::<Vec<_>>() {
            if self.sink.full() {
                return;
            }
            let child = s.without(v);
            let (verdict, fresh) = match self.memo.get(&child) {
                Some(&v) => (Some(v), false),
                None => {
                    let v = self.lattice.verdict(&child);
                    (self.record(child.clone(), v), true)
                }
            };
            match verdict {
                Some(true) => {
                    minimal = false;
                    if fresh {
                        self.explore(&child);
                    }
                }
                Some(false) => {}
                None => decided = false,
            }
        }
        if minimal && decided && !self.sink.full() {
            if let Some(q) = self.lattice.induce(s) {
                self.sink.emit(&mut self.lattice.scratch, q);
            }
        }
    }

    /// Books a freshly computed verdict for `s`; `None` means a budget ran
    /// out before it.
    fn record(&mut self, s: VarSet, verdict: Option<bool>) -> Option<bool> {
        match verdict {
            None => self.result.timed_out = true,
            Some(v) => {
                self.result.explored += 1;
                self.memo.insert(s, v);
            }
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnb_ir::prelude::*;

    fn plans_of(result: &BackchaseResult) -> Vec<String> {
        result
            .plans
            .iter()
            .map(|p| {
                let mut rs: Vec<String> = p.from.iter().map(|b| b.range.to_string()).collect();
                rs.sort();
                rs.join(",")
            })
            .collect()
    }

    /// Example 3.1 with n = 1: one relation, one primary index → 2 plans.
    #[test]
    fn single_relation_single_index() {
        let mut schema = Schema::new();
        schema.add_relation("R1", [(sym("K"), Type::Int), (sym("B"), Type::Int)]);
        add_primary_index(&mut schema, sym("R1"), sym("K"), "I1");
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R1")));
        q.output("K", PathExpr::from(r).dot("K"));
        q.output("B", PathExpr::from(r).dot("B"));

        let res = chase_and_backchase(&q, &schema.all_constraints(), &BackchaseConfig::default());
        assert_eq!(res.universal_arity, 2);
        let mut ps = plans_of(&res);
        ps.sort();
        assert_eq!(ps, vec!["R1".to_string(), "dom I1".to_string()]);
        assert!(!res.timed_out);
    }

    /// Example 3.1: chain of n relations with one index each → 2ⁿ plans.
    #[test]
    fn chain_query_plan_count() {
        for n in 1..=3usize {
            let mut schema = Schema::new();
            for i in 1..=n {
                schema.add_relation(
                    format!("R{i}"),
                    [(sym("A"), Type::Int), (sym("B"), Type::Int)],
                );
                add_primary_index(
                    &mut schema,
                    sym(&format!("R{i}")),
                    sym("A"),
                    format!("I{i}"),
                );
            }
            let mut q = Query::new();
            let vars: Vec<Var> = (1..=n)
                .map(|i| q.bind(&format!("r{i}"), Range::Name(sym(&format!("R{i}")))))
                .collect();
            for w in vars.windows(2) {
                q.equate(PathExpr::from(w[0]).dot("B"), PathExpr::from(w[1]).dot("A"));
            }
            q.output("A", PathExpr::from(vars[0]).dot("A"));
            q.output("B", PathExpr::from(vars[n - 1]).dot("B"));

            let res =
                chase_and_backchase(&q, &schema.all_constraints(), &BackchaseConfig::default());
            assert_eq!(
                res.plans.len(),
                1 << n,
                "n={n}: expected 2^{n} plans, got {:?}",
                plans_of(&res)
            );
        }
    }

    /// Join minimization: the redundant half of a self-join is removed and
    /// only the core remains.
    #[test]
    fn minimization_produces_core() {
        let mut q = Query::new();
        let r1 = q.bind("r1", Range::Name(sym("R")));
        let r2 = q.bind("r2", Range::Name(sym("R")));
        q.equate(PathExpr::from(r1).dot("A"), PathExpr::from(r2).dot("A"));
        q.output("A", PathExpr::from(r1).dot("A"));

        let res = chase_and_backchase(&q, &[], &BackchaseConfig::default());
        assert_eq!(res.plans.len(), 1);
        assert_eq!(res.plans[0].from.len(), 1);
    }

    /// Example 2.2 core claim: with the key constraint, the two-view plan
    /// {V1, V2} appears; without it, it must not.
    #[test]
    fn example22_key_constraint_unlocks_double_view_plan() {
        fn build(with_key: bool) -> BackchaseResult {
            let mut schema = Schema::new();
            schema.add_relation(
                "R1",
                [
                    (sym("K"), Type::Int),
                    (sym("A1"), Type::Int),
                    (sym("A2"), Type::Int),
                    (sym("F"), Type::Int),
                ],
            );
            schema.add_relation(
                "R2",
                [
                    (sym("K"), Type::Int),
                    (sym("A1"), Type::Int),
                    (sym("A2"), Type::Int),
                ],
            );
            for rel in ["S11", "S12", "S21", "S22"] {
                schema.add_relation(rel, [(sym("A"), Type::Int), (sym("B"), Type::Int)]);
            }
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
            if with_key {
                schema.add_constraint(key_constraint(sym("R1"), sym("K")));
            }

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

            chase_and_backchase(&q, &schema.all_constraints(), &BackchaseConfig::default())
        }

        let with_key = build(true);
        let keys: Vec<String> = plans_of(&with_key);
        // Q' (V2 replaces star 2) must always be present.
        assert!(
            keys.iter().any(|k| k.contains("V2") && !k.contains("V1")),
            "{keys:?}"
        );
        // Q'' (both views, R1 kept for F) only with the key constraint.
        assert!(
            keys.iter().any(|k| k.contains("V1") && k.contains("V2")),
            "{keys:?}"
        );

        let without_key = build(false);
        let keys2 = plans_of(&without_key);
        assert!(
            !keys2.iter().any(|k| k.contains("V1") && k.contains("V2")),
            "without the key, V1+V2 must not be joint: {keys2:?}"
        );
    }

    /// The discovery order is depth-first: a plan using the most physical
    /// structures is found first (paper's "best plan first" observation).
    #[test]
    fn physical_plans_surface_first() {
        let mut schema = Schema::new();
        schema.add_relation("R1", [(sym("K"), Type::Int), (sym("B"), Type::Int)]);
        add_primary_index(&mut schema, sym("R1"), sym("K"), "I1");
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R1")));
        q.output("K", PathExpr::from(r).dot("K"));

        let res = chase_and_backchase(&q, &schema.all_constraints(), &BackchaseConfig::default());
        assert_eq!(res.plans.len(), 2);
        // Depth-first from the universal plan removes the *first* binding (r)
        // first, so the index plan is discovered before the scan plan.
        assert_eq!(res.plans[0].from[0].range, Range::Dom(sym("I1")));
    }

    /// An EC1-style chain with indexes: chain of n relations.
    fn indexed_chain(n: usize) -> (Schema, Query) {
        let mut schema = Schema::new();
        for i in 1..=n {
            schema.add_relation(
                format!("T{i}"),
                [(sym("A"), Type::Int), (sym("B"), Type::Int)],
            );
            add_primary_index(
                &mut schema,
                sym(&format!("T{i}")),
                sym("A"),
                format!("J{i}"),
            );
        }
        let mut q = Query::new();
        let vars: Vec<Var> = (1..=n)
            .map(|i| q.bind(&format!("t{i}"), Range::Name(sym(&format!("T{i}")))))
            .collect();
        for w in vars.windows(2) {
            q.equate(PathExpr::from(w[0]).dot("B"), PathExpr::from(w[1]).dot("A"));
        }
        q.output("A", PathExpr::from(vars[0]).dot("A"));
        (schema, q)
    }

    /// Timeout produces a partial result with the flag set.
    #[test]
    fn timeout_is_reported() {
        let (schema, q) = indexed_chain(6);
        let cfg = BackchaseConfig {
            timeout: Some(Duration::from_millis(1)),
            ..BackchaseConfig::default()
        };
        let res = chase_and_backchase(&q, &schema.all_constraints(), &cfg);
        assert!(res.timed_out || res.plans.len() == 64);
    }

    /// `R.A ⊆ S.A` and `S.B ⊆ R.B`: each inclusion's fresh tuple feeds the
    /// other's, so the pair is not weakly acyclic and a chase from `R`
    /// alone never reaches a fixpoint.
    fn diverging_pair() -> [Constraint; 2] {
        let inclusion = |from: &str, to: &str, attr: &str| {
            let mut c = Constraint::new(format!("{from}_{attr}_in_{to}"));
            let x = c.forall("x", Range::Name(sym(from)));
            let y = c.exists("y", Range::Name(sym(to)));
            c.then(PathExpr::from(x).dot(attr), PathExpr::from(y).dot(attr));
            c
        };
        [inclusion("R", "S", "A"), inclusion("S", "R", "B")]
    }

    /// A universal chase cut short by its round cap decides nothing: the
    /// search stops as at an expired deadline, with no verdict counted and
    /// no plan. The chase of `select r.A from R r` under the diverging pair
    /// runs to the cap; under its first inclusion alone it reaches a
    /// fixpoint, and the same search explores and plans.
    #[test]
    fn a_capped_universal_chase_decides_nothing() {
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        q.output("A", PathExpr::from(r).dot("A"));
        let cs = diverging_pair();
        let cfg = BackchaseConfig::default();
        let one = chase_and_backchase(&q, &cs[..1], &cfg);
        assert!(!one.chase_stats.truncated && !one.timed_out);
        assert!(one.explored > 0 && !one.plans.is_empty());
        let res = chase_and_backchase(&q, &cs, &cfg);
        assert_eq!(res.chase_stats.rounds, ChaseConfig::default().max_rounds);
        assert!(res.chase_stats.truncated && res.timed_out);
        assert_eq!((res.explored, res.inferred, res.plans.len()), (0, 0, 0));
    }

    /// The diverging pair diverges from `R` alone, but a query that
    /// joins `R` and `S` on both already satisfies it: its universal chase
    /// is a 0-step fixpoint. Each one-binding candidate's implication chase
    /// then runs to the round cap, and that decides nothing either: both
    /// searches stop with the budget spent, `chase_stats.truncated` set, no
    /// verdict counted and no plan.
    #[test]
    fn a_capped_candidate_chase_decides_nothing() {
        let cs = diverging_pair();
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("S")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
        q.equate(PathExpr::from(s).dot("B"), PathExpr::from(r).dot("B"));
        q.output("A", PathExpr::from(r).dot("A"));
        let cfg = BackchaseConfig::default();
        let top_down = chase_and_backchase(&q, &cs, &cfg);
        let pricer = crate::cost::CostModel::default();
        let bottom_up = crate::bottomup::bottom_up_backchase(&q, &cs, &cfg, &pricer, None);
        for res in [top_down, bottom_up] {
            assert_eq!(res.chase_stats.steps_applied, 0, "a 0-step universal chase");
            assert!(res.chase_stats.truncated && res.timed_out);
            assert_eq!((res.explored, res.inferred, res.plans.len()), (0, 0, 0));
        }
    }

    /// An already-expired deadline reports a timeout (and no spurious plans).
    #[test]
    fn expired_deadline_is_cooperative() {
        let (schema, q) = indexed_chain(4);
        let cfg = BackchaseConfig {
            timeout: Some(Duration::ZERO),
            ..BackchaseConfig::default()
        };
        let res = chase_and_backchase(&q, &schema.all_constraints(), &cfg);
        assert!(res.timed_out);
        assert!(
            res.plans.is_empty(),
            "minimality of {} plans was never proven",
            res.plans.len()
        );
    }
}
