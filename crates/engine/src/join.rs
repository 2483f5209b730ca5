//! Access-path planning and the batched join/filter operators.
//!
//! [`Op`] is the pipeline's operator set — `Bind`, `DictJoin` and
//! `GenericJoin` (the last one planned and executed in [`crate::wcoj`]) —
//! and [`crate::eval`] holds the one loop that runs them. This module
//! plans and executes the two binary ones.
//!
//! Planning (shared with the legacy oracle in [`crate::eval`]) is the
//! greedy selectivity-aware ordering the original interpreter used: probe
//! accesses beat scans, smaller collections beat larger ones, and ties are
//! broken **explicitly** by from-clause position — never by the iteration
//! order of any map (`Database::cardinalities` is likewise symbol-sorted).
//! A scan that neither shares an equality with the bound prefix nor
//! unblocks a range-dependent binding is a pure cross product and is
//! deferred behind every connected or unlocking candidate — without this,
//! plans whose rewrites remove the "hub" collection (EC4's star rewrites
//! replace the fact table with index/view accesses) multiply dimension
//! tables together before the connecting binding ever enters the pipeline.
//!
//! The dictionary algebra's access structures come as *pairs* —
//! `dom M k, M[k] t` is "scan the index", and an equality on `t` against
//! the bound prefix makes it "probe the index". Once the order is chosen,
//! and without changing it, [`plan`] fuses each such pair into one
//! [`Op::DictJoin`] that binds both slots and emits only the matching
//! `(key, element)` pairs, instead of cross-multiplying the prefix with
//! every pair and filtering afterwards. [`greedy_order`] is the unfused
//! half, which the legacy oracle in [`crate::eval`] keeps executing as a
//! nested loop.
//!
//! Execution is batch-at-a-time: each operator takes the current
//! [`Batch`], walks it front to back, and emits a selection vector plus the
//! new binding's column(s) — pointers to the rows, keys and set elements
//! the database stores, never copies. A candidate is checked against the
//! operator's residual equalities while it is still `(input row, candidate
//! value)`, so only survivors are gathered, once; the stats keep one
//! `filter` entry per equality with the counts a cascade of separate filter
//! operators would report. Key, probe and filter paths are resolved once
//! per operator ([`Path`]), and a hash join takes its build table once.
//!
//! **Which filter sides are read when.** A side that reads the candidate
//! (`t.V`, `k`, `M[t.K]`) is read once per candidate. A side that reads
//! none — a column of the input batch and a field chain off it (`r.C.D`),
//! a lookup keyed by one (`X[r.A]`), a constant — is read once per input
//! row, when the row's first candidate arrives, and every candidate of the
//! row is compared with that value. The hoist is sound because evaluation
//! is pure: such a side's value is a function of the input row alone, so
//! reading it once gives every candidate the value it would have read
//! itself, an undefined one drops each of them as before, and the cascade
//! counts do not move. [`Path::resolve`] decides which sides read a
//! candidate; nothing else does.
//!
//! **Build sides follow the input.** A hash join builds its table the
//! first time it runs with rows, and an empty input builds nothing
//! ([`JoinIndexes`]). A `dict_join` reads its dictionary once per call, for
//! the values its rows ask for, and keeps only those pairs ([`Asked`]).
//! Both are keyed by [`cnb_core::fxhash`] and keep build-side rows in
//! first-insertion (table, or dictionary-then-set) order, so probe output
//! order is a pure function of `(database, plan)` — the engine's
//! determinism guarantee — and equals the nested-loop order of the unfused
//! steps.

use std::borrow::Cow;
use std::collections::hash_map::Entry;

use cnb_core::fxhash::FxHashMap;
use cnb_ir::prelude::*;

use crate::batch::{eval_path_at, homed, Batch, Home, Path};
use crate::database::{Database, OrderedDict};
use crate::error::ExecError;
use crate::eval::{ExecStats, OpStats};
use crate::wcoj::GenericJoin;

/// How a binding will be accessed, decided during planning.
pub(crate) enum Access {
    /// Full table scan.
    Scan(Symbol),
    /// Hash join: probe an (attribute → rows) build table with a key path.
    HashJoin {
        /// Build-side table.
        table: Symbol,
        /// Build-side join attribute.
        attr: Symbol,
        /// Probe key over already-bound columns.
        key: PathExpr,
    },
    /// Iterate all keys of a dictionary (insertion order).
    DomScan(Symbol),
    /// Probe a dictionary with a key expression (binding = the key itself).
    DomProbe(Symbol, PathExpr),
    /// Expand a set-valued path.
    PathSet(PathExpr),
}

/// One step of the chosen evaluation order.
pub(crate) struct Step {
    /// Index into the query's from-clause.
    pub binding_idx: usize,
    /// Access path for the binding.
    pub access: Access,
    /// Equalities fully checkable once this binding is bound.
    pub filters: Vec<Equality>,
}

/// A fused `dom M k, M[k].f… t` index pair, joined to the bound prefix on
/// one equality over the element (`t.attr = key` or `t = key`).
pub(crate) struct DictJoin {
    /// The dictionary `M`.
    pub dict: Symbol,
    /// From-clause index of the key binding `k`.
    pub key_idx: usize,
    /// From-clause index of the element binding `t`.
    pub elem_idx: usize,
    /// Fields from the entry `M[k]` down to the set (`M[k].N` → `[N]`).
    pub fields: Vec<Symbol>,
    /// The element attribute the equality reads; `None` for the whole
    /// element.
    pub attr: Option<Symbol>,
    /// The equality's other side, over variables bound before `k`.
    pub probe: PathExpr,
    /// The two steps' remaining filters: the key's, then the element's.
    pub filters: Vec<Equality>,
}

/// One operator of the executable pipeline.
pub(crate) enum Op {
    /// One binding through its own access path.
    Bind(Step),
    /// Two bindings through one index probe.
    DictJoin(DictJoin),
    /// Every binding through one multiway intersection.
    GenericJoin(GenericJoin),
}

impl Op {
    /// From-clause indexes this operator binds, in nested-loop order.
    pub fn bindings(&self) -> impl Iterator<Item = usize> {
        let (run, then) = match self {
            Op::Bind(step) => (step.binding_idx..step.binding_idx + 1, None),
            Op::DictJoin(dj) => (dj.key_idx..dj.key_idx + 1, Some(dj.elem_idx)),
            Op::GenericJoin(gj) => (0..gj.width(), None),
        };
        run.chain(then)
    }
}

/// The executable pipeline for `q`: [`greedy_order`], then every index
/// pair the order placed back to back fused into a [`DictJoin`]. The order
/// itself never changes.
pub(crate) fn plan(db: &Database, q: &Query) -> Result<Vec<Op>, ExecError> {
    let steps = greedy_order(db, q)?;
    let mut ops = Vec::with_capacity(steps.len());
    let mut bound: Vec<Var> = Vec::with_capacity(steps.len());
    let mut steps = steps.into_iter().peekable();
    while let Some(step) = steps.next() {
        let fused = steps
            .peek()
            .and_then(|elem| fuse_dict_pair(q, &bound, &step, elem));
        let op = match fused {
            Some(dj) => {
                steps.next();
                Op::DictJoin(dj)
            }
            None => Op::Bind(step),
        };
        bound.extend(op.bindings().map(|i| q.from[i].var));
        ops.push(op);
    }
    Ok(ops)
}

/// Recognises `dom M k` (`key_step`) directly followed by `M[k].f… t`
/// (`elem_step`) whose filters hold `t.attr = probe` (preferred: it is the
/// shape index rewrites produce) or `t = probe`, with `probe` over `bound`
/// — the variables bound before `k`.
fn fuse_dict_pair(q: &Query, bound: &[Var], key_step: &Step, elem_step: &Step) -> Option<DictJoin> {
    let (Access::DomScan(dict), Access::PathSet(path)) = (&key_step.access, &elem_step.access)
    else {
        return None;
    };
    let k = q.from[key_step.binding_idx].var;
    let t = q.from[elem_step.binding_idx].var;
    let mut fields = Vec::new();
    let mut entry = path;
    while let PathExpr::Field(base, f) = entry {
        fields.push(*f);
        entry = base;
    }
    fields.reverse();
    if !matches!(entry, PathExpr::Lookup(m, key)
        if m == dict && matches!(**key, PathExpr::Var(v) if v == k))
    {
        return None;
    }
    let candidates = || {
        elem_step
            .filters
            .iter()
            .enumerate()
            .flat_map(|(i, eq)| [(i, &eq.lhs, &eq.rhs), (i, &eq.rhs, &eq.lhs)])
            .filter_map(|(i, side, probe)| {
                let attr = match side {
                    PathExpr::Var(v) if *v == t => None,
                    PathExpr::Field(base, a) if matches!(**base, PathExpr::Var(v) if v == t) => {
                        Some(*a)
                    }
                    _ => return None,
                };
                probe
                    .vars_all(&mut |v| bound.contains(&v))
                    .then_some((i, attr, probe))
            })
    };
    let (joined_on, attr, probe) = candidates()
        .find(|(_, attr, _)| attr.is_some())
        .or_else(|| candidates().next())?;
    let residual = elem_step
        .filters
        .iter()
        .enumerate()
        .filter_map(|(i, eq)| (i != joined_on).then_some(eq));
    Some(DictJoin {
        dict: *dict,
        key_idx: key_step.binding_idx,
        elem_idx: elem_step.binding_idx,
        fields,
        attr,
        probe: probe.clone(),
        filters: key_step.filters.iter().chain(residual).cloned().collect(),
    })
}

/// Greedy ordering + access-path selection, one [`Step`] per binding.
pub(crate) fn greedy_order(db: &Database, q: &Query) -> Result<Vec<Step>, ExecError> {
    // Binding-order soundness only: disconnected (cross-product) queries
    // are legal here — the engine evaluates them — and are rejected
    // earlier, by `cnb_analyze::validate::validate_plan` over optimizer-emitted plans.
    debug_assert_eq!(
        q.validate(),
        Ok(()),
        "join::greedy_order called with ill-formed query"
    );
    let n = q.from.len();
    let mut placed: Vec<bool> = vec![false; n];
    let mut bound: Vec<Var> = Vec::new();
    let mut used_conds: Vec<bool> = vec![false; q.where_.len()];
    let mut steps = Vec::with_capacity(n);

    #[allow(clippy::needless_range_loop)]
    for _ in 0..n {
        // Candidates: unplaced bindings whose range variables are bound.
        // The comparison key is (access tier, cardinality, from-clause
        // index) — the final component is the explicit tie-break, so equal
        // (tier, card) candidates resolve by query position, not by the
        // order some map happened to yield them.
        let mut best: Option<(u8, usize, usize, Access, Option<usize>)> = None;
        for i in 0..n {
            if placed[i] {
                continue;
            }
            let b = &q.from[i];
            let deps_ok = b.range.vars().iter().all(|v| bound.contains(v));
            if !deps_ok {
                continue;
            }
            let (tier, card, access, consumed) = match &b.range {
                Range::Expr(p) => (0u8, 0usize, Access::PathSet(p.clone()), None),
                Range::Dom(m) => match probe_key(q, b.var, &bound, &used_conds) {
                    Some((ci, key)) => (0u8, 1usize, Access::DomProbe(*m, key), Some(ci)),
                    None => (2u8, db.cardinality(*m), Access::DomScan(*m), None),
                },
                Range::Name(t) => match probe_attr_key(q, b.var, &bound, &used_conds) {
                    Some((ci, attr, key)) => (
                        1u8,
                        1usize,
                        Access::HashJoin {
                            table: *t,
                            attr,
                            key,
                        },
                        Some(ci),
                    ),
                    None => (2u8, db.cardinality(*t), Access::Scan(*t), None),
                },
            };
            // Cross-product demotion: a full scan (tier 2) of a binding
            // with no unconsumed equality into the bound prefix and no
            // blocked binding to unlock contributes nothing but a
            // cardinality factor — defer it until something connects it.
            let tier = if tier == 2
                && !bound.is_empty()
                && !connects(q, b.var, &bound, &used_conds)
                && !unlocks(q, &placed, b.var, &bound)
            {
                3
            } else {
                tier
            };
            let better = match &best {
                None => true,
                Some((bt, bc, bi, ..)) => (tier, card, i) < (*bt, *bc, *bi),
            };
            if better {
                best = Some((tier, card, i, access, consumed));
            }
        }
        let (_, _, idx, access, consumed) = best.ok_or(ExecError::NoEvaluableBinding)?;
        // The condition consumed by a probe access is not re-checked.
        if let Some(ci) = consumed {
            used_conds[ci] = true;
        }
        placed[idx] = true;
        bound.push(q.from[idx].var);
        // Filters that become fully bound at this step.
        let mut filters = Vec::new();
        for (ci, eq) in q.where_.iter().enumerate() {
            if used_conds[ci] {
                continue;
            }
            let vars = eq.vars();
            if vars.iter().all(|v| bound.contains(v)) && vars.contains(&q.from[idx].var) {
                filters.push(eq.clone());
            }
        }
        steps.push(Step {
            binding_idx: idx,
            access,
            filters,
        });
    }
    Ok(steps)
}

/// True if some unconsumed where-equality mentions both `var` and a bound
/// variable — binding `var` next lets that equality filter (or probe) right
/// away instead of cross-multiplying.
fn connects(q: &Query, var: Var, bound: &[Var], used: &[bool]) -> bool {
    q.where_.iter().enumerate().any(|(ci, eq)| {
        if used[ci] {
            return false;
        }
        let vars = eq.vars();
        vars.contains(&var) && vars.iter().any(|v| bound.contains(v))
    })
}

/// True if binding `var` completes the range dependencies of some unplaced
/// binding (e.g. the `t in SI[k]` half of a secondary-index pair once `k`
/// is bound) — the dictionary algebra's access structures come as
/// (dom, lookup) pairs, so the dom half "connects" through its dependent.
fn unlocks(q: &Query, placed: &[bool], var: Var, bound: &[Var]) -> bool {
    q.from.iter().enumerate().any(|(j, b)| {
        if placed[j] {
            return false;
        }
        let deps = b.range.vars();
        !deps.is_empty()
            && deps.contains(&var)
            && deps.iter().all(|v| *v == var || bound.contains(v))
    })
}

/// Finds a where-clause equality usable to probe `var` as a dictionary key
/// (`var = key`) where the key side only uses bound variables.
fn probe_key(q: &Query, var: Var, bound: &[Var], used: &[bool]) -> Option<(usize, PathExpr)> {
    for (ci, eq) in q.where_.iter().enumerate() {
        if used[ci] {
            continue;
        }
        for (probe, key) in [(&eq.lhs, &eq.rhs), (&eq.rhs, &eq.lhs)] {
            if matches!(probe, PathExpr::Var(v) if *v == var)
                && key.vars_all(&mut |v| bound.contains(&v))
            {
                return Some((ci, key.clone()));
            }
        }
    }
    None
}

/// Finds a where-clause equality usable as a hash-join access for `var`:
/// one side is `var.attr`, the other only uses bound variables.
fn probe_attr_key(
    q: &Query,
    var: Var,
    bound: &[Var],
    used: &[bool],
) -> Option<(usize, Symbol, PathExpr)> {
    for (ci, eq) in q.where_.iter().enumerate() {
        if used[ci] {
            continue;
        }
        for (probe, key) in [(&eq.lhs, &eq.rhs), (&eq.rhs, &eq.lhs)] {
            if let PathExpr::Field(base, attr) = probe {
                if matches!(**base, PathExpr::Var(v) if v == var)
                    && key.vars_all(&mut |v| bound.contains(&v))
                {
                    return Some((ci, *attr, key.clone()));
                }
            }
        }
    }
    None
}

/// Row ids — selection vectors, hash-join buckets, the group bounds of a
/// `dict_join`'s kept pairs — are `u32`; anything they number must stay
/// within this.
pub(crate) const ROW_ID_LIMIT: usize = u32::MAX as usize;

/// `Ok` if `rows` rows of `what` can be numbered with ids up to `limit`.
pub(crate) fn check_row_ids(
    what: &'static str,
    rows: usize,
    limit: usize,
) -> Result<(), ExecError> {
    if rows > limit {
        return Err(ExecError::RowIdOverflow { what, rows, limit });
    }
    Ok(())
}

/// Hash-join build tables: `(table, attr) →` [`BuildTable`], each built
/// by the first operator that probes it with rows ([`Self::table`]) and
/// reused by any later one on the same pair. Keyed by fxhash; nothing
/// iterates the outer or inner maps — probes enumerate bucket vectors only.
#[derive(Default)]
pub(crate) struct JoinIndexes {
    map: FxHashMap<(Symbol, Symbol), BuildTable>,
}

/// One hash-join build table: `value → row ids`, rows in first-insertion
/// (table) order.
pub(crate) struct BuildTable(FxHashMap<Value, Vec<u32>>);

impl BuildTable {
    /// The rows whose attribute equals `key`, in table order.
    pub(crate) fn bucket(&self, key: &Value) -> &[u32] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }
}

impl JoinIndexes {
    /// The build table of `table` on `attr`, built on first use — the one
    /// loop that builds a hash-join table. `limit` is [`ROW_ID_LIMIT`]
    /// outside tests.
    pub(crate) fn table(
        &mut self,
        db: &Database,
        (table, attr): (Symbol, Symbol),
        limit: usize,
        stats: &mut ExecStats,
    ) -> Result<&BuildTable, ExecError> {
        let slot = match self.map.entry((table, attr)) {
            Entry::Occupied(built) => return Ok(built.into_mut()),
            Entry::Vacant(slot) => slot,
        };
        let rows = db.table(table);
        check_row_ids("hash-join build table", rows.len(), limit)?;
        let mut idx: FxHashMap<Value, Vec<u32>> = FxHashMap::default();
        for (i, row) in rows.iter().enumerate() {
            if let Some(v) = row.field(attr) {
                idx.entry(v.clone()).or_default().push(i as u32);
                stats.index_entries_built += 1;
            }
        }
        Ok(slot.insert(BuildTable(idx)))
    }

    /// A table [`Self::table`] already built.
    pub(crate) fn built(&self, table: Symbol, attr: Symbol) -> &BuildTable {
        &self.map[&(table, attr)]
    }
}

/// The `(key, element)` pairs of `dom M k, M[k].fields t`, in
/// dictionary-then-set order. Entries whose path is undefined or not a set
/// contribute nothing, exactly like a set-path expansion.
fn set_pairs<'a>(
    dict: &'a OrderedDict,
    fields: &'a [Symbol],
) -> impl Iterator<Item = (&'a Value, &'a Value)> {
    dict.iter().flat_map(move |(k, entry)| {
        let set = fields.iter().try_fold(entry, |v, f| v.field(*f));
        let items: &[Value] = match set {
            Some(Value::Set(items)) => items,
            _ => &[],
        };
        items.iter().map(move |t| (k, t))
    })
}

/// What a `dict_join`'s input rows ask its dictionary for, read in one
/// pass: the `(key, element)` pairs whose compared value some row's probe
/// equals, grouped by that value, each group in dictionary-then-set order.
/// A batch that asks for one value compares each element with it; one that
/// asks for several hashes them. Nothing outlives the operator.
struct Asked<'a> {
    /// Per input row, the group of the value it asks for (`None`: its
    /// probe is undefined, so it matches nothing).
    row_group: Vec<Option<u32>>,
    /// Group `g` owns `kept[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    kept: Vec<(u32, &'a Value, &'a Value)>,
    /// Every pair of the dictionary, kept or not.
    total: usize,
}

impl<'a> Asked<'a> {
    /// Reads `dict` once for the values `wants` (one per input row) asks
    /// for. `limit` is [`ROW_ID_LIMIT`] outside tests.
    fn read(
        dict: &'a OrderedDict,
        dj: &'a DictJoin,
        wants: &[Option<Cow<'_, Value>>],
        limit: usize,
    ) -> Result<Asked<'a>, ExecError> {
        let mut asked = wants.iter().flatten().map(|v| &**v);
        let one = asked.next().filter(|&v| asked.all(|w| w == v));
        let mut groups: FxHashMap<&Value, u32> = FxHashMap::default();
        let row_group = wants
            .iter()
            .map(|want| {
                let (v, fresh) = (want.as_deref()?, groups.len() as u32);
                Some(one.map_or_else(|| *groups.entry(v).or_insert(fresh), |_| 0))
            })
            .collect();
        let (mut kept, total) = match one {
            Some(w) => dj.keep(dict, |v| (v == w).then_some(0)),
            None => dj.keep(dict, |v| groups.get(v).copied()),
        };
        check_row_ids("dict_join match list", kept.len(), limit)?;
        let width = if one.is_some() { 1 } else { groups.len() };
        if width > 1 {
            // Stable: each group keeps dictionary-then-set order.
            kept.sort_by_key(|&(g, ..)| g);
        }
        let starts = (0..=width as u32)
            .map(|g| kept.partition_point(|&(h, ..)| h < g) as u32)
            .collect();
        Ok(Asked {
            row_group,
            starts,
            kept,
            total,
        })
    }

    /// The pairs input row `r` matches, in dictionary-then-set order.
    fn matches(&self, r: usize) -> impl Iterator<Item = (&'a Value, &'a Value)> + '_ {
        let range = self.row_group[r].map_or(0..0, |g| {
            self.starts[g as usize] as usize..self.starts[g as usize + 1] as usize
        });
        self.kept[range].iter().map(|&(_, k, t)| (k, t))
    }
}

impl DictJoin {
    /// The pairs of `dict` that `group` places, with their groups, and the
    /// count of all pairs: one loop per caller, so comparing stays inline.
    fn keep<'a>(
        &'a self,
        dict: &'a OrderedDict,
        group: impl Fn(&Value) -> Option<u32>,
    ) -> (Vec<(u32, &'a Value, &'a Value)>, usize) {
        let (mut kept, mut total) = (Vec::new(), 0);
        for (k, t) in set_pairs(dict, &self.fields) {
            total += 1;
            let compared = match self.attr {
                Some(a) => t.field(a),
                None => Some(t),
            };
            if let Some(g) = compared.and_then(&group) {
                kept.push((g, k, t));
            }
        }
        (kept, total)
    }
}

/// What an access operator emits into. Each candidate — an input row plus
/// one value per slot being bound — is checked against the operator's
/// residual equalities *before* it enters the selection vector, so the
/// operator gathers once however many filters follow it. The per-filter
/// counts are the cascade's: filter `i` reads what filters `..i` passed.
///
/// A side that reads no candidate has one value per input row, so the sink
/// reads it once per row, when the row's first candidate arrives, and every
/// candidate of the row compares against that value; only the sides that
/// read a candidate are evaluated per candidate. Evaluation is pure, so
/// reading a side early or once changes no row and no count.
struct Sink<'a> {
    filters: Vec<Filter<'a>>,
    /// The input row the filters' row sides were read at (`usize::MAX`:
    /// none yet).
    row: usize,
    /// Candidates offered, i.e. the access path's output before filtering.
    considered: usize,
    sel: Vec<u32>,
    /// The slots being bound, each with its column.
    cols: Vec<(usize, Vec<&'a Value>)>,
}

/// One residual equality, oriented so that `cand` is a side that reads the
/// candidate, and the cascade counts it reports.
struct Filter<'a> {
    cand: Path<'a>,
    other: Side<'a>,
    /// Candidates that reached this filter.
    reached: usize,
    /// Candidates that passed it.
    passed: usize,
}

/// The side of an equality opposite its candidate side.
enum Side<'a> {
    /// Reads a candidate too: evaluated per candidate.
    Candidate(Path<'a>),
    /// Reads no candidate: evaluated once per input row, its value held
    /// (`None`: undefined at the row).
    Row(Path<'a>, Option<Cow<'a, Value>>),
}

impl<'a> Sink<'a> {
    fn new(db: &'a Database, q: &Query, binding: &[usize], filters: &'a [Equality]) -> Sink<'a> {
        let resolve = |p| Path::resolve(db, q, binding, p);
        let filters = filters
            .iter()
            .map(|eq| {
                let (lhs, rhs) = (resolve(&eq.lhs), resolve(&eq.rhs));
                // Equality is symmetric: a candidate-reading side goes first.
                let (cand, other) = if lhs.reads_candidate() {
                    (lhs, rhs)
                } else {
                    (rhs, lhs)
                };
                let other = if other.reads_candidate() {
                    Side::Candidate(other)
                } else {
                    Side::Row(other, None)
                };
                Filter {
                    cand,
                    other,
                    reached: 0,
                    passed: 0,
                }
            })
            .collect();
        Sink {
            filters,
            row: usize::MAX,
            considered: 0,
            sel: Vec::new(),
            cols: binding.iter().map(|&slot| (slot, Vec::new())).collect(),
        }
    }

    /// Offers the candidate `cand` (one value per slot being bound) for
    /// input row `r`; it is kept if every filter holds on it. Inlined into
    /// every candidate loop, like [`eval_path_at`].
    #[inline(always)]
    fn offer(&mut self, batch: &Batch<'a>, r: usize, cand: &[&'a Value]) {
        self.considered += 1;
        if r != self.row {
            self.read_row(batch, r);
        }
        for f in &mut self.filters {
            f.reached += 1;
            // Both sides defined and equal, or the candidate is dropped.
            let Some(a) = eval_path_at(batch, r, cand, &f.cand) else {
                return;
            };
            let other;
            let b = match &f.other {
                Side::Row(_, held) => held.as_deref(),
                Side::Candidate(p) => {
                    other = eval_path_at(batch, r, cand, p);
                    other.as_deref()
                }
            };
            match b {
                Some(b) if *a == *b => f.passed += 1,
                _ => return,
            }
        }
        self.sel.push(r as u32);
        for ((_, col), v) in self.cols.iter_mut().zip(cand) {
            col.push(v);
        }
    }

    /// Reads every filter's row side at input row `r`.
    fn read_row(&mut self, batch: &Batch<'a>, r: usize) {
        self.row = r;
        for f in &mut self.filters {
            if let Side::Row(p, held) = &mut f.other {
                *held = eval_path_at(batch, r, &[], p);
            }
        }
    }

    /// Records the access operator and one `filter` per equality, then
    /// gathers the kept rows once.
    fn finish(self, batch: &Batch<'a>, access: OpStats, stats: &mut ExecStats) -> Batch<'a> {
        stats.tuples_considered += self.considered;
        stats.operators.push(access);
        for f in &self.filters {
            stats.operators.push(OpStats {
                op: "filter",
                collection: None,
                collection_rows: 0,
                pairs: 0,
                input_rows: f.reached,
                output_rows: f.passed,
            });
        }
        let kept = batch.gather(&self.sel);
        self.cols
            .into_iter()
            .fold(kept, |b, (slot, col)| b.with_col(slot, col))
    }
}

/// Executes a fused index pair: per input row, the `(key, element)` pairs
/// whose element satisfies the equality, in dictionary-then-set order —
/// the rows and the order `dom_scan`, `path_set` and the equality's
/// `filter` produce, without materialising input × pairs in between. The
/// dictionary is read once, for the values the rows ask for ([`Asked`]);
/// an empty input reads nothing. Keys and elements are bound where the
/// dictionary stores them.
pub(crate) fn apply_dict_join<'a>(
    db: &'a Database,
    q: &Query,
    dj: &'a DictJoin,
    batch: &Batch<'a>,
    stats: &mut ExecStats,
) -> Result<Batch<'a>, ExecError> {
    check_row_ids("batch", batch.len(), ROW_ID_LIMIT)?;
    let mut sink = Sink::new(db, q, &[dj.key_idx, dj.elem_idx], &dj.filters);
    let dict = db.dict(dj.dict);
    let mut pairs = 0usize;
    if let Some(d) = dict.filter(|_| batch.len() > 0) {
        let probe = Path::resolve(db, q, &[], &dj.probe);
        let wants: Vec<_> = (0..batch.len())
            .map(|r| eval_path_at(batch, r, &[], &probe))
            .collect();
        let asked = Asked::read(d, dj, &wants, ROW_ID_LIMIT)?;
        pairs = asked.total;
        stats.index_entries_built += asked.kept.len();
        for r in 0..batch.len() {
            for (k, t) in asked.matches(r) {
                sink.offer(batch, r, &[k, t]);
            }
        }
    }
    let access = OpStats {
        op: "dict_join",
        collection: Some(dj.dict),
        collection_rows: dict.map_or(0, |d| d.len()),
        pairs,
        input_rows: batch.len(),
        output_rows: sink.considered,
    };
    Ok(sink.finish(batch, access, stats))
}

/// Applies one access operator and its residual filters to `batch`,
/// producing the next batch and recording the observed cardinalities. The
/// new column points at the rows, keys and set elements the database holds;
/// `home` takes the sets a `MkStruct`-headed range builds.
pub(crate) fn apply_access<'a>(
    db: &'a Database,
    q: &Query,
    indexes: &mut JoinIndexes,
    step: &'a Step,
    home: &'a Home,
    batch: &Batch<'a>,
    stats: &mut ExecStats,
) -> Result<Batch<'a>, ExecError> {
    let slot = step.binding_idx;
    let mut collection = q.from[slot].range.anchor();
    check_row_ids("batch", batch.len(), ROW_ID_LIMIT)?;
    let mut sink = Sink::new(db, q, &[slot], &step.filters);
    let key_path = |key| Path::resolve(db, q, &[], key);
    let (op, collection_rows) = match &step.access {
        Access::Scan(t) => {
            let rows = db.table(*t);
            for r in 0..batch.len() {
                for row in rows {
                    sink.offer(batch, r, &[row]);
                }
            }
            ("scan", rows.len())
        }
        Access::HashJoin { table, attr, key } => {
            let rows = db.table(*table);
            if batch.len() > 0 {
                let build = indexes.table(db, (*table, *attr), ROW_ID_LIMIT, stats)?;
                let key = key_path(key);
                for r in 0..batch.len() {
                    if let Some(k) = eval_path_at(batch, r, &[], &key) {
                        for &i in build.bucket(&k) {
                            sink.offer(batch, r, &[&rows[i as usize]]);
                        }
                    }
                }
            }
            ("hash_join", rows.len())
        }
        Access::DomScan(m) => {
            let card = db.dict(*m).map_or(0, |d| d.len());
            if let Some(d) = db.dict(*m) {
                for r in 0..batch.len() {
                    for k in d.keys() {
                        sink.offer(batch, r, &[k]);
                    }
                }
            }
            ("dom_scan", card)
        }
        Access::DomProbe(m, key) => {
            let card = db.dict(*m).map_or(0, |d| d.len());
            if let Some(d) = db.dict(*m) {
                let key = key_path(key);
                for r in 0..batch.len() {
                    // The binding is the key the dictionary stores — equal
                    // to the computed one, and already owned.
                    let stored =
                        eval_path_at(batch, r, &[], &key).and_then(|k| d.get_key_value(&k));
                    if let Some((k, _)) = stored {
                        sink.offer(batch, r, &[k]);
                    }
                }
            }
            ("dom_probe", card)
        }
        Access::PathSet(p) => {
            let sets = homed(batch, &key_path(p), home);
            for (r, set) in sets.into_iter().enumerate() {
                if let Some(Value::Set(items)) = set {
                    for v in items.iter() {
                        sink.offer(batch, r, &[v]);
                    }
                }
            }
            // A set-path expansion only *measures* its anchor dictionary if
            // the dictionary exists; otherwise report no collection at all —
            // a hard-coded 0 here would let `feed_cost_model` overwrite the
            // anchor's true cardinality.
            match collection.and_then(|a| db.dict(a)) {
                Some(d) => ("path_set", d.len()),
                None => {
                    collection = None;
                    ("path_set", 0)
                }
            }
        }
    };
    let access = OpStats {
        op,
        collection,
        collection_rows,
        pairs: 0,
        input_rows: batch.len(),
        output_rows: sink.considered,
    };
    Ok(sink.finish(batch, access, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServeError;
    use crate::eval::{execute, execute_legacy};

    fn int_row(fields: &[(&str, i64)]) -> Value {
        Value::record(fields.iter().map(|(n, v)| (sym(n), Value::Int(*v))))
    }

    /// `R(A)` with three rows and `SI`: two keys, three `(key, element)`
    /// pairs, elements `{K, V}`.
    fn pair_db() -> Database {
        let mut db = Database::new();
        for a in [1, 2, 3] {
            db.insert_row(sym("R"), int_row(&[("A", a)]));
        }
        for (key, ks) in [(10, vec![1, 2]), (20, vec![1])] {
            db.set_entry(
                sym("SI"),
                Value::Int(key),
                Value::set(ks.iter().map(|&k| int_row(&[("K", k), ("V", key)]))),
            );
        }
        db
    }

    /// `from dom SI k, SI[k] t where …` with the given equalities over `t`.
    fn pair_query(conds: impl Fn(Var, Var) -> Vec<(PathExpr, PathExpr)>) -> Query {
        let mut q = Query::new();
        let k = q.bind("k", Range::Dom(sym("SI")));
        let t = q.bind("t", Range::Expr(PathExpr::from(k).lookup_in("SI")));
        for (lhs, rhs) in conds(k, t) {
            q.equate(lhs, rhs);
        }
        q.output("V", PathExpr::from(t).dot("V"));
        q
    }

    fn fused(db: &Database, q: &Query) -> Option<DictJoin> {
        let mut ops = plan(db, q).unwrap();
        assert_eq!(
            ops.iter().flat_map(Op::bindings).collect::<Vec<_>>(),
            greedy_order(db, q)
                .unwrap()
                .iter()
                .map(|s| s.binding_idx)
                .collect::<Vec<_>>(),
            "fusion must not reorder"
        );
        match ops.pop() {
            Some(Op::DictJoin(dj)) => Some(dj),
            _ => None,
        }
    }

    #[test]
    fn fusion_prefers_the_attribute_equality_and_keeps_the_rest_as_filters() {
        let db = pair_db();
        let whole = int_row(&[("K", 1), ("V", 10)]);
        let q = pair_query(|k, t| {
            vec![
                (PathExpr::from(t), PathExpr::Const(whole.clone())),
                (PathExpr::from(1i64), PathExpr::from(t).dot("K")),
                (PathExpr::from(t).dot("V"), PathExpr::from(k)),
            ]
        });
        let dj = fused(&db, &q).expect("a constant equality on t.K fuses");
        assert_eq!(dj.attr, Some(sym("K")));
        assert_eq!(dj.probe, PathExpr::from(1i64));
        assert_eq!((dj.key_idx, dj.elem_idx), (0, 1));
        assert_eq!(dj.filters, vec![q.where_[0].clone(), q.where_[2].clone()]);

        // Only the whole-element equality: that one is joined on.
        let q = pair_query(|_, t| vec![(PathExpr::from(t), PathExpr::Const(whole.clone()))]);
        let dj = fused(&db, &q).expect("a whole-element equality fuses");
        assert_eq!(dj.attr, None);
        assert!(dj.filters.is_empty());
    }

    #[test]
    fn pairs_without_a_bound_equality_stay_unfused() {
        let db = pair_db();
        // No equality at all; an equality against the pair's own key; a
        // lookup in another dictionary than the one scanned.
        assert!(fused(&db, &pair_query(|_, _| vec![])).is_none());
        let on_key = pair_query(|k, t| vec![(PathExpr::from(t).dot("V"), PathExpr::from(k))]);
        assert!(fused(&db, &on_key).is_none());
        let mut other = Query::new();
        let k = other.bind("k", Range::Dom(sym("SI")));
        let t = other.bind("t", Range::Expr(PathExpr::from(k).lookup_in("SJ")));
        other.equate(PathExpr::from(t).dot("K"), PathExpr::from(1i64));
        other.output("t", PathExpr::from(t));
        assert!(fused(&db, &other).is_none());
    }

    /// Threads the unit batch through `q`'s operators, as `eval::run` does,
    /// and hands the final batch to `check`. `ran` names what must have run.
    fn with_final_batch(db: &Database, q: &Query, ran: &[&str], check: impl FnOnce(&Batch)) {
        let ops = plan(db, q).unwrap();
        let mut indexes = JoinIndexes::default();
        let homes: Vec<Home> = ops.iter().map(|_| Home::new()).collect();
        let mut stats = ExecStats::default();
        let mut batch = Batch::unit(q.from.len());
        for (op, home) in ops.iter().zip(&homes) {
            batch = match op {
                Op::Bind(step) => apply_access(db, q, &mut indexes, step, home, &batch, &mut stats),
                Op::DictJoin(dj) => apply_dict_join(db, q, dj, &batch, &mut stats),
                Op::GenericJoin(_) => unreachable!("`plan` emits binary operators"),
            }
            .unwrap();
        }
        let names: Vec<&str> = stats.operators.iter().map(|o| o.op).collect();
        assert_eq!(names, ran);
        check(&batch)
    }

    /// True if column `slot` holds exactly these values — the same
    /// allocations, not equal copies.
    fn points_at<'v>(
        batch: &Batch,
        slot: usize,
        want: impl IntoIterator<Item = &'v Value>,
    ) -> bool {
        let want: Vec<*const Value> = want.into_iter().map(std::ptr::from_ref).collect();
        let got: Vec<*const Value> = batch.col(slot).unwrap().iter().map(|v| *v as _).collect();
        got == want
    }

    // What borrowing is for, one test per access path: the column an
    // operator binds points into the database.

    #[test]
    fn scan_binds_the_table_rows() {
        let db = pair_db();
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        q.output("A", PathExpr::from(r).dot("A"));
        with_final_batch(&db, &q, &["scan"], |b| {
            assert!(points_at(b, 0, db.table(sym("R"))))
        });
    }

    #[test]
    fn hash_join_binds_the_build_rows() {
        let db = pair_db();
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("R")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
        q.equate(PathExpr::from(s), PathExpr::Const(int_row(&[("A", 2)])));
        q.output("A", PathExpr::from(s).dot("A"));
        // The constant filters the joined rows before they are gathered;
        // both columns still point at the one surviving table row.
        let row = &db.table(sym("R"))[1];
        with_final_batch(&db, &q, &["scan", "hash_join", "filter"], |b| {
            assert!(points_at(b, 0, [row]) && points_at(b, 1, [row]));
        });
    }

    #[test]
    fn dom_scan_binds_the_stored_keys() {
        let db = pair_db();
        let mut q = Query::new();
        let k = q.bind("k", Range::Dom(sym("SI")));
        q.output("k", PathExpr::from(k));
        let dict = db.dict(sym("SI")).unwrap();
        with_final_batch(&db, &q, &["dom_scan"], |b| {
            assert!(points_at(b, 0, dict.keys()))
        });
    }

    #[test]
    fn dom_probe_binds_the_stored_key_not_the_computed_one() {
        let mut db = pair_db();
        // As many keys as R has rows, so the greedy order scans R first.
        for a in [2, 1, 7] {
            db.set_entry(sym("I"), int_row(&[("A", a)]), Value::Int(a));
        }
        // from R r, dom I k where k = struct(A = r.A): R.A = 3 has no key.
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let k = q.bind("k", Range::Dom(sym("I")));
        let built = PathExpr::MkStruct(vec![(sym("A"), PathExpr::from(r).dot("A"))]);
        q.equate(PathExpr::from(k), built);
        q.output("k", PathExpr::from(k));
        let keys: Vec<&Value> = db.dict(sym("I")).unwrap().keys().collect();
        with_final_batch(&db, &q, &["scan", "dom_probe"], |b| {
            assert!(points_at(b, 1, [keys[1], keys[0]]))
        });
    }

    #[test]
    fn set_path_binds_the_set_elements() {
        let db = pair_db();
        let q = pair_query(|_, _| vec![]);
        let dict = db.dict(sym("SI")).unwrap();
        let elems = dict.iter().flat_map(|(_, set)| set.elements().unwrap());
        with_final_batch(&db, &q, &["dom_scan", "path_set"], |b| {
            assert!(points_at(b, 1, elems))
        });
    }

    #[test]
    fn dict_join_binds_the_stored_keys_and_elements() {
        // Two input rows, then six that ask for the same two values three
        // times each: one read of the dictionary serves every row alike.
        // `SI` gets six keys so that the greedy order scans R first.
        for copies in [1, 3] {
            let mut db = Database::new();
            for a in [1, 2].repeat(copies) {
                db.insert_row(sym("R"), int_row(&[("A", a)]));
            }
            for (key, ks) in [(10, vec![1, 2]), (20, vec![1])] {
                let elems = ks.iter().map(|&k| int_row(&[("K", k), ("V", key)]));
                db.set_entry(sym("SI"), Value::Int(key), Value::set(elems));
            }
            for key in [30, 40, 50, 60] {
                db.set_entry(sym("SI"), Value::Int(key), Value::set([]));
            }
            let mut q = Query::new();
            let r = q.bind("r", Range::Name(sym("R")));
            let k = q.bind("k", Range::Dom(sym("SI")));
            let t = q.bind("t", Range::Expr(PathExpr::from(k).lookup_in("SI")));
            q.equate(PathExpr::from(t).dot("K"), PathExpr::from(r).dot("A"));
            q.output("V", PathExpr::from(t).dot("V"));
            let pairs: Vec<(&Value, &Value)> =
                set_pairs(db.dict(sym("SI")).unwrap(), &[]).collect();
            // A = 1 matches (10, K1) and (20, K1), A = 2 matches (10, K2).
            let once = [pairs[0], pairs[2], pairs[1]];
            let want = || std::iter::repeat_n(once, copies).flatten();
            with_final_batch(&db, &q, &["scan", "dict_join"], |b| {
                assert!(points_at(b, 1, want().map(|(k, _)| k)));
                assert!(points_at(b, 2, want().map(|(_, t)| t)));
            });
        }
    }

    /// `R(A, B)` and `S(A, C)`, three rows each; two `A` values join.
    fn join_db() -> Database {
        let mut db = Database::new();
        for (a, b) in [(1, 100), (2, 200), (3, 300)] {
            db.insert_row(sym("R"), int_row(&[("A", a), ("B", b)]));
        }
        for (a, c) in [(1, 11), (2, 22), (9, 99)] {
            db.insert_row(sym("S"), int_row(&[("A", a), ("C", c)]));
        }
        db
    }

    /// `(op, collection_rows, input_rows, output_rows)` per operator.
    fn op_counts(stats: &ExecStats) -> Vec<(&'static str, usize, usize, usize)> {
        stats
            .operators
            .iter()
            .map(|o| (o.op, o.collection_rows, o.input_rows, o.output_rows))
            .collect()
    }

    /// A hash join builds its table the first time it runs with rows, and
    /// a later one on the same table and attribute reuses it: `S` on `A`
    /// is indexed once for two probes, three entries.
    #[test]
    fn a_hash_join_table_is_built_once_by_its_first_probe() {
        let db = join_db();
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("S")));
        let u = q.bind("u", Range::Name(sym("S")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
        q.equate(PathExpr::from(s).dot("A"), PathExpr::from(u).dot("A"));
        q.output("C", PathExpr::from(u).dot("C"));
        let stats = execute(&db, &q).unwrap().stats;
        assert_eq!(
            op_counts(&stats),
            vec![
                ("scan", 3, 1, 3),
                ("hash_join", 3, 3, 2),
                ("hash_join", 3, 2, 2)
            ]
        );
        assert_eq!(stats.index_entries_built, 3);
        assert_eq!(
            execute_legacy(&db, &q).unwrap().stats.index_entries_built,
            3
        );
    }

    /// A plan whose first operator yields no rows builds no table, and
    /// reports what it always did: a `hash_join` over an empty input with
    /// the table's size. The oracle, which builds up front, indexes `S`.
    #[test]
    fn an_empty_input_builds_no_table() {
        let db = join_db();
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("S")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(r).dot("B"));
        q.output("C", PathExpr::from(s).dot("C"));
        let res = execute(&db, &q).unwrap();
        assert!(res.rows.is_empty());
        assert_eq!(
            op_counts(&res.stats),
            vec![
                ("scan", 3, 1, 3),
                ("filter", 0, 3, 0),
                ("hash_join", 3, 0, 0)
            ]
        );
        assert_eq!(res.stats.tuples_considered, 3);
        assert_eq!(res.stats.index_entries_built, 0);
        let legacy = execute_legacy(&db, &q).unwrap().stats;
        assert_eq!(legacy.tuples_considered, 3);
        assert_eq!(legacy.index_entries_built, 3);
    }

    /// A false ground equality empties the input before the first operator,
    /// so nothing is scanned and nothing is built.
    #[test]
    fn a_false_ground_equality_builds_nothing() {
        let db = join_db();
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("S")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
        q.equate(PathExpr::from(3i64), PathExpr::from(4i64));
        q.output("C", PathExpr::from(s).dot("C"));
        let res = execute(&db, &q).unwrap();
        assert!(res.rows.is_empty());
        assert_eq!(
            op_counts(&res.stats),
            vec![("scan", 3, 0, 0), ("hash_join", 3, 0, 0)]
        );
        assert_eq!(
            (res.stats.tuples_considered, res.stats.index_entries_built),
            (0, 0)
        );
    }

    /// ROADMAP 5b: the row-id conversions are typed errors, and `serve`
    /// reports them as `ServeError::Exec` — driven here through a small
    /// limit instead of 2³² rows: a hash-join table built for a probe, and
    /// the pairs a `dict_join` keeps.
    #[test]
    fn row_id_overflow_is_a_typed_error() {
        let db = pair_db();
        let mut stats = ExecStats::default();
        let mut build = |limit| {
            JoinIndexes::default()
                .table(&db, (sym("R"), sym("A")), limit, &mut stats)
                .map(|_| ())
        };
        assert_eq!(build(3), Ok(()));
        let overflow = |what| ExecError::RowIdOverflow {
            what,
            rows: 3,
            limit: 2,
        };
        assert_eq!(build(2), Err(overflow("hash-join build table")));

        // Asking for K = 1 and K = 2 keeps all three pairs.
        let q = pair_query(|_, t| vec![(PathExpr::from(t).dot("K"), PathExpr::from(1i64))]);
        let dj = fused(&db, &q).unwrap();
        let dict = db.dict(sym("SI")).unwrap();
        let wants = [1, 2].map(|v| Some(Cow::Owned(Value::Int(v))));
        assert_eq!(Asked::read(dict, &dj, &wants, 3).unwrap().kept.len(), 3);
        let err = Asked::read(dict, &dj, &wants, 2).err();
        assert_eq!(err, Some(overflow("dict_join match list")));

        assert_eq!(
            check_row_ids("batch", 3, 2).map_err(ServeError::from),
            Err(ServeError::Exec(overflow("batch")))
        );
        assert_eq!(
            overflow("batch").to_string(),
            "batch of 3 rows exceeds the row-id limit 2"
        );
    }

    /// One read keeps the pairs whose compared value some row asks for,
    /// grouped by value, each group in dictionary-then-set order; it skips
    /// elements without the attribute and rows whose probe is undefined,
    /// and counts every pair. One value asked for compares, several hash:
    /// both give each row the same matches.
    #[test]
    fn asked_pairs_come_in_dictionary_then_set_order() {
        let mut db = pair_db();
        db.set_entry(sym("SI"), Value::Int(30), Value::set([Value::Int(1)]));
        let q = pair_query(|_, t| vec![(PathExpr::from(t).dot("K"), PathExpr::from(1i64))]);
        let dj = fused(&db, &q).unwrap();
        let dict = db.dict(sym("SI")).unwrap();
        let read = |wants: &[Option<i64>]| {
            let wants: Vec<_> = wants
                .iter()
                .map(|w| w.map(|v| Cow::Owned(Value::Int(v))))
                .collect();
            let asked = Asked::read(dict, &dj, &wants, ROW_ID_LIMIT).unwrap();
            assert_eq!(asked.total, 4);
            let keys: Vec<Vec<i64>> = (0..wants.len())
                .map(|r| {
                    let key = |(k, _): (&Value, &Value)| match k {
                        Value::Int(i) => *i,
                        other => panic!("{other:?}"),
                    };
                    asked.matches(r).map(key).collect()
                })
                .collect();
            (keys, asked.kept.len())
        };
        let (one, two, none) = (vec![10, 20], vec![10], vec![]);
        assert_eq!(
            read(&[Some(1), None, Some(1)]),
            (vec![one.clone(), none.clone(), one.clone()], 2)
        );
        assert_eq!(
            read(&[Some(2), Some(7), Some(1), Some(2)]),
            (vec![two.clone(), none.clone(), one, two], 3)
        );
        assert_eq!(read(&[None]), (vec![none], 0));
    }
}
