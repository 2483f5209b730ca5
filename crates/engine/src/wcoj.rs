//! The generic-join (worst-case optimal) operator.
//!
//! `Op::GenericJoin` runs a flat relational join
//! *variable-at-a-time* instead of relation-at-a-time: `plan` groups the
//! query's flat equalities into join classes (equivalence classes of
//! `binding.attr` terms, optionally pinned to a constant), and
//! `apply_generic_join` sorts every participating relation on its class
//! key tuple and intersects the per-relation sorted runs one class after
//! another — a leapfrog-style multiway intersection. Because each class
//! narrows *every* participant before the next class is touched, no
//! intermediate ever exceeds the AGM bound `N^{ρ*}` of the fractional edge
//! cover certified by [`cnb_ir::cover`]; binary joins can be `N^2` on the
//! same cyclic queries (two edges of a skewed triangle materialize every
//! wedge before the third edge prunes).
//!
//! It is one operator of the pipeline in [`crate::eval`], beside `Bind`
//! and `DictJoin`: it emits a `Batch` with one column per binding, and
//! everything around it — validation, the unbound-parameter guard, the
//! select-clause projection with its skip-undefined rule, timing — is the
//! pipeline's. [`crate::execute_wcoj`] is the entry point that compiles a
//! query to this one operator.
//!
//! **Scope.** Only the shape [`cnb_ir::hypergraph::generic_join_supported`]
//! vouches for is accepted: every binding ranges over a named relation and
//! every equality is *flat* — `x.A = y.B` or `x.A = const`. Anything else
//! (dictionary domains, set-path expansions, nested field paths) is
//! [`ExecError::GenericJoinUnsupported`]; the optimizer only emits WCOJ
//! plan twins for queries that pass the same gate.
//!
//! **Semantics.** Exactly the binary operators': rows missing a join
//! attribute (or disagreeing between two attributes equated within the same
//! row) never join — here they are dropped when the per-relation index is
//! built, which is where a hash join would silently skip them. The *set*
//! of emitted rows is identical to the binary pipeline's; the order is a
//! different — but still deterministic — pure function of
//! `(database, plan)`: bindings enumerate in from-clause order, each
//! relation's rows in class-key order (table order for tie and key-free
//! bindings), values compared under the total order [`cmp_value`].
//!
//! **Indexes and seeks.** One call pays for what the intersection reads:
//! - *Shared indexes.* One index is built per distinct relation and list
//!   of key attributes: the triangle's `e1` and `e2` both read `E` on
//!   `(S, T)`, so it builds two indexes for three bindings. Indexes are
//!   still built per call.
//! - *Coded key columns.* An index is one sorted column per key position
//!   plus the row ids, built without a vector per row. Each key is stored
//!   with an order-preserving 128-bit code (`code`): exact for `Null`,
//!   `Bool`, `Int`, `Float` and `Param`, a prefix for strings and oids.
//!   Sorts and seeks compare codes and call [`cmp_value`] only when two
//!   codes of an inexact kind tie — one comparator for every kind.
//! - *Galloping seeks.* Lead values ascend, so every other participant
//!   seeks forward from where its last seek stopped, doubling its stride
//!   before it bisects (Veldhuizen's leapfrog triejoin). The per-depth
//!   range frames, cursors and the emit's pick buffer are allocated once
//!   per call, not once per lead value.
//!
//! None of this can move the output or the counts. The coded comparison
//! is [`cmp_value`] on every pair of values (a unit test holds it to that
//! over a generated corpus), and the row id breaks every tie, so each index
//! has one sorted order whatever sorts it. A shared index is the index each
//! of its bindings would have built. A gallop finds the boundary a
//! bisection of the same range finds. The counts tally lead values, probes
//! and emitted rows, never comparisons or builds, and every binding still
//! reports its own `wcoj_index`.
//!
//! **Stats.** Every binding's index reports its relation's true cardinality
//! (`wcoj_index` operators feed [`crate::feed_cost_model`] exactly like
//! scans), and every class intersection reports values tried vs. values
//! surviving (`wcoj_intersect`), so the fig. 9 feedback loop observes
//! generic-join runs too.

use std::cmp::Ordering;

use cnb_core::fxhash::FxHashMap;
use cnb_ir::prelude::*;
use cnb_ir::unionfind::UnionFind;

use crate::batch::Batch;
use crate::database::Database;
use crate::error::ExecError;
use crate::eval::{ExecStats, OpStats};
use crate::join::{check_row_ids, ROW_ID_LIMIT};

/// A total order over [`Value`] consistent with `Value::eq`: two values
/// compare `Equal` iff they are `==`. Variants order by a fixed rank;
/// within a variant, floats use `total_cmp` (bit-pattern equality, like
/// `Value::eq`), strings compare bytewise, oids by `(class, id)`, structs
/// and sets lexicographically. Used to sort and binary-search the
/// per-relation WCOJ indexes; exposed for tests and tooling.
pub fn cmp_value(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.total_cmp(y),
        (Value::Str(x), Value::Str(y)) => x.as_bytes().cmp(y.as_bytes()),
        (Value::Oid(cx, x), Value::Oid(cy, y)) => (cx.as_str(), x).cmp(&(cy.as_str(), y)),
        (Value::Struct(x), Value::Struct(y)) => {
            let xs = x.iter().map(|(n, v)| (n.as_str(), v));
            let mut ys = y.iter().map(|(n, v)| (n.as_str(), v));
            for (nx, vx) in xs {
                let Some((ny, vy)) = ys.next() else {
                    return Ordering::Greater;
                };
                match nx.cmp(ny).then_with(|| cmp_value(vx, vy)) {
                    Ordering::Equal => {}
                    other => return other,
                }
            }
            if ys.next().is_some() {
                Ordering::Less
            } else {
                Ordering::Equal
            }
        }
        (Value::Set(x), Value::Set(y)) => {
            let mut ys = y.iter();
            for vx in x.iter() {
                let Some(vy) = ys.next() else {
                    return Ordering::Greater;
                };
                match cmp_value(vx, vy) {
                    Ordering::Equal => {}
                    other => return other,
                }
            }
            if ys.next().is_some() {
                Ordering::Less
            } else {
                Ordering::Equal
            }
        }
        (Value::Param(x), Value::Param(y)) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)),
    }
}

/// The position of a value's kind in [`cmp_value`]'s order.
fn rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Str(_) => 4,
        Value::Oid(..) => 5,
        Value::Struct(_) => 6,
        Value::Set(_) => 7,
        Value::Param(_) => 8,
    }
}

/// One side of a flat equality: a `binding.attr` term or a constant pin.
enum Side {
    Term(usize, Symbol),
    Pin(Value),
}

fn flat_side(p: &PathExpr, var_to_idx: &FxHashMap<Var, usize>) -> Result<Side, ExecError> {
    match p {
        PathExpr::Const(c) => Ok(Side::Pin(c.clone())),
        PathExpr::Field(base, attr) => match base.as_ref() {
            PathExpr::Var(v) => {
                let idx = var_to_idx.get(v).copied().ok_or_else(|| {
                    ExecError::GenericJoinUnsupported(format!("unbound variable in `{p}`"))
                })?;
                Ok(Side::Term(idx, *attr))
            }
            _ => Err(ExecError::GenericJoinUnsupported(format!(
                "nested path `{p}` is not a flat binding.attr term"
            ))),
        },
        _ => Err(ExecError::GenericJoinUnsupported(format!(
            "equality side `{p}` is not a flat binding.attr term or constant"
        ))),
    }
}

/// One join class in global evaluation order.
struct Class {
    /// `(binding index, key position within that binding's index)`, sorted
    /// by binding index. The key position is valid because each binding's
    /// key tuple lists its classes in the same global order.
    participants: Vec<(usize, usize)>,
    /// Constant this class is pinned to, if any equality names one.
    pin: Option<Value>,
}

/// A whole flat relational join as one operator: every binding of the
/// query, its join classes in evaluation order, and each binding's sort key.
pub(crate) struct GenericJoin {
    /// The relation each binding ranges over, in from-clause order.
    tables: Vec<Symbol>,
    classes: Vec<Class>,
    /// Per binding: its classes (in global order) with the attributes each
    /// class constrains in that binding — one key-tuple position per class.
    keys: Vec<Vec<(usize, Vec<Symbol>)>>,
    /// Per binding: which of the call's distinct indexes it reads, numbered
    /// in order of first use. Bindings over the same relation with the same
    /// attributes at every key position share one: the triangle's `e1` and
    /// `e2` both read `E` on `(S, T)`, `e3` reads it on `(T, S)`.
    index_of: Vec<usize>,
    /// Conflicting pins (or unequal constant-vs-constant equalities): an
    /// empty result, not an error, and nothing is indexed or intersected.
    unsatisfiable: bool,
}

impl GenericJoin {
    /// Number of from-clause bindings the operator binds (all of them).
    pub fn width(&self) -> usize {
        self.tables.len()
    }
}

/// Compiles `q` to the generic-join operator, or reports why its shape is
/// not a flat relational join.
pub(crate) fn plan(q: &Query) -> Result<GenericJoin, ExecError> {
    let n = q.from.len();
    if n == 0 {
        return Err(ExecError::GenericJoinUnsupported(
            "query has no bindings".into(),
        ));
    }
    let mut var_to_idx: FxHashMap<Var, usize> = FxHashMap::default();
    let mut tables: Vec<Symbol> = Vec::with_capacity(n);
    for (i, b) in q.from.iter().enumerate() {
        match &b.range {
            Range::Name(t) => tables.push(*t),
            other => {
                return Err(ExecError::GenericJoinUnsupported(format!(
                    "binding `{} {}` does not range over a named relation",
                    other, b.name
                )))
            }
        }
        var_to_idx.insert(b.var, i);
    }

    // Group flat equality terms into join classes via union-find; constants
    // pin their class.
    let mut term_ids: FxHashMap<(usize, Symbol), usize> = FxHashMap::default();
    let mut terms: Vec<(usize, Symbol)> = Vec::new();
    let mut uf = UnionFind::new(0);
    let mut pin_list: Vec<(usize, Value)> = Vec::new();
    let mut unsatisfiable = false;
    for eq in &q.where_ {
        let lhs = flat_side(&eq.lhs, &var_to_idx)?;
        let rhs = flat_side(&eq.rhs, &var_to_idx)?;
        let mut tid = |t: (usize, Symbol)| {
            *term_ids.entry(t).or_insert_with(|| {
                terms.push(t);
                uf.push()
            })
        };
        match (lhs, rhs) {
            (Side::Term(b1, a1), Side::Term(b2, a2)) => {
                let (t1, t2) = (tid((b1, a1)), tid((b2, a2)));
                uf.union(t1, t2);
            }
            (Side::Term(b, a), Side::Pin(v)) | (Side::Pin(v), Side::Term(b, a)) => {
                pin_list.push((tid((b, a)), v));
            }
            (Side::Pin(v1), Side::Pin(v2)) => unsatisfiable |= v1 != v2,
        }
    }
    let mut pins: FxHashMap<usize, Value> = FxHashMap::default();
    for (t, v) in pin_list {
        let root = uf.find(t);
        match pins.get(&root) {
            Some(prev) if *prev != v => unsatisfiable = true,
            _ => {
                pins.insert(root, v);
            }
        }
    }

    // Assemble classes: members sorted by (binding, attr); classes ordered
    // globally by their smallest member. Singleton unpinned classes (e.g.
    // `x.A = x.A`) constrain nothing and are dropped.
    let mut groups: FxHashMap<usize, Vec<(usize, Symbol)>> = FxHashMap::default();
    for (t, term) in terms.iter().enumerate() {
        groups.entry(uf.find(t)).or_default().push(*term);
    }
    type RawClass = (Vec<(usize, Symbol)>, Option<Value>);
    let mut raw: Vec<RawClass> = Vec::new();
    for (root, mut members) in groups {
        let pin = pins.remove(&root);
        if members.len() < 2 && pin.is_none() {
            continue;
        }
        members.sort_by(|a, b| (a.0, a.1.as_str()).cmp(&(b.0, b.1.as_str())));
        members.dedup();
        raw.push((members, pin));
    }
    raw.sort_by(|a, b| {
        let ka = (a.0[0].0, a.0[0].1.as_str());
        let kb = (b.0[0].0, b.0[0].1.as_str());
        ka.cmp(&kb)
    });

    let mut keys: Vec<Vec<(usize, Vec<Symbol>)>> = vec![Vec::new(); n];
    let mut classes: Vec<Class> = Vec::with_capacity(raw.len());
    for (ci, (members, pin)) in raw.into_iter().enumerate() {
        let mut participants: Vec<(usize, usize)> = Vec::new();
        for (b, attr) in members {
            match keys[b].last_mut() {
                Some((c, attrs)) if *c == ci => attrs.push(attr),
                _ => {
                    let pos = keys[b].len();
                    keys[b].push((ci, vec![attr]));
                    participants.push((b, pos));
                }
            }
        }
        classes.push(Class { participants, pin });
    }
    let attrs = |b: usize| keys[b].iter().map(|(_, attrs)| attrs);
    let (mut index_of, mut distinct) = (Vec::with_capacity(n), 0);
    for b in 0..n {
        match (0..b).find(|&o| tables[o] == tables[b] && attrs(o).eq(attrs(b))) {
            Some(o) => index_of.push(index_of[o]),
            None => {
                index_of.push(distinct);
                distinct += 1;
            }
        }
    }
    Ok(GenericJoin {
        tables,
        classes,
        keys,
        index_of,
        unsatisfiable,
    })
}

/// A value's order-preserving fixed-width code: the rank [`cmp_value`]
/// orders its kind by in the top byte, then a payload. `code(a) < code(b)`
/// implies `cmp_value(a, b) == Less`. The payload is the whole value for
/// the exact kinds — `Null`, `Bool`, `Int`, `Float` (in `total_cmp` order)
/// and `Param` — so equal codes mean equal values; for a string it is the
/// first 15 bytes, for an oid those of its class name, and for a struct or
/// a set nothing, so equal codes of those kinds leave the order to
/// [`cmp_value`].
fn code(v: &Value) -> u128 {
    fn prefix(bytes: &[u8]) -> u128 {
        let mut buf = [0u8; 16];
        let n = bytes.len().min(15);
        buf[1..=n].copy_from_slice(&bytes[..n]);
        u128::from_be_bytes(buf)
    }
    let payload = match v {
        Value::Null | Value::Struct(_) | Value::Set(_) => 0,
        Value::Bool(b) => u128::from(*b),
        Value::Int(x) => u128::from(*x as u64 ^ 1 << 63),
        Value::Float(x) => {
            // `f64::total_cmp`'s key, shifted to unsigned order.
            let bits = x.to_bits() as i64;
            let key = bits ^ (((bits >> 63) as u64) >> 1) as i64;
            u128::from(key as u64 ^ 1 << 63)
        }
        Value::Str(s) => prefix(s.as_bytes()),
        Value::Oid(class, _) => prefix(class.as_str().as_bytes()),
        Value::Param(k) => u128::from(*k),
    };
    u128::from(rank(v)) << 120 | payload
}

/// Whether equal codes of this kind mean equal values (see [`code`]): all
/// but ranks 4–7, `Str`, `Oid`, `Struct` and `Set`.
fn exact(code: u128) -> bool {
    !matches!(code >> 120, 4..=7)
}

/// [`cmp_value`] on two coded values: the codes decide unless they tie on
/// an inexact kind.
fn cmp_coded(a: (u128, &Value), b: (u128, &Value)) -> Ordering {
    match a.0.cmp(&b.0) {
        Ordering::Equal if !exact(a.0) => cmp_value(a.1, b.1),
        ord => ord,
    }
}

/// A relation's rows that can join, sorted by their class-key tuple (then
/// row id, which preserves table order for ties and for key-free
/// bindings): one sorted, coded column per key position plus the row ids.
struct BindingIndex<'a> {
    /// The key columns, column-major: position `p` of the `i`-th entry is
    /// at `p * rows.len() + i`.
    codes: Vec<u128>,
    vals: Vec<&'a Value>,
    rows: Vec<u32>,
}

impl<'a> BindingIndex<'a> {
    /// Indexes `table` on `classes` — per class, the attributes it
    /// constrains in this binding. A row lacking a class attribute (or
    /// disagreeing between two same-class attributes) can never join: it is
    /// dropped here, exactly where a hash-join build would skip it. `limit`
    /// is [`ROW_ID_LIMIT`] outside tests.
    fn build(
        table: &'a [Value],
        classes: &[(usize, Vec<Symbol>)],
        limit: usize,
    ) -> Result<BindingIndex<'a>, ExecError> {
        check_row_ids("generic-join index", table.len(), limit)?;
        let width = classes.len();
        // Row-major keys of the rows that join, and their row ids.
        let mut keys: Vec<(u128, &Value)> = Vec::with_capacity(table.len() * width);
        let mut ids: Vec<u32> = Vec::with_capacity(table.len());
        'row: for (i, row) in table.iter().enumerate() {
            let key = |attrs: &[Symbol]| {
                let first = row.field(attrs[0])?;
                attrs[1..]
                    .iter()
                    .all(|a| row.field(*a) == Some(first))
                    .then_some(first)
            };
            let start = keys.len();
            for (_, attrs) in classes {
                let Some(v) = key(attrs) else {
                    keys.truncate(start);
                    continue 'row;
                };
                keys.push((code(v), v));
            }
            ids.push(i as u32);
        }
        // Row ids ascend with `ids`' positions, so comparing positions last
        // is comparing row ids, and no two entries compare equal.
        let mut order: Vec<u32> = (0..ids.len() as u32).collect();
        order.sort_unstable_by(|&x, &y| {
            let key = |e: u32| &keys[e as usize * width..][..width];
            key(x)
                .iter()
                .zip(key(y))
                .map(|(&a, &b)| cmp_coded(a, b))
                .find(|o| o.is_ne())
                .unwrap_or_else(|| x.cmp(&y))
        });
        let mut codes = Vec::with_capacity(keys.len());
        let mut vals = Vec::with_capacity(keys.len());
        for pos in 0..width {
            for &e in &order {
                let (c, v) = keys[e as usize * width + pos];
                codes.push(c);
                vals.push(v);
            }
        }
        let rows = order.iter().map(|&e| ids[e as usize]).collect();
        Ok(BindingIndex { codes, vals, rows })
    }

    /// The coded key at position `pos` of the `i`-th entry.
    fn key(&self, pos: usize, i: usize) -> (u128, &'a Value) {
        let at = pos * self.rows.len() + i;
        (self.codes[at], self.vals[at])
    }

    /// The first entry in `from..to` whose key at `pos` is not below `key`
    /// (with `past`: not at or below it). Gallops from `from` — probes
    /// `from + 1, from + 3, from + 7, …` until one is not before the target,
    /// then bisects the last stride — so a seek that moves `d` entries costs
    /// `O(log d)` comparisons, and a participant whose seeks ascend pays for
    /// the distance it covers, not for its range.
    fn seek(&self, pos: usize, from: usize, to: usize, key: (u128, &Value), past: bool) -> usize {
        let before = |i: usize| match cmp_coded(self.key(pos, i), key) {
            Ordering::Less => true,
            Ordering::Equal => past,
            Ordering::Greater => false,
        };
        if from >= to || !before(from) {
            return from;
        }
        // `before(lo)` holds; `hi` is `to` or the first probe that is not before.
        let (mut lo, mut step) = (from, 1);
        let mut hi = loop {
            let probe = lo + step;
            if probe >= to {
                break to;
            }
            if !before(probe) {
                break probe;
            }
            lo = probe;
            step *= 2;
        };
        lo += 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// One run of the operator: the plan and its indexes, read-only, the
/// frames the intersection reuses at every depth, and what it accumulates.
struct Solver<'s, 'a> {
    classes: &'s [Class],
    tables: &'s [&'a [Value]],
    /// Per binding, the index it reads (shared ones appear more than once).
    indexes: &'s [&'s BindingIndex<'a>],
    /// Per depth `d` — class `d`, or the emit at `classes.len()` — the range
    /// each binding's index is narrowed to, one entry per binding from
    /// `d * width`: depth `d` writes depth `d + 1`'s frame for every value
    /// it tries, so no value allocates one.
    frames: Vec<(usize, usize)>,
    /// Per class depth and binding, where that participant's last seek
    /// stopped: lead values ascend, so the next seek starts there.
    cursors: Vec<usize>,
    /// The row ids the emit has picked for the bindings before its length.
    picked: Vec<u32>,
    /// Per class: (lead values tried, values surviving every participant).
    class_stats: Vec<(usize, usize)>,
    tuples_considered: usize,
    /// The emitted batch, one column per binding, pointing at table rows.
    cols: Vec<Vec<&'a Value>>,
}

impl Solver<'_, '_> {
    fn width(&self) -> usize {
        self.tables.len()
    }

    /// Narrows depth `d + 1`'s frame (a copy of depth `d`'s) to the rows
    /// whose key for class `d` is `key`, seeking every participant except
    /// `skip` from its cursor. `false` as soon as one has no match.
    fn narrow(&mut self, d: usize, key: (u128, &Value), skip: Option<usize>) -> bool {
        let (next, at) = ((d + 1) * self.width(), d * self.width());
        for &(b, pos) in &self.classes[d].participants {
            if Some(b) == skip {
                continue;
            }
            self.tuples_considered += 1;
            let index = self.indexes[b];
            let to = self.frames[next + b].1;
            let lo = index.seek(pos, self.cursors[at + b], to, key, false);
            self.cursors[at + b] = lo;
            if lo == to || cmp_coded(index.key(pos, lo), key).is_ne() {
                return false;
            }
            let hi = index.seek(pos, lo, to, key, true);
            self.cursors[at + b] = hi;
            self.frames[next + b] = (lo, hi);
        }
        true
    }

    /// Intersects class `d` across its participants' ranges in depth `d`'s
    /// frame, recursing with the narrowed frame for each surviving value.
    fn solve(&mut self, d: usize) {
        let w = self.width();
        let Some(class) = self.classes.get(d) else {
            return self.emit();
        };
        let (at, next) = (d * w, (d + 1) * w);
        for &(b, _) in &class.participants {
            self.cursors[at + b] = self.frames[at + b].0;
        }
        // Pinned class: narrow every participant to the constant.
        if let Some(pin) = &class.pin {
            self.class_stats[d].0 += 1;
            self.frames.copy_within(at..next, next);
            if self.narrow(d, (code(pin), pin), None) {
                self.class_stats[d].1 += 1;
                self.solve(d + 1);
            }
            return;
        }
        // Leapfrog step: iterate the smallest participant's distinct values
        // in sorted order, seeking every other participant for each.
        let frame = &self.frames[at..next];
        let lead = class
            .participants
            .iter()
            .min_by_key(|&&(b, _)| (frame[b].1 - frame[b].0, b));
        let Some(&(lead_b, lead_pos)) = lead else {
            // No participant, nothing to intersect.
            self.frames.copy_within(at..next, next);
            return self.solve(d + 1);
        };
        let index = self.indexes[lead_b];
        let (mut lo, hi) = frame[lead_b];
        while lo < hi {
            let key = index.key(lead_pos, lo);
            let lead_end = index.seek(lead_pos, lo, hi, key, true);
            self.tuples_considered += 1;
            self.class_stats[d].0 += 1;
            self.frames.copy_within(at..next, next);
            self.frames[next + lead_b] = (lo, lead_end);
            if self.narrow(d, key, Some(lead_b)) {
                self.class_stats[d].1 += 1;
                self.solve(d + 1);
            }
            lo = lead_end;
        }
    }

    /// Enumerates the cross product of the fully narrowed ranges in binding
    /// order, one batch row per combination.
    fn emit(&mut self) {
        let b = self.picked.len();
        if b == self.width() {
            self.tuples_considered += 1;
            for ((col, table), &i) in self.cols.iter_mut().zip(self.tables).zip(&self.picked) {
                col.push(&table[i as usize]);
            }
            return;
        }
        let (lo, hi) = self.frames[self.classes.len() * self.width() + b];
        for i in lo..hi {
            self.picked.push(self.indexes[b].rows[i]);
            self.emit();
            self.picked.pop();
        }
    }
}

/// Executes the generic join: builds each distinct index once, runs the
/// class-at-a-time intersection and returns the surviving combinations as
/// a batch. It binds every slot, so there is no input batch to extend.
pub(crate) fn apply_generic_join<'a>(
    db: &'a Database,
    gj: &GenericJoin,
    stats: &mut ExecStats,
) -> Result<Batch<'a>, ExecError> {
    if gj.unsatisfiable {
        return Ok(Batch::from_columns(vec![Vec::new(); gj.width()]));
    }
    let tables: Vec<&[Value]> = gj.tables.iter().map(|t| db.table(*t)).collect();
    let mut built: Vec<BindingIndex> = Vec::new();
    for (b, table) in tables.iter().enumerate() {
        if gj.index_of[b] == built.len() {
            built.push(BindingIndex::build(table, &gj.keys[b], ROW_ID_LIMIT)?);
        }
    }
    stats.index_entries_built += built.iter().map(|index| index.rows.len()).sum::<usize>();
    let indexes: Vec<&BindingIndex> = gj.index_of.iter().map(|&i| &built[i]).collect();
    // One entry per binding, shared index or not: what the cost model reads.
    for ((name, table), index) in gj.tables.iter().zip(&tables).zip(&indexes) {
        stats.operators.push(OpStats {
            op: "wcoj_index",
            collection: Some(*name),
            collection_rows: table.len(),
            pairs: 0,
            input_rows: table.len(),
            output_rows: index.rows.len(),
        });
    }

    let (w, depth) = (gj.width(), gj.classes.len());
    let mut frames = vec![(0, 0); (depth + 1) * w];
    for (frame, index) in frames.iter_mut().zip(&indexes) {
        *frame = (0, index.rows.len());
    }
    let mut solver = Solver {
        classes: &gj.classes,
        tables: &tables,
        indexes: &indexes,
        frames,
        cursors: vec![0; depth * w],
        picked: Vec::with_capacity(w),
        class_stats: vec![(0, 0); depth],
        tuples_considered: 0,
        cols: vec![Vec::new(); w],
    };
    solver.solve(0);

    stats.tuples_considered += solver.tuples_considered;
    for (tried, matched) in solver.class_stats {
        stats.operators.push(OpStats {
            op: "wcoj_intersect",
            collection: None,
            collection_rows: 0,
            pairs: 0,
            input_rows: tried,
            output_rows: matched,
        });
    }
    Ok(Batch::from_columns(solver.cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{execute, execute_wcoj};

    fn row(fields: &[(&str, i64)]) -> Value {
        Value::record(fields.iter().map(|(n, v)| (sym(n), Value::Int(*v))))
    }

    fn edges(db: &mut Database, name: &str, pairs: &[(i64, i64)]) {
        for &(s, t) in pairs {
            db.insert_row(sym(name), row(&[("S", s), ("T", t)]));
        }
    }

    fn triangle_query(rel: &str) -> Query {
        let mut q = Query::new();
        let e1 = q.bind("e1", Range::Name(sym(rel)));
        let e2 = q.bind("e2", Range::Name(sym(rel)));
        let e3 = q.bind("e3", Range::Name(sym(rel)));
        q.equate(PathExpr::from(e1).dot("T"), PathExpr::from(e2).dot("S"));
        q.equate(PathExpr::from(e2).dot("T"), PathExpr::from(e3).dot("S"));
        q.equate(PathExpr::from(e3).dot("T"), PathExpr::from(e1).dot("S"));
        q.output("A", PathExpr::from(e1).dot("S"));
        q.output("B", PathExpr::from(e2).dot("S"));
        q.output("C", PathExpr::from(e3).dot("S"));
        q
    }

    fn sorted(mut rows: Vec<Value>) -> Vec<Value> {
        rows.sort_by(cmp_value);
        rows
    }

    /// The comparator corpus: every kind, the edges of each kind's order
    /// and of its code, and seeded values around them.
    fn comparator_corpus() -> Vec<Value> {
        let mut corpus = vec![Value::Null, Value::Bool(false), Value::Bool(true)];
        corpus.extend([i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX].map(Value::Int));
        corpus.extend(
            [
                -0.0,
                0.0,
                f64::NAN,
                f64::from_bits(0x7ff8_0000_0000_0001),
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::from_bits(1),
                -1.5,
                1.0,
            ]
            .map(Value::Float),
        );
        for s in [
            "",
            "\0",
            "a",
            "a\0",
            "ab",
            "abcdefgh",
            "abcdefgh0",
            "abcdefgh1",
            "abcdefghijklmno",
            "abcdefghijklmnoA",
            "abcdefghijklmnoB",
            "é",
        ] {
            corpus.push(Value::str(s));
        }
        for (class, id) in [
            ("C", 1),
            ("Class", 1),
            ("Class", 2),
            ("Classroom", 0),
            ("ClassroomsOfTheSchool", 2),
            ("ClassroomsOfTheSchoolB", 1),
        ] {
            corpus.push(Value::Oid(sym(class), id));
        }
        let rec = |fields: &[(&str, Value)]| {
            Value::record(fields.iter().map(|(n, v)| (sym(n), v.clone())))
        };
        let inner = rec(&[("C", Value::str("x"))]);
        corpus.extend([
            rec(&[]),
            rec(&[("A", Value::Int(1))]),
            rec(&[("A", Value::Int(1)), ("B", inner.clone())]),
            rec(&[("A", Value::Int(2))]),
            rec(&[("B", Value::Int(1))]),
            Value::set([]),
            Value::set([Value::Int(1)]),
            Value::set([Value::Int(1), Value::Int(2)]),
            Value::set([Value::set([Value::Int(1)])]),
            Value::set([inner]),
        ]);
        corpus.extend([0, 1, u32::MAX].map(Value::Param));
        let mut rng = crate::prng::SplitMix64::seed_from_u64(0xc0de);
        for _ in 0..12 {
            let len = rng.gen_range(0..20usize);
            let s: String = (0..len)
                .map(|_| ['a', 'b', '\0'][rng.gen_range(0..3usize)])
                .collect();
            corpus.push(Value::str(&s));
            corpus.push(Value::Int(rng.next_u64() as i64));
            corpus.push(Value::Float(f64::from_bits(rng.next_u64())));
        }
        corpus
    }

    /// `cmp_value` is a total order that agrees with `==`, and the coded
    /// comparison the indexes sort and seek with agrees with it on every
    /// pair: a lower code means `Less`, and equal codes of an exact kind
    /// mean equal values.
    #[test]
    fn coded_keys_agree_with_cmp_value_on_every_pair() {
        let corpus = comparator_corpus();
        for a in &corpus {
            for b in &corpus {
                let ord = cmp_value(a, b);
                assert_eq!(ord.is_eq(), a == b, "{a} vs {b}: {ord:?}");
                assert_eq!(cmp_value(b, a), ord.reverse(), "{a} vs {b}");
                let (ca, cb) = (code(a), code(b));
                if ca < cb {
                    assert_eq!(ord, Ordering::Less, "{a} codes below {b}");
                }
                if ca == cb && exact(ca) {
                    assert_eq!(a, b, "{a} and {b} share an exact code");
                }
                assert_eq!(cmp_coded((ca, a), (cb, b)), ord, "{a} vs {b}");
                for c in corpus.iter().filter(|_| ord.is_le()) {
                    if cmp_value(b, c).is_le() {
                        assert!(cmp_value(a, c).is_le(), "{a} <= {b} <= {c}");
                    }
                }
            }
        }
    }

    /// ROADMAP 5b: a table too large for `u32` row ids is a typed error —
    /// driven here through a small limit instead of 2³² rows.
    #[test]
    fn index_row_id_overflow_is_a_typed_error() {
        let mut db = Database::new();
        edges(&mut db, "E", &[(1, 2), (2, 3), (3, 1)]);
        let classes = [(0, vec![sym("S")])];
        let index = BindingIndex::build(db.table(sym("E")), &classes, 3).unwrap();
        assert_eq!(index.rows, vec![0, 1, 2]);
        assert_eq!(
            BindingIndex::build(db.table(sym("E")), &classes, 2).err(),
            Some(ExecError::RowIdOverflow {
                what: "generic-join index",
                rows: 3,
                limit: 2,
            })
        );
    }

    #[test]
    fn triangle_matches_binary_engine() {
        let mut db = Database::new();
        // Two triangles (1,2,3) and (3,4,5) plus dangling edges.
        edges(
            &mut db,
            "E",
            &[
                (1, 2),
                (2, 3),
                (3, 1),
                (3, 4),
                (4, 5),
                (5, 3),
                (1, 9),
                (9, 7),
            ],
        );
        let q = triangle_query("E");
        let wcoj = execute_wcoj(&db, &q).unwrap();
        let binary = execute(&db, &q).unwrap();
        // Each triangle appears 3 times (once per rotation).
        assert_eq!(wcoj.rows.len(), 6);
        assert_eq!(sorted(wcoj.rows), sorted(binary.rows));
    }

    /// The operator's columns point at the table rows: nothing is cloned on
    /// the way into the batch.
    #[test]
    fn generic_join_binds_the_table_rows() {
        let mut db = Database::new();
        edges(&mut db, "E", &[(1, 2), (2, 3), (3, 1), (1, 9)]);
        let gj = plan(&triangle_query("E")).unwrap();
        let batch = apply_generic_join(&db, &gj, &mut ExecStats::default()).unwrap();
        let e = db.table(sym("E"));
        // Three rotations of the one triangle, e1.S ascending.
        for (slot, rows) in [[0, 1, 2], [1, 2, 0], [2, 0, 1]].iter().enumerate() {
            let col = batch.col(slot).unwrap();
            assert_eq!(col.len(), 3);
            for (got, &i) in col.iter().zip(rows) {
                assert!(std::ptr::eq(*got, &e[i]), "slot {slot}");
            }
        }
    }

    #[test]
    fn output_order_is_deterministic() {
        let mut db = Database::new();
        edges(&mut db, "E", &[(2, 3), (3, 1), (1, 2), (3, 4), (4, 3)]);
        let q = triangle_query("E");
        let a = execute_wcoj(&db, &q).unwrap();
        let b = execute_wcoj(&db, &q).unwrap();
        assert_eq!(a.rows, b.rows, "two runs must agree byte-for-byte");
        // Bindings enumerate in from-clause order; e1.S values ascend
        // because the first class key sorts each relation's rows.
        assert!(!a.rows.is_empty());
    }

    #[test]
    fn constant_pins_narrow_the_intersection() {
        let mut db = Database::new();
        edges(&mut db, "E", &[(1, 2), (2, 3), (3, 1), (2, 1), (1, 3)]);
        let mut q = triangle_query("E");
        q.equate(PathExpr::from(q.from[0].var).dot("S"), PathExpr::from(1i64));
        let wcoj = execute_wcoj(&db, &q).unwrap();
        let binary = execute(&db, &q).unwrap();
        assert_eq!(sorted(wcoj.rows.clone()), sorted(binary.rows));
        for r in &wcoj.rows {
            assert_eq!(r.field(sym("A")), Some(&Value::Int(1)));
        }
    }

    #[test]
    fn contradictory_constants_yield_empty_result() {
        let mut db = Database::new();
        edges(&mut db, "E", &[(1, 2), (2, 3), (3, 1)]);
        let mut q = triangle_query("E");
        let e1 = q.from[0].var;
        q.equate(PathExpr::from(e1).dot("S"), PathExpr::from(1i64));
        q.equate(PathExpr::from(e1).dot("S"), PathExpr::from(2i64));
        let res = execute_wcoj(&db, &q).unwrap();
        assert!(res.rows.is_empty());
        // Nothing is indexed or intersected, but the order is still reported.
        assert_eq!(res.stats.order, vec![0, 1, 2]);
        assert!(res.stats.operators.is_empty(), "{:?}", res.stats.operators);
        assert_eq!(res.stats.tuples_considered, 0);
        // The binary engine agrees.
        assert!(execute(&db, &q).unwrap().rows.is_empty());
    }

    #[test]
    fn intra_binding_classes_filter_rows() {
        let mut db = Database::new();
        edges(&mut db, "E", &[(1, 1), (1, 2), (2, 2), (3, 4)]);
        // Self-loops joined against edges leaving them.
        let mut q = Query::new();
        let l = q.bind("l", Range::Name(sym("E")));
        let e = q.bind("e", Range::Name(sym("E")));
        q.equate(PathExpr::from(l).dot("S"), PathExpr::from(l).dot("T"));
        q.equate(PathExpr::from(l).dot("T"), PathExpr::from(e).dot("S"));
        q.output("L", PathExpr::from(l).dot("S"));
        q.output("T", PathExpr::from(e).dot("T"));
        let wcoj = execute_wcoj(&db, &q).unwrap();
        let binary = execute(&db, &q).unwrap();
        assert_eq!(sorted(wcoj.rows.clone()), sorted(binary.rows));
        assert_eq!(wcoj.rows.len(), 3); // (1,1)->{1,2}, (2,2)->{2}
    }

    #[test]
    fn rows_missing_join_attributes_are_dropped_like_hash_joins() {
        let mut db = Database::new();
        db.insert_row(sym("R"), row(&[("A", 1)])); // no B
        db.insert_row(sym("R"), row(&[("A", 2), ("B", 20)]));
        db.insert_row(sym("S"), row(&[("B", 20), ("C", 5)]));
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("S")));
        q.equate(PathExpr::from(r).dot("B"), PathExpr::from(s).dot("B"));
        q.output("A", PathExpr::from(r).dot("A"));
        q.output("C", PathExpr::from(s).dot("C"));
        let wcoj = execute_wcoj(&db, &q).unwrap();
        let binary = execute(&db, &q).unwrap();
        assert_eq!(wcoj.rows.len(), 1);
        assert_eq!(sorted(wcoj.rows), sorted(binary.rows));
        // The dropped row is visible in the index stats.
        let idx = &wcoj.stats.operators[0];
        assert_eq!(
            (idx.op, idx.input_rows, idx.output_rows),
            ("wcoj_index", 2, 1)
        );
    }

    #[test]
    fn cross_products_and_key_free_bindings_work() {
        let mut db = Database::new();
        edges(&mut db, "E", &[(1, 2), (3, 4)]);
        db.insert_row(sym("U"), row(&[("X", 7)]));
        db.insert_row(sym("U"), row(&[("X", 8)]));
        let mut q = Query::new();
        let e = q.bind("e", Range::Name(sym("E")));
        let u = q.bind("u", Range::Name(sym("U")));
        q.output("S", PathExpr::from(e).dot("S"));
        q.output("X", PathExpr::from(u).dot("X"));
        let wcoj = execute_wcoj(&db, &q).unwrap();
        let binary = execute(&db, &q).unwrap();
        assert_eq!(wcoj.rows.len(), 4);
        // Key-free indexes keep table order, so even the *order* matches
        // the nested-loop cross product here.
        assert_eq!(wcoj.rows, binary.rows);
    }

    #[test]
    fn unsupported_shapes_are_rejected_with_a_typed_error() {
        let db = Database::new();
        // Dictionary-domain binding.
        let mut q1 = Query::new();
        let k = q1.bind("k", Range::Dom(sym("PI")));
        q1.output("K", PathExpr::from(k));
        assert!(matches!(
            execute_wcoj(&db, &q1),
            Err(ExecError::GenericJoinUnsupported(_))
        ));
        // Nested (non-flat) equality path.
        let mut q2 = Query::new();
        let r = q2.bind("r", Range::Name(sym("R")));
        let s = q2.bind("s", Range::Name(sym("S")));
        q2.equate(
            PathExpr::from(r).dot("B").dot("Inner"),
            PathExpr::from(s).dot("B"),
        );
        q2.output("A", PathExpr::from(r).dot("A"));
        assert!(matches!(
            execute_wcoj(&db, &q2),
            Err(ExecError::GenericJoinUnsupported(_))
        ));
    }

    /// The operator's stats are pinned, not just its rows: three index
    /// builds over the true cardinality, then one intersection per join
    /// class with (lead values tried, values surviving).
    #[test]
    fn stats_feed_true_cardinalities_and_intersections() {
        let mut db = Database::new();
        edges(&mut db, "E", &[(1, 2), (2, 3), (3, 1), (1, 3)]);
        let q = triangle_query("E");
        let res = execute_wcoj(&db, &q).unwrap();
        let cards = res.stats.observed_cardinalities();
        assert_eq!(cards, vec![(sym("E"), 4.0)]);
        let ops: Vec<_> = res
            .stats
            .operators
            .iter()
            .map(|o| (o.op, o.collection_rows, o.input_rows, o.output_rows))
            .collect();
        assert_eq!(
            ops,
            vec![
                ("wcoj_index", 4, 4, 4),
                ("wcoj_index", 4, 4, 4),
                ("wcoj_index", 4, 4, 4),
                ("wcoj_intersect", 0, 3, 3),
                ("wcoj_intersect", 0, 4, 4),
                ("wcoj_intersect", 0, 5, 3),
            ]
        );
        assert_eq!(res.stats.tuples_considered, 27);
        assert_eq!(res.stats.order, vec![0, 1, 2]);
        assert_eq!(res.stats.rows_out, 3);
        let abc = |a, b, c| row(&[("A", a), ("B", b), ("C", c)]);
        assert_eq!(res.rows, vec![abc(1, 2, 3), abc(2, 3, 1), abc(3, 1, 2)]);
    }

    /// The WCOJ engine never materializes a wedge: on a star graph (hub
    /// connected to k spokes, no triangles) the binary engine's first two
    /// steps consider O(k²) pairs while the intersection tries only the
    /// candidate node values.
    #[test]
    fn no_quadratic_intermediate_on_triangle_free_graphs() {
        let mut db = Database::new();
        let k = 40i64;
        let mut pairs = Vec::new();
        for i in 1..=k {
            pairs.push((0, i));
            pairs.push((i, 0));
        }
        edges(&mut db, "S", &pairs);
        let q = triangle_query("S");
        let wcoj = execute_wcoj(&db, &q).unwrap();
        let binary = execute(&db, &q).unwrap();
        // Star graphs have 2-cycles but we ask for directed triangles with
        // three distinct corners only if they exist; compare sets.
        assert_eq!(sorted(wcoj.rows.clone()), sorted(binary.rows.clone()));
        assert!(
            wcoj.stats.tuples_considered < binary.stats.tuples_considered,
            "wcoj {} vs binary {}",
            wcoj.stats.tuples_considered,
            binary.stats.tuples_considered
        );
    }
}
