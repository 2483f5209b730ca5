//! Generic-join (worst-case optimal) execution.
//!
//! [`execute_wcoj`] runs a flat relational join *variable-at-a-time* instead
//! of relation-at-a-time: the query's flat equalities are grouped into join
//! classes (equivalence classes of `binding.attr` terms, optionally pinned
//! to a constant), every participating relation is pre-sorted on its class
//! key tuple, and the executor intersects the per-relation sorted runs one
//! class after another — a leapfrog-style multiway intersection. Because
//! each class narrows *every* participant before the next class is touched,
//! no intermediate ever exceeds the AGM bound `N^{ρ*}` of the fractional
//! edge cover certified by [`cnb_ir::cover`]; the binary-join engine in
//! [`crate::eval`] can be `N^2` on the same cyclic queries (two edges of a
//! skewed triangle materialize every wedge before the third edge prunes).
//!
//! **Scope.** Only the shape [`cnb_ir::hypergraph::generic_join_supported`]
//! vouches for is accepted: every binding ranges over a named relation and
//! every equality is *flat* — `x.A = y.B` or `x.A = const`. Anything else
//! (dictionary domains, set-path expansions, nested field paths) returns
//! [`ExecError::GenericJoinUnsupported`]; the optimizer only emits WCOJ
//! plan twins for queries that pass the same gate.
//!
//! **Semantics.** Exactly the binary engine's: rows missing a join
//! attribute (or disagreeing between two attributes equated within the same
//! row) never join — here they are dropped when the per-relation index is
//! built, which is where a hash join would silently skip them. Output rows
//! whose select paths are undefined are skipped, as in [`crate::execute`].
//! The *set* of output rows is identical to the binary engine's; the order
//! is a different — but still deterministic — pure function of
//! `(database, plan)`: bindings enumerate in from-clause order, each
//! relation's rows in class-key order (table order for tie and key-free
//! bindings), values compared under the total order [`cmp_value`].
//!
//! **Stats.** Every index build reports its relation's true cardinality
//! (`wcoj_index` operators feed [`crate::feed_cost_model`] exactly like
//! scans), and every class intersection reports values tried vs. values
//! surviving (`wcoj_intersect`), so the fig. 9 feedback loop observes WCOJ
//! runs too.

use std::cmp::Ordering;
use std::time::Instant;

use cnb_core::fxhash::FxHashMap;
use cnb_ir::prelude::*;

use crate::database::Database;
use crate::error::ExecError;
use crate::eval::{eval_path, reject_unbound_params, ExecResult, ExecStats, OpStats};
use crate::join::{check_row_ids, ROW_ID_LIMIT};

/// A total order over [`Value`] consistent with `Value::eq`: two values
/// compare `Equal` iff they are `==`. Variants order by a fixed rank;
/// within a variant, floats use `total_cmp` (bit-pattern equality, like
/// `Value::eq`), strings compare bytewise, oids by `(class, id)`, structs
/// and sets lexicographically. Used to sort and binary-search the
/// per-relation WCOJ indexes; exposed for tests and tooling.
pub fn cmp_value(a: &Value, b: &Value) -> Ordering {
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

/// Disjoint-set forest over term ids.
struct UnionFind(Vec<usize>);

impl UnionFind {
    fn find(&mut self, x: usize) -> usize {
        let mut r = x;
        while self.0[r] != r {
            r = self.0[r];
        }
        let mut c = x;
        while self.0[c] != r {
            let next = self.0[c];
            self.0[c] = r;
            c = next;
        }
        r
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[rb] = ra;
        }
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

/// A relation's rows sorted by their class-key tuple (then row id, which
/// preserves table order for ties and for key-free bindings).
struct BindingIndex {
    keys: Vec<Vec<Value>>,
    rows: Vec<u32>,
}

impl BindingIndex {
    /// Indexes `table` on `classes` — per class, the attributes it
    /// constrains in this binding. A row lacking a class attribute (or
    /// disagreeing between two same-class attributes) can never join: it is
    /// dropped here, exactly where a hash-join build would skip it. `limit`
    /// is [`ROW_ID_LIMIT`] outside tests.
    fn build(
        table: &[Value],
        classes: &[(usize, Vec<Symbol>)],
        limit: usize,
    ) -> Result<BindingIndex, ExecError> {
        check_row_ids("generic-join index", table.len(), limit)?;
        let mut entries: Vec<(Vec<Value>, u32)> = Vec::with_capacity(table.len());
        'row: for (i, row) in table.iter().enumerate() {
            let mut key = Vec::with_capacity(classes.len());
            for (_, attrs) in classes {
                let Some(first) = row.field(attrs[0]) else {
                    continue 'row;
                };
                for a in &attrs[1..] {
                    if row.field(*a) != Some(first) {
                        continue 'row;
                    }
                }
                key.push(first.clone());
            }
            entries.push((key, i as u32));
        }
        entries.sort_by(|(ka, ra), (kb, rb)| {
            ka.iter()
                .zip(kb.iter())
                .map(|(x, y)| cmp_value(x, y))
                .find(|o| *o != Ordering::Equal)
                .unwrap_or_else(|| ra.cmp(rb))
        });
        let (keys, rows) = entries.into_iter().unzip();
        Ok(BindingIndex { keys, rows })
    }
}

fn equal_range(idx: &BindingIndex, range: (usize, usize), pos: usize, v: &Value) -> (usize, usize) {
    let bound = |upper: bool| {
        let (mut lo, mut hi) = range;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let ord = cmp_value(&idx.keys[mid][pos], v);
            let go_right = if upper {
                ord != Ordering::Greater
            } else {
                ord == Ordering::Less
            };
            if go_right {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    (bound(false), bound(true))
}

struct Exec<'a> {
    db: &'a Database,
    q: &'a Query,
    classes: Vec<Class>,
    indexes: Vec<BindingIndex>,
    /// Per class: (lead values tried, values surviving every participant).
    class_stats: Vec<(usize, usize)>,
    stats: ExecStats,
    rows: Vec<Value>,
    env: FxHashMap<Var, Value>,
}

impl Exec<'_> {
    /// Intersects class `class_i` across its participants' current sorted
    /// ranges, recursing with the narrowed ranges for each surviving value.
    fn solve(&mut self, class_i: usize, ranges: &[(usize, usize)]) {
        if class_i == self.classes.len() {
            let mut scratch = ranges.to_vec();
            self.emit(&mut scratch, 0);
            return;
        }
        // Pinned class: narrow every participant to the constant.
        if let Some(pin) = self.classes[class_i].pin.clone() {
            let parts = std::mem::take(&mut self.classes[class_i].participants);
            let mut next = ranges.to_vec();
            let mut ok = true;
            for &(b, pos) in &parts {
                self.stats.tuples_considered += 1;
                let r = equal_range(&self.indexes[b], next[b], pos, &pin);
                if r.0 == r.1 {
                    ok = false;
                    break;
                }
                next[b] = r;
            }
            self.classes[class_i].participants = parts;
            self.class_stats[class_i].0 += 1;
            if ok {
                self.class_stats[class_i].1 += 1;
                self.solve(class_i + 1, &next);
            }
            return;
        }
        // Leapfrog step: iterate the smallest participant's distinct values
        // in sorted order, probing every other participant for each.
        let parts = std::mem::take(&mut self.classes[class_i].participants);
        let lead = parts
            .iter()
            .copied()
            .min_by_key(|&(b, _)| (ranges[b].1 - ranges[b].0, b))
            .expect("join class has at least one participant");
        let (lead_b, lead_pos) = lead;
        let (mut lo, hi) = ranges[lead_b];
        while lo < hi {
            let v = self.indexes[lead_b].keys[lo][lead_pos].clone();
            let lead_end = equal_range(&self.indexes[lead_b], (lo, hi), lead_pos, &v).1;
            self.stats.tuples_considered += 1;
            self.class_stats[class_i].0 += 1;
            let mut next = ranges.to_vec();
            next[lead_b] = (lo, lead_end);
            let mut ok = true;
            for &(b, pos) in parts.iter().filter(|&&(b, _)| b != lead_b) {
                self.stats.tuples_considered += 1;
                let r = equal_range(&self.indexes[b], next[b], pos, &v);
                if r.0 == r.1 {
                    ok = false;
                    break;
                }
                next[b] = r;
            }
            if ok {
                self.class_stats[class_i].1 += 1;
                self.solve(class_i + 1, &next);
            }
            lo = lead_end;
        }
        self.classes[class_i].participants = parts;
    }

    /// Enumerates the cross product of the fully narrowed ranges in binding
    /// order and projects the select clause (skipping rows with undefined
    /// output paths, as the binary engine does).
    fn emit(&mut self, ranges: &mut [(usize, usize)], b: usize) {
        if b == self.q.from.len() {
            self.stats.tuples_considered += 1;
            let mut fields = Vec::with_capacity(self.q.select.len());
            for (label, p) in &self.q.select {
                match eval_path(self.db, &self.env, p) {
                    Some(v) => fields.push((*label, v)),
                    None => return, // undefined output: skip row
                }
            }
            self.rows.push(Value::record(fields));
            return;
        }
        let var = self.q.from[b].var;
        let table = match &self.q.from[b].range {
            Range::Name(t) => self.db.table(*t),
            _ => unreachable!("shape checked before execution"),
        };
        let (lo, hi) = ranges[b];
        for i in lo..hi {
            let row = table[self.indexes[b].rows[i] as usize].clone();
            self.env.insert(var, row);
            self.emit(ranges, b + 1);
        }
        self.env.remove(&var);
    }
}

/// Executes `q` against `db` with the generic-join (WCOJ) engine.
///
/// Returns the same row *set* as [`crate::execute`] — in a different but
/// deterministic order (see the module docs) — or
/// [`ExecError::GenericJoinUnsupported`] when the query is not a flat
/// relational join.
pub fn execute_wcoj(db: &Database, q: &Query) -> Result<ExecResult, ExecError> {
    // Stats-only timing; evaluation order is fixed by the class order.
    #[allow(clippy::disallowed_methods)]
    let start = Instant::now(); // cnb-lint: allow(wall-clock)
    q.validate().map_err(ExecError::InvalidQuery)?;
    reject_unbound_params(q)?;
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
    // pin their class. Conflicting pins (or unequal constant-vs-constant
    // equalities) make the query unsatisfiable — an empty result, not an
    // error.
    let mut term_ids: FxHashMap<(usize, Symbol), usize> = FxHashMap::default();
    let mut terms: Vec<(usize, Symbol)> = Vec::new();
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut pin_list: Vec<(usize, Value)> = Vec::new();
    let mut contradiction = false;
    for eq in &q.where_ {
        let lhs = flat_side(&eq.lhs, &var_to_idx)?;
        let rhs = flat_side(&eq.rhs, &var_to_idx)?;
        let mut tid = |t: (usize, Symbol)| {
            *term_ids.entry(t).or_insert_with(|| {
                terms.push(t);
                terms.len() - 1
            })
        };
        match (lhs, rhs) {
            (Side::Term(b1, a1), Side::Term(b2, a2)) => {
                let (t1, t2) = (tid((b1, a1)), tid((b2, a2)));
                links.push((t1, t2));
            }
            (Side::Term(b, a), Side::Pin(v)) | (Side::Pin(v), Side::Term(b, a)) => {
                let t = tid((b, a));
                pin_list.push((t, v));
            }
            (Side::Pin(v1), Side::Pin(v2)) => {
                if v1 != v2 {
                    contradiction = true;
                }
            }
        }
    }
    let mut uf = UnionFind((0..terms.len()).collect());
    for (a, b) in links {
        uf.union(a, b);
    }
    let mut pins: FxHashMap<usize, Value> = FxHashMap::default();
    for (t, v) in pin_list {
        let root = uf.find(t);
        match pins.get(&root) {
            Some(prev) if *prev != v => contradiction = true,
            _ => {
                pins.insert(root, v);
            }
        }
    }
    let mut stats = ExecStats {
        order: (0..n).collect(),
        ..ExecStats::default()
    };
    if contradiction {
        stats.elapsed = start.elapsed();
        return Ok(ExecResult {
            rows: Vec::new(),
            stats,
        });
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
            continue; // e.g. `x.A = x.A`: constrains nothing
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

    // Per binding: its classes (in global order) with the attrs each class
    // constrains in that binding — one key-tuple position per class.
    let mut binding_classes: Vec<Vec<(usize, Vec<Symbol>)>> = vec![Vec::new(); n];
    let mut classes: Vec<Class> = Vec::with_capacity(raw.len());
    for (ci, (members, pin)) in raw.into_iter().enumerate() {
        let mut participants: Vec<(usize, usize)> = Vec::new();
        for (b, attr) in members {
            match binding_classes[b].last_mut() {
                Some((c, attrs)) if *c == ci => attrs.push(attr),
                _ => {
                    let pos = binding_classes[b].len();
                    binding_classes[b].push((ci, vec![attr]));
                    participants.push((b, pos));
                }
            }
        }
        classes.push(Class { participants, pin });
    }

    let mut indexes: Vec<BindingIndex> = Vec::with_capacity(n);
    for (b, t) in tables.iter().enumerate() {
        let table = db.table(*t);
        let index = BindingIndex::build(table, &binding_classes[b], ROW_ID_LIMIT)?;
        stats.operators.push(OpStats {
            op: "wcoj_index",
            collection: Some(*t),
            collection_rows: table.len(),
            pairs: 0,
            input_rows: table.len(),
            output_rows: index.rows.len(),
        });
        indexes.push(index);
    }

    let ranges: Vec<(usize, usize)> = indexes.iter().map(|ix| (0, ix.rows.len())).collect();
    let n_classes = classes.len();
    let mut exec = Exec {
        db,
        q,
        classes,
        indexes,
        class_stats: vec![(0, 0); n_classes],
        stats,
        rows: Vec::new(),
        env: FxHashMap::default(),
    };
    exec.solve(0, &ranges);

    let Exec {
        class_stats,
        mut stats,
        rows,
        ..
    } = exec;
    for (tried, matched) in class_stats {
        stats.operators.push(OpStats {
            op: "wcoj_intersect",
            collection: None,
            collection_rows: 0,
            pairs: 0,
            input_rows: tried,
            output_rows: matched,
        });
    }
    stats.rows_out = rows.len();
    stats.elapsed = start.elapsed();
    Ok(ExecResult { rows, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::execute;

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
        edges(&mut db, "E", &[(1, 1)]);
        let mut q = Query::new();
        let e = q.bind("e", Range::Name(sym("E")));
        q.equate(PathExpr::from(e).dot("S"), PathExpr::from(1i64));
        q.equate(PathExpr::from(e).dot("S"), PathExpr::from(2i64));
        q.output("A", PathExpr::from(e).dot("S"));
        let res = execute_wcoj(&db, &q).unwrap();
        assert!(res.rows.is_empty());
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

    #[test]
    fn stats_feed_true_cardinalities_and_intersections() {
        let mut db = Database::new();
        edges(&mut db, "E", &[(1, 2), (2, 3), (3, 1), (1, 3)]);
        let q = triangle_query("E");
        let res = execute_wcoj(&db, &q).unwrap();
        let cards = res.stats.observed_cardinalities();
        assert_eq!(cards, vec![(sym("E"), 4.0)]);
        let intersects: Vec<&OpStats> = res
            .stats
            .operators
            .iter()
            .filter(|o| o.op == "wcoj_intersect")
            .collect();
        assert_eq!(intersects.len(), 3, "one per join class");
        assert!(intersects.iter().all(|o| o.input_rows >= o.output_rows));
        assert!(res.stats.tuples_considered > 0);
        assert_eq!(res.stats.order, vec![0, 1, 2]);
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
