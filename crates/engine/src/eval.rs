//! Batched, deterministic plan execution: one pipeline, one oracle.
//!
//! A path-conjunctive query (or plan) runs directly against a [`Database`]
//! as a pipeline of batch-at-a-time operators. [`execute`] and
//! [`execute_wcoj`] are two entry points over one private `run`, which
//! holds everything around the operators exactly once — the clock read,
//! query validation, the unbound-parameter guard, the ground-equality
//! check, the operator loop, the select-clause projection and the stats
//! epilogue — and differ only in how they compile the query to
//! [`crate::join`]'s three operators:
//!
//! * `Bind` — one binding through a scan, a dictionary-domain scan, a key
//!   probe, a set-path expansion or a build/probe hash join;
//! * `DictJoin` — a `dom M k, M[k] t` pair with an equality on `t` into
//!   the bound prefix, run as one index probe and not as a scan, an
//!   expansion and a filter;
//! * `GenericJoin` — every binding of a flat relational join through one
//!   multiway intersection ([`crate::wcoj`]).
//!
//! The first two check their residual equalities on each candidate before
//! it joins the batch, and report them as the `filter` operators they stand
//! for. [`execute`] compiles to the first two under a greedy
//! selectivity-aware ordering ([`crate::join`]) that plays the role of the
//! host optimizer's join reordering (the paper fed its plans to DB2, which
//! did the same); [`execute_wcoj`] compiles to a single `GenericJoin`.
//!
//! **Ownership.** The pipeline owns no values until it projects. Batches
//! hold `&Value`s into the [`Database`] and the plan ([`crate::batch`]
//! states the rule); `run` declares the operators and one `Home` per
//! operator *before* the batch, so everything a column can point at
//! outlives it; and the projection's `into_owned()` — once per output
//! field — is the only place a run clones a value it did not build. Build
//! sides are made inside the operator that reads them, for its input: a
//! hash join builds its table when it first runs with rows, a `dict_join`
//! keeps the pairs its rows ask for ([`ExecStats::index_entries_built`]).
//!
//! **Determinism.** Output row order is a pure function of
//! `(database, plan)`: batches are walked front to back, hash-join buckets
//! keep build rows in table order, dictionaries iterate in first-insertion
//! order, and every hash table is keyed by the deterministic
//! [`cnb_core::fxhash`]. Two runs — in the same process or different
//! processes — produce byte-identical `ExecResult.rows`. [`execute`]'s row
//! order equals the old tuple-at-a-time nested-loop order (lexicographic in
//! the chosen step order), which [`execute_legacy`] retains as a
//! differential oracle — a separate interpreter that shares nothing with
//! `run`. The oracle never fuses index pairs, so the two agree on rows,
//! row order and join order but not on [`ExecStats::tuples_considered`]:
//! the batched count is the smaller one wherever a pair fused.
//!
//! **Cardinality feedback.** Every operator records its observed input and
//! output cardinalities in [`ExecStats::operators`]; [`feed_cost_model`]
//! folds them back into a [`cnb_core::cost::CostModel`] so plan ranking
//! (fig. 9) can use measured selectivities instead of static guesses.
//!
//! Lookup semantics are *skipping*: a dictionary lookup on an absent key
//! produces no bindings (exactly how an index nested-loop join behaves),
//! and an output row with an undefined select path is dropped.

use std::time::{Duration, Instant};

use cnb_core::cost::CostModel;
use cnb_core::fxhash::FxHashMap;
use cnb_ir::prelude::*;

use crate::batch::{eval_path_at, Batch, Home, Path};
use crate::database::Database;
use crate::error::ExecError;
use crate::join::{
    apply_access, apply_dict_join, greedy_order, plan, Access, JoinIndexes, Op, ROW_ID_LIMIT,
};
use crate::wcoj::{self, apply_generic_join};

/// One operator's observed cardinalities — the raw material of the
/// cost-model feedback loop.
#[derive(Clone, Debug)]
pub struct OpStats {
    /// Operator kind: `scan`, `hash_join`, `dom_scan`, `dom_probe`,
    /// `path_set`, `dict_join`, `filter`, or a generic join's `wcoj_index`
    /// and `wcoj_intersect`.
    pub op: &'static str,
    /// The collection accessed (None for filters and anchorless paths).
    pub collection: Option<Symbol>,
    /// Cardinality of the accessed collection at execution time (build-side
    /// rows for hash joins, dictionary keys for set-path expansions and
    /// `dict_join` — never its pair count; 0 for filters).
    pub collection_rows: usize,
    /// `dict_join` only: the dictionary's `(key, element)` pairs, i.e. what
    /// one input row would have fanned out to before the equality (0 on an
    /// empty input, where nothing is enumerated, and for other operators).
    pub pairs: usize,
    /// Rows in the input batch.
    pub input_rows: usize,
    /// Rows produced.
    pub output_rows: usize,
}

/// Execution counters.
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    /// Total binding candidates produced by access operators before
    /// filtering (a proxy for work done). A `dict_join` produces only the
    /// pairs that satisfy its equality, so this is at most the
    /// tuple-at-a-time interpreter's count, and equal to it for plans
    /// without a fused index pair.
    pub tuples_considered: usize,
    /// Output rows.
    pub rows_out: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Chosen evaluation order (indexes into the query's from-clause).
    pub order: Vec<usize>,
    /// Per-operator observed cardinalities, in pipeline order (empty for
    /// [`execute_legacy`], which predates the batch model).
    pub operators: Vec<OpStats>,
    /// Entries the run wrote into build-side structures: one per row a
    /// hash-join table indexes, per `(key, element)` pair a `dict_join`
    /// keeps and per row a generic-join index holds. The part of a run's
    /// work that follows the database rather than the request.
    pub index_entries_built: usize,
}

impl ExecStats {
    /// Observed cardinality of every collection the plan touched, deduped
    /// and sorted by symbol — suitable for
    /// [`CostModel::observe_cardinality`].
    pub fn observed_cardinalities(&self) -> Vec<(Symbol, f64)> {
        let mut out: Vec<(Symbol, f64)> = Vec::new();
        for op in &self.operators {
            if let Some(c) = op.collection {
                if !out.iter().any(|(n, _)| *n == c) {
                    out.push((c, op.collection_rows as f64));
                }
            }
        }
        out.sort_by_key(|(n, _)| *n);
        out
    }

    /// Measured selectivity of each equality predicate the plan evaluated:
    /// `out / (in · build)` for probe-style joins (`build` = a
    /// `dict_join`'s pairs: what its equality's filter would have read),
    /// `out / in` for residual filters. Operators with empty inputs observe
    /// nothing.
    pub fn observed_join_selectivities(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for op in &self.operators {
            // What one input row was compared against.
            let build = match op.op {
                "hash_join" | "dom_probe" => op.collection_rows,
                "dict_join" => op.pairs,
                "filter" => 1,
                _ => continue,
            };
            let denom = op.input_rows * build;
            if denom > 0 {
                out.push(op.output_rows as f64 / denom as f64);
            }
        }
        out
    }

    /// Measured fan-out of set-valued path expansions (`out / in`; for a
    /// `dict_join`, pairs per key — what its `path_set` half would have
    /// measured).
    pub fn observed_fanouts(&self) -> Vec<f64> {
        self.operators
            .iter()
            .filter(|op| op.input_rows > 0)
            .filter_map(|op| match op.op {
                "path_set" => Some(op.output_rows as f64 / op.input_rows as f64),
                "dict_join" if op.collection_rows > 0 => {
                    Some(op.pairs as f64 / op.collection_rows as f64)
                }
                _ => None,
            })
            .collect()
    }
}

/// Folds one execution's observed cardinalities, join selectivities and
/// set fan-outs back into a cost model — the fig. 9 feedback loop: after a
/// plan runs, `model.cost(..)` ranks the alternatives with measured
/// parameters instead of static defaults.
pub fn feed_cost_model(stats: &ExecStats, model: &mut CostModel) {
    for (name, card) in stats.observed_cardinalities() {
        model.observe_cardinality(name, card);
    }
    for sel in stats.observed_join_selectivities() {
        model.observe_join_selectivity(sel);
    }
    for f in stats.observed_fanouts() {
        model.observe_fanout(f);
    }
}

/// Execution result: output rows (structs labeled per the select-clause).
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// Output rows.
    pub rows: Vec<Value>,
    /// Counters.
    pub stats: ExecStats,
}

/// Rejects queries still containing `?k` parameter placeholders: a
/// template reaching the executor means the serving path's bind step was
/// skipped (or the parameter vector was short), and treating `?k` as data
/// would silently produce wrong — usually empty — results.
fn reject_unbound_params(q: &Query) -> Result<(), ExecError> {
    match cnb_core::serving::unbound_param(q) {
        Some(k) => Err(ExecError::UnboundParam(k)),
        None => Ok(()),
    }
}

/// True if every ground equality of `q` — one without variables, like
/// `3 = 4` — holds in `db`. The greedy order attaches each equality to the
/// step that binds its last variable, so a ground one reaches no step: both
/// executors decide these once, before binding anything, and a false one
/// empties the result. (A bound template plan can carry one: `?0 = ?1`.)
fn ground_equalities_hold(db: &Database, q: &Query) -> bool {
    let env = FxHashMap::default();
    let ground = |p: &PathExpr| p.vars_all(&mut |_| false);
    q.where_
        .iter()
        .filter(|eq| ground(&eq.lhs) && ground(&eq.rhs))
        .all(|eq| {
            matches!(
                (eval_path(db, &env, &eq.lhs), eval_path(db, &env, &eq.rhs)),
                (Some(a), Some(b)) if a == b
            )
        })
}

/// Executes `q` against `db` with the batched engine's binary operators.
pub fn execute(db: &Database, q: &Query) -> Result<ExecResult, ExecError> {
    run(db, q, plan)
}

/// Executes `q` against `db` as one generic join ([`crate::wcoj`]).
///
/// Returns the same row *set* as [`execute`] — in a different but
/// deterministic order (see the operator's module docs) — or
/// [`ExecError::GenericJoinUnsupported`] when the query is not a flat
/// relational join.
pub fn execute_wcoj(db: &Database, q: &Query) -> Result<ExecResult, ExecError> {
    run(db, q, |_, q| Ok(vec![Op::GenericJoin(wcoj::plan(q)?)]))
}

/// The one batched pipeline: checks `q`, compiles it to operators, threads
/// a batch through them and projects the select clause. `compile` is a
/// plain function pointer so the pipeline is one copy of machine code too.
fn run(
    db: &Database,
    q: &Query,
    compile: fn(&Database, &Query) -> Result<Vec<Op>, ExecError>,
) -> Result<ExecResult, ExecError> {
    // Stats-only timing; evaluation order is fixed by the plan.
    #[expect(clippy::disallowed_methods)]
    let start = Instant::now();
    q.validate().map_err(ExecError::InvalidQuery)?;
    reject_unbound_params(q)?;
    let ops = compile(db, q)?;
    let mut indexes = JoinIndexes::default();

    let mut stats = ExecStats {
        order: ops.iter().flat_map(Op::bindings).collect(),
        ..ExecStats::default()
    };
    // Declared before the batch: what an operator's evaluation owns and its
    // output borrows lives here (see `crate::batch`).
    let homes: Vec<Home> = ops.iter().map(|_| Home::new()).collect();
    let mut batch = Batch::unit(q.from.len());
    // A generic join reads no input batch: its plan decides the constant
    // equalities it accepts on its own (`GenericJoin::unsatisfiable`).
    if !ground_equalities_hold(db, q) {
        batch = batch.gather(&[]);
    }
    for (op, home) in ops.iter().zip(&homes) {
        batch = match op {
            Op::Bind(step) => apply_access(db, q, &mut indexes, step, home, &batch, &mut stats)?,
            Op::DictJoin(dj) => apply_dict_join(db, q, dj, &batch, &mut stats)?,
            Op::GenericJoin(gj) => apply_generic_join(db, gj, &mut stats)?,
        };
    }

    // Projection — the one place a run takes ownership of values. Rows with
    // any undefined output path are skipped. `fields` is reused: draining
    // it (an exact-size source) allocates each row's record once.
    let select: Vec<(Symbol, Path)> = q
        .select
        .iter()
        .map(|(label, p)| (*label, Path::resolve(db, q, &[], p)))
        .collect();
    let mut rows = Vec::with_capacity(batch.len());
    let mut fields: Vec<(Symbol, Value)> = Vec::with_capacity(select.len());
    'row: for r in 0..batch.len() {
        fields.clear();
        for (label, p) in &select {
            match eval_path_at(&batch, r, &[], p) {
                Some(v) => fields.push((*label, v.into_owned())),
                None => continue 'row,
            }
        }
        rows.push(Value::record(fields.drain(..)));
    }
    stats.rows_out = rows.len();
    stats.elapsed = start.elapsed();
    Ok(ExecResult { rows, stats })
}

/// The retired tuple-at-a-time nested-loop interpreter, kept as a compact
/// differential oracle (same join order, same semantics, same row order —
/// `tests` and `benchmark/` compare it against [`execute`]). It runs the
/// greedy order one binding at a time — index pairs stay a scan, an
/// expansion and a filter — so it checks the fused operator instead of
/// sharing it, and it records no per-operator stats.
pub fn execute_legacy(db: &Database, q: &Query) -> Result<ExecResult, ExecError> {
    // Stats-only timing; evaluation order is fixed by the plan.
    #[expect(clippy::disallowed_methods)]
    let start = Instant::now();
    q.validate().map_err(ExecError::InvalidQuery)?;
    reject_unbound_params(q)?;
    let steps = greedy_order(db, q)?;
    let mut stats = ExecStats {
        order: steps.iter().map(|s| s.binding_idx).collect(),
        ..ExecStats::default()
    };
    // Every table up front, through the pipeline's build.
    let mut indexes = JoinIndexes::default();
    for step in &steps {
        if let Access::HashJoin { table, attr, .. } = &step.access {
            indexes.table(db, (*table, *attr), ROW_ID_LIMIT, &mut stats)?;
        }
    }
    let mut env: FxHashMap<Var, Value> = FxHashMap::default();
    let mut rows = Vec::new();
    if ground_equalities_hold(db, q) {
        legacy_steps(db, q, &steps, &indexes, 0, &mut env, &mut rows, &mut stats)?;
    }
    stats.rows_out = rows.len();
    stats.elapsed = start.elapsed();
    Ok(ExecResult { rows, stats })
}

#[allow(clippy::too_many_arguments)]
fn legacy_steps(
    db: &Database,
    q: &Query,
    steps: &[crate::join::Step],
    indexes: &JoinIndexes,
    depth: usize,
    env: &mut FxHashMap<Var, Value>,
    out: &mut Vec<Value>,
    stats: &mut ExecStats,
) -> Result<(), ExecError> {
    if depth == steps.len() {
        let mut fields = Vec::with_capacity(q.select.len());
        for (label, p) in &q.select {
            match eval_path(db, env, p) {
                Some(v) => fields.push((*label, v)),
                None => return Ok(()), // undefined output: skip row
            }
        }
        out.push(Value::record(fields));
        return Ok(());
    }
    let step = &steps[depth];
    let var = q.from[step.binding_idx].var;

    // A closure processing one candidate value for the binding.
    macro_rules! try_value {
        ($v:expr) => {{
            stats.tuples_considered += 1;
            env.insert(var, $v);
            let pass = step.filters.iter().all(|eq| {
                match (eval_path(db, env, &eq.lhs), eval_path(db, env, &eq.rhs)) {
                    (Some(a), Some(b)) => a == b,
                    _ => false,
                }
            });
            if pass {
                legacy_steps(db, q, steps, indexes, depth + 1, env, out, stats)?;
            }
            env.remove(&var);
        }};
    }

    match &step.access {
        Access::Scan(t) => {
            for row in db.table(*t) {
                try_value!(row.clone());
            }
        }
        Access::HashJoin { table, attr, key } => {
            if let Some(k) = eval_path(db, env, key) {
                let rows = db.table(*table);
                for &i in indexes.built(*table, *attr).bucket(&k) {
                    try_value!(rows[i as usize].clone());
                }
            }
        }
        Access::DomScan(m) => {
            if let Some(d) = db.dict(*m) {
                for k in d.keys() {
                    try_value!(k.clone());
                }
            }
        }
        Access::DomProbe(m, key) => {
            if let (Some(d), Some(k)) = (db.dict(*m), eval_path(db, env, key)) {
                if d.contains_key(&k) {
                    try_value!(k);
                }
            }
        }
        Access::PathSet(p) => {
            if let Some(Value::Set(items)) = eval_path(db, env, p) {
                for v in items.iter() {
                    try_value!(v.clone());
                }
            }
        }
    }
    Ok(())
}

/// Evaluates a path in an environment (legacy oracle only; the batched
/// engine evaluates against batch columns). `None` means undefined
/// (missing dictionary key or field) — the enclosing row is skipped.
pub fn eval_path(db: &Database, env: &FxHashMap<Var, Value>, p: &PathExpr) -> Option<Value> {
    match p {
        PathExpr::Var(v) => env.get(v).cloned(),
        PathExpr::Const(c) => Some(c.clone()),
        PathExpr::Field(base, f) => eval_path(db, env, base)?.field(*f).cloned(),
        PathExpr::Lookup(dict, key) => {
            let k = eval_path(db, env, key)?;
            db.dict(*dict)?.get(&k).cloned()
        }
        PathExpr::MkStruct(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (name, p) in fields {
                out.push((*name, eval_path(db, env, p)?));
            }
            Some(Value::record(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::SplitMix64;

    fn row(fields: &[(&str, i64)]) -> Value {
        Value::record(fields.iter().map(|(n, v)| (sym(n), Value::Int(*v))))
    }

    fn join_db() -> Database {
        let mut db = Database::new();
        for (a, b) in [(1, 100), (2, 200), (3, 300)] {
            db.insert_row(sym("R"), row(&[("A", a), ("B", b)]));
        }
        for (a, c) in [(1, 11), (2, 22), (9, 99)] {
            db.insert_row(sym("S"), row(&[("A", a), ("C", c)]));
        }
        db
    }

    #[test]
    fn scan_and_filter() {
        let db = join_db();
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(2i64));
        q.output("B", PathExpr::from(r).dot("B"));
        let res = execute(&db, &q).unwrap();
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.rows[0].field(sym("B")), Some(&Value::Int(200)));
    }

    #[test]
    fn equi_join() {
        let db = join_db();
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("S")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
        q.output("B", PathExpr::from(r).dot("B"));
        q.output("C", PathExpr::from(s).dot("C"));
        let res = execute(&db, &q).unwrap();
        assert_eq!(res.rows.len(), 2);
        // The second binding is hash-joined, not cross-producted.
        assert!(res.stats.tuples_considered <= 3 + 2, "{:?}", res.stats);
        // Probe output follows probe-input order: A=1 joins before A=2.
        assert_eq!(res.rows[0].field(sym("C")), Some(&Value::Int(11)));
        assert_eq!(res.rows[1].field(sym("C")), Some(&Value::Int(22)));
    }

    #[test]
    fn dict_probe_and_lookup() {
        let mut db = join_db();
        db.set_entry(sym("PI"), Value::Int(1), row(&[("A", 1), ("B", 100)]));
        db.set_entry(sym("PI"), Value::Int(2), row(&[("A", 2), ("B", 200)]));
        // select PI[k].B from dom PI k where k = 2
        let mut q = Query::new();
        let k = q.bind("k", Range::Dom(sym("PI")));
        q.equate(PathExpr::from(k), PathExpr::from(2i64));
        q.output("B", PathExpr::from(k).lookup_in("PI").dot("B"));
        let res = execute(&db, &q).unwrap();
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.rows[0].field(sym("B")), Some(&Value::Int(200)));
        assert_eq!(res.stats.tuples_considered, 1, "probe, not scan");
    }

    #[test]
    fn missing_lookup_skips() {
        let db = join_db(); // no dict "PI"
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        q.output("X", PathExpr::from(r).dot("A").lookup_in("PI"));
        let res = execute(&db, &q).unwrap();
        assert!(res.rows.is_empty(), "undefined lookups produce no rows");
    }

    #[test]
    fn set_path_iteration() {
        let mut db = Database::new();
        let obj =
            |n: &[i64]| Value::record([(sym("N"), Value::set(n.iter().map(|&i| Value::Int(i))))]);
        db.set_entry(sym("M"), Value::Int(1), obj(&[10, 11]));
        db.set_entry(sym("M"), Value::Int(2), obj(&[20]));
        // select o from dom M k, M[k].N o
        let mut q = Query::new();
        let k = q.bind("k", Range::Dom(sym("M")));
        let o = q.bind("o", Range::Expr(PathExpr::from(k).lookup_in("M").dot("N")));
        q.output("o", PathExpr::from(o));
        let res = execute(&db, &q).unwrap();
        let vals: Vec<i64> = res
            .rows
            .iter()
            .map(|r| match r.field(sym("o")) {
                Some(Value::Int(i)) => *i,
                other => panic!("{other:?}"),
            })
            .collect();
        // Dictionaries iterate in insertion order and sets in element
        // order, so the expansion order is exact — no sort needed.
        assert_eq!(vals, vec![10, 11, 20]);
    }

    #[test]
    fn greedy_order_starts_from_filtered_side() {
        // T has 1 row, R has 3; planner should start from the probe-friendly
        // side regardless of from-clause order.
        let mut db = join_db();
        db.insert_row(sym("T"), row(&[("A", 1)]));
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let t = q.bind("t", Range::Name(sym("T")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(t).dot("A"));
        q.output("B", PathExpr::from(r).dot("B"));
        let res = execute(&db, &q).unwrap();
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.stats.order[0], 1, "scan T (1 row) first");
    }

    #[test]
    fn struct_key_probe() {
        let mut db = Database::new();
        let key = Value::record([(sym("A"), Value::Int(1)), (sym("B"), Value::Int(2))]);
        db.set_entry(sym("I"), key, row(&[("A", 1), ("B", 2), ("E", 5)]));
        db.insert_row(sym("S"), row(&[("A", 1)]));
        // select I[struct(A = s.A, B = 2)].E from S s
        let mut q = Query::new();
        let s = q.bind("s", Range::Name(sym("S")));
        let key_expr = PathExpr::MkStruct(vec![
            (sym("A"), PathExpr::from(s).dot("A")),
            (sym("B"), PathExpr::from(2i64)),
        ]);
        q.output("E", key_expr.lookup_in("I").dot("E"));
        let res = execute(&db, &q).unwrap();
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.rows[0].field(sym("E")), Some(&Value::Int(5)));
    }

    #[test]
    fn cartesian_products_still_work() {
        let db = join_db();
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("S")));
        q.output("A", PathExpr::from(r).dot("A"));
        q.output("C", PathExpr::from(s).dot("C"));
        let res = execute(&db, &q).unwrap();
        assert_eq!(res.rows.len(), 9);
        // Lexicographic (outer, inner) order — exactly the nested-loop order.
        let firsts: Vec<&Value> = res
            .rows
            .iter()
            .map(|r| r.field(sym("A")).unwrap())
            .collect();
        assert_eq!(firsts[0], &Value::Int(1));
        assert_eq!(firsts[2], &Value::Int(1));
        assert_eq!(firsts[3], &Value::Int(2));
    }

    #[test]
    fn operator_stats_and_feedback() {
        let db = join_db();
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("S")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
        q.output("B", PathExpr::from(r).dot("B"));
        let res = execute(&db, &q).unwrap();
        // One scan + one hash join, no filters.
        let ops: Vec<&str> = res.stats.operators.iter().map(|o| o.op).collect();
        assert_eq!(ops, vec!["scan", "hash_join"]);
        let cards = res.stats.observed_cardinalities();
        assert!(cards.contains(&(sym("R"), 3.0)));
        assert!(cards.contains(&(sym("S"), 3.0)));
        // Join selectivity: 2 matches out of 3 probes × 3 build rows.
        let sels = res.stats.observed_join_selectivities();
        assert_eq!(sels.len(), 1);
        assert!((sels[0] - 2.0 / 9.0).abs() < 1e-12);
        // Feedback lands in the model.
        let mut model = CostModel::default();
        feed_cost_model(&res.stats, &mut model);
        assert_eq!(model.cardinalities.get(&sym("R")), Some(&3.0));
        assert!((model.join_selectivity - 2.0 / 9.0).abs() < 1e-12);
    }

    /// A dictionary reached *only* through a set-path expansion still
    /// reports its true cardinality — a hard-coded 0 would let the feedback
    /// loop overwrite a correctly seeded cost model.
    #[test]
    fn path_set_observes_anchor_cardinality() {
        let mut db = Database::new();
        for i in 0..2 {
            db.set_entry(
                sym("D"),
                Value::Int(i),
                Value::record([(sym("Items"), Value::set([Value::Int(10 * i)]))]),
            );
        }
        db.insert_row(sym("R"), row(&[("K", 0)]));
        // from R r, D[r.K].Items o — D is never bound by a Dom step.
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let o = q.bind(
            "o",
            Range::Expr(PathExpr::from(r).dot("K").lookup_in("D").dot("Items")),
        );
        q.output("o", PathExpr::from(o));
        let res = execute(&db, &q).unwrap();
        assert_eq!(res.rows.len(), 1);
        let cards = res.stats.observed_cardinalities();
        assert!(cards.contains(&(sym("D"), 2.0)), "{cards:?}");
        let mut model = CostModel::default().with_cardinality(sym("D"), 2.0);
        feed_cost_model(&res.stats, &mut model);
        assert_eq!(model.cardinalities.get(&sym("D")), Some(&2.0));
    }

    /// Random databases + every query shape: the batched engine and the
    /// tuple-at-a-time oracle agree byte-for-byte, rows and order included.
    /// Work accounting agrees too, except where an index pair was fused:
    /// there the batched engine never enumerates the non-matching pairs.
    #[test]
    fn batched_agrees_with_legacy_oracle() {
        let mut rng = SplitMix64::seed_from_u64(0xC0FFEE);
        for case in 0..40u64 {
            let mut db = Database::new();
            let nr = 1 + (rng.next_u64() % 6) as i64;
            for i in 0..nr {
                db.insert_row(
                    sym("R"),
                    row(&[("A", (rng.next_u64() % 4) as i64), ("B", i)]),
                );
                db.insert_row(
                    sym("S"),
                    row(&[("A", (rng.next_u64() % 4) as i64), ("C", 100 + i)]),
                );
            }
            for i in 0..nr {
                let elems = (0..(rng.next_u64() % 3))
                    .map(|j| Value::Int((10 * i + j as i64) % 7))
                    .collect::<Vec<_>>();
                db.set_entry(
                    sym("M"),
                    Value::Int(i),
                    Value::record([(sym("N"), Value::set(elems))]),
                );
            }
            let mut q = Query::new();
            let r = q.bind("r", Range::Name(sym("R")));
            let s = q.bind("s", Range::Name(sym("S")));
            let k = q.bind("k", Range::Dom(sym("M")));
            let o = q.bind("o", Range::Expr(PathExpr::from(k).lookup_in("M").dot("N")));
            q.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
            if case % 2 == 0 {
                q.equate(PathExpr::from(o), PathExpr::from(s).dot("A"));
            }
            q.output("B", PathExpr::from(r).dot("B"));
            q.output("C", PathExpr::from(s).dot("C"));
            q.output("O", PathExpr::from(o));
            let batched = execute(&db, &q).unwrap();
            let legacy = execute_legacy(&db, &q).unwrap();
            assert_eq!(batched.rows, legacy.rows, "case {case}: rows/order differ");
            let fused = batched.stats.operators.iter().any(|o| o.op == "dict_join");
            let (got, want) = (
                batched.stats.tuples_considered,
                legacy.stats.tuples_considered,
            );
            assert!(
                if fused { got <= want } else { got == want },
                "case {case}: work accounting differs: {got} vs legacy {want} (fused: {fused})"
            );
            assert_eq!(batched.stats.order, legacy.stats.order);
        }
    }

    /// A fused index pair feeds the cost model exactly what its `dom_scan`
    /// / `path_set` / `filter` trio fed: the dictionary's key count (never
    /// the pair count), pairs per key as the set fan-out, and the
    /// equality's selectivity over input × pairs.
    #[test]
    fn dict_join_feeds_the_cost_model_like_the_unfused_trio() {
        let mut db = Database::new();
        // 3 keys, 2 + 1 + 3 = 6 pairs; two elements have K = 1.
        for (key, ks) in [(10, vec![1, 2]), (20, vec![3]), (30, vec![1, 4, 5])] {
            db.set_entry(
                sym("SI"),
                Value::Int(key),
                Value::set(ks.iter().map(|&k| row(&[("K", k), ("V", key)]))),
            );
        }
        // No more rows than `SI` has keys, so the greedy order scans R first.
        for a in [1, 3, 7] {
            db.insert_row(sym("R"), row(&[("A", a)]));
        }
        // from R r, dom SI k, SI[k] t where t.K = r.A
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let k = q.bind("k", Range::Dom(sym("SI")));
        let t = q.bind("t", Range::Expr(PathExpr::from(k).lookup_in("SI")));
        q.equate(PathExpr::from(t).dot("K"), PathExpr::from(r).dot("A"));
        q.output("V", PathExpr::from(t).dot("V"));
        let fused = execute(&db, &q).unwrap().stats;
        let ops: Vec<&str> = fused.operators.iter().map(|o| o.op).collect();
        assert_eq!(ops, vec!["scan", "dict_join"]);
        let (input, keys, pairs, out) = (3, 3, 6, 3);
        assert_eq!(fused.tuples_considered, input + out);

        // The same execution as the unfused pipeline reports it.
        let op = |op, collection, collection_rows, input_rows, output_rows| OpStats {
            op,
            collection,
            collection_rows,
            pairs: 0,
            input_rows,
            output_rows,
        };
        let mut trio = fused.clone();
        trio.operators.truncate(1);
        trio.operators.extend([
            op("dom_scan", Some(sym("SI")), keys, input, input * keys),
            op(
                "path_set",
                Some(sym("SI")),
                keys,
                input * keys,
                input * pairs,
            ),
            op("filter", None, 0, input * pairs, out),
        ]);

        let (mut a, mut b) = (CostModel::default(), CostModel::default());
        for _ in 0..2 {
            feed_cost_model(&fused, &mut a);
            feed_cost_model(&trio, &mut b);
        }
        assert_eq!(
            a.cardinalities.get(&sym("SI")),
            Some(&3.0),
            "keys, not pairs"
        );
        assert_eq!(a.fanout, 2.0);
        assert_eq!(a.join_selectivity, 3.0 / 18.0);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
