//! Differential suite for the folded hash join.
//!
//! A hash-join step whose first filter equates another attribute of the
//! binding with a side that reads none of it (`e2.T = e3.S` probed, then
//! `e3.T = e1.S` filtered) may probe a two-attribute table at both values
//! instead of filtering the one-attribute bucket. It does so per call, when
//! the buckets would offer more candidates than the table has rows, and it
//! reports the cascade it replaces. Seeded edge tables — rows without `T`,
//! `7` beside `7.0`, strings, duplicate rows, one hub node — and the cycle
//! shapes that close on such a filter: the batched engine must return the
//! rows of the tuple-at-a-time oracle in the same order and consider as
//! many tuples, and every operator entry must be the one the engine
//! reported before the fold existed (recorded from it, per case). Only
//! `index_entries_built` may move: up by the pair table's rows exactly when
//! the fold ran, which the cases sized for it must show, and the sparse
//! ones must not.
//!
//! The release run is the one that counts: it is the profile the benchmark
//! runs.

use cnb_engine::prng::SplitMix64;
use cnb_engine::{execute, execute_legacy, Database, ExecResult};
use cnb_ir::prelude::*;

/// A node: mostly an integer; node 7 sometimes as the float `7.0` (not
/// equal to `7`), some nodes as strings.
fn node(rng: &mut SplitMix64, nodes: u64, hub: bool) -> Value {
    let n = if hub && rng.gen_range(0..4) == 0 {
        0
    } else {
        rng.next_u64() % nodes
    };
    match (n, rng.next_u64() % 8) {
        (7, 0..=3) => Value::Float(7.0),
        (_, 0) => Value::str(&format!("n{n}")),
        _ => Value::Int(n as i64),
    }
}

/// `E(S, T, L)` with `edges` rows over `nodes` nodes (`L` a label in
/// `0..3`), some rows without `T` or `L`, some repeating the row before,
/// and — with `hub` — a quarter of the endpoints at node 0. `W(S, M, T)` is
/// every two-hop path of `E`, as EC5's wedge view.
fn graph(rng: &mut SplitMix64, nodes: u64, edges: u64, hub: bool) -> Database {
    let mut rows: Vec<Value> = Vec::new();
    for _ in 0..edges {
        if let Some(last) = rows.last().filter(|_| rng.gen_range(0..8) == 0) {
            rows.push(last.clone());
            continue;
        }
        let mut fields = vec![(sym("S"), node(rng, nodes, hub))];
        if rng.gen_range(0..10) != 0 {
            fields.push((sym("T"), node(rng, nodes, hub)));
        }
        if rng.gen_range(0..6) != 0 {
            fields.push((sym("L"), Value::Int(rng.gen_range(0..3))));
        }
        rows.push(Value::record(fields));
    }
    let field = |row: &Value, f: &str| row.field(sym(f)).cloned();
    let mut wedges = Vec::new();
    for a in &rows {
        for b in &rows {
            if let (Some(s), Some(m), Some(t)) = (field(a, "S"), field(a, "T"), field(b, "T")) {
                if field(b, "S") == Some(m.clone()) {
                    wedges.push(Value::record([(sym("S"), s), (sym("M"), m), (sym("T"), t)]));
                }
            }
        }
    }
    let mut db = Database::new();
    db.load_table(sym("E"), rows);
    db.load_table(sym("W"), wedges);
    db
}

/// A query shape: its name, its text over `E` / `W`, and the two
/// attributes of the table a fold would index (`None`: its closing step
/// has no foldable first filter).
struct Shape {
    name: &'static str,
    build: fn() -> Query,
    folds: Option<[&'static str; 2]>,
}

/// `ei.A = ej.B` as `((i, "A"), (j, "B"))`, bindings numbered from 1.
type Cond = ((usize, &'static str), (usize, &'static str));

/// `from E e1, …, E en where <conds>`, selecting every binding's `S`.
fn edges_query(n: usize, conds: &[Cond]) -> Query {
    let mut q = Query::new();
    let vars: Vec<Var> = (1..=n)
        .map(|i| q.bind(&format!("e{i}"), Range::Name(sym("E"))))
        .collect();
    let path = |(i, f): (usize, &str)| PathExpr::from(vars[i - 1]).dot(f);
    for &(a, b) in conds {
        q.equate(path(a), path(b));
    }
    for (i, v) in vars.iter().enumerate() {
        q.output(&format!("s{i}"), PathExpr::from(*v).dot("S"));
    }
    q
}

const SHAPES: [Shape; 8] = [
    Shape {
        name: "triangle",
        build: || {
            edges_query(
                3,
                &[
                    ((1, "T"), (2, "S")),
                    ((2, "T"), (3, "S")),
                    ((3, "T"), (1, "S")),
                ],
            )
        },
        folds: Some(["S", "T"]),
    },
    Shape {
        name: "triangle, folded equality swapped",
        build: || {
            edges_query(
                3,
                &[
                    ((1, "T"), (2, "S")),
                    ((2, "T"), (3, "S")),
                    ((1, "S"), (3, "T")),
                ],
            )
        },
        folds: Some(["S", "T"]),
    },
    Shape {
        name: "4-cycle",
        build: || {
            edges_query(
                4,
                &[
                    ((1, "T"), (2, "S")),
                    ((2, "T"), (3, "S")),
                    ((3, "T"), (4, "S")),
                    ((4, "T"), (1, "S")),
                ],
            )
        },
        folds: Some(["S", "T"]),
    },
    Shape {
        name: "wedge-view join",
        build: || {
            let mut q = Query::new();
            let w = q.bind("w", Range::Name(sym("W")));
            let e = q.bind("e", Range::Name(sym("E")));
            q.equate(PathExpr::from(w).dot("T"), PathExpr::from(e).dot("S"));
            q.equate(PathExpr::from(e).dot("T"), PathExpr::from(w).dot("S"));
            q.output("S", PathExpr::from(w).dot("S"));
            q.output("M", PathExpr::from(w).dot("M"));
            q.output("T", PathExpr::from(w).dot("T"));
            q
        },
        folds: Some(["S", "T"]),
    },
    Shape {
        name: "key attribute used twice",
        build: || {
            edges_query(
                3,
                &[
                    ((1, "T"), (2, "S")),
                    ((3, "S"), (2, "T")),
                    ((3, "S"), (1, "S")),
                ],
            )
        },
        folds: None,
    },
    Shape {
        name: "two foldable filters, the first folds",
        build: || {
            edges_query(
                3,
                &[
                    ((1, "T"), (2, "S")),
                    ((2, "T"), (3, "S")),
                    ((3, "T"), (1, "S")),
                    ((3, "L"), (1, "L")),
                ],
            )
        },
        folds: Some(["S", "T"]),
    },
    Shape {
        name: "first filter reads the binding twice",
        build: || {
            edges_query(
                3,
                &[
                    ((1, "T"), (2, "S")),
                    ((2, "T"), (3, "S")),
                    ((3, "T"), (3, "S")),
                    ((3, "T"), (1, "S")),
                ],
            )
        },
        folds: None,
    },
    Shape {
        name: "second key undefined on rows without T",
        build: || {
            edges_query(
                3,
                &[
                    ((1, "S"), (2, "S")),
                    ((2, "T"), (3, "S")),
                    ((3, "T"), (1, "T")),
                ],
            )
        },
        folds: Some(["S", "T"]),
    },
];

/// `(nodes, edges, hub)` per graph: two sparse graphs, where most closing
/// joins offer fewer candidates than the table has rows, then two dense
/// ones and a dense one with a hub.
const GRAPHS: [(u64, u64, bool); 5] = [
    (90, 24, false),
    (60, 30, true),
    (8, 40, false),
    (10, 48, false),
    (12, 40, true),
];

/// The operator entries, one `op collection/rows pairs input>output` per
/// operator.
fn cascade(res: &ExecResult) -> String {
    let entry = |o: &cnb_engine::OpStats| {
        let coll = o.collection.map_or("-".to_string(), |c| c.to_string());
        format!(
            "{} {coll}/{} {} {}>{}",
            o.op, o.collection_rows, o.pairs, o.input_rows, o.output_rows
        )
    };
    let ops: Vec<String> = res.stats.operators.iter().map(entry).collect();
    ops.join(", ")
}

/// Rows of `table` that have both attributes: what a pair table indexes.
fn pair_rows(db: &Database, table: Symbol, [a, b]: [&str; 2]) -> usize {
    let both = |row: &&Value| row.field(sym(a)).is_some() && row.field(sym(b)).is_some();
    db.table(table).iter().filter(both).count()
}

/// Per graph and shape, the operator entries and `index_entries_built` of
/// the engine before the fold (graph-major, shapes in [`SHAPES`] order).
const RECORDED: [(&str, usize); 40] = [
    ("scan E/24 0 1>24, hash_join E/24 0 24>4, hash_join E/24 0 4>0, filter -/0 0 0>0", 24),
    ("scan E/24 0 1>24, hash_join E/24 0 24>4, hash_join E/24 0 4>0, filter -/0 0 0>0", 24),
    ("scan E/24 0 1>24, hash_join E/24 0 24>4, hash_join E/24 0 4>0, hash_join E/24 0 0>0, filter -/0 0 0>0", 24),
    ("scan W/4 0 1>4, hash_join E/24 0 4>0, filter -/0 0 0>0", 24),
    ("scan E/24 0 1>24, hash_join E/24 0 24>4, hash_join E/24 0 4>0, filter -/0 0 0>0", 24),
    ("scan E/24 0 1>24, hash_join E/24 0 24>4, hash_join E/24 0 4>0, filter -/0 0 0>0, filter -/0 0 0>0", 24),
    ("scan E/24 0 1>24, hash_join E/24 0 24>4, hash_join E/24 0 4>0, filter -/0 0 0>0, filter -/0 0 0>0", 24),
    ("scan E/24 0 1>24, hash_join E/24 0 24>48, hash_join E/24 0 48>4, filter -/0 0 4>0", 24),
    ("scan E/30 0 1>30, hash_join E/30 0 30>21, hash_join E/30 0 21>22, filter -/0 0 22>8", 30),
    ("scan E/30 0 1>30, hash_join E/30 0 30>21, hash_join E/30 0 21>22, filter -/0 0 22>8", 30),
    ("scan E/30 0 1>30, hash_join E/30 0 30>21, hash_join E/30 0 21>22, hash_join E/30 0 22>36, filter -/0 0 36>18", 30),
    ("scan W/17 0 1>17, hash_join E/30 0 17>22, filter -/0 0 22>8", 30),
    ("scan E/30 0 1>30, hash_join E/30 0 30>21, hash_join E/30 0 21>22, filter -/0 0 22>18", 30),
    ("scan E/30 0 1>30, hash_join E/30 0 30>21, hash_join E/30 0 21>22, filter -/0 0 22>8, filter -/0 0 8>0", 30),
    ("scan E/30 0 1>30, hash_join E/30 0 30>21, hash_join E/30 0 21>22, filter -/0 0 22>8, filter -/0 0 8>8", 30),
    ("scan E/30 0 1>30, hash_join E/30 0 30>70, hash_join E/30 0 70>41, filter -/0 0 41>10", 30),
    ("scan E/40 0 1>40, hash_join E/40 0 40>121, hash_join E/40 0 121>374, filter -/0 0 374>54", 40),
    ("scan E/40 0 1>40, hash_join E/40 0 40>121, hash_join E/40 0 121>374, filter -/0 0 374>54", 40),
    ("scan E/40 0 1>40, hash_join E/40 0 40>121, hash_join E/40 0 121>374, hash_join E/40 0 374>1164, filter -/0 0 1164>103", 40),
    ("scan E/40 0 1>40, hash_join W/115 0 40>374, filter -/0 0 374>54", 115),
    ("scan E/40 0 1>40, hash_join E/40 0 40>121, hash_join E/40 0 121>374, filter -/0 0 374>26", 40),
    ("scan E/40 0 1>40, hash_join E/40 0 40>121, hash_join E/40 0 121>374, filter -/0 0 374>54, filter -/0 0 54>14", 40),
    ("scan E/40 0 1>40, hash_join E/40 0 40>121, hash_join E/40 0 121>374, filter -/0 0 374>69, filter -/0 0 69>11", 40),
    ("scan E/40 0 1>40, hash_join E/40 0 40>174, hash_join E/40 0 174>475, filter -/0 0 475>46", 40),
    ("scan E/48 0 1>48, hash_join E/48 0 48>174, hash_join E/48 0 174>590, filter -/0 0 590>21", 48),
    ("scan E/48 0 1>48, hash_join E/48 0 48>174, hash_join E/48 0 174>590, filter -/0 0 590>21", 48),
    ("scan E/48 0 1>48, hash_join E/48 0 48>174, hash_join E/48 0 174>590, hash_join E/48 0 590>2056, filter -/0 0 2056>83", 48),
    ("scan E/48 0 1>48, hash_join W/154 0 48>590, filter -/0 0 590>21", 154),
    ("scan E/48 0 1>48, hash_join E/48 0 48>174, hash_join E/48 0 174>590, filter -/0 0 590>61", 48),
    ("scan E/48 0 1>48, hash_join E/48 0 48>174, hash_join E/48 0 174>590, filter -/0 0 590>21, filter -/0 0 21>6", 48),
    ("scan E/48 0 1>48, hash_join E/48 0 48>174, hash_join E/48 0 174>590, filter -/0 0 590>61, filter -/0 0 61>7", 48),
    ("scan E/48 0 1>48, hash_join E/48 0 48>232, hash_join E/48 0 232>873, filter -/0 0 873>82", 48),
    ("scan E/40 0 1>40, hash_join E/40 0 40>156, hash_join E/40 0 156>644, filter -/0 0 644>87", 40),
    ("scan E/40 0 1>40, hash_join E/40 0 40>156, hash_join E/40 0 156>644, filter -/0 0 644>87", 40),
    ("scan E/40 0 1>40, hash_join E/40 0 40>156, hash_join E/40 0 156>644, hash_join E/40 0 644>2894, filter -/0 0 2894>417", 40),
    ("scan E/40 0 1>40, hash_join W/140 0 40>644, filter -/0 0 644>87", 140),
    ("scan E/40 0 1>40, hash_join E/40 0 40>156, hash_join E/40 0 156>644, filter -/0 0 644>145", 40),
    ("scan E/40 0 1>40, hash_join E/40 0 40>156, hash_join E/40 0 156>644, filter -/0 0 644>87, filter -/0 0 87>33", 40),
    ("scan E/40 0 1>40, hash_join E/40 0 40>156, hash_join E/40 0 156>644, filter -/0 0 644>165, filter -/0 0 165>45", 40),
    ("scan E/40 0 1>40, hash_join E/40 0 40>148, hash_join E/40 0 148>601, filter -/0 0 601>126", 40),
];

#[test]
fn folded_probes_report_the_cascade_they_replace() {
    let mut recorded = RECORDED.iter();
    let mut got = Vec::new();
    // Per foldable shape, (cases folded, cases not folded).
    let mut folded = vec![(0, 0); SHAPES.len()];
    for (g, &(nodes, edges, hub)) in GRAPHS.iter().enumerate() {
        let mut rng = SplitMix64::seed_from_u64(0xF01D + g as u64);
        let db = graph(&mut rng, nodes, edges, hub);
        for (s, shape) in SHAPES.iter().enumerate() {
            let case = format!("graph {g} ({nodes} nodes, {edges} edges), {}", shape.name);
            let q = (shape.build)();
            let batched = execute(&db, &q).unwrap();
            let legacy = execute_legacy(&db, &q).unwrap();
            assert_eq!(batched.rows, legacy.rows, "{case}: rows or order differ");
            assert_eq!(batched.stats.order, legacy.stats.order, "{case}");
            assert_eq!(
                batched.stats.tuples_considered, legacy.stats.tuples_considered,
                "{case}: tuples considered"
            );
            let ops = cascade(&batched);
            got.push(format!("({ops:?}, {}),", batched.stats.index_entries_built));
            let Some(&(want_ops, want_entries)) = recorded.next() else {
                continue;
            };
            assert_eq!(ops, want_ops, "{case}: operator entries moved");
            // The closing step is the access entry before the first filter.
            let entries = &batched.stats.operators;
            let closing = entries
                .iter()
                .position(|o| o.op == "filter")
                .map(|i| &entries[i - 1]);
            let fold = shape
                .folds
                .zip(closing)
                .filter(|(_, o)| o.op == "hash_join" && o.output_rows > o.collection_rows);
            let pairs = fold.map_or(0, |(attrs, o)| pair_rows(&db, o.collection.unwrap(), attrs));
            if shape.folds.is_some() {
                let (yes, no) = &mut folded[s];
                *if fold.is_some() { yes } else { no } += 1;
            }
            assert_eq!(
                batched.stats.index_entries_built,
                want_entries + pairs,
                "{case}: entries beyond the recorded ones are the pair table's"
            );
        }
    }
    assert_eq!(
        RECORDED.len(),
        got.len(),
        "one recorded entry per case; this engine's:\n{}",
        got.join("\n")
    );
    for (shape, &(yes, no)) in SHAPES.iter().zip(&folded) {
        if shape.folds.is_some() {
            assert!(
                yes > 0 && no > 0,
                "{}: folded {yes}, unfolded {no}",
                shape.name
            );
        }
    }
}
