//! Differential suite for the paths whose values the evaluation *owns*.
//!
//! The batched engine's columns borrow: table rows, dictionary keys and
//! entries, set elements and constants are pointed at, never copied. A
//! `struct(…)` path is the one thing evaluation builds, so these are the
//! shapes where a borrow-only engine could silently lose rows:
//!
//! * a range that expands a set reached *under* a built struct
//!   (`from R r, struct(S = r.N).S x`) — the set has no owner in the
//!   database, yet `x` (and what ranges over `x`) must still be bound;
//! * a composite-index probe keyed by a built struct
//!   (`dom I k where k = struct(A = r.A, B = s.B)`) — `k` is bound to the
//!   dictionary's stored key, equal to the built one;
//! * a filter comparing a built struct with a stored one.
//!
//! Seeded random databases; the batched engine must return the rows of the
//! tuple-at-a-time oracle **in the same order**, under the same join order,
//! considering exactly as many tuples (nothing here fuses).
//!
//! The release run is the one that counts: it is the profile the benchmark
//! runs, where the path evaluator is inlined into every candidate loop and a
//! filter side that reads no candidate is read once per input row.

use cnb_engine::prng::SplitMix64;
use cnb_engine::{execute, execute_legacy, Database};
use cnb_ir::prelude::*;

/// True one time in `n`.
fn one_in(rng: &mut SplitMix64, n: u64) -> bool {
    rng.gen_range(0..n) == 0
}

fn int(rng: &mut SplitMix64, below: u64) -> Value {
    Value::Int((rng.next_u64() % below) as i64)
}

/// 0–3 elements: bare integers, or `{K, P}` records whose `P` is a set of
/// integers (sometimes absent).
fn arb_set(rng: &mut SplitMix64) -> Value {
    Value::set((0..rng.next_u64() % 4).map(|_| match rng.next_u64() % 3 {
        0 => int(rng, 3),
        1 => Value::record([(sym("K"), int(rng, 3))]),
        _ => Value::record([
            (sym("K"), int(rng, 3)),
            (
                sym("P"),
                Value::set((0..rng.next_u64() % 3).map(|_| int(rng, 3))),
            ),
        ]),
    }))
}

/// `R(A, B, N)` — `N` a set, an integer, or missing; `S(A, B)`; and `I`, a
/// composite index over a third of the `(A, B)` domain, entries `{A, B, E}`.
fn arb_db(rng: &mut SplitMix64) -> Database {
    let mut db = Database::new();
    for _ in 0..rng.next_u64() % 6 {
        let mut fields = vec![(sym("A"), int(rng, 3)), (sym("B"), int(rng, 3))];
        match rng.next_u64() % 6 {
            0 => {}
            1 => fields.push((sym("N"), int(rng, 3))),
            _ => fields.push((sym("N"), arb_set(rng))),
        }
        db.insert_row(sym("R"), Value::record(fields));
    }
    for _ in 0..rng.next_u64() % 6 {
        db.insert_row(
            sym("S"),
            Value::record([(sym("A"), int(rng, 3)), (sym("B"), int(rng, 3))]),
        );
    }
    for (a, b) in (0..3).flat_map(|a| (0..3).map(move |b| (a, b))) {
        if one_in(rng, 3) {
            let key = [(sym("A"), Value::Int(a)), (sym("B"), Value::Int(b))];
            let entry = key.iter().cloned().chain([(sym("E"), int(rng, 9))]);
            db.set_entry(sym("I"), Value::record(key.clone()), Value::record(entry));
        }
    }
    db
}

fn pair(a: PathExpr, b: PathExpr) -> PathExpr {
    PathExpr::MkStruct(vec![(sym("A"), a), (sym("B"), b)])
}

/// `from R r, struct(S = r.N).S x [, x.P y] [where x.K = r.A]`.
fn set_under_a_struct(rng: &mut SplitMix64) -> Query {
    let mut q = Query::new();
    let r = q.bind("r", Range::Name(sym("R")));
    let wrapped = PathExpr::MkStruct(vec![(sym("S"), PathExpr::from(r).dot("N"))]);
    let x = q.bind("x", Range::Expr(wrapped.dot("S")));
    if one_in(rng, 2) {
        let y = q.bind("y", Range::Expr(PathExpr::from(x).dot("P")));
        q.output("y", PathExpr::from(y));
    }
    if one_in(rng, 3) {
        q.equate(PathExpr::from(x).dot("K"), PathExpr::from(r).dot("A"));
    }
    q.output("B", PathExpr::from(r).dot("B"));
    q.output("x", PathExpr::from(x));
    q
}

/// `from R r, S s, dom I k where k = struct(A = r.A, B = s.B) [and r.B = s.A]`.
fn probe_keyed_by_a_struct(rng: &mut SplitMix64) -> Query {
    let mut q = Query::new();
    let r = q.bind("r", Range::Name(sym("R")));
    let s = q.bind("s", Range::Name(sym("S")));
    let k = q.bind("k", Range::Dom(sym("I")));
    let key = pair(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("B"));
    if one_in(rng, 2) {
        q.equate(PathExpr::from(k), key);
    } else {
        q.equate(key, PathExpr::from(k));
    }
    if one_in(rng, 2) {
        q.equate(PathExpr::from(r).dot("B"), PathExpr::from(s).dot("A"));
    }
    q.output("k", PathExpr::from(k));
    q.output("E", PathExpr::from(k).lookup_in("I").dot("E"));
    q
}

/// `from R r, S s where struct(A = r.A, B = r.B) = s`, the output a built
/// struct too; sometimes the stored side is an index entry's key instead.
fn filter_on_a_struct(rng: &mut SplitMix64) -> Query {
    let mut q = Query::new();
    let r = q.bind("r", Range::Name(sym("R")));
    let s = q.bind("s", Range::Name(sym("S")));
    let built = pair(PathExpr::from(r).dot("A"), PathExpr::from(r).dot("B"));
    q.equate(built.clone(), PathExpr::from(s));
    if one_in(rng, 2) {
        let k = q.bind("k", Range::Dom(sym("I")));
        q.equate(PathExpr::from(s), PathExpr::from(k));
    }
    q.output("rs", pair(PathExpr::from(r).dot("N"), PathExpr::from(s)));
    q.output("A", built.dot("A"));
    q
}

#[test]
fn built_structs_agree_with_the_nested_loop_oracle() {
    let mut rng = SplitMix64::seed_from_u64(0x0B0E_D5E7);
    type Shape = fn(&mut SplitMix64) -> Query;
    let shapes: [(&str, Shape); 3] = [
        ("set under a struct", set_under_a_struct),
        ("probe keyed by a struct", probe_keyed_by_a_struct),
        ("filter on a struct", filter_on_a_struct),
    ];
    // Cases with rows, per shape, and struct-keyed probes that found their
    // key — the suite must not go vacuous.
    let mut nonempty = [0usize; 3];
    let mut probed = 0usize;
    for case in 0..450 {
        let db = arb_db(&mut rng);
        let (name, shape) = shapes[case % 3];
        let q = shape(&mut rng);
        let batched = execute(&db, &q).unwrap();
        let legacy = execute_legacy(&db, &q).unwrap();
        assert_eq!(batched.rows, legacy.rows, "case {case} ({name})\n{q}");
        assert_eq!(batched.stats.order, legacy.stats.order, "case {case}\n{q}");
        assert_eq!(
            batched.stats.tuples_considered, legacy.stats.tuples_considered,
            "case {case} ({name})\n{q}"
        );
        nonempty[case % 3] += usize::from(!batched.rows.is_empty());
        let hit = |o: &cnb_engine::OpStats| o.op == "dom_probe" && o.output_rows > 0;
        probed += usize::from(batched.stats.operators.iter().any(hit));
    }
    assert!(
        nonempty.iter().all(|&n| n >= 30) && probed >= 30,
        "cases with rows per shape = {nonempty:?}, probes that hit = {probed}"
    );
}

/// The set a struct was built around still feeds the bindings that range
/// over its elements, and over theirs: the exact rows, on a database small
/// enough to read.
#[test]
fn built_structs_by_hand() {
    let mut db = Database::new();
    let inner = Value::record([
        (sym("K"), Value::Int(1)),
        (sym("P"), Value::set([Value::Int(7), Value::Int(8)])),
    ]);
    db.insert_row(
        sym("R"),
        Value::record([
            (sym("A"), Value::Int(1)),
            (sym("B"), Value::Int(2)),
            (sym("N"), Value::set([inner.clone(), Value::Int(5)])),
        ]),
    );
    // from R r, struct(S = r.N).S x, x.P y
    let mut q = Query::new();
    let r = q.bind("r", Range::Name(sym("R")));
    let wrapped = PathExpr::MkStruct(vec![(sym("S"), PathExpr::from(r).dot("N"))]);
    let x = q.bind("x", Range::Expr(wrapped.dot("S")));
    let y = q.bind("y", Range::Expr(PathExpr::from(x).dot("P")));
    q.output("x", PathExpr::from(x));
    q.output("y", PathExpr::from(y));
    let res = execute(&db, &q).unwrap();
    let row = |y| Value::record([(sym("x"), inner.clone()), (sym("y"), Value::Int(y))]);
    assert_eq!(res.rows, vec![row(7), row(8)]);
    let ops: Vec<_> = res
        .stats
        .operators
        .iter()
        .map(|o| (o.op, o.input_rows, o.output_rows))
        .collect();
    assert_eq!(
        ops,
        vec![("scan", 1, 1), ("path_set", 1, 2), ("path_set", 2, 2)]
    );
}
