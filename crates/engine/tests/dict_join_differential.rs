//! Differential suite for the fused index-pair operator (`dict_join`).
//!
//! Seeded random databases and `dom M k, M[k].f… t` queries: the batched
//! engine — which fuses the pair with an equality into one probe — must
//! return the rows of the tuple-at-a-time oracle, which never fuses, **in
//! the same order**, under the same join order, considering no more tuples
//! (and exactly as many whenever nothing fused). The generator covers the
//! shapes where a probe and a nested loop could drift apart: elements
//! without the compared attribute, probe keys that are undefined, entries
//! that are not sets, duplicate elements, `M[k].N` suffix paths,
//! whole-element equalities, two set paths over one key, and inputs that
//! are empty, ask for one value or ask for several (the pass compares
//! against one value and hashes several).
//!
//! A second family holds the operators' residual filters to the oracle. An
//! operator reads a filter side that reads no candidate once per input row
//! and a side that does once per candidate, so its filters mix both kinds:
//! row sides through a nested field chain (`r.C.D`) that is undefined on
//! some rows, through a partial dictionary (`X[r.A]`) and constants, and
//! filters between the fused pair's two candidate slots (`t.V = k`), after
//! a `dict_join`, a hash join or an unfused scan and expansion. Beside rows
//! and order, the per-operator counts must form the filter cascade that
//! `tuples_considered` sums.
//!
//! The release run is the one that counts: it is the profile the benchmark
//! runs, where the path evaluator is inlined into every candidate loop and a
//! filter side that reads no candidate is read once per input row.

use cnb_engine::prng::SplitMix64;
use cnb_engine::{execute, execute_legacy, Database, ExecStats};
use cnb_ir::prelude::*;

/// True one time in `n`.
fn one_in(rng: &mut SplitMix64, n: u64) -> bool {
    rng.gen_range(0..n) == 0
}

fn int(rng: &mut SplitMix64, below: u64) -> Value {
    Value::Int((rng.next_u64() % below) as i64)
}

/// A set of 0–4 elements: mostly `{K, V}` records, some records without
/// `K`, some bare integers; a third of the sets repeat their first element.
fn arb_set(rng: &mut SplitMix64) -> Value {
    let mut items: Vec<Value> = (0..rng.next_u64() % 5)
        .map(|_| match rng.next_u64() % 6 {
            0 => Value::record([(sym("V"), int(rng, 4))]),
            1 => int(rng, 4),
            _ => Value::record([(sym("K"), int(rng, 4)), (sym("V"), int(rng, 4))]),
        })
        .collect();
    if one_in(rng, 3) {
        if let Some(first) = items.first().cloned() {
            items.push(first);
        }
    }
    Value::set(items)
}

/// `R(A, B)` with `rows` rows; `M` with `keys` entries, each a bare set, a
/// record of sets `{N, P}` (sometimes without `N`), or not a set at all;
/// `X`, a partial map over `R.A`'s domain for undefined probe keys.
fn arb_db(rng: &mut SplitMix64, rows: u64, keys: u64) -> Database {
    let mut db = Database::new();
    db.load_table(
        sym("R"),
        (0..rows)
            .map(|_| Value::record([(sym("A"), int(rng, 4)), (sym("B"), int(rng, 4))]))
            .collect(),
    );
    for k in 0..keys {
        let entry = match rng.next_u64() % 8 {
            0 => int(rng, 4),
            1 => Value::record([(sym("P"), arb_set(rng))]),
            2 | 3 => arb_set(rng),
            _ => Value::record([(sym("N"), arb_set(rng)), (sym("P"), arb_set(rng))]),
        };
        db.set_entry(sym("M"), Value::Int(k as i64), entry);
    }
    for a in [0, 2] {
        db.set_entry(sym("X"), Value::Int(a), Value::Int(a));
    }
    db
}

/// `from [R r,] dom M k, M[k](.N) t [, M[k].P u] where <equalities on t>`.
fn arb_query(rng: &mut SplitMix64) -> Query {
    let mut q = Query::new();
    let r = (!one_in(rng, 5)).then(|| q.bind("r", Range::Name(sym("R"))));
    let k = q.bind("k", Range::Dom(sym("M")));
    let entry = PathExpr::from(k).lookup_in("M");
    let t = q.bind(
        "t",
        Range::Expr(if one_in(rng, 3) {
            entry.clone()
        } else {
            entry.clone().dot("N")
        }),
    );
    let u = one_in(rng, 3).then(|| q.bind("u", Range::Expr(entry.dot("P"))));

    // What `t` (or `t.K`) is compared with: a column of r, a lookup that is
    // undefined for half of r.A's domain, or a constant.
    let probe = |rng: &mut SplitMix64| match (r, rng.next_u64() % 4) {
        (Some(r), 0) => PathExpr::from(r).dot("A").lookup_in("X"),
        (Some(r), 1 | 2) => PathExpr::from(r).dot("A"),
        _ => PathExpr::from((rng.next_u64() % 4) as i64),
    };
    let shape = rng.next_u64() % 8;
    if shape <= 4 {
        q.equate(PathExpr::from(t).dot("K"), probe(rng));
    }
    if shape >= 4 && shape != 7 {
        // Whole-element equality, written key-side first half the time.
        let (a, b) = (probe(rng), PathExpr::from(t));
        if one_in(rng, 2) {
            q.equate(a, b);
        } else {
            q.equate(b, a);
        }
    }
    if one_in(rng, 4) {
        // A residual filter the pair cannot be joined on.
        q.equate(PathExpr::from(t).dot("V"), PathExpr::from(k));
    }
    if let Some(u) = u.filter(|_| one_in(rng, 2)) {
        q.equate(PathExpr::from(u).dot("K"), PathExpr::from(t).dot("K"));
    }
    q.output("k", PathExpr::from(k));
    q.output("t", PathExpr::from(t));
    if let Some(r) = r {
        q.output("B", PathExpr::from(r).dot("B"));
    }
    if let Some(u) = u {
        q.output("u", PathExpr::from(u));
    }
    q
}

/// Which of the one-pass `dict_join`'s cases the fused pair ran: 0 for an
/// empty input, 1 when its rows ask for one value, 2 for several (`None`:
/// every row's probe is undefined). The pair joins on the first equality
/// between a field of `t` (else `t` itself) and a path over the variables bound before `k`
/// — the fusion rule — and its input rows are the oracle's rows for those
/// bindings, where the probe is evaluated.
fn asked_case(db: &Database, q: &Query, order: &[usize], input_rows: usize) -> Option<usize> {
    if input_rows == 0 {
        return Some(0);
    }
    let at = order
        .iter()
        .position(|&i| matches!(q.from[i].range, Range::Dom(_)))
        .unwrap();
    let bound: Vec<Var> = order[..at].iter().map(|&i| q.from[i].var).collect();
    let t = q.from[order[at + 1]].var;
    let sides = q.where_.iter().filter(|eq| eq.vars().contains(&t));
    let sides = sides.flat_map(|eq| [(&eq.lhs, &eq.rhs), (&eq.rhs, &eq.lhs)]);
    let sides: Vec<(bool, &PathExpr)> = sides
        .filter(|(_, probe)| probe.vars_all(&mut |v| bound.contains(&v)))
        .filter_map(|(side, probe)| match side {
            PathExpr::Var(v) if *v == t => Some((false, probe)),
            PathExpr::Field(base, _) if **base == PathExpr::Var(t) => Some((true, probe)),
            _ => None,
        })
        .collect();
    let (_, probe) = sides.iter().find(|(attr, _)| *attr).unwrap_or(&sides[0]);
    let mut prefix = q.clone();
    prefix.from.retain(|b| bound.contains(&b.var));
    prefix
        .where_
        .retain(|eq| eq.vars().iter().all(|v| bound.contains(v)));
    prefix.select = vec![(sym("P"), (*probe).clone())];
    let mut asked = execute_legacy(db, &prefix).unwrap().rows;
    asked.sort_by_key(|v| v.to_string());
    asked.dedup();
    match asked.len() {
        0 => None,
        1 => Some(1),
        _ => Some(2),
    }
}

#[test]
fn fused_pairs_agree_with_the_nested_loop_oracle() {
    let mut rng = SplitMix64::seed_from_u64(0xD1C7_701A);
    // (empty input, one value asked, several, unfused, with rows) — the
    // suite must not go vacuous.
    let mut seen = [0usize; 5];
    for case in 0..600 {
        // R no larger than M most of the time, so the greedy order scans R
        // first and the pair sees 0–12 input rows.
        let keys = rng.next_u64() % 13;
        let rows = rng.next_u64() % (keys + 3);
        let db = arb_db(&mut rng, rows, keys);
        let q = arb_query(&mut rng);

        let batched = execute(&db, &q).unwrap();
        let legacy = execute_legacy(&db, &q).unwrap();
        assert_eq!(batched.rows, legacy.rows, "case {case}: rows/order\n{q}");
        assert_eq!(batched.stats.order, legacy.stats.order, "case {case}\n{q}");

        let joins: Vec<_> = batched
            .stats
            .operators
            .iter()
            .filter(|o| o.op == "dict_join")
            .collect();
        assert!(joins.len() <= 1, "one dom step, at most one fused pair");
        let (got, want) = (
            batched.stats.tuples_considered,
            legacy.stats.tuples_considered,
        );
        match joins.first() {
            Some(op) => {
                assert!(got <= want, "case {case}: {got} > legacy {want}\n{q}");
                assert_eq!(op.collection, Some(sym("M")));
                assert_eq!(op.collection_rows, keys as usize, "keys, never pairs");
                let order = &batched.stats.order;
                if let Some(c) = asked_case(&db, &q, order, op.input_rows) {
                    seen[c] += 1;
                }
            }
            None => {
                assert_eq!(got, want, "case {case}: unfused accounting\n{q}");
                seen[3] += 1;
            }
        }
        seen[4] += usize::from(!batched.rows.is_empty());
    }
    assert!(
        seen.iter().all(|&n| n >= 60),
        "coverage (empty input, one value, several, unfused, nonempty) = {seen:?}"
    );
}

/// [`arb_db`] plus `T(A, C)`, whose `C` is a record `{D}`, a record without
/// `D`, an integer or missing — so `r.C.D` is undefined on some rows.
fn arb_nested_db(rng: &mut SplitMix64, rows: u64, keys: u64) -> Database {
    let mut db = arb_db(rng, rows, keys);
    let table = (0..rows)
        .map(|_| {
            let mut fields = vec![(sym("A"), int(rng, 4))];
            match rng.next_u64() % 6 {
                0 => {}
                1 => fields.push((sym("C"), int(rng, 4))),
                2 => fields.push((sym("C"), Value::record([(sym("E"), int(rng, 4))]))),
                _ => fields.push((sym("C"), Value::record([(sym("D"), int(rng, 4))]))),
            }
            Value::record(fields)
        })
        .collect();
    db.load_table(sym("T"), table);
    db
}

/// `from T r, dom M k, M[k](.N) t [, T s] where [t.K = probe] and …`, with
/// 1–3 more equalities comparing `t.K` or `t.V` with row sides — `r.C.D`,
/// `X[r.A]`, a constant — or with the pair's own key `k`. The pair fuses on
/// one equality against a row side, if any, and checks the rest as
/// residual filters; a query whose only equalities read `k` stays unfused.
/// Sometimes a second `T` joins on `A` with a filter `s.C.D = r.C.D`.
fn arb_row_sides_query(rng: &mut SplitMix64) -> Query {
    let mut q = Query::new();
    let r = q.bind("r", Range::Name(sym("T")));
    let k = q.bind("k", Range::Dom(sym("M")));
    let entry = PathExpr::from(k).lookup_in("M");
    let set = if one_in(rng, 3) {
        entry
    } else {
        entry.dot("N")
    };
    let t = q.bind("t", Range::Expr(set));
    let nested = || PathExpr::from(r).dot("C").dot("D");
    if !one_in(rng, 4) {
        let probe = match rng.next_u64() % 3 {
            0 => PathExpr::from(r).dot("A"),
            1 => PathExpr::from(r).dot("A").lookup_in("X"),
            _ => nested(),
        };
        q.equate(PathExpr::from(t).dot("K"), probe);
    }
    for _ in 0..1 + rng.next_u64() % 3 {
        let side = match rng.next_u64() % 4 {
            0 => nested(),
            1 => PathExpr::from(r).dot("A").lookup_in("X"),
            2 => PathExpr::from((rng.next_u64() % 4) as i64),
            _ => PathExpr::from(k),
        };
        let elem = PathExpr::from(t).dot(if one_in(rng, 2) { "V" } else { "K" });
        if one_in(rng, 2) {
            q.equate(elem, side);
        } else {
            q.equate(side, elem);
        }
    }
    if one_in(rng, 3) {
        let s = q.bind("s", Range::Name(sym("T")));
        q.equate(PathExpr::from(s).dot("A"), PathExpr::from(r).dot("A"));
        q.equate(PathExpr::from(s).dot("C").dot("D"), nested());
        q.output("sA", PathExpr::from(s).dot("A"));
    }
    q.output("k", PathExpr::from(k));
    q.output("t", PathExpr::from(t));
    q.output("A", PathExpr::from(r).dot("A"));
    q
}

/// The operator list is a filter cascade: each access operator reads what
/// the operator before it produced (the unit batch first), each `filter`
/// reads what the one before it passed, and `tuples_considered` sums what
/// the access operators produced.
fn assert_cascade(stats: &ExecStats, case: usize, q: &Query) {
    let mut current = 1;
    let mut considered = 0;
    for op in &stats.operators {
        assert_eq!(op.input_rows, current, "case {case}: {op:?}\n{q}");
        if op.op != "filter" {
            considered += op.output_rows;
        }
        assert!(op.op != "filter" || op.output_rows <= op.input_rows);
        current = op.output_rows;
    }
    assert_eq!(stats.tuples_considered, considered, "case {case}\n{q}");
    assert!(stats.rows_out <= current, "case {case}\n{q}");
}

#[test]
fn row_and_candidate_filter_sides_agree_with_the_nested_loop_oracle() {
    let mut rng = SplitMix64::seed_from_u64(0x0005_EED5_F11E);
    // (empty input, one value asked, several, a pair's filter passing
    // some, unfused, a hash join's filter passing some, with rows) — the
    // family must not go vacuous.
    let mut seen = [0usize; 7];
    for case in 0..600 {
        let keys = rng.next_u64() % 13;
        let rows = rng.next_u64() % (keys + 3);
        let db = arb_nested_db(&mut rng, rows, keys);
        let q = arb_row_sides_query(&mut rng);

        let batched = execute(&db, &q).unwrap();
        let legacy = execute_legacy(&db, &q).unwrap();
        assert_eq!(batched.rows, legacy.rows, "case {case}: rows/order\n{q}");
        assert_eq!(batched.stats.order, legacy.stats.order, "case {case}\n{q}");
        assert_cascade(&batched.stats, case, &q);

        let ops = &batched.stats.operators;
        let (got, want) = (
            batched.stats.tuples_considered,
            legacy.stats.tuples_considered,
        );
        let passed_after = |at: usize| {
            ops.get(at + 1)
                .is_some_and(|o| o.op == "filter" && o.output_rows > 0)
        };
        match ops.iter().position(|o| o.op == "dict_join") {
            Some(at) => {
                assert!(got <= want, "case {case}: {got} > legacy {want}\n{q}");
                let order = &batched.stats.order;
                if let Some(c) = asked_case(&db, &q, order, ops[at].input_rows) {
                    seen[c] += 1;
                }
                seen[3] += usize::from(passed_after(at));
            }
            None => {
                assert_eq!(got, want, "case {case}: unfused accounting\n{q}");
                seen[4] += 1;
            }
        }
        if let Some(at) = ops.iter().position(|o| o.op == "hash_join") {
            seen[5] += usize::from(passed_after(at));
        }
        seen[6] += usize::from(!batched.rows.is_empty());
    }
    assert!(
        seen.iter().all(|&n| n >= 40),
        "coverage (empty input, one value, several, pair filter, unfused, hash-join filter, nonempty) = {seen:?}"
    );
}
