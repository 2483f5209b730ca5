//! Differential suite for the generic-join (WCOJ) operator.
//!
//! Four contracts, each checked the hard way:
//!
//! 1. **Answer equivalence** — on EC5's uniform *and* power-law datasets,
//!    [`execute_wcoj`] computes exactly the answer multiset of the binary
//!    hash-join engine ([`execute`]) and of the pre-batch differential
//!    oracle ([`execute_legacy`]) — including which joined rows a select
//!    path undefined on some of them drops.
//! 2. **Determinism** — WCOJ output (rows *and* order) is a pure function
//!    of (db, plan): re-generated datasets and repeated executions agree
//!    byte-for-byte, and a pinned golden digest makes the comparison hold
//!    *across processes* — every run, in either profile, must land on the
//!    same constants, so a leak of anything process-specific into the
//!    operator flips the digest.
//! 3. **Certification** — every generic-join twin the backchase emits
//!    passes the static plan validator, and its attached fractional cover
//!    certificate re-verifies against the full-query hypergraph at exactly
//!    the claimed AGM exponent.
//! 4. **Same work on awkward keys** — on a seeded family whose key columns
//!    mix every value kind, whose bindings share an index or read one
//!    relation keyed in both attribute orders, whose pins are absent or of
//!    another kind, and whose hub has degree 120, the answer multiset is the
//!    binary pipeline's and the oracle's, and the order digest,
//!    `tuples_considered` and every operator's stats are goldens taken
//!    before the operator shared indexes, coded its key columns and
//!    galloped its seeks.
//!
//! The release run is the one that counts: it is the profile the benchmark
//! runs the generic join in.

use cnb_analyze::prelude::validate_plan;
use cnb_engine::datagen::EdgeDist;
use cnb_engine::prng::SplitMix64;
use cnb_engine::{cmp_value, execute, execute_legacy, execute_wcoj, Database, ExecError};
use cnb_ir::prelude::*;
use cnb_workloads::ec5::Ec5DataSpec;
use cnb_workloads::{suite, DataScale, Ec5, Workload};

/// Sorted rows, duplicates kept — the answer *multiset* under the engine's
/// total value order.
fn answer_bag(rows: &[Value]) -> Vec<Value> {
    let mut v = rows.to_vec();
    v.sort_by(cmp_value);
    v
}

/// FNV-1a over each row's display form, in output order — a hand-rolled,
/// process-independent digest (no hasher seeds anywhere). A float displays
/// with its decimal point, so a row holding `Float(1.0)` digests apart from
/// one holding `Int(1)`.
fn order_digest(rows: &[Value]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in rows {
        for b in r.to_string().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= u64::from(b'\n');
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The two EC5 dataset flavours the suite runs on: `generate_at` draws
/// edge endpoints uniformly; the power-law flavour concentrates degree on
/// hub nodes. The triangle uses the workload's own skewed generator (the
/// exact instance the measured-ranking test optimizes over); the
/// four-cycle gets a smaller hub graph — binary intermediates around a
/// hub of degree d grow like d^(n-1), and at the triangle's scale the
/// even cycle's debug-mode oracle runs take minutes and gigabytes.
fn ec5_datasets(label: &str, w: &Ec5) -> Vec<(&'static str, Database)> {
    let scale = DataScale::smoke();
    let skewed = if label == "triangle" {
        w.generate_skewed_at(scale)
            .expect("EC5 has a skewed generator")
    } else {
        w.generate(Ec5DataSpec {
            nodes: 12,
            edges: 60,
            dist: EdgeDist::Skewed(3.0),
            seed: scale.seed,
        })
    };
    vec![("uniform", w.generate_at(scale)), ("power-law", skewed)]
}

#[test]
fn wcoj_matches_both_binary_engines_on_uniform_and_power_law_data() {
    for (label, w) in [
        ("triangle", Ec5::triangle()),
        ("four-cycle", Ec5::four_cycle()),
    ] {
        let q = w.query();
        for (flavour, db) in ec5_datasets(label, &w) {
            let wcoj = execute_wcoj(&db, &q).unwrap();
            let batched = execute(&db, &q).unwrap();
            let legacy = execute_legacy(&db, &q).unwrap();
            let expect = answer_bag(&batched.rows);
            assert!(
                !expect.is_empty(),
                "{label} {flavour}: vacuous differential"
            );
            assert_eq!(
                answer_bag(&wcoj.rows),
                expect,
                "{label} {flavour}: wcoj diverges from the batched engine"
            );
            assert_eq!(
                answer_bag(&legacy.rows),
                expect,
                "{label} {flavour}: legacy oracle diverges"
            );
        }
    }
}

#[test]
fn wcoj_output_order_is_a_pure_function_of_db_and_plan() {
    for (label, w) in [
        ("triangle", Ec5::triangle()),
        ("four-cycle", Ec5::four_cycle()),
    ] {
        let q = w.query();
        for ((flavour, db), (_, db2)) in ec5_datasets(label, &w)
            .into_iter()
            .zip(ec5_datasets(label, &w))
        {
            let a = execute_wcoj(&db, &q).unwrap();
            let b = execute_wcoj(&db, &q).unwrap();
            let c = execute_wcoj(&db2, &q).unwrap();
            assert_eq!(a.rows, b.rows, "{label} {flavour}: repeated runs differ");
            assert_eq!(
                a.rows, c.rows,
                "{label} {flavour}: order not a pure function of (spec, query)"
            );
            assert_eq!(a.stats.order, (0..q.from.len()).collect::<Vec<_>>());
        }
    }
}

/// Golden order digests. These pin the *byte-level* output order across
/// processes: each run must land on the same constants (the operator is
/// single-threaded and reads no environment). A legitimate datagen or
/// operator change may move them — update consciously.
#[test]
fn wcoj_output_digest_is_identical_at_every_thread_count() {
    let golden: [(&str, &str, u64); 4] = [
        ("triangle", "uniform", 0xcb8b_0983_a71a_8de5),
        ("triangle", "power-law", 0xc8bf_0a0f_51be_9500),
        ("four-cycle", "uniform", 0x0fbd_7714_fcba_4961),
        ("four-cycle", "power-law", 0x8dc4_2dad_a511_3c6b),
    ];
    for (label, w) in [
        ("triangle", Ec5::triangle()),
        ("four-cycle", Ec5::four_cycle()),
    ] {
        let q = w.query();
        for (flavour, db) in ec5_datasets(label, &w) {
            let rows = execute_wcoj(&db, &q).unwrap().rows;
            let digest = order_digest(&rows);
            let (_, _, want) = golden
                .iter()
                .find(|(n, f, _)| *n == label && *f == flavour)
                .unwrap_or_else(|| panic!("no golden for {label} {flavour}"));
            assert_eq!(
                digest, *want,
                "{label} {flavour}: digest {digest:#018x} (update the golden if intended)"
            );
        }
    }
}

#[test]
fn every_emitted_wcoj_plan_validates_and_its_cover_reverifies() {
    let mut twins = 0usize;
    for w in suite() {
        let schema = w.schema();
        let scale = DataScale::smoke();
        let db = w.generate_at(scale);
        for p in &w.optimize().plans {
            if p.strategy != ExecStrategy::Wcoj {
                continue;
            }
            twins += 1;
            // Statically sound…
            validate_plan(&schema, &p.query)
                .unwrap_or_else(|e| panic!("{}: twin fails validation: {e}", w.name()));
            // …carrying a certificate that re-verifies on the full-query
            // hypergraph at exactly the claimed exponent…
            let a = p
                .wcoj
                .as_ref()
                .unwrap_or_else(|| panic!("{}: twin without analysis", w.name()));
            let hg = query_hypergraph(&schema, &p.query).unwrap();
            assert_eq!(hg.edges.len(), a.cover.len(), "{}: cover arity", w.name());
            for (e, c) in hg.edges.iter().zip(&a.cover) {
                assert_eq!(e.label, c.label, "{}: cover edge order drifted", w.name());
            }
            let weights: Vec<Rat> = a.cover.iter().map(|c| c.weight).collect();
            let cost = verify_cover(&hg, &weights)
                .unwrap_or_else(|e| panic!("{}: certificate rejected: {e}", w.name()));
            assert_eq!(
                cost,
                a.bound,
                "{}: certificate cost ≠ claimed bound",
                w.name()
            );
            assert!(
                a.best_binary.checked_cmp(&a.bound).unwrap().is_gt(),
                "{}: twin emitted without a binary gap",
                w.name()
            );
            // …and executable: the twin's answer multiset matches the binary
            // engine on real data.
            assert_eq!(
                answer_bag(&execute_wcoj(&db, &p.query).unwrap().rows),
                answer_bag(&execute(&db, &p.query).unwrap().rows),
                "{}: twin diverges on the smoke dataset",
                w.name()
            );
        }
    }
    assert!(
        twins > 0,
        "the suite must emit at least one generic-join twin"
    );
}

/// The skip-undefined rule through the generic join: a select path over an
/// attribute only some `E` rows carry drops exactly the joined rows the
/// binary pipeline and the oracle drop — the join itself never reads it.
#[test]
fn undefined_select_paths_skip_the_same_rows_in_all_three_executors() {
    let mut db = Database::new();
    for (s, t, w) in [
        (1, 2, Some(10)),
        (2, 3, None),
        (3, 1, Some(30)),
        (1, 3, None),
    ] {
        let mut fields = vec![(sym("S"), Value::Int(s)), (sym("T"), Value::Int(t))];
        fields.extend(w.map(|w| (sym("W"), Value::Int(w))));
        db.insert_row(sym("E"), Value::record(fields));
    }
    let mut q = Ec5::triangle().query();
    q.select.clear();
    for (label, b) in [("S", 0), ("W", 1)] {
        let v = q.from[b].var;
        q.output(label, PathExpr::from(v).dot(label));
    }
    let wcoj = execute_wcoj(&db, &q).unwrap();
    let expect = answer_bag(&execute(&db, &q).unwrap().rows);
    // Three rotations of the one triangle join; e2 = (2, 3) has no W.
    assert_eq!(expect.len(), 2);
    assert_eq!(wcoj.stats.rows_out, 2);
    assert!(wcoj.stats.tuples_considered > wcoj.stats.rows_out);
    assert_eq!(answer_bag(&wcoj.rows), expect);
    assert_eq!(answer_bag(&execute_legacy(&db, &q).unwrap().rows), expect);
}

/// A ground equality — one without variables, like `3 = 4` — holds or fails
/// for the whole query, never for a row: the triangle, one edge binding and
/// an empty from-clause each return all their rows under `3 = 3` and none
/// under `3 = 4`, in every executor that takes the query (the generic join
/// takes none without bindings).
#[test]
fn ground_equalities_decide_the_whole_query_in_all_three_executors() {
    let w = Ec5::triangle();
    let db = w.generate_at(DataScale::smoke());
    let mut edge = Query::new();
    let e = edge.bind("e", Range::Name(w.edges()));
    edge.output("S", PathExpr::from(e).dot("S"));
    let mut unit = Query::new();
    unit.output("X", PathExpr::from(7i64));
    for (label, q) in [("triangle", w.query()), ("edge", edge), ("unit", unit)] {
        let all = execute(&db, &q).unwrap().rows;
        assert!(!all.is_empty(), "{label}: vacuous differential");
        for (rhs, holds) in [(3i64, true), (4, false)] {
            let mut g = q.clone();
            g.equate(PathExpr::from(3i64), PathExpr::from(rhs));
            let want = if holds { all.clone() } else { Vec::new() };
            let tag = format!("{label} where 3 = {rhs}");
            assert_eq!(execute(&db, &g).unwrap().rows, want, "{tag}: execute");
            assert_eq!(execute_legacy(&db, &g).unwrap().rows, want, "{tag}: legacy");
            match execute_wcoj(&db, &g) {
                Ok(r) => assert_eq!(answer_bag(&r.rows), answer_bag(&want), "{tag}: wcoj"),
                Err(ExecError::GenericJoinUnsupported(_)) if g.from.is_empty() => {}
                Err(err) => panic!("{tag}: wcoj failed: {err}"),
            }
        }
    }
}

/// The mixed-kind node pool of [`mixed_kind_graph`]: values of every kind a
/// key column can hold, including the pairs the generic join's coded key
/// columns must keep apart or order by `cmp_value` — `-0.0` and `+0.0`, two
/// NaN payloads, `Int(1)` and `Float(1.0)`, strings that share an 8-byte
/// prefix, oids whose class names share a prefix, structs and sets.
fn mixed_pool() -> Vec<Value> {
    let mut pool: Vec<Value> = (-4..60).map(Value::Int).collect();
    pool.extend([i64::MIN, i64::MAX].map(Value::Int));
    pool.extend(
        [
            -0.0,
            0.0,
            1.0,
            2.5,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
        ]
        .map(Value::Float),
    );
    pool.extend([Value::Bool(false), Value::Bool(true), Value::Null]);
    for s in [
        "",
        "a",
        "prefix__",
        "prefix__0",
        "prefix__1",
        "prefix__10",
        "shared-prefix-longer-0",
        "shared-prefix-longer-1",
    ] {
        pool.push(Value::str(s));
    }
    for (class, id) in [("Cls", 1), ("Class", 1), ("Class", 2), ("Classroom", 1)] {
        pool.push(Value::Oid(sym(class), id));
    }
    let rec = |v: Value| Value::record([(sym("A"), v)]);
    pool.extend([rec(Value::Int(1)), rec(Value::Int(2)), rec(Value::str("x"))]);
    pool.extend([
        Value::set([Value::Int(1)]),
        Value::set([Value::Int(1), Value::Int(2)]),
    ]);
    pool
}

/// The hub of [`mixed_kind_graph`]: a string, so every seek into its run
/// ties on the code and is settled by `cmp_value`.
fn hub() -> Value {
    Value::str("prefix__hub")
}

/// A seeded edge relation `R(S, T, K, W)` over [`mixed_pool`] plus [`hub`],
/// which has 120 out-edges and 30 in-edges. `W` numbers the rows; `K`
/// repeats `S` on about half of them and is missing on a tenth. `Q(A, B)`
/// is a second, smaller edge relation over the same pool.
fn mixed_kind_graph(seed: u64) -> Database {
    let pool = mixed_pool();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let pick = |rng: &mut SplitMix64| pool[rng.gen_range(0..pool.len())].clone();
    let mut edges: Vec<(Value, Value)> = Vec::new();
    for _ in 0..240 {
        edges.push((pick(&mut rng), pick(&mut rng)));
    }
    for _ in 0..120 {
        edges.push((hub(), pick(&mut rng)));
    }
    for _ in 0..30 {
        edges.push((pick(&mut rng), hub()));
    }
    let mut db = Database::new();
    for (w, (s, t)) in edges.into_iter().enumerate() {
        let mut fields = vec![(sym("S"), s.clone()), (sym("T"), t)];
        match rng.gen_range(0..10u32) {
            0 => {}
            1..=5 => fields.push((sym("K"), s)),
            _ => fields.push((sym("K"), pick(&mut rng))),
        }
        fields.push((sym("W"), Value::Int(w as i64)));
        db.insert_row(sym("R"), Value::record(fields));
    }
    for _ in 0..80 {
        let fields = [(sym("A"), pick(&mut rng)), (sym("B"), pick(&mut rng))];
        db.insert_row(sym("Q"), Value::record(fields));
    }
    db
}

/// The family's queries over [`mixed_kind_graph`], each naming what it
/// exercises. Every binding outputs its row's `W` (or the whole row), so
/// the order digest pins which row combination comes out where.
fn mixed_kind_queries() -> Vec<(&'static str, Query)> {
    let triangle = || {
        let mut q = Query::new();
        let e: Vec<Var> = ["e1", "e2", "e3"]
            .iter()
            .map(|n| q.bind(n, Range::Name(sym("R"))))
            .collect();
        for i in 0..3 {
            let next = e[(i + 1) % 3];
            q.equate(PathExpr::from(e[i]).dot("T"), PathExpr::from(next).dot("S"));
        }
        for (i, v) in e.iter().enumerate() {
            q.output(&format!("S{i}"), PathExpr::from(*v).dot("S"));
            q.output(&format!("W{i}"), PathExpr::from(*v).dot("W"));
        }
        q
    };
    let pinned = |pin: Value| {
        let mut q = triangle();
        q.equate(PathExpr::from(q.from[0].var).dot("S"), PathExpr::Const(pin));
        q
    };
    // e1 and e2 share (R, (S, T)); e3 is keyed (T, S).
    let mut out = vec![("triangle", triangle())];
    // The same relation keyed in both attribute orders.
    let mut q = Query::new();
    let (r1, r2) = (
        q.bind("r1", Range::Name(sym("R"))),
        q.bind("r2", Range::Name(sym("R"))),
    );
    q.equate(PathExpr::from(r1).dot("S"), PathExpr::from(r2).dot("T"));
    q.equate(PathExpr::from(r1).dot("T"), PathExpr::from(r2).dot("S"));
    q.output("W1", PathExpr::from(r1).dot("W"));
    q.output("W2", PathExpr::from(r2).dot("W"));
    out.push(("two-cycle", q));
    // Two hops out of the hub: the second hop leads with the hub's 120
    // targets and gallops through every other source's run.
    let mut q = Query::new();
    let h: Vec<Var> = ["h1", "h2", "h3"]
        .iter()
        .map(|n| q.bind(n, Range::Name(sym("R"))))
        .collect();
    q.equate(PathExpr::from(h[0]).dot("S"), PathExpr::Const(hub()));
    q.equate(PathExpr::from(h[0]).dot("T"), PathExpr::from(h[1]).dot("S"));
    q.equate(PathExpr::from(h[1]).dot("T"), PathExpr::from(h[2]).dot("S"));
    for (i, v) in h.iter().enumerate() {
        q.output(&format!("W{i}"), PathExpr::from(*v).dot("W"));
    }
    out.push(("hub-paths", q));
    out.push(("pin-hub", pinned(hub())));
    out.push(("pin-int", pinned(Value::Int(7))));
    out.push(("pin-nan", pinned(Value::Float(f64::NAN))));
    // Pins absent from the relation, or of another kind than the value
    // they resemble (`Int(7)` is in the pool, `Float(7.0)` and `'7'` not).
    out.push(("pin-absent", pinned(Value::Int(1_000_003))));
    out.push(("pin-float-for-int", pinned(Value::Float(7.0))));
    out.push(("pin-str-for-int", pinned(Value::str("7"))));
    out.push(("pin-negative-zero", pinned(Value::Float(-0.0))));
    // An intra-binding class (`l.S = l.K`, rows without `K` dropped), and a
    // second relation keyed on both its attributes against R's.
    let mut q = Query::new();
    let l = q.bind("l", Range::Name(sym("R")));
    let e = q.bind("e", Range::Name(sym("R")));
    let x = q.bind("x", Range::Name(sym("Q")));
    q.equate(PathExpr::from(l).dot("S"), PathExpr::from(l).dot("K"));
    q.equate(PathExpr::from(l).dot("T"), PathExpr::from(e).dot("S"));
    q.equate(PathExpr::from(e).dot("T"), PathExpr::from(x).dot("A"));
    q.equate(PathExpr::from(x).dot("B"), PathExpr::from(l).dot("S"));
    q.output("L", PathExpr::from(l).dot("W"));
    q.output("E", PathExpr::from(e).dot("W"));
    q.output("X", PathExpr::from(x));
    out.push(("self-key-and-second-relation", q));
    out
}

/// `op collection collection_rows pairs input>output`, one per operator.
fn op_stats_text(stats: &cnb_engine::ExecStats) -> Vec<String> {
    stats
        .operators
        .iter()
        .map(|o| {
            let c = o.collection.map_or("-", |c| c.as_str());
            let (rows, pairs) = (o.collection_rows, o.pairs);
            format!(
                "{} {c} {rows} {pairs} {}>{}",
                o.op, o.input_rows, o.output_rows
            )
        })
        .collect()
}

/// Mixed-kind key columns, shared and reversed indexes, absent and
/// other-kind pins and a hub of degree 120: the generic join's answer multiset
/// is the binary pipeline's and the oracle's on every query, and its order
/// digest, `tuples_considered` and operator stats are the goldens (taken
/// before the index build shared indexes and coded its key columns).
#[test]
fn mixed_kind_family_matches_both_engines_and_its_goldens() {
    let db = mixed_kind_graph(0x3ced_0037);
    // (query, order digest, rows, tuples_considered, operator stats), as
    // the generic join read them before it shared indexes and coded keys.
    let golden: [(&str, u64, usize, usize, &[&str]); 11] = [
        (
            "triangle",
            0xe9b1_f4df_094c_9ffb,
            319,
            2653,
            &[
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_intersect - 0 0 88>85",
                "wcoj_intersect - 0 0 315>305",
                "wcoj_intersect - 0 0 764>163",
            ],
        ),
        (
            "two-cycle",
            0x8b6a_a4b3_5712_92a0,
            75,
            685,
            &[
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_intersect - 0 0 88>85",
                "wcoj_intersect - 0 0 217>49",
            ],
        ),
        (
            "hub-paths",
            0xb380_b5a4_50e4_7ba7,
            4696,
            5191,
            &[
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_intersect - 0 0 1>1",
                "wcoj_intersect - 0 0 65>61",
                "wcoj_intersect - 0 0 182>177",
            ],
        ),
        (
            "pin-hub",
            0x02f4_4e38_dd3e_2491,
            101,
            597,
            &[
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_intersect - 0 0 1>1",
                "wcoj_intersect - 0 0 65>61",
                "wcoj_intersect - 0 0 182>50",
            ],
        ),
        (
            "pin-int",
            0xa7a2_4fc2_25c9_dfef,
            1,
            25,
            &[
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_intersect - 0 0 1>1",
                "wcoj_intersect - 0 0 3>3",
                "wcoj_intersect - 0 0 8>1",
            ],
        ),
        (
            "pin-nan",
            0xcbf2_9ce4_8422_2325,
            0,
            2,
            &[
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_intersect - 0 0 1>0",
                "wcoj_intersect - 0 0 0>0",
                "wcoj_intersect - 0 0 0>0",
            ],
        ),
        (
            "pin-absent",
            0xcbf2_9ce4_8422_2325,
            0,
            1,
            &[
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_intersect - 0 0 1>0",
                "wcoj_intersect - 0 0 0>0",
                "wcoj_intersect - 0 0 0>0",
            ],
        ),
        (
            "pin-float-for-int",
            0xcbf2_9ce4_8422_2325,
            0,
            1,
            &[
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_intersect - 0 0 1>0",
                "wcoj_intersect - 0 0 0>0",
                "wcoj_intersect - 0 0 0>0",
            ],
        ),
        (
            "pin-str-for-int",
            0xcbf2_9ce4_8422_2325,
            0,
            1,
            &[
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_intersect - 0 0 1>0",
                "wcoj_intersect - 0 0 0>0",
                "wcoj_intersect - 0 0 0>0",
            ],
        ),
        (
            "pin-negative-zero",
            0xcbf2_9ce4_8422_2325,
            0,
            8,
            &[
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_index R 390 0 390>390",
                "wcoj_intersect - 0 0 1>1",
                "wcoj_intersect - 0 0 1>1",
                "wcoj_intersect - 0 0 2>0",
            ],
        ),
        (
            "self-key-and-second-relation",
            0xee48_a364_10ec_f79d,
            27,
            579,
            &[
                "wcoj_index R 390 0 390>190",
                "wcoj_index R 390 0 390>390",
                "wcoj_index Q 80 0 80>80",
                "wcoj_intersect - 0 0 58>50",
                "wcoj_intersect - 0 0 95>90",
                "wcoj_intersect - 0 0 123>18",
            ],
        ),
    ];
    let queries = mixed_kind_queries();
    assert_eq!(queries.len(), golden.len());
    for ((name, q), (want_name, digest, rows, tuples, ops)) in queries.into_iter().zip(golden) {
        assert_eq!(name, want_name);
        let wcoj = execute_wcoj(&db, &q).unwrap();
        let expect = answer_bag(&execute(&db, &q).unwrap().rows);
        assert_eq!(
            answer_bag(&wcoj.rows),
            expect,
            "{name}: wcoj diverges from execute"
        );
        assert_eq!(
            answer_bag(&execute_legacy(&db, &q).unwrap().rows),
            expect,
            "{name}: the oracle diverges"
        );
        let got = order_digest(&wcoj.rows);
        assert_eq!(got, digest, "{name}: order digest {got:#018x}");
        assert_eq!(wcoj.stats.rows_out, rows, "{name}: rows");
        assert_eq!(
            wcoj.stats.tuples_considered, tuples,
            "{name}: tuples_considered"
        );
        assert_eq!(op_stats_text(&wcoj.stats), ops, "{name}: operator stats");
    }
}
