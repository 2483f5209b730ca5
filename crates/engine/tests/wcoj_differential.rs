//! Differential suite for the generic-join (WCOJ) operator.
//!
//! Three contracts, each checked the hard way:
//!
//! 1. **Answer equivalence** — on EC5's uniform *and* power-law datasets,
//!    [`execute_wcoj`] computes exactly the answer set of the binary
//!    hash-join engine ([`execute`]) and of the pre-batch differential
//!    oracle ([`execute_legacy`]) — including which joined rows a select
//!    path undefined on some of them drops.
//! 2. **Determinism** — WCOJ output (rows *and* order) is a pure function
//!    of (db, plan): re-generated datasets and repeated executions agree
//!    byte-for-byte, and a pinned golden digest makes the comparison hold
//!    *across processes* — every run of `scripts/check.sh` and of the
//!    tier-1 suite must land on the same constants, so a leak of anything
//!    process-specific into the operator flips the digest.
//! 3. **Certification** — every generic-join twin the backchase emits
//!    passes the static plan validator, and its attached fractional cover
//!    certificate re-verifies against the full-query hypergraph at exactly
//!    the claimed AGM exponent.

use cnb_analyze::prelude::validate_plan;
use cnb_engine::datagen::EdgeDist;
use cnb_engine::{cmp_value, execute, execute_legacy, execute_wcoj, Database, ExecError};
use cnb_ir::prelude::*;
use cnb_workloads::ec5::Ec5DataSpec;
use cnb_workloads::{suite, DataScale, Ec5, Workload};

/// Sorted, deduped rows — the canonical answer *set* under the engine's
/// total value order.
fn answer_set(rows: &[Value]) -> Vec<Value> {
    let mut v = rows.to_vec();
    v.sort_by(cmp_value);
    v.dedup();
    v
}

/// FNV-1a over each row's display form, in output order — a hand-rolled,
/// process-independent digest (no hasher seeds anywhere).
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
            let expect = answer_set(&batched.rows);
            assert!(
                !expect.is_empty(),
                "{label} {flavour}: vacuous differential"
            );
            assert_eq!(
                answer_set(&wcoj.rows),
                expect,
                "{label} {flavour}: wcoj diverges from the batched engine"
            );
            assert_eq!(
                answer_set(&legacy.rows),
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
                a.best_binary.gt(&a.bound),
                "{}: twin emitted without a binary gap",
                w.name()
            );
            // …and executable: the twin's answer set matches the binary
            // engine on real data.
            assert_eq!(
                answer_set(&execute_wcoj(&db, &p.query).unwrap().rows),
                answer_set(&execute(&db, &p.query).unwrap().rows),
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
    let expect = answer_set(&execute(&db, &q).unwrap().rows);
    // Three rotations of the one triangle join; e2 = (2, 3) has no W.
    assert_eq!(expect.len(), 2);
    assert_eq!(wcoj.stats.rows_out, 2);
    assert!(wcoj.stats.tuples_considered > wcoj.stats.rows_out);
    assert_eq!(answer_set(&wcoj.rows), expect);
    assert_eq!(answer_set(&execute_legacy(&db, &q).unwrap().rows), expect);
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
                Ok(r) => assert_eq!(answer_set(&r.rows), answer_set(&want), "{tag}: wcoj"),
                Err(ExecError::GenericJoinUnsupported(_)) if g.from.is_empty() => {}
                Err(err) => panic!("{tag}: wcoj failed: {err}"),
            }
        }
    }
}
