//! Property-based tests on the core data structures and the optimizer's
//! soundness invariant: *every plan, executed, agrees with the original
//! query*. They run on the seeded case loop of `arbitrary/mod.rs`; a
//! failure reports the case index and seed that replay it.

// The std HashSet here is a deliberately *independent* model oracle for
// VarSet — only membership is compared, never iteration order — so the
// workspace-wide denial (clippy.toml) is waived for this test file.
#![allow(clippy::disallowed_types)]

use std::cell::Cell;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use chase_too_far::core::bitset::{Border, VarSet};
use chase_too_far::core::canon::substitute;
use chase_too_far::core::congruence::{Congruence, Savepoint, TermId, TermNode};
use chase_too_far::core::prelude::{
    chase, chase_and_backchase, chase_query, same_plan, BackchaseConfig, BackchaseResult,
    ChaseConfig, FxHasher, Optimizer, OptimizerConfig, Strategy as OptStrategy,
};
use chase_too_far::engine::prng::SplitMix64;
use chase_too_far::engine::{execute, Database};
use chase_too_far::ir::prelude::*;

mod arbitrary;
mod roundtrip;

use arbitrary::{arb_constraints, arb_query, cases, chain_schema};

// ---------------------------------------------------------------- VarSet --

/// VarSet behaves like a HashSet<u32> under arbitrary operation traces.
#[test]
fn varset_matches_model() {
    cases("varset_matches_model", 64, |rng| {
        let n_ops = rng.gen_range(0usize..100);
        let mut vs = VarSet::new();
        let mut model: HashSet<u32> = HashSet::new();
        for _ in 0..n_ops {
            let v = rng.gen_range(0u32..200);
            if rng.gen_bool(0.5) {
                assert_eq!(vs.insert(Var(v)), model.insert(v));
            } else {
                assert_eq!(vs.remove(Var(v)), model.remove(&v));
            }
            assert_eq!(vs.len(), model.len());
            assert_eq!(vs.contains(Var(v)), model.contains(&v));
        }
        // One set, one representation: however the trace got here, the set
        // equals — and hashes like — the one built from its elements. (A
        // trailing zero word left behind by a `remove` would split one
        // lattice or memo key into two.)
        let rebuilt = VarSet::from_iter(model.iter().map(|&v| Var(v)));
        assert_eq!(vs, rebuilt);
        let fx = |s: &VarSet| {
            let mut h = FxHasher::default();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(fx(&vs), fx(&rebuilt));
        let mut elems: Vec<u32> = model.into_iter().collect();
        elems.sort_unstable();
        let got: Vec<u32> = vs.iter().map(|v| v.0).collect();
        assert_eq!(got, elems);
    });
}

/// Union and subset agree with the model.
#[test]
fn varset_union_subset() {
    let arb_set = |rng: &mut SplitMix64| -> HashSet<u32> {
        let len = rng.gen_range(0usize..40);
        (0..len).map(|_| rng.gen_range(0u32..128)).collect()
    };
    cases("varset_union_subset", 64, |rng| {
        let a = arb_set(rng);
        let b = arb_set(rng);
        let va = VarSet::from_iter(a.iter().map(|&v| Var(v)));
        let vb = VarSet::from_iter(b.iter().map(|&v| Var(v)));
        let mut vu = va.clone();
        vu.union_with(&vb);
        let mu: HashSet<u32> = a.union(&b).copied().collect();
        assert_eq!(vu.len(), mu.len());
        assert!(va.is_subset(&vu));
        assert!(vb.is_subset(&vu));
        assert_eq!(va.is_subset(&vb), a.is_subset(&b));
        assert_eq!(va.intersects(&vb), !a.is_disjoint(&b));
    });
}

/// A [`Border`] against a brute-force model. The predicate is a random
/// monotone one over subsets of eight variables (true of the supersets of a
/// few random generators); the model keeps every `(set, answer)` it was
/// taught. After any trace of `learn`s the border covers exactly the sets the
/// model's list implies — a superset of a taught yes, a subset of a taught
/// no — never contradicts the predicate, and holds no two comparable sets on
/// either side.
#[test]
fn border_matches_brute_force_model() {
    let arb_set = |rng: &mut SplitMix64| -> VarSet {
        let bits = rng.gen_range(0u32..256);
        VarSet::from_iter((0..8).filter(|i| bits & (1 << i) != 0).map(Var))
    };
    cases("border_matches_brute_force_model", 64, |rng| {
        let generators: Vec<VarSet> = (0..rng.gen_range(0usize..4))
            .map(|_| arb_set(rng))
            .collect();
        let holds = |s: &VarSet| generators.iter().any(|g| g.is_subset(s));
        let mut border = Border::default();
        let mut taught: Vec<(VarSet, bool)> = Vec::new();
        for _ in 0..rng.gen_range(0usize..60) {
            let s = arb_set(rng);
            if rng.gen_bool(0.6) {
                border.learn(&s, holds(&s));
                taught.push((s.clone(), holds(&s)));
            }
            let yes = taught.iter().any(|(t, h)| *h && t.is_subset(&s));
            let no = taught.iter().any(|(t, h)| !*h && s.is_subset(t));
            assert_eq!(border.covers_yes(&s), yes, "covers_yes({s:?})");
            assert_eq!(border.covers_no(&s), no, "covers_no({s:?})");
            assert!(!yes || holds(&s), "a yes the predicate refutes");
            assert!(!no || !holds(&s), "a no the predicate refutes");
            for side in border.antichains() {
                for (i, a) in side.iter().enumerate() {
                    for b in &side[i + 1..] {
                        assert!(
                            !a.is_subset(b) && !b.is_subset(a),
                            "{a:?} and {b:?} are comparable"
                        );
                    }
                }
            }
        }
    });
}

// ----------------------------------------------------------- Congruence --

/// After arbitrary merges, `equal` is exactly the reflexive-symmetric-
/// transitive closure of the merge edges (computed by a model union-find
/// without congruence over plain variables).
#[test]
fn congruence_matches_union_find_on_vars() {
    cases("congruence_matches_union_find_on_vars", 48, |rng| {
        let n_edges = rng.gen_range(0usize..40);
        let mut cong = Congruence::new();
        let terms: Vec<_> = (0..24).map(|i| cong.term(TermNode::Var(Var(i)))).collect();
        let mut model: Vec<u32> = (0..24).collect();
        fn find(m: &mut [u32], i: u32) -> u32 {
            let mut r = i;
            while m[r as usize] != r {
                r = m[r as usize];
            }
            r
        }
        for _ in 0..n_edges {
            let a = rng.gen_range(0u32..24);
            let b = rng.gen_range(0u32..24);
            cong.merge(terms[a as usize], terms[b as usize]);
            let (ra, rb) = (find(&mut model, a), find(&mut model, b));
            model[ra as usize] = rb;
        }
        for i in 0..24u32 {
            for j in 0..24u32 {
                let expected = find(&mut model, i) == find(&mut model, j);
                assert_eq!(
                    cong.equal(terms[i as usize], terms[j as usize]),
                    expected,
                    "vars {i} {j}"
                );
            }
        }
    });
}

/// Upward congruence: whenever x ≡ y, also x.A ≡ y.A, regardless of whether
/// the field terms were created before or after the merges.
#[test]
fn congruence_upward_closure() {
    cases("congruence_upward_closure", 48, |rng| {
        let n_edges = rng.gen_range(0usize..20);
        let edges: Vec<(u32, u32)> = (0..n_edges)
            .map(|_| (rng.gen_range(0u32..12), rng.gen_range(0u32..12)))
            .collect();
        let before = rng.gen_bool(0.5);
        let mut cong = Congruence::new();
        let vars: Vec<_> = (0..12).map(|i| cong.term(TermNode::Var(Var(i)))).collect();
        let mut fields = Vec::new();
        if before {
            fields = vars
                .iter()
                .map(|&v| cong.term(TermNode::Field(v, sym("A"))))
                .collect();
        }
        for &(a, b) in &edges {
            cong.merge(vars[a as usize], vars[b as usize]);
        }
        if !before {
            fields = vars
                .iter()
                .map(|&v| cong.term(TermNode::Field(v, sym("A"))))
                .collect();
        }
        for i in 0..12usize {
            for j in 0..12usize {
                if cong.equal(vars[i], vars[j]) {
                    assert!(cong.equal(fields[i], fields[j]));
                }
            }
        }
    });
}

// ------------------------------------------ Congruence savepoints (diff) --

/// One replayable congruence operation; the surviving (never rolled back)
/// prefix of a trace rebuilds the reference closure from scratch.
#[derive(Clone, Debug)]
enum CongOp {
    /// Intern a path (scratch mode when the flag is set — exercising probe
    /// promotion under savepoints too).
    Intern(PathExpr, bool),
    /// Merge the terms produced by the i-th and j-th intern ops.
    Merge(usize, usize),
}

/// A random path over a small vocabulary: variables, constants, fields,
/// dictionary lookups and struct constructors (the latter drive the
/// struct-injectivity cascades whose rollback we want to stress).
fn arb_cong_path(rng: &mut SplitMix64, depth: usize) -> PathExpr {
    let leaf = depth == 0 || rng.gen_bool(0.4);
    if leaf {
        if rng.gen_bool(0.2) {
            return PathExpr::from(rng.gen_range(0i64..3));
        }
        return PathExpr::from(Var(rng.gen_range(0u32..6)));
    }
    match rng.gen_range(0u32..4) {
        0 => arb_cong_path(rng, depth - 1).dot(["A", "B"][rng.gen_range(0usize..2)]),
        1 => PathExpr::Lookup(sym("M"), Box::new(arb_cong_path(rng, depth - 1))),
        _ => {
            let mut fields = vec![(sym("A"), arb_cong_path(rng, depth - 1))];
            if rng.gen_bool(0.5) {
                fields.push((sym("B"), arb_cong_path(rng, depth - 1)));
            }
            PathExpr::MkStruct(fields)
        }
    }
}

fn apply_cong_op(c: &mut Congruence, terms: &mut Vec<TermId>, op: &CongOp) {
    match op {
        CongOp::Intern(p, scratch) => {
            c.set_scratch_mode(*scratch);
            let t = c.intern_path(p);
            c.set_scratch_mode(false);
            terms.push(t);
        }
        CongOp::Merge(i, j) => c.merge(terms[*i], terms[*j]),
    }
}

/// After random interleavings of intern / merge / save / rollback — nested
/// savepoints included — the live closure answers `find`/`equal`/
/// `class_members`/`is_scratch` exactly like a from-scratch rebuild of the
/// surviving operations: rollback must leave no residue and lose nothing.
#[test]
fn congruence_savepoints_match_rebuild() {
    cases("congruence_savepoints_match_rebuild", 48, |rng| {
        let mut live = Congruence::new();
        // Savepoints still open stay open: the comparison runs under them.
        let CongTrace {
            terms: live_terms,
            ops,
            open: _open,
        } = run_cong_trace(rng, &mut live, true);
        // Reference: replay the surviving trace on a fresh closure.
        let mut fresh = Congruence::new();
        let mut fresh_terms = Vec::new();
        for op in &ops {
            apply_cong_op(&mut fresh, &mut fresh_terms, op);
        }
        assert_eq!(live.len(), fresh.len(), "arena sizes diverged");
        assert_eq!(live_terms, fresh_terms, "term ids diverged");
        for (i, &t) in live_terms.iter().enumerate() {
            assert_eq!(
                live.is_scratch(t),
                fresh.is_scratch(t),
                "scratch flag diverged at term {i}"
            );
            let mut lm = live.class_members(t);
            let mut fm = fresh.class_members(t);
            lm.sort_unstable();
            fm.sort_unstable();
            assert_eq!(lm, fm, "class members diverged at term {i}");
            for (j, &u) in live_terms.iter().enumerate() {
                assert_eq!(
                    live.equal(t, u),
                    fresh.equal(t, u),
                    "equal({i}, {j}) diverged"
                );
            }
        }
    });
}

/// What [`run_cong_trace`] left behind.
struct CongTrace {
    /// Handles of the surviving interns.
    terms: Vec<TermId>,
    /// The surviving (never rolled back) operations: replayed on a fresh
    /// closure they rebuild the reference.
    ops: Vec<CongOp>,
    /// The savepoints still open, outermost first, each with the `ops` and
    /// `terms` lengths at its save.
    open: Vec<(Savepoint, usize, usize)>,
}

/// Applies a random trace of interns and merges to `c` — and, when
/// `savepoints` is set, of savepoints and rollbacks too (rolling back to
/// `open[k]` discards deeper entries, exercising the
/// outer-rollback-consumes-inner rule).
fn run_cong_trace(rng: &mut SplitMix64, c: &mut Congruence, savepoints: bool) -> CongTrace {
    let (mut terms, mut ops, mut open) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rng.gen_range(10usize..60) {
        let op = match rng.gen_range(0u32..10) {
            0..=4 => CongOp::Intern(arb_cong_path(rng, 3), rng.gen_bool(0.25)),
            5 | 6 if terms.len() >= 2 => CongOp::Merge(
                rng.gen_range(0usize..terms.len()),
                rng.gen_range(0usize..terms.len()),
            ),
            7 | 8 if savepoints => {
                open.push((c.save(), ops.len(), terms.len()));
                continue;
            }
            9 if savepoints && !open.is_empty() => {
                open.truncate(rng.gen_range(0usize..open.len()) + 1);
                let (sp, ops_len, terms_len) = open.pop().expect("nonempty");
                c.rollback(sp);
                ops.truncate(ops_len);
                terms.truncate(terms_len);
                continue;
            }
            _ => continue,
        };
        apply_cong_op(c, &mut terms, &op);
        ops.push(op);
    }
    CongTrace { terms, ops, open }
}

/// Everything a closure shows of itself, term by term: the node, the scratch
/// flag, the class members **in list order** and the members over two
/// variable sets, as `class_paths_over`'s `(size, id)` tie-break lists them —
/// what induced query text is made of.
fn cong_observation(c: &mut Congruence) -> Vec<String> {
    let allowed = [
        VarSet::from_iter((0..6).map(Var)),
        VarSet::from_iter([Var(0), Var(2), Var(4)]),
    ];
    let reps = c.class_reps();
    let mut out = vec![format!("len={} reps={reps:?}", c.len())];
    for rep in reps {
        for t in c.class_members(rep) {
            let node = format!("{:?}", c.node(t));
            out.push(format!(
                "{t:?} {node} scratch={} members={:?} over={:?}/{:?}",
                c.is_scratch(t),
                c.class_members(t),
                c.class_paths_over(t, &allowed[0]),
                c.class_paths_over(t, &allowed[1]),
            ));
        }
    }
    out
}

/// Probes intern through the map: `intern_path_mapped(p, m)` is
/// `intern_path(&substitute(p, m))` — same term, same arena, same scratch
/// flags, same classes — on random closures, random paths (structs included)
/// and random partial assignments, in scratch mode and out of it.
#[test]
fn intern_path_mapped_matches_substitute_then_intern() {
    cases(
        "intern_path_mapped_matches_substitute_then_intern",
        64,
        |rng| {
            let mut mapped = Congruence::new();
            run_cong_trace(rng, &mut mapped, false);
            let mut twin = mapped.clone();
            for _ in 0..rng.gen_range(1usize..12) {
                let p = arb_cong_path(rng, 3);
                // Partial, and sometimes shorter than the variable range.
                let map: Vec<Option<Var>> = (0..rng.gen_range(0usize..8))
                    .map(|_| rng.gen_bool(0.6).then(|| Var(rng.gen_range(0u32..9))))
                    .collect();
                let scratch = rng.gen_bool(0.5);
                mapped.set_scratch_mode(scratch);
                twin.set_scratch_mode(scratch);
                let a = mapped.intern_path_mapped(&p, &map);
                let b = twin.intern_path(&substitute(&p, &map));
                mapped.set_scratch_mode(false);
                twin.set_scratch_mode(false);
                assert_eq!(a, b, "term ids diverged on {p} under {map:?}");
                assert_eq!(mapped.len(), twin.len(), "arena sizes diverged");
            }
            assert_eq!(cong_observation(&mut mapped), cong_observation(&mut twin));
        },
    );
}

/// A recycled closure is a fresh one: after an arbitrary trace (savepoints
/// and rollbacks included) and a `clear()`, replaying a second trace gives
/// the term ids, scratch flags, class-member **order** and `class_paths_over`
/// listings of a new closure replaying it — the lists that survive `clear()`
/// and rollback as buffers carry nothing over but their capacity.
#[test]
fn cleared_congruence_replays_like_a_fresh_one() {
    cases("cleared_congruence_replays_like_a_fresh_one", 64, |rng| {
        let mut recycled = Congruence::new();
        let first = run_cong_trace(rng, &mut recycled, true);
        // `clear` wants no savepoint open; unwinding to the outermost leaves
        // lists that are empty again but have been long.
        if let Some((outermost, ..)) = first.open.into_iter().next() {
            recycled.rollback(outermost);
        }
        recycled.clear();
        assert!(recycled.is_empty());
        // The same second trace on both, savepoints left open at its end.
        let seed = rng.next_u64();
        let mut fresh = Congruence::new();
        let [on_recycled, on_fresh] = [&mut recycled, &mut fresh]
            .map(|c| run_cong_trace(&mut SplitMix64::seed_from_u64(seed), c, true));
        let (recycled_terms, fresh_terms) = (on_recycled.terms, on_fresh.terms);
        assert_eq!(recycled_terms, fresh_terms, "term ids diverged");
        assert_eq!(
            cong_observation(&mut recycled),
            cong_observation(&mut fresh)
        );
    });
}

// ------------------------------------------------- Random chain queries --

/// A random chain-query scenario: `n` relations, `j ≤ n` secondary indexes,
/// and a data seed.
fn chain_scenario(rng: &mut SplitMix64) -> (usize, usize, u64) {
    let n = rng.gen_range(1usize..4);
    let j = rng.gen_range(0usize..4).min(n);
    (n, j, rng.next_u64())
}

/// Soundness, end to end: every plan the optimizer emits computes the same
/// answer as the original query on random data.
#[test]
fn all_plans_agree_on_random_data() {
    cases("all_plans_agree_on_random_data", 12, |rng| {
        let (n, j, seed) = chain_scenario(rng);
        let ec1 = chase_too_far::workloads::Ec1::new(n, j);
        let db = ec1.generate(120, 0.5, seed);
        let q = ec1.query();
        let optimizer = Optimizer::new(ec1.schema());
        let res = optimizer.optimize(&q, &OptimizerConfig::with_strategy(OptStrategy::Oqf));
        let norm = |rows: &[Value]| {
            let mut v: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
            v.sort();
            v
        };
        let baseline = norm(&execute(&db, &q).unwrap().rows);
        for p in &res.plans {
            assert_eq!(
                norm(&execute(&db, &p.query).unwrap().rows),
                baseline,
                "plan diverged:\n{}",
                p.query
            );
        }
    });
}

/// The chase is inflationary and idempotent on random chain queries.
#[test]
fn chase_idempotent() {
    cases("chase_idempotent", 12, |rng| {
        let (n, j, _seed) = chain_scenario(rng);
        let ec1 = chase_too_far::workloads::Ec1::new(n, j);
        let cs = ec1.schema().all_constraints();
        let q = ec1.query();
        let (mut db, s1) = chase_query(&q, &cs, ChaseConfig::default());
        assert!(!s1.truncated);
        assert!(db.query.from.len() >= q.from.len());
        let s2 = chase(&mut db, &cs, ChaseConfig::default());
        assert_eq!(s2.steps_applied, 0);
    });
}

// ------------------------------------------- Backchase determinism (diff) --

/// A run's identity: per plan the kept binding set plus the full query text,
/// then the run's counts. Vec equality therefore checks the plan *set, order
/// included*, byte for byte.
fn backchase_fingerprint(res: &BackchaseResult) -> Vec<String> {
    res.plans
        .iter()
        .map(|p| {
            format!(
                "{:?} :: {p}",
                VarSet::from_iter(p.from.iter().map(|b| b.var))
            )
        })
        .chain([format!(
            "explored = {}, inferred = {}, universal_arity = {}",
            res.explored, res.inferred, res.universal_arity
        )])
        .collect()
}

/// Runs the backchase twice under the default config, asserting
/// byte-identical plans (order included) and identical `explored` and
/// `inferred` counts — the determinism contract of `cnb_core::backchase`:
/// a run's answer is a function of the query and the constraints alone.
fn assert_deterministic(q: &Query, cs: &[Constraint], label: &str) {
    let cfg = BackchaseConfig::default();
    let first = chase_and_backchase(q, cs, &cfg);
    let second = chase_and_backchase(q, cs, &cfg);
    assert!(!first.timed_out && !second.timed_out, "{label}: timed out");
    assert_eq!(
        backchase_fingerprint(&first),
        backchase_fingerprint(&second),
        "{label}: plans, their order or the counts diverged between two runs"
    );
}

/// Determinism suite, workload half: random EC1 chain scenarios (relations,
/// primary/secondary indexes) give the same answer twice.
#[test]
fn backchase_is_deterministic_ec1() {
    cases("backchase_is_deterministic_ec1", 8, |rng| {
        let (n, j, _seed) = chain_scenario(rng);
        let ec1 = chase_too_far::workloads::Ec1::new(n, j);
        assert_deterministic(&ec1.query(), &ec1.schema().all_constraints(), "ec1");
    });
}

/// Determinism suite, random half: arbitrary chain queries under randomly
/// drawn key and referential constraints give the same answer twice.
#[test]
fn backchase_is_deterministic_random() {
    cases("backchase_is_deterministic_random", 12, |rng| {
        let q = arb_query(rng);
        let mut cs: Vec<Constraint> = Vec::new();
        for i in 0..3u32 {
            if rng.gen_bool(0.5) {
                cs.push(key_constraint(sym(&format!("R{i}")), sym("A")));
            }
            if i < 2 && rng.gen_bool(0.3) {
                // R_i.B references R_{i+1}.A — an inclusion/RIC constraint.
                // Only forward edges: a constraint cycle would make the
                // chase non-terminating (cap-truncated) and the test slow.
                let mut ric = Constraint::new(format!("RIC{i}"));
                let r = ric.forall("r", Range::Name(sym(&format!("R{i}"))));
                let s = ric.exists("s", Range::Name(sym(&format!("R{}", i + 1))));
                ric.then(PathExpr::from(r).dot("B"), PathExpr::from(s).dot("A"));
                cs.push(ric);
            }
        }
        assert_deterministic(&q, &cs, "random");
    });
}

/// The claim the optimizer rests on: a constraint set it certifies chases
/// to a fixpoint. Random key and inclusion constraints over `R0..R2` —
/// any relation into any, either attribute into either, cycles allowed —
/// with random chain queries. A certified set's chase of the query never
/// hits a `ChaseConfig::default()` cap, nor does any chase `optimize` runs,
/// and `optimize` emits a plan; a refused set's `optimize` returns at once
/// with nothing. Both outcomes are drawn at least ten times.
#[test]
fn certified_sets_chase_to_a_fixpoint() {
    let schema = chain_schema();
    let (certified, refused) = (Cell::new(0), Cell::new(0));
    cases("certified_sets_chase_to_a_fixpoint", 64, |rng| {
        let q = arb_query(rng);
        let cs = arb_constraints(rng);
        let opt = Optimizer::with_constraints(schema.clone(), cs.clone());
        let res = opt.optimize(&q, &OptimizerConfig::default());
        let set = cs
            .iter()
            .map(|c| c.name.as_str())
            .collect::<Vec<_>>()
            .join(", ");
        if opt.certified().is_ok() {
            certified.set(certified.get() + 1);
            let (_, stats) = chase_query(&q, &cs, ChaseConfig::default());
            assert!(!stats.truncated, "[{set}]: the chase of {q} hit a cap");
            assert!(
                !res.chase_stats.truncated,
                "[{set}]: a chase of {q} hit a cap"
            );
            assert!(!res.timed_out && !res.plans.is_empty(), "[{set}]: {q}");
        } else {
            refused.set(refused.get() + 1);
            let ran = (res.explored, res.plans.len(), res.chase_stats.steps_applied);
            assert_eq!(ran, (0, 0, 0), "[{set}]: a refused set was searched");
        }
    });
    let drawn = (certified.get(), refused.get());
    assert!(
        drawn.0 >= 10 && drawn.1 >= 10,
        "(certified, refused) = {drawn:?}"
    );
}

/// Determinism suite, star-schema half: random EC4 configurations
/// (dimensions, materialized fact–dim views, FK indexes) give the same
/// answer twice.
#[test]
fn backchase_is_deterministic_ec4() {
    cases("backchase_is_deterministic_ec4", 6, |rng| {
        let dims = rng.gen_range(2usize..4);
        let views = rng.gen_range(0usize..dims.min(2) + 1);
        let indexed = rng.gen_range(0usize..2);
        let ec4 = chase_too_far::workloads::Ec4::new(dims, views, indexed);
        assert_deterministic(&ec4.query(), &ec4.schema().all_constraints(), "ec4");
    });
}

/// Determinism suite, cyclic half: random EC5 configurations (triangle or
/// 4-cycle, wedge view on/off, source index on triangles) give the same
/// answer twice.
#[test]
fn backchase_is_deterministic_ec5() {
    cases("backchase_is_deterministic_ec5", 6, |rng| {
        let cycle = rng.gen_range(3usize..5);
        let wedge = rng.gen_bool(0.7);
        // The source index doubles the universal plan's per-edge bindings;
        // keep it to triangles so debug-mode cases stay fast.
        let index = cycle == 3 && rng.gen_bool(0.5);
        let ec5 = chase_too_far::workloads::Ec5::new(cycle, wedge, index);
        assert_deterministic(&ec5.cycle_query(), &ec5.schema().all_constraints(), "ec5");
    });
}

// --------------------------------------- Two traversals, one lattice --

/// Bottom-up and top-down walk the same `Lattice`, so without a cost bound
/// they must find the same minimal plans: equally many, each one
/// `same_plan` as one of the other search's (the searches discover plans
/// in different orders and keep the first of each renaming class, so the
/// kept binding sets may differ where the queries do not). Covers every
/// `suite()` member whose universal plan has at most 12 bindings —
/// bottom-up enumerates subsets by size and has no memo of supersets to
/// lean on, so the cut keeps its 2ⁿ worst case out of debug-mode test time.
/// Today it skips nobody: the five members' universal plans have 8, 8, 9, 8
/// and 6 bindings (EC1–EC5).
#[test]
fn bottom_up_agrees_with_top_down_on_the_suite() {
    use chase_too_far::core::cost::CostModel;
    use chase_too_far::core::prelude::bottom_up_backchase;
    let cfg = BackchaseConfig::default();
    for w in chase_too_far::workloads::suite() {
        let (q, cs) = (w.query(), w.constraints());
        let top = chase_and_backchase(&q, &cs, &cfg);
        if top.universal_arity > 12 {
            eprintln!("{}: {} bindings, skipped", w.name(), top.universal_arity);
            continue;
        }
        let bottom = bottom_up_backchase(&q, &cs, &cfg, &CostModel::default(), None);
        let label = w.name();
        assert!(!top.timed_out && !bottom.timed_out, "{label}: timed out");
        assert_eq!(top.universal_arity, bottom.universal_arity, "{label}");
        assert_eq!(top.plans.len(), bottom.plans.len(), "{label}: plan counts");
        for (from, into, missing) in [
            (&bottom, &top, "bottom-up plan missing from top-down"),
            (&top, &bottom, "top-down plan missing from bottom-up"),
        ] {
            for p in &from.plans {
                assert!(
                    into.plans.iter().any(|o| same_plan(o, p)),
                    "{label}: {missing}:\n{}",
                    p
                );
            }
        }
    }
}

// ------------------------------------------------ Cost model feedback --

/// Observation feedback on `cnb_core::cost::CostModel`, seeded by real
/// `ExecStats` from the EC4/EC5 workloads: the first measurement of any
/// parameter — collection cardinality, join selectivity, set fan-out —
/// replaces the static estimate; subsequent measurements fold in as a
/// running mean that must equal the arithmetic mean of everything observed;
/// and the sample counters track the feed. All three observation channels
/// follow the same policy, so repeated cached-plan execution converges
/// instead of letting the last batch overwrite the state.
#[test]
fn cost_observation_feedback_matches_arithmetic_mean() {
    use chase_too_far::core::prelude::CostModel;
    use chase_too_far::engine::feed_cost_model;
    use chase_too_far::workloads::{DataScale, Ec4, Ec5, Workload};
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    cases(
        "cost_observation_feedback_matches_arithmetic_mean",
        8,
        |rng| {
            let star = rng.gen_bool(0.5);
            let (w, anchor): (Box<dyn Workload>, Symbol) = if star {
                (Box::new(Ec4::new(rng.gen_range(2usize..4), 1, 0)), sym("F"))
            } else {
                (Box::new(Ec5::triangle()), sym("E"))
            };
            let scale = DataScale::new(rng.gen_range(60usize..140), rng.next_u64());
            let db = w.generate_at(scale);
            let q = w.query();

            // Harvest stats from the original query plus a few generated plans.
            let mut all_stats = vec![execute(&db, &q).unwrap().stats];
            for p in w.optimize().plans.iter().take(3) {
                all_stats.push(execute(&db, &p.query).unwrap().stats);
            }

            // Cardinality feedback: the first measurement replaces the
            // estimate exactly, and the main collection's measured size is
            // the generated table's size.
            let mut model = CostModel::default();
            feed_cost_model(&all_stats[0], &mut model);
            assert_eq!(
                model.cardinalities.get(&anchor),
                Some(&(db.table(anchor).len() as f64)),
                "anchor table cardinality must be measured exactly"
            );

            // Feed every execution and replay the same observations by
            // hand: each collection's stored cardinality must equal the
            // arithmetic mean of all its measurements (first sample
            // replaces, later ones average — the same policy as
            // selectivity/fanout), and the per-collection sample counter
            // must track the feed.
            let mut model = CostModel::default().with_cardinality(anchor, 1e9);
            let mut by_name: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
            for stats in &all_stats {
                feed_cost_model(stats, &mut model);
                for (name, card) in stats.observed_cardinalities() {
                    by_name.entry(name.to_string()).or_default().push(card);
                }
            }
            for (name, cards) in &by_name {
                let got = *model.cardinalities.get(&sym(name)).unwrap();
                let m = mean(cards);
                assert!(
                    (got - m).abs() <= 1e-12 + 1e-9 * m,
                    "{name}: running mean {got} != arithmetic mean {m} \
                     (builder seed must not count as a sample)"
                );
                assert_eq!(
                    model.cardinality_samples.get(&sym(name)),
                    Some(&cards.len())
                );
            }

            // Selectivity feedback: replay the same samples by hand and compare
            // against the arithmetic mean.
            let sels: Vec<f64> = all_stats
                .iter()
                .flat_map(|s| s.observed_join_selectivities())
                .map(|s| s.clamp(1e-9, 1.0))
                .collect();
            let mut model = CostModel::default();
            let default_sel = model.join_selectivity;
            for (i, &s) in sels.iter().enumerate() {
                model.observe_join_selectivity(s);
                if i == 0 {
                    assert_eq!(
                        model.join_selectivity, s,
                        "first sample must replace the default, not average with it"
                    );
                }
            }
            assert_eq!(model.selectivity_samples, sels.len());
            if sels.is_empty() {
                assert_eq!(model.join_selectivity, default_sel);
            } else {
                let m = mean(&sels);
                assert!(
                    (model.join_selectivity - m).abs() <= 1e-12 + 1e-9 * m,
                    "running mean {} != arithmetic mean {m}",
                    model.join_selectivity
                );
            }

            // Fan-out feedback obeys the same algebra on arbitrary samples.
            let fans: Vec<f64> = (0..rng.gen_range(1usize..12))
                .map(|_| rng.gen_f64() * 8.0)
                .collect();
            let mut model = CostModel::default();
            model.observe_fanout(fans[0]);
            assert_eq!(model.fanout, fans[0], "first sample replaces the default");
            for &f in &fans[1..] {
                model.observe_fanout(f);
            }
            assert_eq!(model.fanout_samples, fans.len());
            let m = mean(&fans);
            assert!(
                (model.fanout - m).abs() <= 1e-12 + 1e-9 * m,
                "running mean {} != arithmetic mean {m}",
                model.fanout
            );
        },
    );
}

// ---------------------------------------------------- Query invariants --

/// canonical_key is invariant under variable renaming.
#[test]
fn canonical_key_rename_invariant() {
    cases("canonical_key_rename_invariant", 64, |rng| {
        let q = arb_query(rng);
        let off = rng.gen_range(1u32..50);
        assert_eq!(q.canonical_key(), q.offset_vars(off).canonical_key());
    });
}

/// Round trip or typed error: a random query carrying constants of every
/// kind the grammar writes — and a constraint over it — prints and parses
/// back to the same IR; a constant with no literal (an oid, `?k`, `NaN`,
/// a struct constant) makes the parser refuse the text.
#[test]
fn printed_constants_parse_back() {
    let writable = || {
        [
            7i64.into(),
            Value::Float(7.0),
            Value::Float(-0.0),
            Value::Float(1e300),
        ]
        .into_iter()
        .chain([Value::str("it's"), Value::Bool(true)])
    };
    let unwritable = [
        Value::Oid(sym("M1"), 3),
        Value::Param(0),
        Value::Float(f64::NAN),
        Value::record([(sym("B"), Value::Int(1))]),
    ];
    cases("printed_constants_parse_back", 64, |rng| {
        let mut q = arb_query(rng);
        let mut pick = |q: &Query| PathExpr::from(q.from[rng.gen_range(0..q.from.len())].var);
        for (i, c) in writable().enumerate() {
            match i % 3 {
                0 => q.output(&format!("C{i}"), PathExpr::from(c)),
                1 => q.equate(pick(&q).dot("C"), PathExpr::from(c)),
                _ => q.equate(PathExpr::from(c), pick(&q).dot("C")),
            }
        }
        roundtrip::query_roundtrip(&q).unwrap_or_else(|e| panic!("{e}\n{q}"));
        let mut c = Constraint::new("constants");
        for b in &q.from {
            c.forall(b.name.as_str(), b.range.clone());
        }
        c.premise.clone_from(&q.where_);
        for v in writable() {
            c.then(pick(&q).dot("D"), PathExpr::from(v));
        }
        roundtrip::constraint_roundtrip(&c).unwrap_or_else(|e| panic!("{e}\n{c}"));
        for v in &unwritable {
            let mut bad = q.clone();
            bad.equate(pick(&q).dot("C"), PathExpr::from(v.clone()));
            assert!(roundtrip::query_roundtrip(&bad).is_err(), "{bad}");
        }
    });
}

/// same_plan is reflexive and rename-invariant.
#[test]
fn same_plan_reflexive() {
    cases("same_plan_reflexive", 64, |rng| {
        let q = arb_query(rng);
        let off = rng.gen_range(1u32..50);
        assert!(same_plan(&q, &q));
        assert!(same_plan(&q, &q.offset_vars(off)));
    });
}

/// Minimization (no constraints) always yields plans no larger than the
/// input and equivalent to it on data.
#[test]
fn minimization_shrinks_and_preserves() {
    cases("minimization_shrinks_and_preserves", 24, |rng| {
        let q = arb_query(rng);
        let optimizer = Optimizer::with_constraints(Schema::new(), vec![]);
        let res = optimizer.optimize(&q, &OptimizerConfig::with_strategy(OptStrategy::Full));
        assert!(!res.plans.is_empty());
        for p in &res.plans {
            assert!(p.query.arity() <= q.arity());
        }
        // Execute on random data.
        let mut db = Database::new();
        for r in 0..3 {
            for _ in 0..8 {
                db.insert_row(
                    sym(&format!("R{r}")),
                    Value::record([
                        (sym("A"), Value::Int(rng.gen_range(0i64..5))),
                        (sym("B"), Value::Int(rng.gen_range(0i64..5))),
                    ]),
                );
            }
        }
        // C&B minimization is set-semantics (join elimination may drop
        // redundant bindings, changing multiplicities): compare distinct
        // answer sets, as the paper's containment theory does.
        let norm = |rows: &[Value]| {
            let mut v: Vec<String> = rows.iter().map(|x| x.to_string()).collect();
            v.sort();
            v.dedup();
            v
        };
        let baseline = norm(&execute(&db, &q).unwrap().rows);
        for p in &res.plans {
            assert_eq!(
                norm(&execute(&db, &p.query).unwrap().rows),
                baseline,
                "minimized plan diverged:\n{}",
                p.query
            );
        }
    });
}

// ------------------------------------------------------- Serving path --

/// A plan served from a warm cache hit is *byte-identical* to the plan a
/// cold server (fresh optimizer, empty cache) produces for the same
/// request: planning is a pure function of the parameterized template and
/// the constraint set, so binding cached template plans at execution time
/// must be indistinguishable from re-planning — rendered text and
/// structure both.
#[test]
fn cache_hits_serve_byte_identical_plans() {
    use chase_too_far::engine::PlanServer;
    use chase_too_far::workloads::{suite, DataScale};
    let scale = DataScale::smoke();
    for w in suite() {
        let strategy = w.expectations().strategy;
        let mut warm = PlanServer::new(w.optimizer(), OptimizerConfig::with_strategy(strategy));
        let planted = warm.plan(&w.serving_query(scale, 0));
        assert!(!planted.cache_hit, "{}: first request must miss", w.name());
        for pick in [1u64, 5, 13] {
            let q = w.serving_query(scale, pick);
            let hit = warm.plan(&q);
            assert!(hit.cache_hit, "{}: pick {pick} must hit", w.name());
            let mut cold = PlanServer::new(w.optimizer(), OptimizerConfig::with_strategy(strategy));
            let miss = cold.plan(&q);
            assert!(!miss.cache_hit);
            assert_eq!(
                hit.plan.to_string(),
                miss.plan.to_string(),
                "{} pick {pick}: cached plan renders differently from the cold plan",
                w.name()
            );
            assert_eq!(
                hit.plan,
                miss.plan,
                "{} pick {pick}: cached plan differs structurally from the cold plan",
                w.name()
            );
        }
    }
}

// --------------------------------------------------- Serving under pressure --

/// Requests a seeded [`FaultPlan`] does not touch are *byte-identical* to a
/// fault-free run — at 1, 2, 4 and 8 executor threads — and every faulted
/// request surfaces as a typed error, never as wrong or partial rows.
#[test]
fn fault_free_requests_are_byte_identical_at_every_thread_count() {
    use chase_too_far::engine::{FaultPlan, PlanServer, ServeConfig, ServeError, VirtualClock};
    use chase_too_far::workloads::{DataScale, Ec4, Workload};

    let mut schema = Schema::new();
    schema.add_relation(
        "R",
        [
            (sym("K"), Type::Int),
            (sym("N"), Type::Int),
            (sym("D"), Type::Int),
        ],
    );
    add_primary_index(&mut schema, sym("R"), sym("K"), "PI");
    let mut db = Database::new();
    for i in 0..40i64 {
        db.insert_row(
            sym("R"),
            Value::record([
                (sym("K"), Value::Int(i)),
                (sym("N"), Value::Int((i * 7) % 40)),
                (sym("D"), Value::Int(i * 100)),
            ]),
        );
    }
    db.materialize_physical(&schema).unwrap();
    let point = |k: i64| {
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        q.equate(PathExpr::from(r).dot("K"), PathExpr::from(k));
        q.output("D", PathExpr::from(r).dot("D"));
        q
    };
    // The EC4 serving mix rides along: its served plan goes through a fused
    // `dom SIF1 k, SIF1[k] t` index pair, whose per-request pair index is
    // built inside each worker.
    let ec4 = Ec4::new(3, 2, 1);
    let star_scale = DataScale::new(300, 11);
    let star_db = ec4.generate_at(star_scale);
    let mk_point_server = || {
        PlanServer::new(
            Optimizer::new(schema.clone()),
            OptimizerConfig::with_strategy(OptStrategy::Full),
        )
    };
    let mk_star_server = || {
        PlanServer::new(
            ec4.optimizer(),
            OptimizerConfig::with_strategy(ec4.expectations().strategy),
        )
    };
    let point_request = |rng: &mut SplitMix64| point(rng.gen_range(0i64..40));
    let star_request = |rng: &mut SplitMix64| ec4.serving_query(star_scale, rng.next_u64());
    type Fixture<'a> = (
        &'a Database,
        &'a dyn Fn() -> PlanServer,
        &'a dyn Fn(&mut SplitMix64) -> Query,
    );
    let fixtures: [Fixture; 2] = [
        (&db, &mk_point_server, &point_request),
        (&star_db, &mk_star_server, &star_request),
    ];

    cases(
        "fault_free_requests_are_byte_identical_at_every_thread_count",
        6,
        |rng| {
            for (db, mk_server, request) in fixtures {
                let n = rng.gen_range(5usize..30);
                let requests: Vec<Query> = (0..n).map(|_| request(rng)).collect();
                let plan = FaultPlan::failures(rng.next_u64(), 0.35);
                let cfg = ServeConfig::unbounded();

                let fault_free: Vec<Vec<Value>> = mk_server()
                    .serve_batch(db, &requests, 1)
                    .into_iter()
                    .map(|r| r.unwrap().1.rows)
                    .collect();
                // Which requests survive is decided by the plan alone.
                let survives: Vec<bool> = (0..n).map(|i| !plan.fails(i)).collect();

                let mut baseline: Option<Vec<String>> = None;
                for threads in [1usize, 2, 4, 8] {
                    let outcomes = mk_server().serve_batch_under(
                        db,
                        &requests,
                        threads,
                        &cfg,
                        &VirtualClock::frozen(),
                        Some(&plan),
                    );
                    let rendered: Vec<String> = outcomes
                        .iter()
                        .enumerate()
                        .map(|(i, o)| match &o.result {
                            Ok((_, exec)) => {
                                assert!(survives[i], "request {i} should have been faulted");
                                assert_eq!(
                                    exec.rows, fault_free[i],
                                    "threads={threads} request {i}: fault-free request diverged"
                                );
                                format!("ok:{:?}", exec.rows)
                            }
                            Err(e @ ServeError::FaultInjected { .. }) => {
                                assert!(!survives[i], "request {i} faulted unexpectedly");
                                format!("fault:{e:?}")
                            }
                            Err(e) => panic!("threads={threads} request {i}: unexpected {e:?}"),
                        })
                        .collect();
                    match &baseline {
                        None => baseline = Some(rendered),
                        Some(b) => assert_eq!(&rendered, b, "threads={threads}: outcomes drifted"),
                    }
                }
            }
        },
    );
}

/// Admission decisions are a pure function of (requests, config, cost
/// model): reruns, thread counts, and interleavings never flip a verdict,
/// and the shed set is exactly the over-budget set.
#[test]
fn admission_decisions_are_a_pure_function_of_inputs() {
    use chase_too_far::core::cost::CostModel;
    use chase_too_far::engine::{PlanServer, ServeConfig, ServeError, VirtualClock};

    let mut schema = Schema::new();
    schema.add_relation("R", [(sym("K"), Type::Int), (sym("D"), Type::Int)]);
    add_primary_index(&mut schema, sym("R"), sym("K"), "PI");
    schema.add_relation("F", [(sym("A"), Type::Int), (sym("B"), Type::Int)]);
    let mut db = Database::new();
    for i in 0..30i64 {
        db.insert_row(
            sym("R"),
            Value::record([(sym("K"), Value::Int(i)), (sym("D"), Value::Int(i * 2))]),
        );
        db.insert_row(
            sym("F"),
            Value::record([
                (sym("A"), Value::Int(i % 6)),
                (sym("B"), Value::Int((i * 5) % 6)),
            ]),
        );
    }
    db.materialize_physical(&schema).unwrap();
    let cheap = |k: i64| {
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        q.equate(PathExpr::from(r).dot("K"), PathExpr::from(k));
        q.output("D", PathExpr::from(r).dot("D"));
        q
    };
    let heavy = |b: i64| {
        let mut q = Query::new();
        let x = q.bind("x", Range::Name(sym("F")));
        let y = q.bind("y", Range::Name(sym("F")));
        q.equate(PathExpr::from(x).dot("B"), PathExpr::from(y).dot("A"));
        q.equate(PathExpr::from(y).dot("B"), PathExpr::from(b));
        q.output("A", PathExpr::from(x).dot("A"));
        q
    };
    let model = CostModel::default().with_cardinalities(db.cardinalities());
    let mk_server = || {
        PlanServer::new(
            Optimizer::new(schema.clone()),
            OptimizerConfig::with_strategy(OptStrategy::Full),
        )
        .with_cost_model(model.clone())
    };
    let (cheap_cost, heavy_cost) = {
        let mut s = mk_server();
        let c = s.plan(&cheap(0)).plan;
        let h = s.plan(&heavy(0)).plan;
        (s.cost_model().cost(&c), s.cost_model().cost(&h))
    };
    assert!(heavy_cost > cheap_cost);

    cases(
        "admission_decisions_are_a_pure_function_of_inputs",
        6,
        |rng| {
            let n = rng.gen_range(4usize..24);
            let requests: Vec<Query> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.4) {
                        heavy(rng.gen_range(0i64..6))
                    } else {
                        cheap(rng.gen_range(0i64..30))
                    }
                })
                .collect();
            // A budget drawn anywhere in (cheap, heavy) sheds exactly the
            // heavy shapes; outside that band it sheds all or none.
            let t = rng.gen_range(0u32..1000) as f64 / 999.0;
            let budget = cheap_cost + t * (heavy_cost - cheap_cost);
            let cfg = ServeConfig::unbounded().with_cost_budget(budget);
            let mut baseline: Option<Vec<bool>> = None;
            for threads in [1usize, 4] {
                for _rerun in 0..2 {
                    let outcomes = mk_server().serve_batch_under(
                        &db,
                        &requests,
                        threads,
                        &cfg,
                        &VirtualClock::frozen(),
                        None,
                    );
                    let shed: Vec<bool> = outcomes
                        .iter()
                        .map(|o| match &o.result {
                            Ok(_) => false,
                            Err(ServeError::Rejected { cost, budget: b }) => {
                                assert!(cost > b, "rejection must be over budget");
                                true
                            }
                            Err(e) => panic!("unexpected {e:?}"),
                        })
                        .collect();
                    // The verdict is exactly the per-request cost test.
                    for (i, q) in requests.iter().enumerate() {
                        let mut probe = mk_server();
                        let cost = model.cost(&probe.plan(q).plan);
                        assert_eq!(
                            shed[i],
                            cost > budget,
                            "request {i}: decision disagrees with its price"
                        );
                    }
                    match &baseline {
                        None => baseline = Some(shed),
                        Some(b) => assert_eq!(&shed, b, "threads={threads}: decisions drifted"),
                    }
                }
            }
        },
    );
}
