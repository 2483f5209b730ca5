//! Integration tests for the paper's headline claims, spanning all crates.

use chase_too_far::core::prelude::*;
use chase_too_far::engine::execute;
use chase_too_far::ir::prelude::*;
use chase_too_far::workloads::{ec2::Ec2DataSpec, Ec1, Ec2, Ec3, Example21, Example22};

/// §2, Example 2.1. Two claims:
///
/// 1. an index plan over `I` exists among the minimal plans (our backchase
///    prefers the strictly smaller index-scan `dom I` over the paper's
///    S-probing plan P, which it subsumes — see EXPERIMENTS.md);
/// 2. the paper's plan P — scan `S`, probe `I[struct(A = s.A, B = b,
///    C = c)]` — is equivalent to the query *iff* the RIC `R.A → S.A`
///    holds. This is the example's actual point: a semantic constraint
///    enabling a physical structure.
#[test]
fn example21_index_unlocked_by_ric() {
    let ex = Example21::new();
    let optimizer = Optimizer::new(ex.schema.clone());
    let res = optimizer.optimize(&ex.query, &OptimizerConfig::with_strategy(Strategy::Full));
    assert!(
        res.plans
            .iter()
            .any(|p| p.physical_used.contains(&sym("I"))),
        "an index plan must exist"
    );

    // Build the paper's plan P explicitly (with the dom-binding that our
    // formalization makes explicit): from S s, dom I k where
    // k = struct(A = s.A, B = 7, C = 'c0'), selecting s.A and I[k].E.
    let mut p = Query::new();
    p.reserve_vars(ex.query.var_bound());
    let s = p.bind("s", Range::Name(sym("S")));
    let k = p.bind("k", Range::Dom(sym("I")));
    p.equate(
        PathExpr::from(k),
        PathExpr::MkStruct(vec![
            (sym("A"), PathExpr::from(s).dot("A")),
            (sym("B"), PathExpr::from(ex.b)),
            (sym("C"), PathExpr::Const(Value::str(ex.c))),
        ]),
    );
    p.output("A", PathExpr::from(s).dot("A"));
    p.output("E", PathExpr::from(k).lookup_in("I").dot("E"));

    // EquivChecker::equivalent(c) proves the containment c ⊆ q0 (the other
    // direction holds by construction inside the backchase). For the
    // hand-built P we check both containments explicitly.
    let both = |constraints: &[Constraint]| {
        let p_in_q = EquivChecker::new(&ex.query, constraints, ChaseConfig::default())
            .equivalent(&p)
            .0;
        let q_in_p = EquivChecker::new(&p, constraints, ChaseConfig::default())
            .equivalent(&ex.query)
            .0;
        (p_in_q, q_in_p)
    };

    // With the RIC: equivalent in both directions.
    let with_ric = ex.schema.all_constraints();
    assert_eq!(both(&with_ric), (true, true), "P ≡ Q under the RIC");

    // Without the RIC (index constraints only): P ⊆ Q still holds, but
    // Q ⊆ P fails — P misses R-tuples whose A value is absent from S.
    let without_ric: Vec<Constraint> = ex
        .schema
        .skeletons()
        .iter()
        .flat_map(|sk| [sk.forward.clone(), sk.backward.clone()])
        .collect();
    assert_eq!(
        both(&without_ric),
        (true, false),
        "without the RIC, P is not a valid rewriting"
    );
}

/// §2, Example 2.2: the double-view plan appears iff the key holds.
#[test]
fn example22_key_gates_double_view_plan() {
    for with_key in [false, true] {
        let ex = Example22::new(with_key);
        let optimizer = Optimizer::new(ex.schema.clone());
        let res = optimizer.optimize(&ex.query, &OptimizerConfig::with_strategy(Strategy::Full));
        let double = res.plans.iter().any(|p| p.physical_used.len() == 2);
        assert_eq!(double, with_key);
    }
}

/// §3.2, Example 3.1: a chain of n single-index relations has exactly 2^n
/// plans, and OQF finds them with exponentially less exploration than FB.
#[test]
fn example31_two_to_the_n_plans() {
    for n in 1..=4usize {
        let ec1 = Ec1::new(n, 0);
        let optimizer = Optimizer::new(ec1.schema());
        let q = ec1.query();
        let fb = optimizer.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Full));
        let oqf = optimizer.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Oqf));
        assert_eq!(fb.plans.len(), 1 << n, "FB on n={n}");
        assert_eq!(oqf.plans.len(), 1 << n, "OQF on n={n}");
        if n >= 3 {
            assert!(oqf.explored < fb.explored, "stratification must pay off");
        }
    }
}

/// Theorem 3.2: OQF is complete (produces FB's plan set) on skeleton
/// schemas — checked on an EC2 grid via plan-set equality, not just counts.
#[test]
fn theorem32_oqf_complete_on_skeletons() {
    for (s, c, v) in [(1usize, 3usize, 2usize), (2, 3, 1), (2, 4, 2)] {
        let ec2 = Ec2::new(s, c, v);
        let optimizer = Optimizer::new(ec2.schema());
        let q = ec2.query();
        let fb = optimizer.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Full));
        let oqf = optimizer.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Oqf));
        assert_eq!(fb.plans.len(), oqf.plans.len(), "[{s},{c},{v}]");
        // Every FB plan has an OQF counterpart (same query up to renaming).
        for fp in &fb.plans {
            assert!(
                oqf.plans
                    .iter()
                    .any(|op| chase_too_far::core::equivalence::same_plan(&fp.query, &op.query)),
                "FB plan missing from OQF on [{s},{c},{v}]:\n{}",
                fp.query
            );
        }
    }
}

/// OCS generates a subset of FB's plans (it trades completeness for time).
#[test]
fn ocs_plans_are_a_subset_of_fb() {
    for (s, c, v) in [(1usize, 4usize, 3usize), (2, 3, 2)] {
        let ec2 = Ec2::new(s, c, v);
        let optimizer = Optimizer::new(ec2.schema());
        let q = ec2.query();
        let fb = optimizer.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Full));
        let ocs = optimizer.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Ocs));
        assert!(ocs.plans.len() <= fb.plans.len());
        for op in &ocs.plans {
            assert!(
                fb.plans
                    .iter()
                    .any(|fp| chase_too_far::core::equivalence::same_plan(&fp.query, &op.query)),
                "OCS produced a plan FB did not:\n{}",
                op.query
            );
        }
    }
}

/// §5.4's global claim, end-to-end: the best generated plan beats the
/// original query on the generated dataset, and returns the same answer.
#[test]
fn best_plan_first_wins_at_execution() {
    let ec2 = Ec2::new(2, 2, 1);
    let db = ec2.generate(Ec2DataSpec {
        rows: 3000,
        ..Ec2DataSpec::default()
    });
    let q = ec2.query();
    let optimizer = Optimizer::new(ec2.schema());
    let res = optimizer.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Oqf));
    let best = &res.plans[0];
    assert!(
        !best.physical_used.is_empty(),
        "best-first puts a view plan first"
    );
    let base = execute(&db, &q).unwrap();
    let opt = execute(&db, &best.query).unwrap();
    assert!(
        opt.stats.tuples_considered < base.stats.tuples_considered,
        "view plan does less work: {} vs {}",
        opt.stats.tuples_considered,
        base.stats.tuples_considered
    );
}

/// EC3's two-phase story: semantic flipping enables ASR plans; OCS and FB
/// both find an ASR-only plan of a single binding.
#[test]
fn ec3_asr_single_scan_plan() {
    let ec3 = Ec3::new(3, 1);
    let optimizer = Optimizer::new(ec3.schema());
    let q = ec3.query();
    for strategy in [Strategy::Full, Strategy::Ocs] {
        let res = optimizer.optimize(&q, &OptimizerConfig::with_strategy(strategy));
        let asr = res
            .plans
            .iter()
            .find(|p| p.physical_used.iter().any(|s| s.as_str() == "ASR1"))
            .unwrap_or_else(|| panic!("{strategy}: ASR plan missing"));
        assert_eq!(
            asr.query.arity(),
            1,
            "{strategy}: the ASR plan is a single scan"
        );
    }
}

/// Chase fixpoints are genuinely fixpoints: re-chasing a universal plan
/// applies zero further steps, across all three configurations.
#[test]
fn universal_plans_are_fixpoints() {
    let cases: Vec<(Vec<Constraint>, Query)> = vec![
        {
            let ec1 = Ec1::new(4, 2);
            (ec1.schema().all_constraints(), ec1.query())
        },
        {
            let ec2 = Ec2::new(2, 3, 2);
            (ec2.schema().all_constraints(), ec2.query())
        },
        {
            let ec3 = Ec3::new(4, 1);
            (ec3.schema().all_constraints(), ec3.query())
        },
    ];
    for (cs, q) in cases {
        let (mut db, stats) = chase_query(&q, &cs, ChaseConfig::default());
        assert!(!stats.truncated);
        let again = chase(&mut db, &cs, ChaseConfig::default());
        assert_eq!(again.steps_applied, 0, "chase must be a fixpoint");
    }
}
