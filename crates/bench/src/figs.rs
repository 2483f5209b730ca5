//! The routines of the [`crate::FIGURES`] registry: fig. 5 – fig. 10 and the
//! §5.3.1 plan-count table from the paper, plus the post-paper figs. 11/12
//! for the EC4 star-schema and EC5 cyclic-join workloads. Each takes one
//! [`FigureArgs`] and returns markdown; `figures` prints it, and
//! `tests/smoke.rs` runs each at [`Scale::Smoke`].
//!
//! The optimization figures (6/7/8 and the plan-count table) have no thread
//! knob: both backchase searches are sequential (see `cnb_core::backchase`),
//! so rendered tables differ from run to run only in the timing columns.

use crate::{cell, render_table, secs, FigureArgs, Scale};
use cnb_core::prelude::*;
use cnb_engine::datagen::EdgeDist;
use cnb_engine::{execute, Database};
use cnb_ir::prelude::{Query, Range};
use cnb_workloads::{
    ec2::{Ec2DataSpec, PAPER_PLAN_COUNTS},
    ec4::Ec4DataSpec,
    ec5::Ec5DataSpec,
    Ec1, Ec2, Ec3, Ec4, Ec5, Workload,
};
use std::time::Instant;

/// `row`, then fig. 5's measurements of `w`'s query chased under all its
/// constraints: the constraint count, the chase time, the universal plan's
/// size.
fn chase_row(w: &dyn Workload, mut row: Vec<String>) -> Vec<String> {
    let (q, cs) = (w.query(), w.schema().all_constraints());
    #[expect(clippy::disallowed_methods)]
    let start = Instant::now();
    let (db, stats) = chase_query(&q, &cs, ChaseConfig::default());
    let time = secs(start.elapsed());
    assert!(!stats.truncated, "chase must reach a fixpoint");
    row.extend([cs.len().to_string(), time, db.query.from.len().to_string()]);
    row
}

/// One time-per-plan cell — the paper's normalized §5.3.2 measure, seconds
/// per generated plan, then the plan count — or `—` on timeout.
fn tpp_cell(args: &FigureArgs, opt: &Optimizer, q: &Query, strategy: Strategy) -> String {
    cell(args.run(opt, q, strategy).map(|r| {
        let per_plan = if r.plans.is_empty() {
            f64::NAN
        } else {
            r.total_time.as_secs_f64() / r.plans.len() as f64
        };
        format!("{per_plan:.4} ({})", r.plans.len())
    }))
}

/// Executes every plan on `db`, folding each one's observed cardinalities
/// into one cost model over `db`'s cardinalities, then re-costs every plan
/// under it — the ranking an optimizer with execution feedback would use.
/// Per plan, a row: its number, execution time, row count and that cost.
fn execute_with_feedback(db: &Database, plans: &[PlanInfo]) -> (CostModel, Vec<Vec<String>>) {
    let mut model = CostModel::default().with_cardinalities(db.cardinalities());
    let mut rows: Vec<Vec<String>> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let exec = execute(db, &p.query).expect("plan executes");
            cnb_engine::feed_cost_model(&exec.stats, &mut model);
            let count = exec.rows.len().to_string();
            vec![(i + 1).to_string(), secs(exec.stats.elapsed), count]
        })
        .collect();
    for (row, p) in rows.iter_mut().zip(plans) {
        row.push(format!("{:.0}", model.cost(&p.query)));
    }
    (model, rows)
}

/// Figure 5 — time to chase as schema/query parameters grow, for all three
/// experimental configurations. The paper's claim: the (efficiently
/// implemented) chase is cheap even with 15+ joins and 15+ constraints.
pub fn fig5_chase_time(args: &FigureArgs) -> String {
    let scale = args.scale;
    let mut out = String::new();

    // EC1 (fig. 5 left): an n-relation chain; vary the number of indexes
    // m = n + j by adding secondary indexes.
    let (ec1_n, ec1_js): (usize, &[usize]) = match scale {
        Scale::Paper => (10, &[0, 3, 5, 7, 9]),
        Scale::Smoke => (3, &[0, 1]),
    };
    let mut t1 = Vec::new();
    for &j in ec1_js {
        let ec1 = Ec1::new(ec1_n, j);
        t1.push(chase_row(&ec1, vec![ec1.index_count().to_string()]));
    }
    out.push_str(&render_table(
        &format!("Fig 5 (left): time to chase [EC1], {ec1_n}-relation chain query"),
        &[
            "#indexes",
            "#constraints",
            "chase time (s)",
            "universal plan size",
        ],
        &t1,
    ));

    // EC2 (fig. 5 middle): s stars; query size s(c+1); one series per
    // views-per-star count.
    let (ec2_s, ec2_vs, ec2_cs): (usize, &[usize], &[usize]) = match scale {
        Scale::Paper => (3, &[2, 3], &[3, 4, 5, 6, 7]),
        Scale::Smoke => (2, &[1], &[2, 3]),
    };
    let mut t2 = Vec::new();
    for &v in ec2_vs {
        let label = format!("{} views+{ec2_s} keys = {}", ec2_s * v, (2 * v + 1) * ec2_s);
        for &c in ec2_cs {
            if v + 1 > c {
                continue;
            }
            let ec2 = Ec2::new(ec2_s, c, v);
            let size = ec2.query_size().to_string();
            t2.push(chase_row(&ec2, vec![label.clone(), size]));
        }
    }
    out.push_str(&render_table(
        &format!("Fig 5 (middle): time to chase [EC2], {ec2_s} stars, growing star size"),
        &[
            "series",
            "query size",
            "#constraints",
            "chase time (s)",
            "universal plan size",
        ],
        &t2,
    ));

    // EC3 (fig. 5 right): vary the number of classes; inverse constraints
    // (2 per hop) plus ASR constraints (2 per ASR).
    let ec3_ns: &[usize] = match scale {
        Scale::Paper => &[2, 4, 6, 8, 10],
        Scale::Smoke => &[2, 3],
    };
    let mut t3 = Vec::new();
    for &n in ec3_ns {
        t3.push(chase_row(&Ec3::new(n, (n - 1) / 2), vec![n.to_string()]));
    }
    out.push_str(&render_table(
        "Fig 5 (right): time to chase [EC3], full navigation query",
        &[
            "#classes",
            "#constraints",
            "chase time (s)",
            "universal plan size",
        ],
        &t3,
    ));
    out
}

/// Figure 6 — time per generated plan, FB vs OQF vs OCS. Right panel: EC1
/// over [#relations, #secondary indexes]; left panel: EC3 over the number of
/// traversed classes, where OQF degenerates into FB because
/// inverse-constraint images overlap.
pub fn fig6_tpp_ec1_ec3(args: &FigureArgs) -> String {
    let scale = args.scale;
    let mut out = String::new();
    // EC1 grid: the paper's x-axis [3,0] [3,1] ... [5,2].
    let ec1_points: &[(usize, usize)] = match scale {
        Scale::Paper => &[
            (3, 0),
            (3, 1),
            (3, 2),
            (3, 3),
            (4, 0),
            (4, 1),
            (4, 2),
            (4, 3),
            (5, 0),
            (5, 1),
            (5, 2),
        ],
        Scale::Smoke => &[(3, 0), (3, 1)],
    };
    let mut t1 = Vec::new();
    for &(n, j) in ec1_points {
        let ec1 = Ec1::new(n, j);
        let opt = Optimizer::new(ec1.schema());
        let q = ec1.query();
        let tpp = |strategy| tpp_cell(args, &opt, &q, strategy);
        t1.push(vec![
            format!("[{n},{j}]"),
            tpp(Strategy::Full),
            tpp(Strategy::Oqf),
            tpp(Strategy::Ocs),
        ]);
    }
    out.push_str(&render_table(
        "Fig 6 (right): time per plan [EC1] — seconds (plan count)",
        &["[#relations,#secondary]", "FB", "OQF", "OCS"],
        &t1,
    ));

    // EC3: FB(=OQF) vs OCS. Missing FB cells above the timeout reproduce
    // the paper's missing bars.
    let ec3_ns: std::ops::RangeInclusive<usize> = match scale {
        Scale::Paper => 2..=6,
        Scale::Smoke => 2..=3,
    };
    let mut t3 = Vec::new();
    for n in ec3_ns {
        let ec3 = Ec3::new(n, 0);
        let opt = Optimizer::new(ec3.schema());
        let q = ec3.query();
        t3.push(vec![
            format!("{n}"),
            tpp_cell(args, &opt, &q, Strategy::Full),
            tpp_cell(args, &opt, &q, Strategy::Ocs),
        ]);
    }
    out.push_str(&render_table(
        "Fig 6 (left): time per plan [EC3] — seconds (plan count)",
        &["#classes traversed", "FB (=OQF)", "OCS"],
        &t3,
    ));
    out
}

/// Figure 7 — time per generated plan on EC2, FB vs OQF vs OCS, over the
/// paper's [#views per star, #stars, star size] grid. FB cells hit the
/// timeout first; OCS is fastest (at the price of completeness — see the
/// §5.3.1 plan-count table).
pub fn fig7_tpp_ec2(args: &FigureArgs) -> String {
    // The paper's 22 x-axis points, as [v, s, c].
    let paper_points: &[(usize, usize, usize)] = &[
        (1, 1, 5),
        (1, 2, 3),
        (1, 2, 5),
        (1, 3, 2),
        (1, 3, 3),
        (1, 3, 4),
        (1, 3, 5),
        (1, 4, 4),
        (2, 1, 5),
        (2, 2, 3),
        (2, 2, 4),
        (2, 2, 5),
        (2, 3, 5),
        (2, 4, 4),
        (3, 1, 4),
        (3, 1, 5),
        (3, 2, 4),
        (3, 2, 5),
        (3, 3, 4),
        (3, 3, 5),
        (4, 1, 5),
        (4, 2, 5),
    ];
    let points = match args.scale {
        Scale::Paper => paper_points,
        Scale::Smoke => &paper_points[..2],
    };
    let mut table = Vec::new();
    for &(v, s, c) in points {
        let ec2 = Ec2::new(s, c, v);
        let opt = Optimizer::new(ec2.schema());
        let q = ec2.query();
        let tpp = |strategy| tpp_cell(args, &opt, &q, strategy);
        table.push(vec![
            format!("[{v},{s},{c}]"),
            format!("{}", ec2.query_size()),
            format!("{}", ec2.constraint_count()),
            tpp(Strategy::Full),
            tpp(Strategy::Oqf),
            tpp(Strategy::Ocs),
        ]);
    }
    render_table(
        "Fig 7: time per plan [EC2] — seconds (plan count); — = timeout",
        &["[v,s,c]", "query size", "#constraints", "FB", "OQF", "OCS"],
        &table,
    )
}

/// `label`, then fig. 8's OCS optimization time of `w`'s query at each
/// stratum group size, normalized by the size-1 time (the paper's y-axis).
fn stratification_row(
    args: &FigureArgs,
    label: String,
    w: &dyn Workload,
    group_sizes: &[usize],
) -> Vec<String> {
    let (opt, q) = (Optimizer::new(w.schema()), w.query());
    let times: Vec<Option<f64>> = group_sizes
        .iter()
        .map(|&g| {
            let mut cfg = args.config(Strategy::Ocs);
            cfg.stratum_group_size = Some(g);
            let res = opt.optimize(&q, &cfg);
            (!res.timed_out).then_some(res.total_time.as_secs_f64())
        })
        .collect();
    let base = times[0].unwrap_or(1.0).max(1e-9);
    let normalized = times
        .iter()
        .map(|t| cell(t.map(|t| format!("{:.2}", t / base))));
    std::iter::once(label).chain(normalized).collect()
}

/// Figure 8 — effect of stratification granularity on optimization time:
/// fixed queries, varying how many natural strata are merged per pipeline
/// stage. Stratum size 1 = OCS; merging everything approaches FB. The paper
/// observes an exponential reduction as strata shrink.
pub fn fig8_stratification(args: &FigureArgs) -> String {
    let scale = args.scale;
    let group_sizes: &[usize] = match scale {
        Scale::Paper => &[1, 2, 3, 4],
        Scale::Smoke => &[1, 2],
    };
    let ec3_ns: &[usize] = match scale {
        Scale::Paper => &[5, 6],
        Scale::Smoke => &[4],
    };
    let ec2_point = match scale {
        Scale::Paper => Some((3, 3, 1)),
        Scale::Smoke => None,
    };
    let mut table = Vec::new();

    for &n in ec3_ns {
        let (label, ec3) = (format!("EC3 with {n} classes"), Ec3::new(n, 0));
        table.push(stratification_row(args, label, &ec3, group_sizes));
    }
    if let Some((s, c, v)) = ec2_point {
        let (label, ec2) = (format!("EC2 [{s},{c},{v}]"), Ec2::new(s, c, v));
        table.push(stratification_row(args, label, &ec2, group_sizes));
    }

    let mut header: Vec<String> = vec!["configuration".into()];
    header.extend(group_sizes.iter().map(|g| format!("size {g}")));
    render_table(
        "Fig 8: normalized optimization time vs stratum size (1 = OCS)",
        &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        &table,
    )
}

/// Figure 9 — detail of the plans generated for one EC2 instance (3 stars,
/// 2 corner relations per star, 1 view per star → 8 plans), with the
/// execution time of each plan on the generated dataset, the views used and
/// the corner relations used — the paper's fig. 9 table. The dataset has
/// `args.rows` tuples per relation at 4 % corner / 2 % chain selectivity;
/// the grid scale does not apply.
///
/// Exercises the cardinality-feedback loop end to end: every plan's
/// per-operator observed cardinalities are folded into one cost model
/// (`cnb_engine::feed_cost_model`), and the `est. cost` column re-costs
/// each plan with the *measured* selectivities — the ordering an optimizer
/// with execution feedback would use.
pub fn fig9_plan_detail(args: &FigureArgs) -> String {
    let ec2 = Ec2::new(3, 2, 1);
    let spec = Ec2DataSpec {
        rows: args.rows,
        ..Ec2DataSpec::default()
    };
    let db = ec2.generate(spec);
    let q = ec2.query();
    let opt = Optimizer::new(ec2.schema());
    let res = opt.optimize(&q, &args.config(Strategy::Oqf));
    let mut out = format!(
        "# Stars: 3, # Corners per star: 2, # Views per star: 1. {} plans generated. Time to generate all plans: {}s\n",
        res.plans.len(),
        secs(res.total_time)
    );

    let (model, mut table) = execute_with_feedback(&db, &res.plans);
    for (row, p) in table.iter_mut().zip(&res.plans) {
        let views: Vec<String> = p.physical_used.iter().map(|s| s.to_string()).collect();
        let corners: Vec<String> = p
            .query
            .from
            .iter()
            .filter_map(|b| match &b.range {
                Range::Name(s) if s.as_str().starts_with('S') => Some(s.to_string()),
                _ => None,
            })
            .collect();
        let original = if views.is_empty() {
            " (*) original query"
        } else {
            ""
        };
        row.extend([
            views.join(", "),
            format!("{}{}", corners.join(", "), original),
        ]);
    }
    out.push_str(&render_table(
        "Fig 9: plans for EC2 [3 stars, 2 corners, 1 view per star]",
        &[
            "Plan #",
            "Execution time (s)",
            "rows",
            "est. cost (measured stats)",
            "Views used",
            "Corner relations used",
        ],
        &table,
    ));
    out.push_str(&format!(
        "\nmeasured join selectivity: {:.6} ({} samples); measured set fan-out: {:.2} ({} samples)\n",
        model.join_selectivity,
        model.selectivity_samples,
        model.fanout,
        model.fanout_samples,
    ));
    out
}

/// Figure 10 — the benefit of optimization: Redux and ReduxFirst time
/// reductions for growing EC2 instances on datasets of `args.rows` tuples
/// per relation.
///
/// ```text
/// Redux      = (ExT − (ExTBest + OptT))          / ExT
/// ReduxFirst = (ExT − (ExTBest + OptT/#plans))   / ExT
/// ```
///
/// where `OptT` is C&B (OQF) optimization time, `ExT` the execution time of
/// the original query and `ExTBest` the execution time of the best generated
/// plan. Negative values mean optimization did not pay off at this dataset
/// scale (the paper does not display them); our in-memory engine executes
/// the 5 000-tuple dataset orders of magnitude faster than 1999 DB2, so the
/// paper's shape appears at larger `--rows`.
pub fn fig10_redux(args: &FigureArgs) -> String {
    let rows = args.rows;
    // The paper's x-axis: [#stars, #corners per star, #views per star].
    let points: &[(usize, usize, usize)] = match args.scale {
        Scale::Paper => &[
            (2, 2, 1),
            (2, 3, 1),
            (2, 4, 1),
            (3, 2, 1),
            (3, 3, 1),
            (3, 4, 1),
            (2, 3, 2),
            (2, 4, 2),
            (3, 3, 2),
            (2, 4, 3),
            (3, 4, 2),
        ],
        Scale::Smoke => &[(2, 2, 1)],
    };
    let mut table = Vec::new();
    for &(s, c, v) in points {
        let ec2 = Ec2::new(s, c, v);
        let db = ec2.generate(Ec2DataSpec {
            rows,
            ..Ec2DataSpec::default()
        });
        let q = ec2.query();
        let opt = Optimizer::new(ec2.schema());
        let res = opt.optimize(&q, &args.config(Strategy::Oqf));
        if res.timed_out || res.plans.is_empty() {
            let mut row = vec![format!("[{s},{c},{v}]")];
            row.resize(6, cell(None));
            table.push(row);
            continue;
        }
        let elapsed = |q| execute(&db, q).expect("plan executes").stats.elapsed;
        let (opt_t, ex_t) = (res.total_time, elapsed(&q));
        // Execute every plan; ExTBest is the fastest (the original query is
        // always among the plans, so ExTBest <= ExT up to noise).
        let ex_best = res
            .plans
            .iter()
            .map(|p| elapsed(&p.query))
            .min()
            .expect("a plan");
        let [opt_s, ex_s, best_s] = [opt_t, ex_t, ex_best].map(|d| d.as_secs_f64());
        let redux = (ex_s - (best_s + opt_s)) / ex_s;
        let redux_first = (ex_s - (best_s + opt_s / res.plans.len() as f64)) / ex_s;
        table.push(vec![
            format!("[{s},{c},{v}]"),
            secs(opt_t),
            secs(ex_t),
            secs(ex_best),
            format!("{:.0}%", redux * 100.0),
            format!("{:.0}%", redux_first * 100.0),
        ]);
    }
    render_table(
        &format!("Fig 10: time reduction [EC2], {rows} tuples/relation"),
        &[
            "[s,c,v]",
            "OptT (s)",
            "ExT (s)",
            "ExTBest (s)",
            "Redux",
            "ReduxFirst",
        ],
        &table,
    )
}

/// Figure 11 (beyond the paper) — the EC4 TPC-style star schema: FB vs OQF
/// vs OCS time-per-plan over a `[#dims, #views, #indexed-FKs]` grid, then
/// per-plan execution detail with cost-model feedback on one instance —
/// every plan's observed cardinalities fold into a single [`CostModel`] and
/// the `est. cost` column re-costs the plan under the *measured* statistics,
/// the ranking an optimizer with execution feedback would use (fig. 9's loop
/// on the star workload). `args.rows` is the fact-table size; every dimension
/// joins at 60 % selectivity.
pub fn fig11_ec4_star(args: &FigureArgs) -> String {
    let (scale, rows) = (args.scale, args.rows);
    let mut out = String::new();
    let points: &[(usize, usize, usize)] = match scale {
        Scale::Paper => &[(3, 1, 0), (3, 2, 1), (4, 2, 1), (4, 3, 2), (4, 4, 2)],
        Scale::Smoke => &[(3, 1, 1)],
    };
    let mut table = Vec::new();
    for &(d, v, j) in points {
        let ec4 = Ec4::new(d, v, j);
        let opt = ec4.optimizer();
        let q = ec4.query();
        let tpp = |strategy| tpp_cell(args, &opt, &q, strategy);
        table.push(vec![
            format!("[{d},{v},{j}]"),
            format!("{}", ec4.constraint_count()),
            tpp(Strategy::Full),
            tpp(Strategy::Oqf),
            tpp(Strategy::Ocs),
        ]);
    }
    out.push_str(&render_table(
        "Fig 11 (top): time per plan [EC4 star schema] — seconds (plan count)",
        &["[d,v,j]", "#constraints", "FB", "OQF", "OCS"],
        &table,
    ));

    // Execution + feedback detail on one instance.
    let (ec4, dim_rows) = match scale {
        Scale::Paper => (Ec4::new(4, 2, 1), rows / 5),
        Scale::Smoke => (Ec4::new(3, 2, 1), rows / 2),
    };
    let db = ec4.generate(Ec4DataSpec {
        fact_rows: rows,
        dim_rows: dim_rows.max(1),
        fk_sel: 0.6,
        ..Ec4DataSpec::default()
    });
    let q = ec4.query();
    let res = ec4.optimizer().optimize(&q, &args.config(Strategy::Oqf));
    let (model, mut table) = execute_with_feedback(&db, &res.plans);
    for (row, p) in table.iter_mut().zip(&res.plans) {
        let physical: Vec<String> = p.physical_used.iter().map(|s| s.to_string()).collect();
        row.push(if physical.is_empty() {
            "(*) original query".into()
        } else {
            physical.join(", ")
        });
    }
    out.push_str(&render_table(
        &format!(
            "Fig 11 (bottom): EC4 [{},{},{}] per-plan execution, {rows} fact rows — costs under measured stats",
            ec4.dims, ec4.views, ec4.indexed
        ),
        &[
            "Plan #",
            "Execution time (s)",
            "rows",
            "est. cost (measured stats)",
            "Views/indexes used",
        ],
        &table,
    ));
    out.push_str(&format!(
        "\nmeasured join selectivity: {:.6} ({} samples)\n",
        model.join_selectivity, model.selectivity_samples,
    ));
    out
}

/// Figure 12 (beyond the paper) — EC5 cyclic joins over an edge relation:
/// FB vs OCS time-per-plan over the cycle shapes (the wedge view is the
/// rewrite target and doubles as the worst-case-optimal building block),
/// then the triangle executed on uniform vs skewed graphs of `args.rows`
/// edges with cost-model feedback — the measured join selectivities differ
/// by distribution, which is exactly the signal the observed-cardinality
/// loop exists to capture.
pub fn fig12_ec5_cyclic(args: &FigureArgs) -> String {
    let edges = args.rows;
    let mut out = String::new();
    let shapes: &[(&str, Ec5)] = match args.scale {
        Scale::Paper => &[
            ("triangle", Ec5::new(3, true, false)),
            ("triangle+index", Ec5::new(3, true, true)),
            ("4-cycle", Ec5::new(4, true, false)),
            ("5-cycle", Ec5::new(5, true, false)),
        ],
        Scale::Smoke => &[("triangle", Ec5::new(3, true, false))],
    };
    let mut table = Vec::new();
    for (label, ec5) in shapes {
        let opt = ec5.optimizer();
        let q = ec5.cycle_query();
        table.push(vec![
            (*label).to_string(),
            format!("{}", ec5.schema().all_constraints().len()),
            tpp_cell(args, &opt, &q, Strategy::Full),
            tpp_cell(args, &opt, &q, Strategy::Ocs),
        ]);
    }
    out.push_str(&render_table(
        "Fig 12 (top): time per plan [EC5 cyclic joins] — seconds (plan count)",
        &["shape", "#constraints", "FB", "OCS"],
        &table,
    ));

    // Uniform vs skewed execution with feedback, on the triangle.
    let ec5 = Ec5::triangle();
    let q = ec5.cycle_query();
    let res = ec5.optimizer().optimize(&q, &args.config(Strategy::Full));
    let mut table = Vec::new();
    for (label, dist) in [
        ("uniform", EdgeDist::Uniform),
        ("skewed γ=2", EdgeDist::Skewed(2.0)),
    ] {
        let db = ec5.generate(Ec5DataSpec {
            nodes: (edges / 5).max(2),
            edges,
            dist,
            ..Ec5DataSpec::default()
        });
        let mut model = CostModel::default().with_cardinalities(db.cardinalities());
        let original = execute(&db, &q).expect("original executes");
        cnb_engine::feed_cost_model(&original.stats, &mut model);
        // Best wedge plan under the measured model.
        let wedge_best = res
            .plans
            .iter()
            .filter(|p| !p.physical_used.is_empty())
            .map(|p| {
                let exec = execute(&db, &p.query).expect("plan executes");
                cnb_engine::feed_cost_model(&exec.stats, &mut model);
                exec.stats.elapsed
            })
            .min();
        // The generic-join operator on the same query: variable-at-a-time
        // leapfrog intersection, intermediates certified within N^(3/2).
        let wcoj = cnb_engine::execute_wcoj(&db, &q).expect("wcoj executes");
        assert_eq!(
            wcoj.rows.len(),
            original.rows.len(),
            "wcoj differs from the binary engine"
        );
        table.push(vec![
            label.to_string(),
            format!("{}", db.table(ec5.wedge()).len()),
            format!("{}", original.rows.len()),
            secs(original.stats.elapsed),
            cell(wedge_best.map(secs)),
            secs(wcoj.stats.elapsed),
            format!("{:.6}", model.join_selectivity),
        ]);
    }
    out.push_str(&render_table(
        &format!(
            "Fig 12 (bottom): triangle on {edges} edges, uniform vs skewed — measured feedback"
        ),
        &[
            "distribution",
            "|W| (wedges)",
            "triangles",
            "edge-plan time (s)",
            "best wedge-plan time (s)",
            "wcoj time (s)",
            "measured join selectivity",
        ],
        &table,
    ));
    out
}

/// §5.3.1 — "Number of plans in EC2": FB vs OQF vs OCS plan counts for the
/// paper's nine (s, c, v) parameter rows, side by side with the paper's
/// values.
pub fn table_plan_counts(args: &FigureArgs) -> String {
    let limit = match args.scale {
        Scale::Paper => PAPER_PLAN_COUNTS.len(),
        Scale::Smoke => 2,
    };

    let mut table = Vec::new();
    for &([s, c, v], [pf, po, pc]) in PAPER_PLAN_COUNTS.iter().take(limit) {
        let ec2 = Ec2::new(s, c, v);
        let opt = Optimizer::new(ec2.schema());
        let q = ec2.query();
        let count = |strategy| {
            args.run(&opt, &q, strategy)
                .map(|r| r.plans.len().to_string())
        };
        table.push(vec![
            format!("{s}"),
            format!("{c}"),
            format!("{v}"),
            cell(count(Strategy::Full)),
            cell(count(Strategy::Oqf)),
            cell(count(Strategy::Ocs)),
            format!("{pf}/{po}/{pc}"),
        ]);
    }
    render_table(
        "Number of plans in EC2 (paper §5.3.1)",
        &["s", "c", "v", "FB", "OQF", "OCS", "paper FB/OQF/OCS"],
        &table,
    )
}
