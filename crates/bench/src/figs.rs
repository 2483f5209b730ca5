//! Core routines of the nine experiment binaries (fig. 5 – fig. 10 and the
//! §5.3.1 plan-count table from the paper, plus the post-paper figs. 11/12
//! for the EC4 star-schema and EC5 cyclic-join workloads), extracted from
//! the `src/bin/` drivers so integration tests can smoke-run every figure
//! with tiny parameters — the binaries themselves just print the returned
//! markdown.
//!
//! The optimization figures (6/7/8 and the plan-count table) have no thread
//! knob: both backchase searches are sequential (see `cnb_core::backchase`),
//! so rendered tables differ from run to run only in the timing columns.

use crate::{cell, config, render_table, run, secs, tpp};
use cnb_core::prelude::*;
use cnb_engine::datagen::EdgeDist;
use cnb_engine::execute;
use cnb_workloads::{
    ec2::Ec2DataSpec, ec4::Ec4DataSpec, ec5::Ec5DataSpec, Ec1, Ec2, Ec3, Ec4, Ec5, Workload,
};
use std::time::Instant;

/// Grid size for a figure routine: the paper's full parameter grid, or a
/// tiny grid for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The grids of §5 (what the binaries run).
    Paper,
    /// A seconds-scale subset proving the routine end to end.
    Smoke,
}

fn chase_time(q: &cnb_ir::prelude::Query, cs: &[cnb_ir::prelude::Constraint]) -> (f64, usize) {
    let start = Instant::now();
    let (db, stats) = chase_query(q, cs, ChaseConfig::default());
    assert!(!stats.truncated, "chase must reach a fixpoint");
    (start.elapsed().as_secs_f64(), db.query.from.len())
}

/// Figure 5 — time to chase as schema/query parameters grow, for all three
/// experimental configurations.
pub fn fig5_chase_time(scale: Scale) -> String {
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
        let cs = ec1.schema().all_constraints();
        let (t, arity) = chase_time(&ec1.query(), &cs);
        t1.push(vec![
            format!("{}", ec1.index_count()),
            format!("{}", cs.len()),
            secs(std::time::Duration::from_secs_f64(t)),
            format!("{arity}"),
        ]);
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
        let label = format!(
            "{} views+{} keys = {}",
            ec2_s * v,
            ec2_s,
            2 * ec2_s * v + ec2_s
        );
        for &c in ec2_cs {
            if v + 1 > c {
                continue;
            }
            let ec2 = Ec2::new(ec2_s, c, v);
            let cs = ec2.schema().all_constraints();
            let (t, arity) = chase_time(&ec2.query(), &cs);
            t2.push(vec![
                label.clone(),
                format!("{}", ec2.query_size()),
                format!("{}", cs.len()),
                secs(std::time::Duration::from_secs_f64(t)),
                format!("{arity}"),
            ]);
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
        let ec3 = Ec3::new(n, (n - 1) / 2);
        let cs = ec3.schema().all_constraints();
        let (t, arity) = chase_time(&ec3.query(), &cs);
        t3.push(vec![
            format!("{n}"),
            format!("{}", cs.len()),
            secs(std::time::Duration::from_secs_f64(t)),
            format!("{arity}"),
        ]);
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

/// Figure 6 — time per generated plan, FB vs OQF vs OCS, on EC1 (right
/// panel) and EC3 (left panel, where OQF degenerates into FB).
pub fn fig6_tpp_ec1_ec3(scale: Scale) -> String {
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
        let fmt = |strategy| {
            run(&opt, &q, strategy).map(|r| format!("{:.4} ({} plans)", tpp(&r), r.plans.len()))
        };
        t1.push(vec![
            format!("[{n},{j}]"),
            cell(fmt(Strategy::Full)),
            cell(fmt(Strategy::Oqf)),
            cell(fmt(Strategy::Ocs)),
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
        let fmt = |strategy| {
            run(&opt, &q, strategy).map(|r| format!("{:.4} ({} plans)", tpp(&r), r.plans.len()))
        };
        t3.push(vec![
            format!("{n}"),
            cell(fmt(Strategy::Full)),
            cell(fmt(Strategy::Ocs)),
        ]);
    }
    out.push_str(&render_table(
        "Fig 6 (left): time per plan [EC3] — seconds (plan count)",
        &["#classes traversed", "FB (=OQF)", "OCS"],
        &t3,
    ));
    out
}

/// Figure 7 — time per generated plan on EC2 over the paper's
/// [#views per star, #stars, star size] grid.
pub fn fig7_tpp_ec2(scale: Scale) -> String {
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
    let points = match scale {
        Scale::Paper => paper_points,
        Scale::Smoke => &paper_points[..2],
    };
    let mut table = Vec::new();
    for &(v, s, c) in points {
        let ec2 = Ec2::new(s, c, v);
        let opt = Optimizer::new(ec2.schema());
        let q = ec2.query();
        let fmt = |strategy| {
            run(&opt, &q, strategy).map(|r| format!("{:.4} ({})", tpp(&r), r.plans.len()))
        };
        table.push(vec![
            format!("[{v},{s},{c}]"),
            format!("{}", ec2.query_size()),
            format!("{}", ec2.constraint_count()),
            cell(fmt(Strategy::Full)),
            cell(fmt(Strategy::Oqf)),
            cell(fmt(Strategy::Ocs)),
        ]);
    }
    render_table(
        "Fig 7: time per plan [EC2] — seconds (plan count); — = timeout",
        &["[v,s,c]", "query size", "#constraints", "FB", "OQF", "OCS"],
        &table,
    )
}

fn normalized_times(
    opt: &Optimizer,
    q: &cnb_ir::prelude::Query,
    group_sizes: &[usize],
) -> Vec<Option<f64>> {
    let mut times = Vec::new();
    for &g in group_sizes {
        let mut cfg = config(Strategy::Ocs);
        cfg.stratum_group_size = Some(g);
        let res = opt.optimize(q, &cfg);
        times.push(if res.timed_out {
            None
        } else {
            Some(res.total_time.as_secs_f64())
        });
    }
    // Normalize by the stratum-size-1 time (the paper's y-axis).
    let base = times[0].unwrap_or(1.0);
    times
        .into_iter()
        .map(|t| t.map(|t| t / base.max(1e-9)))
        .collect()
}

/// Figure 8 — effect of stratification granularity on optimization time:
/// stratum size 1 = OCS; merging everything approaches FB.
pub fn fig8_stratification(scale: Scale) -> String {
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
        let ec3 = Ec3::new(n, 0);
        let opt = Optimizer::new(ec3.schema());
        let q = ec3.query();
        let norm = normalized_times(&opt, &q, group_sizes);
        let mut row = vec![format!("EC3 with {n} classes")];
        row.extend(norm.into_iter().map(|t| cell(t.map(|t| format!("{t:.2}")))));
        table.push(row);
    }
    if let Some((s, c, v)) = ec2_point {
        let ec2 = Ec2::new(s, c, v);
        let opt = Optimizer::new(ec2.schema());
        let q = ec2.query();
        let norm = normalized_times(&opt, &q, group_sizes);
        let mut row = vec![format!("EC2 [{s},{c},{v}]")];
        row.extend(norm.into_iter().map(|t| cell(t.map(|t| format!("{t:.2}")))));
        table.push(row);
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
/// 2 corners per star, 1 view per star → 8 plans) with per-plan execution
/// times on a dataset of `rows` tuples per relation.
///
/// Exercises the cardinality-feedback loop end to end: every plan's
/// per-operator observed cardinalities are folded into one cost model
/// (`cnb_engine::feed_cost_model`), and the table's last column re-costs
/// each plan with the *measured* selectivities — the ordering an optimizer
/// with execution feedback would use.
pub fn fig9_plan_detail(rows: usize) -> String {
    let ec2 = Ec2::new(3, 2, 1);
    let spec = Ec2DataSpec {
        rows,
        ..Ec2DataSpec::default()
    };
    let db = ec2.generate(spec);
    let q = ec2.query();
    let opt = Optimizer::new(ec2.schema());
    let res = opt.optimize(&q, &config(Strategy::Oqf));
    let mut out = format!(
        "# Stars: 3, # Corners per star: 2, # Views per star: 1. {} plans generated. Time to generate all plans: {}s\n",
        res.plans.len(),
        secs(res.total_time)
    );

    // Pass 1: execute every plan, feeding observed stats into one model.
    let mut model = CostModel::default().with_cardinalities(db.cardinalities());
    let execs: Vec<cnb_engine::ExecResult> = res
        .plans
        .iter()
        .map(|p| {
            let exec = execute(&db, &p.query).expect("plan executes");
            cnb_engine::feed_cost_model(&exec.stats, &mut model);
            exec
        })
        .collect();

    // Pass 2: render, re-costing each plan under the measured model.
    let mut table = Vec::new();
    for (i, (p, exec)) in res.plans.iter().zip(&execs).enumerate() {
        let views: Vec<String> = p.physical_used.iter().map(|s| s.to_string()).collect();
        let corners: Vec<String> = p
            .query
            .from
            .iter()
            .filter_map(|b| match &b.range {
                cnb_ir::prelude::Range::Name(s) if s.as_str().starts_with('S') => {
                    Some(s.to_string())
                }
                _ => None,
            })
            .collect();
        let original = if views.is_empty() {
            " (*) original query"
        } else {
            ""
        };
        table.push(vec![
            format!("{}", i + 1),
            secs(exec.stats.elapsed),
            format!("{}", exec.rows.len()),
            format!("{:.0}", model.cost(&p.query)),
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
/// reductions for growing EC2 instances on datasets of `rows` tuples per
/// relation.
///
/// ```text
/// Redux      = (ExT − (ExTBest + OptT))          / ExT
/// ReduxFirst = (ExT − (ExTBest + OptT/#plans))   / ExT
/// ```
pub fn fig10_redux(scale: Scale, rows: usize) -> String {
    // The paper's x-axis: [#stars, #corners per star, #views per star].
    let points: &[(usize, usize, usize)] = match scale {
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
        let res = opt.optimize(&q, &config(Strategy::Oqf));
        if res.timed_out || res.plans.is_empty() {
            table.push(vec![
                format!("[{s},{c},{v}]"),
                "—".into(),
                "—".into(),
                "—".into(),
                "—".into(),
                "—".into(),
            ]);
            continue;
        }
        let opt_t = res.total_time.as_secs_f64();
        let ex_t = execute(&db, &q)
            .expect("original executes")
            .stats
            .elapsed
            .as_secs_f64();
        // Execute every plan; ExTBest is the fastest (the original query is
        // always among the plans, so ExTBest <= ExT up to noise).
        let ex_best = res
            .plans
            .iter()
            .map(|p| {
                execute(&db, &p.query)
                    .expect("plan executes")
                    .stats
                    .elapsed
                    .as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let redux = (ex_t - (ex_best + opt_t)) / ex_t;
        let redux_first = (ex_t - (ex_best + opt_t / res.plans.len() as f64)) / ex_t;
        table.push(vec![
            format!("[{s},{c},{v}]"),
            secs(std::time::Duration::from_secs_f64(opt_t)),
            secs(std::time::Duration::from_secs_f64(ex_t)),
            secs(std::time::Duration::from_secs_f64(ex_best)),
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
/// the last column re-costs the plan under the *measured* statistics, the
/// ranking an optimizer with execution feedback would use (fig. 9's loop on
/// the new workload).
pub fn fig11_ec4_star(scale: Scale, rows: usize) -> String {
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
        let fmt = |strategy| {
            run(&opt, &q, strategy).map(|r| format!("{:.4} ({})", tpp(&r), r.plans.len()))
        };
        table.push(vec![
            format!("[{d},{v},{j}]"),
            format!("{}", ec4.constraint_count()),
            cell(fmt(Strategy::Full)),
            cell(fmt(Strategy::Oqf)),
            cell(fmt(Strategy::Ocs)),
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
    let res = ec4.optimizer().optimize(&q, &config(Strategy::Oqf));
    let mut model = CostModel::default().with_cardinalities(db.cardinalities());
    let execs: Vec<cnb_engine::ExecResult> = res
        .plans
        .iter()
        .map(|p| {
            let exec = execute(&db, &p.query).expect("plan executes");
            cnb_engine::feed_cost_model(&exec.stats, &mut model);
            exec
        })
        .collect();
    let mut table = Vec::new();
    for (i, (p, exec)) in res.plans.iter().zip(&execs).enumerate() {
        let physical: Vec<String> = p.physical_used.iter().map(|s| s.to_string()).collect();
        table.push(vec![
            format!("{}", i + 1),
            secs(exec.stats.elapsed),
            format!("{}", exec.rows.len()),
            format!("{:.0}", model.cost(&p.query)),
            if physical.is_empty() {
                "(*) original query".into()
            } else {
                physical.join(", ")
            },
        ]);
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

/// Figure 12 (beyond the paper) — EC5 cyclic joins: FB vs OCS time-per-plan
/// over the cycle shapes (the wedge view doubles as the worst-case-optimal
/// building block), then the triangle executed on uniform vs skewed graphs
/// with cost-model feedback — the measured join selectivities differ by
/// distribution, which is exactly the signal the observed-cardinality loop
/// exists to capture.
pub fn fig12_ec5_cyclic(scale: Scale, edges: usize) -> String {
    let mut out = String::new();
    let shapes: &[(&str, Ec5)] = match scale {
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
        let fmt = |strategy| {
            run(&opt, &q, strategy).map(|r| format!("{:.4} ({})", tpp(&r), r.plans.len()))
        };
        table.push(vec![
            (*label).to_string(),
            format!("{}", ec5.schema().all_constraints().len()),
            cell(fmt(Strategy::Full)),
            cell(fmt(Strategy::Ocs)),
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
    let res = ec5.optimizer().optimize(&q, &config(Strategy::Full));
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
pub fn table_plan_counts(scale: Scale) -> String {
    let rows_spec: &[(usize, usize, usize)] = &[
        (1, 3, 1),
        (1, 3, 2),
        (1, 4, 3),
        (1, 5, 1),
        (1, 5, 2),
        (1, 5, 3),
        (1, 5, 4),
        (2, 5, 1),
        (3, 5, 1),
    ];
    // Paper values for side-by-side comparison.
    let paper: &[(usize, usize, usize)] = &[
        (2, 2, 2),
        (4, 4, 3),
        (7, 7, 5),
        (2, 2, 2),
        (4, 4, 3),
        (7, 7, 5),
        (13, 13, 8),
        (4, 4, 4),
        (8, 8, 8),
    ];
    let limit = match scale {
        Scale::Paper => rows_spec.len(),
        Scale::Smoke => 2,
    };

    let mut table = Vec::new();
    for (&(s, c, v), &(pf, po, pc)) in rows_spec.iter().zip(paper).take(limit) {
        let ec2 = Ec2::new(s, c, v);
        let opt = Optimizer::new(ec2.schema());
        let q = ec2.query();
        let count = |strategy| run(&opt, &q, strategy).map(|r| r.plans.len().to_string());
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
