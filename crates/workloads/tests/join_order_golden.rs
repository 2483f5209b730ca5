//! Golden join orders: what `execute`'s greedy planner chooses, plan by plan.
//!
//! The planner picks each step's binding, access and filters; `plan` then
//! fuses index pairs into `dict_join`s and marks folded hash joins. None of
//! the differentials can see an order change — the oracle `execute_legacy`
//! runs the same planner — so every plan `optimize()` emits for each
//! `suite()` family, and each family's query as written, is pinned here at
//! [`DataScale::smoke`], on EC5's skewed graph too. Each line holds the
//! chosen order, the operator kinds in pipeline order, `tuples_considered`
//! and `index_entries_built` — the one count that shows a fold was taken,
//! since a folded probe reports the unfolded cascade. Recorded from the
//! planner before it was rewritten around one probe rule; every line must
//! stay exactly what it was, in the release profile as much as in debug.

use cnb_engine::{execute, Database, ExecStats};
use cnb_ir::prelude::Query;
use cnb_workloads::{suite, DataScale};

/// One golden line: `label: order … | operators … | considered N | built M`.
fn line(label: &str, stats: &ExecStats) -> String {
    let order: Vec<String> = stats.order.iter().map(ToString::to_string).collect();
    let ops: Vec<&str> = stats.operators.iter().map(|o| o.op).collect();
    format!(
        "{label}: order {} | {} | considered {} | built {}",
        order.join(" "),
        ops.join(" "),
        stats.tuples_considered,
        stats.index_entries_built
    )
}

/// The lines of one dataset: the query as written, then every emitted plan.
fn lines(out: &mut Vec<String>, name: &str, db: &Database, query: &Query, plans: &[Query]) {
    let run = |q: &Query| execute(db, q).unwrap().stats;
    out.push(line(&format!("{name} query"), &run(query)));
    for (i, p) in plans.iter().enumerate() {
        out.push(line(&format!("{name} plan {i}"), &run(p)));
    }
}

#[test]
fn every_plan_keeps_its_join_order() {
    let scale = DataScale::smoke();
    let mut got = Vec::new();
    for w in suite() {
        let res = w.optimize();
        assert!(!res.timed_out, "{}: optimization timed out", w.name());
        let plans: Vec<Query> = res.plans.into_iter().map(|p| p.query).collect();
        let query = w.query();
        lines(&mut got, w.name(), &w.generate_at(scale), &query, &plans);
        if let Some(db) = w.generate_skewed_at(scale) {
            lines(
                &mut got,
                &format!("{} skewed", w.name()),
                &db,
                &query,
                &plans,
            );
        }
    }
    let want: Vec<&str> = GOLDEN.lines().collect();
    let got: Vec<&str> = got.iter().map(String::as_str).collect();
    assert_eq!(got, want, "now:\n{}", got.join("\n"));
}

const GOLDEN: &str = "\
EC1 query: order 0 1 2 | scan hash_join hash_join | considered 279 | built 400
EC1 plan 0: order 0 1 2 3 | dom_scan path_set filter filter dom_probe filter dom_probe filter | considered 456 | built 0
EC1 plan 1: order 0 1 2 | dom_scan filter dom_probe filter dom_probe filter | considered 279 | built 0
EC1 plan 2: order 0 1 2 3 | dom_scan path_set filter filter dom_probe filter hash_join filter | considered 456 | built 200
EC1 plan 3: order 0 1 2 3 | dom_scan path_set filter filter hash_join filter dom_probe filter | considered 456 | built 200
EC1 plan 4: order 0 1 2 | dom_scan filter dom_probe filter hash_join filter | considered 279 | built 200
EC1 plan 5: order 0 1 2 | dom_scan filter hash_join filter dom_probe filter | considered 279 | built 200
EC1 plan 6: order 0 1 2 | scan filter dom_probe filter dom_probe filter | considered 279 | built 0
EC1 plan 7: order 0 1 2 3 | dom_scan path_set filter filter hash_join filter hash_join filter | considered 456 | built 400
EC1 plan 8: order 0 1 2 | dom_scan filter hash_join filter hash_join filter | considered 279 | built 400
EC1 plan 9: order 0 1 2 | scan filter dom_probe filter hash_join filter | considered 279 | built 200
EC1 plan 10: order 0 1 2 | scan filter hash_join filter dom_probe filter | considered 279 | built 200
EC1 plan 11: order 0 1 2 | scan filter hash_join filter hash_join filter | considered 279 | built 400
EC2 query: order 0 1 2 3 4 5 | scan hash_join hash_join hash_join hash_join hash_join | considered 1027 | built 1000
EC2 plan 0: order 0 1 2 | scan hash_join hash_join | considered 555 | built 478
EC2 plan 1: order 0 1 2 3 | scan hash_join hash_join hash_join | considered 770 | built 627
EC2 plan 2: order 0 1 2 3 4 | scan hash_join hash_join hash_join hash_join | considered 606 | built 851
EC2 plan 3: order 0 1 2 3 4 5 | scan hash_join hash_join hash_join hash_join hash_join | considered 1027 | built 1000
EC3 query: order 0 1 2 3 | dom_scan path_set dom_probe path_set | considered 1056 | built 0
EC3 plan 0: order 0 | scan | considered 594 | built 0
EC3 plan 1: order 0 1 2 | dom_scan path_set path_set | considered 858 | built 0
EC3 plan 2: order 0 1 2 3 | dom_scan path_set dict_join | considered 858 | built 189
EC3 plan 3: order 0 1 2 3 | dom_scan path_set dict_join | considered 858 | built 189
EC3 plan 4: order 0 1 2 3 | dom_scan path_set dom_probe path_set | considered 1056 | built 0
EC4 query: order 1 0 2 3 | scan hash_join hash_join hash_join | considered 351 | built 400
EC4 plan 0: order 4 2 3 0 1 | scan dict_join filter hash_join hash_join | considered 340 | built 366
EC4 plan 1: order 0 2 3 1 4 | scan dict_join filter hash_join hash_join | considered 357 | built 348
EC4 plan 2: order 0 2 3 1 4 | scan dom_probe path_set filter hash_join hash_join | considered 420 | built 227
EC4 plan 3: order 3 0 1 2 | scan hash_join hash_join hash_join | considered 340 | built 448
EC4 plan 4: order 0 2 3 1 4 | scan dom_probe path_set filter hash_join hash_join | considered 420 | built 200
EC4 plan 5: order 1 0 2 3 | scan hash_join hash_join hash_join | considered 357 | built 421
EC4 plan 6: order 1 0 2 3 | scan hash_join hash_join hash_join | considered 351 | built 427
EC4 plan 7: order 1 0 2 3 | scan hash_join hash_join hash_join | considered 351 | built 400
EC5 query: order 0 1 2 | scan hash_join hash_join filter | considered 8734 | built 800
EC5 plan 0: order 0 1 | scan hash_join filter filter | considered 29315 | built 3248
EC5 plan 1: order 0 1 | scan hash_join filter filter | considered 34528 | built 3248
EC5 plan 2: order 0 1 | scan hash_join filter filter | considered 34699 | built 3248
EC5 plan 3: order 0 1 | scan hash_join filter | considered 7110 | built 3248
EC5 plan 4: order 0 1 | scan hash_join filter | considered 7110 | built 3248
EC5 plan 5: order 0 1 | scan hash_join filter | considered 7110 | built 3248
EC5 plan 6: order 0 1 2 | scan hash_join hash_join filter | considered 8734 | built 800
EC5 plan 7: order 0 1 2 | scan hash_join hash_join filter | considered 8734 | built 800
EC5 skewed query: order 0 1 2 | scan hash_join hash_join filter | considered 2232242 | built 1200
EC5 skewed plan 0: order 0 1 | scan hash_join filter filter | considered 132717019 | built 72902
EC5 skewed plan 1: order 0 1 | scan hash_join filter filter | considered 326029780 | built 72902
EC5 skewed plan 2: order 0 1 | scan hash_join filter filter | considered 312120649 | built 72902
EC5 skewed plan 3: order 0 1 | scan hash_join filter | considered 2195791 | built 72902
EC5 skewed plan 4: order 0 1 | scan hash_join filter | considered 2195791 | built 72902
EC5 skewed plan 5: order 0 1 | scan hash_join filter | considered 2195791 | built 72902
EC5 skewed plan 6: order 0 1 2 | scan hash_join hash_join filter | considered 2232242 | built 1200
EC5 skewed plan 7: order 0 1 2 | scan hash_join hash_join filter | considered 2232242 | built 1200
";
