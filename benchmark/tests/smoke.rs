//! Every workload at smoke size: the names `BENCHMARK.json` lists and
//! nothing else, exact repeats for one seed, other digests for another.

use cnb_benchmark::json::{self, Json};
use cnb_benchmark::{
    run_traced, run_untraced, two_cpus, Report, Size, END_TO_END, PER_LAYER, WORKLOADS,
};

/// `cnb_core`'s `chase_and_backchase_runs` counter is process-wide and the
/// warm serving workloads assert it stands still, so the tests that run
/// workloads take turns.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn turn() -> std::sync::MutexGuard<'static, ()> {
    // A test that failed while holding the lock has already been reported.
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn spec() -> Json {
    json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn listed(spec: &Json, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let text = |key| {
                m.get(key)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn owned(names: &[(&str, &str)]) -> Vec<(String, String)> {
    names
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn digests(report: &Report) -> Vec<u64> {
    report
        .counts
        .iter()
        .filter(|(name, _)| name.ends_with("_digest"))
        .map(|(_, v)| *v)
        .collect()
}

#[test]
fn spec_and_crate_list_the_same_names() {
    let spec = spec();
    let workloads: Vec<String> = listed(&spec, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(listed(&spec, "end_to_end"), owned(&END_TO_END));
    assert_eq!(listed(&spec, "per_layer"), owned(&PER_LAYER));
    assert!(END_TO_END.contains(&("setup_s", "s")));
    let keys: Vec<&str> = spec
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn end_to_end_runs_emit_the_listed_metrics_and_repeat_exactly() {
    let _turn = turn();
    for workload in WORKLOADS {
        let first = run_untraced(workload, 7, Size::Smoke);
        assert_eq!(emitted(&first), owned(&END_TO_END), "{workload}");
        for m in &first.metrics {
            let v = m
                .value
                .unwrap_or_else(|| panic!("{workload}: {} is null", m.name));
            assert!(v.is_finite() && v > 0.0, "{workload}: {} = {v}", m.name);
        }
        assert!(first.correct(), "{workload}: {:?}", first.violations);
        assert!(first.attempted > 0, "{workload}");

        let line = json::parse(&first.result_line()).expect("the result line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["correct", "attempted", "failed", "metrics"],
            "{workload}"
        );

        // Same seed: every count and digest again. Timings may differ.
        let again = run_untraced(workload, 7, Size::Smoke);
        assert_eq!(first.counts, again.counts, "{workload}");
        assert_eq!(first.attempted, again.attempted, "{workload}");

        // Another seed: other inputs, so other digests, and still no failure.
        let other = run_untraced(workload, 8, Size::Smoke);
        assert!(!digests(&first).is_empty(), "{workload}");
        assert_ne!(digests(&first), digests(&other), "{workload}");
        assert_eq!(other.failed_share(), first.failed_share(), "{workload}");
        assert!(other.correct(), "{workload}: {:?}", other.violations);
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_parented_spans() {
    let _turn = turn();
    for workload in WORKLOADS {
        let (report, tracer) = run_traced(workload, 7, Size::Smoke);
        assert_eq!(emitted(&report), owned(&PER_LAYER), "{workload}");
        for m in &report.metrics {
            match m.value {
                Some(v) => assert!(v.is_finite(), "{workload}: {} = {v}", m.name),
                // Only a two-thread metric may be missing, and only on a
                // host that cannot run two threads at once.
                None => assert!(
                    m.name.ends_with("_2t") && !two_cpus(),
                    "{workload}: {}",
                    m.name
                ),
            }
        }
        assert!(report.correct(), "{workload}: {:?}", report.violations);

        let spans = tracer.spans();
        let (parent, children): (&str, &[&str]) = match workload {
            "optimize_cold" => ("sweep", &["core.optimizer.optimize"]),
            "exec_analytic" => (
                "sweep",
                &["engine.eval.execute", "engine.wcoj.execute_wcoj"],
            ),
            _ => ("request", &["engine.serving.plan", "engine.eval.execute"]),
        };
        for child in children {
            let under_parent = spans.iter().filter(|s| s.name == *child).all(|s| {
                s.parent
                    .is_some_and(|p| spans[p as usize].name == parent && s.end_ns >= s.start_ns)
            });
            let any = spans.iter().any(|s| s.name == *child);
            assert!(
                any && under_parent,
                "{workload}: {child} spans under {parent}"
            );
        }
    }
}
