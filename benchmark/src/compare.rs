//! Compares two result sets under the bounds of `BENCHMARK.json`.
//!
//! A result set is a directory of result files as `cnb-benchmark --out`
//! writes them: any number of runs per workload, told apart by seed. Per
//! (metric, workload) the verdict is
//!
//! * `regressed` — B's median is worse than A's by more than the bound, an
//!   exact count differs for a seed both sets ran, or B failed operations
//!   that A did not;
//! * `unresolved` — the runs of one side are spread wider than the bound,
//!   unless every run of B is better than every run of A;
//! * `ok` — otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::stats::{median, spread};

/// What [`compare`] found.
pub struct Outcome {
    /// One row per (metric, workload).
    pub table: String,
    /// True when any row is `regressed`.
    pub regressed: bool,
}

/// One side's results for one workload.
#[derive(Default)]
struct Runs {
    /// Metric → one value per run.
    values: BTreeMap<String, Vec<f64>>,
    /// (seed, traced) → exact counts of that run.
    counts: BTreeMap<(u64, bool), Vec<(String, String)>>,
    failed: u64,
}

fn load(dir: &Path) -> Result<BTreeMap<String, Runs>, String> {
    let mut set: BTreeMap<String, Runs> = BTreeMap::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or(format!("{}: no '{key}'", path.display()))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or_default() as u64;
        let traced = field("traced")? == &Json::Bool(true);
        let runs = set.entry(workload).or_default();
        runs.failed += field("failed")?.as_f64().unwrap_or_default() as u64;
        let mut exact: Vec<(String, String)> = field("counts")?
            .as_obj()
            .unwrap_or_default()
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
            .collect();
        for (name, entry) in field("metrics")?.as_obj().unwrap_or_default() {
            if let Some(v) = entry.get("value").and_then(Json::as_f64) {
                runs.values.entry(name.clone()).or_default().push(v);
            }
            // Per-layer metrics with the unit `count` are exact too.
            if entry.get("unit").and_then(Json::as_str) == Some("count") {
                let value = entry.get("value").map_or_else(String::new, Json::render);
                exact.push((name.clone(), value));
            }
        }
        runs.counts.insert((seed, traced), exact);
    }
    Ok(set)
}

/// Compares the result sets in directories `a` (the base) and `b`.
pub fn compare(spec: &Path, a: &Path, b: &Path) -> Result<Outcome, String> {
    let spec_text =
        std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let spec = json::parse(&spec_text).map_err(|e| format!("{}: {e}", spec.display()))?;
    let (set_a, set_b) = (load(a)?, load(b)?);
    let mut table = format!(
        "{:<22} {:<16} {:>14} {:>14} {:>8} {:>7}  verdict\n",
        "metric", "workload", "A median", "B median", "worse by", "spread"
    );
    let mut regressed = false;
    let mut row = |metric: &str, workload: &str, cells: String, verdict: &str| {
        regressed |= verdict == "regressed";
        table.push_str(&format!("{metric:<22} {workload:<16} {cells}  {verdict}\n"));
    };
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec has no end_to_end")?;
    for (workload, runs_a) in &set_a {
        let Some(runs_b) = set_b.get(workload) else {
            continue;
        };
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let lower = m.get("better").and_then(Json::as_str) != Some("higher");
            let (Some(va), Some(vb)) = (runs_a.values.get(name), runs_b.values.get(name)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let worse = if lower {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let wide = spread(va).max(spread(vb));
            let better = |x: f64, y: f64| if lower { x < y } else { x > y };
            let all_better = vb.iter().all(|x| va.iter().all(|y| better(*x, *y)));
            let verdict = if wide > bound && !all_better {
                "unresolved"
            } else if worse > bound {
                "regressed"
            } else {
                "ok"
            };
            let cells = format!(
                "{ma:>14.6} {mb:>14.6} {:>+7.1}% {:>6.1}%",
                worse * 100.0,
                wide * 100.0
            );
            row(name, workload, cells, verdict);
        }
        let mut differing = Vec::new();
        for (run, counts_a) in &runs_a.counts {
            let Some(counts_b) = runs_b.counts.get(run) else {
                continue;
            };
            for (name, value) in counts_a {
                if counts_b.iter().any(|(n, v)| n == name && v != value) {
                    differing.push(format!("{name}@seed{}", run.0));
                }
            }
        }
        let verdict = if differing.is_empty() {
            "ok"
        } else {
            "regressed"
        };
        row(
            "exact counts",
            workload,
            format!("{:>61}", differing.join(" ")),
            verdict,
        );
        let verdict = if runs_b.failed > runs_a.failed {
            "regressed"
        } else {
            "ok"
        };
        row(
            "failed operations",
            workload,
            format!("{:>14} {:>14} {:>31}", runs_a.failed, runs_b.failed, ""),
            verdict,
        );
    }
    Ok(Outcome { table, regressed })
}
