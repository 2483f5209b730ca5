//! # cnb-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation section (§5); the
//! core routines live in [`figs`] so integration tests can smoke-run them.
//! Performance is measured elsewhere: `BENCHMARK.json` + `benchmark/`.
//!
//! Environment knobs:
//! * `CNB_TIMEOUT_SECS` — per-optimization wall-clock budget (default 120,
//!   the paper's 2-minute timeout). Points that exceed it print `—` like the
//!   paper's "missing bars".
//! * `CNB_ROWS` — dataset size for execution experiments (default 5000, the
//!   paper's value).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Measuring wall time is this crate's job; the workspace-wide clippy denial
// of `Instant::now`/`SystemTime::now` (see clippy.toml) does not apply here.
#![allow(clippy::disallowed_methods)]

pub mod figs;

use std::time::Duration;

use cnb_core::prelude::*;

/// The per-optimization timeout (paper: 2 minutes).
pub fn timeout() -> Duration {
    let secs = std::env::var("CNB_TIMEOUT_SECS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(120);
    Duration::from_secs(secs)
}

/// Dataset size for execution experiments (paper: 5000).
pub fn rows() -> usize {
    std::env::var("CNB_ROWS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(5000)
}

/// An optimizer config with the harness timeout applied (figs. 6/7/8 and
/// the plan-count table all route through here).
pub fn config(strategy: Strategy) -> OptimizerConfig {
    OptimizerConfig::with_strategy(strategy).timeout(timeout())
}

/// Formats a duration in seconds, with enough digits for sub-millisecond
/// measurements (our chase runs ~1000× faster than the paper's JVM).
pub fn secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 0.01 {
        format!("{s:.3}")
    } else {
        format!("{s:.6}")
    }
}

/// Formats an optional measurement; `None` renders as the paper's missing
/// bar ("—" = timed out).
pub fn cell(v: Option<String>) -> String {
    v.unwrap_or_else(|| "—".to_string())
}

/// Renders a markdown table to a string.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n### {title}\n\n"));
    out.push_str(&format!("| {} |\n", header.join(" | ")));
    out.push_str(&format!(
        "|{}|\n",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    ));
    for r in rows {
        out.push_str(&format!("| {} |\n", r.join(" | ")));
    }
    out
}

/// Prints a markdown table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(title, header, rows));
}

/// Runs one optimization, returning `None` on timeout (a "missing bar").
pub fn run(
    opt: &Optimizer,
    q: &cnb_ir::prelude::Query,
    strategy: Strategy,
) -> Option<OptimizeResult> {
    let res = opt.optimize(q, &config(strategy));
    if res.timed_out {
        None
    } else {
        Some(res)
    }
}

/// Time-per-plan in seconds — the paper's normalized §5.3.2 measure.
pub fn tpp(res: &OptimizeResult) -> f64 {
    if res.plans.is_empty() {
        f64::NAN
    } else {
        res.total_time.as_secs_f64() / res.plans.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_renders_missing() {
        assert_eq!(cell(None), "—");
        assert_eq!(cell(Some("1.0".into())), "1.0");
    }

    #[test]
    fn secs_format() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
    }
}
