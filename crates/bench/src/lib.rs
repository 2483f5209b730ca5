//! # cnb-bench — the experiment harness
//!
//! The paper's evaluation section (§5) as one command,
//! `figures <name> [--rows N] [--timeout SECS]`, which prints one table or
//! figure as markdown. [`FIGURES`] is the registry the command dispatches on
//! and `tests/smoke.rs` runs; the routines live in [`figs`]. Performance is
//! measured elsewhere: `BENCHMARK.json` + `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figs;

use std::fmt;
use std::time::Duration;

use cnb_core::prelude::*;
use cnb_ir::prelude::Query;

/// Grid size for a figure routine: the paper's full parameter grid, or a
/// tiny grid for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The grids of §5 (what `figures` runs).
    Paper,
    /// A seconds-scale subset proving the routine end to end.
    Smoke,
}

/// Everything a figure routine reads besides its own grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FigureArgs {
    /// Which grid to run.
    pub scale: Scale,
    /// Dataset size for the execution experiments: tuples per relation
    /// (figs. 9 and 10), fact rows (fig. 11), edges (fig. 12). `--rows`;
    /// default 5 000, the paper's §5.4 dataset size.
    pub rows: usize,
    /// Per-optimization wall-clock budget. `--timeout`; default 120 s, the
    /// paper's 2-minute timeout. Points that exceed it print `—`, like the
    /// paper's missing bars.
    pub timeout: Duration,
}

impl Default for FigureArgs {
    fn default() -> FigureArgs {
        FigureArgs {
            scale: Scale::Paper,
            rows: 5000,
            timeout: Duration::from_secs(120),
        }
    }
}

impl FigureArgs {
    /// An optimizer config with this run's timeout applied (every
    /// optimization of every figure routes through here).
    pub fn config(&self, strategy: Strategy) -> OptimizerConfig {
        OptimizerConfig::with_strategy(strategy).timeout(self.timeout)
    }

    /// Runs one optimization, returning `None` on timeout (a "missing bar").
    pub fn run(&self, opt: &Optimizer, q: &Query, strategy: Strategy) -> Option<OptimizeResult> {
        let res = opt.optimize(q, &self.config(strategy));
        (!res.timed_out).then_some(res)
    }
}

/// One registry entry: a figure's command-line name, one line on what it
/// shows, and the routine that renders it as markdown.
pub type Figure = (&'static str, &'static str, fn(&FigureArgs) -> String);

/// Every table and figure of §5, plus figs. 11/12 for the post-paper EC4
/// and EC5 workloads. Adding a figure is adding an entry here.
#[rustfmt::skip]
pub const FIGURES: [Figure; 9] = [
    ("fig5", "time to chase, EC1/EC2/EC3", figs::fig5_chase_time),
    ("fig6", "time per plan, FB vs OQF vs OCS, on EC1 and EC3", figs::fig6_tpp_ec1_ec3),
    ("fig7", "time per plan on the EC2 grid", figs::fig7_tpp_ec2),
    ("fig8", "stratum size vs optimization time", figs::fig8_stratification),
    ("fig9", "per-plan execution detail on one EC2 instance", figs::fig9_plan_detail),
    ("fig10", "Redux / ReduxFirst time reductions on EC2", figs::fig10_redux),
    ("plan-counts", "§5.3.1 plan counts on EC2, beside the paper's", figs::table_plan_counts),
    ("fig11", "EC4 star schema (beyond the paper)", figs::fig11_ec4_star),
    ("fig12", "EC5 cyclic joins (beyond the paper)", figs::fig12_ec5_cyclic),
];

/// The usage text above the figure list.
const USAGE: &str = "usage: figures <name> [--rows N] [--timeout SECS]
  --rows N        dataset size of figs. 9-12 (default 5000)
  --timeout SECS  budget per optimization (default 120)
names:";

/// Why a `figures` command line was refused. Its `Display` ends with the
/// usage text, which lists every figure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UsageError {
    /// No figure named.
    NoFigure,
    /// A name that is not in [`FIGURES`].
    UnknownFigure(String),
    /// An argument that is neither a flag nor the first figure name.
    Unexpected(String),
    /// A flag with no value after it.
    MissingValue(&'static str),
    /// A value that is not a number, or a `--rows` of 0.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// What followed it.
        value: String,
    },
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::NoFigure => write!(f, "no figure named")?,
            UsageError::UnknownFigure(name) => write!(f, "unknown figure `{name}`")?,
            UsageError::Unexpected(arg) => write!(f, "unexpected argument `{arg}`")?,
            UsageError::MissingValue(flag) => write!(f, "{flag} needs a value")?,
            UsageError::BadValue { flag, value } => write!(f, "bad {flag} value `{value}`")?,
        }
        write!(f, "\n{USAGE}")?;
        for (name, about, _) in &FIGURES {
            write!(f, "\n  {name:<12} {about}")?;
        }
        Ok(())
    }
}

/// Reads a `figures` command line, program name excluded: one figure name
/// and any of `--rows N` (N ≥ 1) and `--timeout SECS`, in any order.
pub fn parse_args(args: &[String]) -> Result<(&'static Figure, FigureArgs), UsageError> {
    let mut figure = None;
    let mut out = FigureArgs::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        // The number after `flag`, at least `min`.
        let mut value = |flag, min| {
            let value = args.next().ok_or(UsageError::MissingValue(flag))?;
            match value.parse::<u64>() {
                Ok(n) if n >= min => Ok(n),
                _ => Err(UsageError::BadValue {
                    flag,
                    value: value.clone(),
                }),
            }
        };
        match arg.as_str() {
            "--rows" => out.rows = value("--rows", 1)? as usize,
            "--timeout" => out.timeout = Duration::from_secs(value("--timeout", 0)?),
            name if figure.is_none() && !name.starts_with('-') => {
                let fig = FIGURES.iter().find(|(n, ..)| *n == name);
                figure = Some(fig.ok_or_else(|| UsageError::UnknownFigure(name.into()))?);
            }
            other => return Err(UsageError::Unexpected(other.into())),
        }
    }
    Ok((figure.ok_or(UsageError::NoFigure)?, out))
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

    fn parse(line: &str) -> Result<(&'static str, FigureArgs), UsageError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args).map(|((name, ..), args)| (*name, args))
    }

    #[test]
    fn flags_override_the_paper_defaults_in_any_order() {
        let paper = FigureArgs::default();
        assert_eq!(parse("fig9"), Ok(("fig9", paper)));
        let small = FigureArgs {
            rows: 200,
            timeout: Duration::from_secs(20),
            ..paper
        };
        assert_eq!(parse("fig9 --rows 200 --timeout 20"), Ok(("fig9", small)));
        assert_eq!(parse("--timeout 20 --rows 200 fig9"), Ok(("fig9", small)));
        let none = FigureArgs {
            timeout: Duration::ZERO,
            ..paper
        };
        assert_eq!(parse("fig7 --timeout 0"), Ok(("fig7", none)));
    }

    #[test]
    fn every_refusal_is_typed_and_lists_the_figures() {
        let bad = |flag, value: &str| UsageError::BadValue {
            flag,
            value: value.into(),
        };
        for (line, want) in [
            ("", UsageError::NoFigure),
            ("--rows 200", UsageError::NoFigure),
            ("fig4", UsageError::UnknownFigure("fig4".into())),
            ("fig9 --rows", UsageError::MissingValue("--rows")),
            ("fig9 --timeout", UsageError::MissingValue("--timeout")),
            ("fig9 --rows many", bad("--rows", "many")),
            ("fig9 --rows 0", bad("--rows", "0")),
            ("fig9 --rows -5", bad("--rows", "-5")),
            ("fig9 --timeout 1.5", bad("--timeout", "1.5")),
            ("fig9 fig10", UsageError::Unexpected("fig10".into())),
            (
                "fig9 --threads 4",
                UsageError::Unexpected("--threads".into()),
            ),
        ] {
            let err = parse(line).expect_err(line);
            assert_eq!(err, want, "{line:?}");
            let text = err.to_string();
            for (name, ..) in &FIGURES {
                assert!(text.contains(name), "{line:?}: {text}");
            }
        }
    }
}
