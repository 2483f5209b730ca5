//! `cnb-analyze` — the workspace's static-analysis gate.
//!
//! ```text
//! cnb-analyze [ROOT] [--json FILE]
//! ```
//!
//! Runs every prong over the workspace at `ROOT` (default `.`): the
//! determinism scan, then one pass over the suite that validates each
//! workload's plans and certifies them against its AGM bound. Prints each
//! workload and shape line, every finding and a summary; with `--json`,
//! also writes the report. Exits 1 on any finding, 2 on a bad argument;
//! `scripts/check.sh` runs it as the `==> cnb-analyze` tier.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

use cnb_analyze::report::run_all;
use cnb_analyze::suite::workload_line;

fn usage() -> ExitCode {
    eprintln!("usage: cnb-analyze [ROOT] [--json FILE]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<&str> = None;
    let mut json: Option<&str> = None;
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--json" if json.is_none() => match it.next() {
                Some(p) => json = Some(p),
                None => return usage(),
            },
            // A word that names no directory is a bad argument, not a root.
            _ if root.is_none() && !arg.starts_with('-') && Path::new(arg).is_dir() => {
                root = Some(arg)
            }
            _ => return usage(),
        }
    }
    let report = match run_all(Path::new(root.unwrap_or("."))) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cnb-analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = json {
        if let Some(dir) = Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cnb-analyze: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    for f in &report.taint {
        eprintln!("{f}");
    }
    match &report.suite {
        Ok(certs) => certs.iter().for_each(|c| println!("{}", workload_line(c))),
        Err(e) => eprintln!("validate: {e}"),
    }
    match &report.shapes {
        Ok(shapes) => {
            for s in shapes {
                println!(
                    "shape {}: bound {}, worst prefix {}{}",
                    s.name,
                    s.bound,
                    s.worst,
                    if s.wcoj_needed { " [wcoj-needed]" } else { "" }
                );
            }
        }
        Err(e) => eprintln!("shapes: {e}"),
    }
    let verdict = |ok: bool| if ok { "ok" } else { "FAIL" };
    println!(
        "cnb-analyze: {} (taint {}, validate {}, agm {}){}",
        if report.ok() { "clean" } else { "FINDINGS" },
        report.taint.len(),
        verdict(report.suite.is_ok()),
        verdict(report.suite.is_ok() && report.shapes.is_ok()),
        json.map(|p| format!(" -> {p}")).unwrap_or_default()
    );
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
