//! `cnb-analyze` — the workspace's static-analysis gate.
//!
//! ```text
//! cnb-analyze taint [root]             # determinism scan (clippy.toml ban list)
//! cnb-analyze certify                  # AGM-bound plan certification
//! cnb-analyze validate-suite           # semantic validation + certification
//! cnb-analyze all [root] [--json FILE] # every prong; optional JSON report
//! ```
//!
//! Exits nonzero on any finding; `scripts/check.sh` runs `all` as the
//! `==> cnb-analyze` tier.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

use cnb_analyze::agm::{certify_suite, shape_report};
use cnb_analyze::report::run_all;
use cnb_analyze::suite::validate_suite;
use cnb_analyze::taint::taint_workspace;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cnb-analyze <taint [root] | certify | validate-suite | all [root] [--json FILE]>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("taint") => {
            let root = args.get(1).map(String::as_str).unwrap_or(".");
            match taint_workspace(Path::new(root)) {
                Ok(findings) if findings.is_empty() => {
                    println!("cnb-analyze taint: clean");
                    ExitCode::SUCCESS
                }
                Ok(findings) => {
                    for f in &findings {
                        eprintln!("{f}");
                    }
                    eprintln!("cnb-analyze taint: {} finding(s)", findings.len());
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("cnb-analyze taint: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("certify") => match certify_suite().and_then(|w| shape_report().map(|s| (w, s))) {
            Ok((workloads, shapes)) => {
                for w in &workloads {
                    println!(
                        "{}: bound {} -> {} ({} plans)",
                        w.name,
                        w.bound,
                        w.verdict.name(),
                        w.plans.len()
                    );
                }
                for s in &shapes {
                    println!(
                        "shape {}: bound {}, worst prefix {}{}",
                        s.name,
                        s.bound,
                        s.worst,
                        if s.wcoj_needed { " [wcoj-needed]" } else { "" }
                    );
                }
                println!("cnb-analyze certify: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cnb-analyze certify: {e}");
                ExitCode::FAILURE
            }
        },
        Some("validate-suite") => match validate_suite() {
            Ok(report) => {
                for line in report {
                    println!("{line}");
                }
                println!("cnb-analyze validate-suite: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cnb-analyze validate-suite: {e}");
                ExitCode::FAILURE
            }
        },
        Some("all") => {
            let mut root = ".";
            let mut json: Option<&str> = None;
            let mut i = 1;
            while i < args.len() {
                if args[i] == "--json" {
                    match args.get(i + 1) {
                        Some(p) => {
                            json = Some(p);
                            i += 2;
                        }
                        None => return usage(),
                    }
                } else {
                    root = &args[i];
                    i += 1;
                }
            }
            let report = match run_all(Path::new(root)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("cnb-analyze all: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(path) = json {
                if let Some(dir) = Path::new(path).parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                if let Err(e) = std::fs::write(path, report.to_json()) {
                    eprintln!("cnb-analyze all: writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            for f in &report.taint {
                eprintln!("{f}");
            }
            if let Err(e) = &report.validate {
                eprintln!("validate: {e}");
            }
            if let Err(e) = &report.agm {
                eprintln!("agm: {e}");
            }
            let status = if report.ok() { "clean" } else { "FINDINGS" };
            println!(
                "cnb-analyze all: {status} (taint {}, validate {}, agm {}){}",
                report.taint.len(),
                if report.validate.is_ok() {
                    "ok"
                } else {
                    "FAIL"
                },
                if report.agm.is_ok() { "ok" } else { "FAIL" },
                json.map(|p| format!(" -> {p}")).unwrap_or_default()
            );
            if report.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
