//! `cnb-benchmark`: one run of one workload, or a comparison of two result
//! sets. `benchmark/run.sh` builds it and calls it; see `README.md`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cnb_benchmark::{compare, run_traced, run_untraced, Size, WORKLOADS};

const USAGE: &str = "usage:
  cnb-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  cnb-benchmark compare <BENCHMARK.json> <set A> <set B>
workloads: serve_point serve_star serve_churn optimize_cold exec_analytic";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 7,
        seconds: 10.0,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => parsed.traced = value()? == "1",
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload '{}'", parsed.workload));
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(parsed)
}

fn run(args: &Args) -> std::io::Result<()> {
    let size = if args.smoke {
        Size::Smoke
    } else {
        Size::Timed(args.seconds)
    };
    let (report, tracer) = if args.traced {
        let (report, tracer) = run_traced(&args.workload, args.seed, size);
        (report, Some(tracer))
    } else {
        (run_untraced(&args.workload, args.seed, size), None)
    };
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir)?;
        let kind = if args.traced { ".traced" } else { "" };
        let stem = format!("{}.seed{}{kind}", args.workload, args.seed);
        let commit = std::env::var("CNB_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
        let seconds = (!args.smoke).then_some(args.seconds);
        let mut file = report.result_file(seconds, &commit).render();
        file.push('\n');
        std::fs::write(dir.join(format!("{stem}.json")), file)?;
        if let Some(tracer) = tracer {
            tracer.write_jsonl(&dir.join(format!("{}.trace.jsonl", args.workload)))?;
        }
    }
    print!("{}", report.table());
    println!("{}", report.result_line());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, spec, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(Path::new(spec), Path::new(a), Path::new(b)) {
            Ok(outcome) => {
                print!("{}", outcome.table);
                if outcome.regressed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Numbers from an unoptimized build describe another program.
    if cfg!(debug_assertions) && !parsed.smoke {
        eprintln!("refusing to measure a debug build; build with --release (or pass --smoke)");
        return ExitCode::from(2);
    }
    match run(&parsed) {
        // A wrong answer is reported in the result line, not by the exit
        // code: the run itself completed.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write results: {e}");
            ExitCode::FAILURE
        }
    }
}
