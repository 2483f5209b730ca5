//! `figures` — renders one table or figure of the paper's §5 as markdown.
//!
//! ```text
//! figures <name> [--rows N] [--timeout SECS]
//! ```
//!
//! The names are those of the registry `cnb_bench::FIGURES`. With no name,
//! an unknown one or a bad flag it prints the usage, which lists them, and
//! exits with status 2.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cnb_bench::parse_args(&args) {
        Ok(((_, _, render), args)) => {
            print!("{}", render(&args));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("figures: {e}");
            ExitCode::from(2)
        }
    }
}
