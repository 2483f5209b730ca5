//! The `cnb-analyze` command line: one command over the workspace, a
//! deterministic JSON report, and a usage error for anything else.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

/// Runs the binary from the workspace root.
fn analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cnb-analyze"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("run cnb-analyze")
}

/// Analyzes the workspace into `CARGO_TARGET_TMPDIR/cli/<name>`, asserts a
/// clean run, and returns the report.
fn clean_report(name: &str) -> String {
    let path: PathBuf = [env!("CARGO_TARGET_TMPDIR"), "cli", name].iter().collect();
    let out = analyze(&[".", "--json", path.to_str().expect("utf-8 path")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("clean"), "{stdout}");
    std::fs::read_to_string(&path).expect("the report was written")
}

#[test]
fn the_workspace_is_clean_and_the_report_is_deterministic() {
    let first = clean_report("first.json");
    assert!(first.contains("\"version\": 3"), "{first}");
    assert!(first.contains("\"ok\": true"), "{first}");
    assert_eq!(
        first,
        clean_report("second.json"),
        "two runs must agree byte for byte"
    );
}

#[test]
fn a_retired_mode_or_an_unknown_flag_is_a_usage_error() {
    for args in [&["certify"][..], &["--bogus"], &[".", "--json"]] {
        let out = analyze(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("usage: cnb-analyze"),
            "{args:?}: {stderr}"
        );
    }
}
