//! Pins the repo's own cleanliness: the determinism lint and the
//! interprocedural taint analysis, run over this workspace's real sources,
//! find nothing. If a `std::collections` HashMap, an unannotated
//! wall-clock read, a stale allow-annotation, or a helper that launders
//! nondeterminism into the serving layer ever lands in
//! `crates/{core,engine,ir,workloads}`, this test is the tier that says so.

use std::fs;
use std::path::Path;

use cnb_analyze::lint::{allow_sites, lint_workspace};
use cnb_analyze::strip::strip_source;
use cnb_analyze::taint::taint_workspace;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

#[test]
fn determinism_lint_is_clean_on_this_workspace() {
    let violations = lint_workspace(workspace_root()).expect("scan the workspace");
    assert!(
        violations.is_empty(),
        "determinism lint found violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn determinism_taint_is_clean_on_this_workspace() {
    // Zero findings with zero allow-annotations beyond the declared
    // sanctioned sinks — the acceptance bar for the taint tier.
    let findings = taint_workspace(workspace_root()).expect("scan the workspace");
    assert!(
        findings.is_empty(),
        "determinism taint found:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The sanctioned wall-clock reads, counted per crate. Every one is a place
/// where timing enters a logic crate (stats-only timers, the one backchase
/// deadline, the serving `WallClock`); a new one must change a number here.
/// Core's four: `Lattice::chase` and `Lattice::expired` in `backchase.rs`,
/// `Optimizer::optimize` and `optimize_measured` in `optimizer.rs`.
/// Engine's three: the batched pipeline's `run` and the `execute_legacy`
/// oracle in `eval.rs`, and `WallClock` in `clock.rs`.
#[test]
fn sanctioned_wall_clock_sites_are_pinned() {
    let sites = allow_sites(workspace_root(), "wall-clock").expect("scan the workspace");
    for (krate, pinned) in [("core", 4), ("engine", 3), ("ir", 0), ("workloads", 0)] {
        let prefix = format!("crates/{krate}/");
        let found: Vec<_> = sites
            .iter()
            .filter(|(f, _)| f.starts_with(&prefix))
            .collect();
        assert_eq!(
            found.len(),
            pinned,
            "cnb-{krate}: sanctioned wall-clock sites changed: {found:?}"
        );
    }
}

/// Lines of code (comments and string contents stripped) under `dir`, tests
/// included, that contain one of `needles`.
fn code_sites(dir: &Path, needles: &[&str]) -> usize {
    let mut sites = 0;
    for entry in fs::read_dir(dir).expect("read a crate directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            sites += code_sites(&path, needles);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let source = fs::read_to_string(&path).expect("read a source file");
            sites += strip_source(&source)
                .iter()
                .filter(|l| needles.iter().any(|n| l.code.contains(n)))
                .count();
        }
    }
    sites
}

/// Where a thread can start and where the environment can be read, counted
/// per crate. A thread count is an argument: the engine's one fork/join site
/// is `pool::map_in_order`, fed by `serve_batch_under`'s `threads`, and
/// `cnb_core` cannot spawn a thread whatever a config field says. The one
/// environment read is `trail_check_enabled` (`CNB_TRAIL_CHECK`, a debug
/// audit toggle). This is what stands where the suites that re-ran a
/// thread-blind search at 1/2/4/8 threads stood.
#[test]
fn thread_spawn_and_environment_read_sites_are_pinned() {
    let spawn = ["thread::scope", "thread::spawn", "thread::Builder"];
    let env_read = ["env::var"]; // `var`, `var_os`, `vars`, `vars_os`
    for (krate, spawns, env_reads) in [
        ("core", 0, 1),
        ("engine", 1, 0),
        ("ir", 0, 0),
        ("workloads", 0, 0),
    ] {
        let dir = workspace_root().join("crates").join(krate);
        assert_eq!(
            (code_sites(&dir, &spawn), code_sites(&dir, &env_read)),
            (spawns, env_reads),
            "cnb-{krate}: (thread-spawn, environment-read) sites changed"
        );
    }
}

#[test]
fn missing_crate_directory_is_an_error_not_a_clean_pass() {
    let err = lint_workspace(Path::new("/nonexistent-cnb-root")).unwrap_err();
    assert!(err.to_string().contains("not found"), "{err}");
}
