//! Pins the repo's own cleanliness: the determinism scan, run over this
//! workspace's real sources, finds nothing. If a `std::collections` HashMap,
//! an unannotated wall-clock read, a stale `#[expect]`, or a helper that
//! launders nondeterminism into the serving layer ever lands in
//! `crates/{bench,core,engine,ir,workloads}`, this test is the tier that says
//! so.

use std::fs;
use std::path::Path;

use cnb_analyze::strip::strip_source;
use cnb_analyze::taint::{taint_files, taint_workspace};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

#[test]
fn determinism_taint_is_clean_on_this_workspace() {
    // Zero findings: every needle sits under its `#[expect]` and no
    // `#[expect]` is stale.
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

/// The `.rs` files under `dir`, named relative to the workspace root.
fn sources(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(dir).expect("read a crate directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let name = path
                .strip_prefix(workspace_root())
                .expect("under the workspace")
                .to_string_lossy()
                .replace('\\', "/");
            out.push((name, fs::read_to_string(&path).expect("read a source file")));
        }
    }
}

#[test]
fn every_sanctioned_site_fires_without_its_expect() {
    // Blank every sanction in place: the scan must then flag exactly the
    // lines those attributes stood over, so the clean pass above is not a
    // scan that sees nothing.
    let attrs = [
        "#[expect(clippy::disallowed_methods)]",
        "#[expect(clippy::disallowed_types)]",
    ];
    let mut files = Vec::new();
    for krate in ["bench", "core", "engine", "ir", "workloads"] {
        sources(&workspace_root().join("crates").join(krate), &mut files);
    }
    let mut guarded = Vec::new();
    for (name, text) in &mut files {
        let mut bare = String::new();
        for (idx, line) in text.lines().enumerate() {
            if attrs.contains(&line.trim()) {
                guarded.push((name.clone(), idx + 2));
            } else {
                bare.push_str(line);
            }
            bare.push('\n');
        }
        *text = bare;
    }
    guarded.sort();
    assert_eq!(
        guarded.len(),
        11,
        "eight wall-clock reads, three fxhash lines"
    );

    let mut flagged: Vec<(String, usize)> = taint_files(&files)
        .into_iter()
        .filter(|f| f.path.len() <= 1)
        .map(|f| (f.file, f.line))
        .collect();
    flagged.sort();
    flagged.dedup();
    assert_eq!(flagged, guarded);
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

/// Sanctioned sites per crate: `#[expect(clippy::<lint>)]` lines, the one
/// form a sanction takes.
fn assert_sanctions(lint: &str, pinned: [(&str, usize); 5]) {
    let attr = format!("#[expect(clippy::{lint})]");
    for (krate, sites) in pinned {
        let dir = workspace_root().join("crates").join(krate);
        assert_eq!(
            code_sites(&dir, &[attr.as_str()]),
            sites,
            "cnb-{krate}: sanctioned {lint} sites changed"
        );
    }
}

/// The sanctioned wall-clock reads, counted per crate. Every one is a place
/// where timing enters a scanned crate (stats-only timers, the one backchase
/// deadline, the serving `WallClock`, fig. 5's chase timer); a new one must
/// change a number here. Bench's one: `chase_row` in `figs.rs` — every other
/// figure times with `OptimizeResult::total_time` and `ExecStats::elapsed`.
/// Core's four: `Lattice::chase` and `Lattice::expired` in `backchase.rs`,
/// `Optimizer::optimize` and `optimize_measured` in `optimizer.rs`.
/// Engine's three: the batched pipeline's `run` and the `execute_legacy`
/// oracle in `eval.rs`, and `WallClock` in `clock.rs`.
#[test]
fn sanctioned_wall_clock_sites_are_pinned() {
    assert_sanctions(
        "disallowed_methods",
        [
            ("bench", 1),
            ("core", 4),
            ("engine", 3),
            ("ir", 0),
            ("workloads", 0),
        ],
    );
}

/// The sanctioned std hash containers: the three lines of `cnb_ir::fxhash`
/// that wrap them with a deterministic hasher (the `use` and the two
/// aliases), and nothing else.
#[test]
fn sanctioned_std_hash_map_sites_are_pinned() {
    assert_sanctions(
        "disallowed_types",
        [
            ("bench", 0),
            ("core", 0),
            ("engine", 0),
            ("ir", 3),
            ("workloads", 0),
        ],
    );
}

/// Where a thread can start and where the environment can be read, counted
/// per crate. A thread count is an argument: the engine's one fork/join site
/// is `pool::map_in_order`, fed by `serve_batch_under`'s `threads`, and
/// `cnb_core` cannot spawn a thread whatever a config field says. No scanned
/// crate reads the environment: a debug build audits the congruence trail
/// on every rollback without being asked, and `figures` takes `--rows` and
/// `--timeout`. This is what stands where the suites that re-ran a
/// thread-blind search at 1/2/4/8 threads stood.
#[test]
fn thread_spawn_and_environment_read_sites_are_pinned() {
    let spawn = ["thread::scope", "thread::spawn", "thread::Builder"];
    let env_read = ["env::var"]; // `var`, `var_os`, `vars`, `vars_os`
    for (krate, spawns, env_reads) in [
        ("bench", 0, 0),
        ("core", 0, 0),
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
    let err = taint_workspace(Path::new("/nonexistent-cnb-root")).unwrap_err();
    assert!(err.to_string().contains("not found"), "{err}");
}
