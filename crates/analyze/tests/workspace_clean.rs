//! Pins, per crate, every place a static rule is sanctioned. `clippy.toml`
//! is the one determinism ban list and `cargo clippy --all-targets -- -D
//! warnings` its one enforcer: it reports each unsanctioned use and each
//! stale `#[expect]`. What clippy does not report is how many sanctions
//! there are, so this file counts them and a new one must change a number
//! here. A sanction is counted in any form clippy accepts — `allow` or
//! `expect`, outer or inner, one lint or a list, on one line or several —
//! because every form names the lint (or a group holding it) on a code
//! line that is not the `deny` / `forbid` line setting it.

use std::fs;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

/// The lines of every `.rs` file under `dir`, tests included, less those
/// that are comments (first non-blank characters `//`).
fn code_lines(dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("read a crate directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            code_lines(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let source = fs::read_to_string(&path).expect("read a source file");
            out.extend(
                source
                    .lines()
                    .filter(|l| !l.trim_start().starts_with("//"))
                    .map(str::to_string),
            );
        }
    }
}

fn crate_lines(krate: &str) -> Vec<String> {
    let mut lines = Vec::new();
    code_lines(&workspace_root().join("crates").join(krate), &mut lines);
    lines
}

/// True when `line` names the lint path `name` (and not a longer one that
/// starts with it, as `clippy::panic_in_result_fn` starts with
/// `clippy::panic`).
fn names(line: &str, name: &str) -> bool {
    line.match_indices(name).any(|(at, _)| {
        !line[at + name.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
    })
}

/// Sanctioned sites of `clippy::<lint>` per crate: code lines that name the
/// lint or one of `groups`, other than the lines that deny or forbid it.
fn assert_sanctions(lint: &str, groups: &[&str], pinned: &[(&str, usize)]) {
    let mut paths = vec![format!("clippy::{lint}")];
    paths.extend(groups.iter().map(|g| format!("clippy::{g}")));
    for &(krate, sites) in pinned {
        let found = crate_lines(krate)
            .iter()
            .filter(|l| !l.contains("deny(") && !l.contains("forbid("))
            .filter(|l| paths.iter().any(|p| names(l, p)))
            .count();
        assert_eq!(found, sites, "cnb-{krate}: sanctioned {lint} sites changed");
    }
}

/// The groups `clippy.toml`'s two lints belong to: allowing either one
/// sanctions them too.
const DISALLOWED_GROUPS: &[&str] = &["all", "style"];

/// The sanctioned wall-clock reads, counted per crate. Every one is a place
/// where timing enters a crate (stats-only timers, the one backchase
/// deadline, the serving `WallClock`, fig. 5's chase timer); a new one must
/// change a number here. Bench's one: `chase_row` in `figs.rs` — every other
/// figure times with `OptimizeResult::total_time` and `ExecStats::elapsed`.
/// Core's three: `Lattice::chase` and `Lattice::expired` in `backchase.rs`,
/// and `Optimizer::timed` in `optimizer.rs`, which times every `optimize*`.
/// Engine's three: the batched pipeline's `run` and the `execute_legacy`
/// oracle in `eval.rs`, and `WallClock` in `clock.rs`.
#[test]
fn sanctioned_wall_clock_sites_are_pinned() {
    assert_sanctions(
        "disallowed_methods",
        DISALLOWED_GROUPS,
        &[
            ("bench", 1),
            ("core", 3),
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
        DISALLOWED_GROUPS,
        &[
            ("bench", 0),
            ("core", 0),
            ("engine", 0),
            ("ir", 3),
            ("workloads", 0),
        ],
    );
}

/// The sanctioned panics of the three crates that deny `clippy::panic` and
/// `clippy::unreachable` outside their tests. IR's seven: the schema
/// builders of `physical.rs`, which refuse a relation or attribute that
/// does not exist and a view definition that does not type-check. Core's
/// one: `combine_plans` in `fragments.rs`, on an output no OQF fragment
/// provides. There is no sanctioned `unreachable!`, nor `.unwrap()` in
/// any of the three.
///
/// Core also denies `.expect()` outside its tests, and sanctions it where
/// the `expect` states an internal invariant, named as the sanction's
/// reason: `Lattice::induced` in `backchase.rs`, the rollback, the undo of a
/// new term, the term arena's `u32` ids and `move_tail` in `congruence.rs`,
/// and a homomorphism's images in `homomorphism.rs`. A site input can reach
/// is a `let … else` or a typed error instead.
#[test]
fn sanctioned_panic_sites_are_pinned() {
    let pinned = [("core", 1), ("engine", 0), ("ir", 7)];
    assert_sanctions("panic", &["restriction"], &pinned);
    assert_sanctions(
        "unreachable",
        &["restriction"],
        &pinned.map(|(k, _)| (k, 0)),
    );
    assert_sanctions(
        "unwrap_used",
        &["restriction"],
        &pinned.map(|(k, _)| (k, 0)),
    );
    assert_sanctions("expect_used", &["restriction"], &[("core", 6)]);
}

/// The attributes that make those rules: the serving layer forbids the
/// clock outright (no `#[expect]` can sanction a read there), the three
/// logic crates deny panics and `.unwrap()` outside their tests, and core
/// denies `.expect()` there too.
#[test]
fn the_forbid_and_deny_attributes_are_in_place() {
    let forbid = "#![forbid(clippy::disallowed_methods)]";
    let deny = "#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]";
    let unwrap = "#![cfg_attr(not(test), deny(clippy::unwrap_used))]";
    let expect = "#![cfg_attr(not(test), deny(clippy::expect_used))]";
    for (file, attr) in [
        ("engine/src/serving.rs", forbid),
        ("engine/src/pressure.rs", forbid),
        ("core/src/lib.rs", deny),
        ("core/src/lib.rs", unwrap),
        ("core/src/lib.rs", expect),
        ("engine/src/lib.rs", deny),
        ("engine/src/lib.rs", unwrap),
        ("ir/src/lib.rs", deny),
        ("ir/src/lib.rs", unwrap),
    ] {
        let path = workspace_root().join("crates").join(file);
        let source = fs::read_to_string(&path).expect("read a source file");
        assert!(
            source.lines().any(|l| l.trim() == attr),
            "{file}: `{attr}` is gone"
        );
    }
}

/// Where a thread can start and where the environment can be read, counted
/// per crate. A thread count is an argument: the engine's one fork/join site
/// is `pool::map_in_order`, fed by `serve_batch_under`'s `threads`, and
/// `cnb_core` cannot spawn a thread whatever a config field says. No crate
/// reads the environment: a debug build audits the congruence trail on
/// every rollback without being asked, and `figures` takes `--rows` and
/// `--timeout`. This is what stands where the suites that re-ran a
/// thread-blind search at 1/2/4/8 threads stood.
#[test]
fn thread_spawn_and_environment_read_sites_are_pinned() {
    let spawn = ["thread::scope", "thread::spawn", "thread::Builder"];
    let env_read = ["env::var"]; // `var`, `var_os`, `vars`, `vars_os`
    let sites = |lines: &[String], needles: &[&str]| {
        lines
            .iter()
            .filter(|l| needles.iter().any(|n| l.contains(n)))
            .count()
    };
    for (krate, spawns, env_reads) in [
        ("bench", 0, 0),
        ("core", 0, 0),
        ("engine", 1, 0),
        ("ir", 0, 0),
        ("workloads", 0, 0),
    ] {
        let lines = crate_lines(krate);
        assert_eq!(
            (sites(&lines, &spawn), sites(&lines, &env_read)),
            (spawns, env_reads),
            "cnb-{krate}: (thread-spawn, environment-read) sites changed"
        );
    }
}
