//! The determinism scan: `clippy.toml`'s ban list, matched line by line in
//! the four logic crates and the experiment harness.
//!
//! Byte-identical output at every thread count is a repo-level invariant,
//! and the cheapest way to lose it is an innocent-looking
//! `std::collections::HashMap` (SipHash with a random key — iteration order
//! changes per process), a wall-clock read feeding a decision, or an
//! environment read. `clippy.toml` lists these once. Clippy enforces the
//! list by type under `-D warnings`; this scan enforces the same entries
//! (the file is embedded with `include_str!`) over the source text, and
//! adds the one rule clippy cannot state: no wall-clock read in the
//! serving layer, sanctioned or not.
//!
//! - **Needles.** A `disallowed-types` entry matches by its last path
//!   segment (`HashMap`), a `disallowed-methods` entry by its last two
//!   (`Instant::now`), as a whole token of lexed code (see
//!   [`crate::strip`]): comments and string contents never fire, and
//!   neither does `FxHashMap` for `HashMap` or `env::var_os` for `env::var`.
//! - **The one sanction** is `#[expect(clippy::disallowed_methods)]` or
//!   `#[expect(clippy::disallowed_types)]`, exactly so (no `reason`) and
//!   alone on the line directly above a needle of that list. It is the
//!   attribute clippy checks, so a stale one fails the clippy tier ("this
//!   lint expectation is unfulfilled"); it is reported here too, as
//!   `stale-expect`, when the next line holds no needle of its list.
//! - **Every finding is at its line.** An unsanctioned needle is flagged
//!   where it is written. A helper that wraps one is flagged inside the
//!   helper, so the scan already fails; its callers need no report of
//!   their own.
//! - **`serving-clock`.** Deadline decisions in the serving layer must flow
//!   through the injectable `cnb_engine::clock::Clock`: a `std::time::`
//!   needle in [`SERVING_CLOCK_FILES`] is flagged **annotated or not**.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::strip::strip_source;

/// The ban list clippy reads, embedded so that the two cannot disagree.
const CLIPPY_TOML: &str = include_str!("../../../clippy.toml");

/// The crates the determinism contract covers: the four logic crates and
/// `cnb-bench`, whose figures time with what the optimizer and the engine
/// report and read the wall clock at one sanctioned site (fig. 5's chase
/// timer). `cnb-analyze` itself never runs inside the optimizer and is out
/// of scope.
const SCANNED_CRATES: [&str; 5] = [
    "crates/bench",
    "crates/core",
    "crates/engine",
    "crates/ir",
    "crates/workloads",
];

/// The serving layer's files. Matched by suffix so both workspace-relative
/// names and bare paths qualify.
pub const SERVING_CLOCK_FILES: [&str; 2] = [
    "crates/engine/src/serving.rs",
    "crates/engine/src/pressure.rs",
];

/// The entries whose needles read the wall clock.
const WALL_CLOCK: &str = "std::time::";
/// The two rules that are not `clippy.toml` entries, reported after them.
const SERVING_CLOCK: &str = "serving-clock";
const STALE_EXPECT: &str = "stale-expect";

/// The `clippy.toml` list an entry is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lint {
    /// `disallowed-types`: matched by the entry's last path segment.
    Types,
    /// `disallowed-methods`: matched by the entry's last two path segments.
    Methods,
}

impl Lint {
    /// The attribute that sanctions a needle of this list on the next line.
    pub(crate) fn expect_attr(self) -> &'static str {
        match self {
            Lint::Types => "#[expect(clippy::disallowed_types)]",
            Lint::Methods => "#[expect(clippy::disallowed_methods)]",
        }
    }
}

/// One `clippy.toml` entry, as the scan matches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Rule {
    /// The entry's path as written; findings report under it.
    pub(crate) path: &'static str,
    /// What the scan looks for: the path's last segment (types) or last two
    /// (methods).
    pub(crate) needle: &'static str,
    /// The list the entry is in.
    pub(crate) lint: Lint,
}

/// The ban list, in `clippy.toml` order.
pub(crate) fn rules() -> Vec<Rule> {
    parse_rules(CLIPPY_TOML)
}

/// Reads the `path = "…"` entries of the `disallowed-types` and
/// `disallowed-methods` arrays, the one shape `clippy.toml` uses. Anything
/// else reads as no entry — and fails the test that pins the table.
fn parse_rules(toml: &'static str) -> Vec<Rule> {
    let mut list = None;
    let mut out = Vec::new();
    for line in toml.lines().map(str::trim) {
        if line.starts_with("disallowed-types") {
            list = Some(Lint::Types);
        } else if line.starts_with("disallowed-methods") {
            list = Some(Lint::Methods);
        } else if line.starts_with(']') {
            list = None;
        }
        let Some(lint) = list else { continue };
        let Some((_, rest)) = line.split_once("path = \"") else {
            continue;
        };
        let Some((path, _)) = rest.split_once('"') else {
            continue;
        };
        let segments = if lint == Lint::Types { 1 } else { 2 };
        let cut = path
            .rmatch_indices("::")
            .nth(segments - 1)
            .map_or(0, |(i, _)| i + 2);
        out.push(Rule {
            path,
            needle: &path[cut..],
            lint,
        });
    }
    out
}

/// True if `needle` occurs in `code` as a whole token: no identifier
/// character directly before or after it.
fn contains_token(code: &str, needle: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    code.match_indices(needle).any(|(at, _)| {
        !code[..at].chars().next_back().is_some_and(ident)
            && !code[at + needle.len()..].chars().next().is_some_and(ident)
    })
}

/// True when `file` is part of the serving layer.
fn serving_scope(file: &str) -> bool {
    let norm = file.replace('\\', "/");
    SERVING_CLOCK_FILES
        .iter()
        .any(|f| norm == *f || norm.ends_with(&format!("/{f}")))
}

/// One finding: a needle, or a stale attribute, at its line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaintFinding {
    /// File of the flagged line.
    pub file: String,
    /// 1-based line of the needle (or attribute).
    pub line: usize,
    /// The `clippy.toml` path of the entry that fired, or `serving-clock`,
    /// or `stale-expect`.
    pub rule: &'static str,
    /// The flagged source line, trimmed.
    pub snippet: String,
}

impl std::fmt::Display for TaintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.snippet
        )
    }
}

/// Runs the scan over `(path, source)` file pairs — the workspace in
/// production, seeded corpora in tests.
pub fn taint_files(files: &[(String, String)]) -> Vec<TaintFinding> {
    let rules = rules();
    let mut out: Vec<TaintFinding> = Vec::new();
    for (path, text) in files {
        let lines = strip_source(text);
        let raws: Vec<&str> = text.lines().collect();
        let serving = serving_scope(path);
        let mut flag = |idx: usize, rule: &'static str| {
            out.push(TaintFinding {
                file: path.clone(),
                line: idx + 1,
                rule,
                snippet: raws
                    .get(idx)
                    .map(|s| s.trim().to_string())
                    .unwrap_or_default(),
            });
        };
        let has_needle = |idx: usize, lint: Lint| {
            lines.get(idx).is_some_and(|l| {
                rules
                    .iter()
                    .any(|r| r.lint == lint && contains_token(&l.code, r.needle))
            })
        };
        for (idx, l) in lines.iter().enumerate() {
            let above = idx.checked_sub(1).map(|i| lines[i].code.trim());
            for r in rules.iter().filter(|r| contains_token(&l.code, r.needle)) {
                if above != Some(r.lint.expect_attr()) {
                    flag(idx, r.path);
                }
                if serving && r.path.starts_with(WALL_CLOCK) {
                    flag(idx, SERVING_CLOCK);
                }
            }
            for lint in [Lint::Types, Lint::Methods] {
                if l.code.trim() == lint.expect_attr() && !has_needle(idx + 1, lint) {
                    flag(idx, STALE_EXPECT);
                }
            }
        }
    }

    let rank = |rule: &str| {
        rules
            .iter()
            .map(|r| r.path)
            .chain([SERVING_CLOCK, STALE_EXPECT])
            .position(|p| p == rule)
    };
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, rank(a.rule)).cmp(&(b.file.as_str(), b.line, rank(b.rule)))
    });
    out.dedup();
    out
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// reporting.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // `target/` never appears under crate source dirs, but guard
            // anyway — stale build output must not produce findings.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the scan over the determinism-covered crates beneath `root` (the
/// directory containing `crates/`). A missing crate directory is an error:
/// a silently skipped crate would read as clean.
pub fn taint_workspace(root: &Path) -> io::Result<Vec<TaintFinding>> {
    let mut paths = Vec::new();
    for rel in SCANNED_CRATES {
        let dir = root.join(rel);
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} not found under {}", rel, root.display()),
            ));
        }
        rust_files(&dir, &mut paths)?;
    }
    let files = paths
        .into_iter()
        .map(|f| {
            let content = fs::read_to_string(&f)?;
            let name = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .replace('\\', "/");
            Ok((name, content))
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(taint_files(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The needle of the entry at `path`, so no test spells one out.
    fn needle(path: &str) -> &'static str {
        rules()
            .into_iter()
            .find(|r| r.path == path)
            .unwrap_or_else(|| panic!("no clippy.toml entry {path}"))
            .needle
    }

    fn clock_needle() -> String {
        format!("{}()", needle("std::time::Instant::now"))
    }

    fn expect_methods() -> &'static str {
        Lint::Methods.expect_attr()
    }

    fn run(files: &[(&str, String)]) -> Vec<TaintFinding> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.clone()))
            .collect();
        taint_files(&owned)
    }

    fn one(src: String) -> Vec<TaintFinding> {
        run(&[("a.rs", src)])
    }

    /// `(line, rule)` of every finding, in report order.
    fn lines_and_rules(found: &[TaintFinding]) -> Vec<(usize, &'static str)> {
        found.iter().map(|f| (f.line, f.rule)).collect()
    }

    #[test]
    fn rule_table_is_clippy_toml_entry_by_entry() {
        let table: Vec<(&str, &str, Lint)> =
            rules().iter().map(|r| (r.path, r.needle, r.lint)).collect();
        assert_eq!(
            table,
            vec![
                ("std::collections::HashMap", "HashMap", Lint::Types),
                ("std::collections::HashSet", "HashSet", Lint::Types),
                (
                    "std::collections::hash_map::RandomState",
                    "RandomState",
                    Lint::Types
                ),
                ("std::time::Instant::now", "Instant::now", Lint::Methods),
                (
                    "std::time::SystemTime::now",
                    "SystemTime::now",
                    Lint::Methods
                ),
                ("std::thread::current", "thread::current", Lint::Methods),
                ("std::env::var", "env::var", Lint::Methods),
                ("std::env::var_os", "env::var_os", Lint::Methods),
                ("std::env::vars", "env::vars", Lint::Methods),
                ("std::env::vars_os", "env::vars_os", Lint::Methods),
            ]
        );
    }

    #[test]
    fn every_rule_fires_on_a_seeded_violation() {
        for r in rules() {
            let found = one(format!("fn f() {{\n    let x = {}();\n}}\n", r.needle));
            assert_eq!(lines_and_rules(&found), vec![(2, r.path)], "{}", r.path);
            // …and the `#[expect]` of its own list sanctions it.
            let sanctioned = format!(
                "fn f() {{\n    {}\n    let x = {}();\n}}\n",
                r.lint.expect_attr(),
                r.needle
            );
            assert!(one(sanctioned).is_empty(), "{}", r.path);
        }
    }

    #[test]
    fn hash_set_variant_fires_too() {
        let src = format!(
            "use std::collections::{};\n",
            needle("std::collections::HashSet")
        );
        let found = one(src);
        assert_eq!(
            lines_and_rules(&found),
            vec![(1, "std::collections::HashSet")]
        );
    }

    #[test]
    fn fx_aliases_do_not_fire() {
        let src = format!(
            "use cnb_core::fxhash::{{Fx{h}Map, Fx{h}Set}};\nlet m: Fx{h}Map<u8, u8> = Fx{h}Map::default();\n",
            h = "Hash"
        );
        assert!(one(src).is_empty());
    }

    #[test]
    fn comments_are_stripped() {
        let src = format!(
            "// std {} is denied in prose too? no.\n",
            needle("std::collections::HashMap")
        );
        assert!(one(src).is_empty());
    }

    #[test]
    fn needles_inside_raw_strings_do_not_fire() {
        let src = format!("let doc = r#\"call {} here\"#;\n", clock_needle());
        assert!(one(src.clone()).is_empty(), "{src}");
    }

    #[test]
    fn needles_inside_block_comments_do_not_fire_but_code_after_does() {
        let n = format!("let t0 = {};", clock_needle());
        let found = one(format!("/* {n} spans\nlines {n} */ {n}\n"));
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 2, "only the code after */ fires");
    }

    #[test]
    fn expect_does_not_leak_past_one_line() {
        let n = format!("let t = {};", clock_needle());
        let found = one(format!("{}\n{n}\n{n}\n", expect_methods()));
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn expect_of_the_wrong_list_does_not_sanction_and_is_stale() {
        let src = format!(
            "{}\nlet t = {};\n",
            Lint::Types.expect_attr(),
            clock_needle()
        );
        assert_eq!(
            lines_and_rules(&one(src)),
            vec![(1, "stale-expect"), (2, "std::time::Instant::now")]
        );
    }

    #[test]
    fn expect_over_a_clean_line_is_stale() {
        for attr in [expect_methods(), Lint::Types.expect_attr()] {
            let found = one(format!("{attr}\nlet a = 1;\n"));
            assert_eq!(
                lines_and_rules(&found),
                vec![(1, "stale-expect")],
                "reported at the attribute"
            );
        }
    }

    #[test]
    fn expect_suppressing_nothing_is_stale() {
        // No next line at all, or only the closing brace of its block.
        for src in [
            format!("let a = 1;\n{}\n", Lint::Types.expect_attr()),
            format!("fn f() {{\n    {}\n}}\n", expect_methods()),
        ] {
            let found = one(src);
            assert_eq!(found.len(), 1, "{found:?}");
            assert_eq!(found[0].rule, "stale-expect");
            assert!(
                found[0].snippet.starts_with("#[expect("),
                "reported at the attribute"
            );
        }
    }

    #[test]
    fn preceding_line_expect_sanctions() {
        // The attribute on the line directly above is the sanction; the
        // retired `cnb-lint` comment in the same place is not.
        let n = format!("    let t = {};", clock_needle());
        let attr = format!("fn f() {{\n    {}\n{n}\n}}\n", expect_methods());
        assert!(one(attr).is_empty());
        let comment = format!("fn f() {{\n    // cnb-lint: allow(wall-clock)\n{n}\n}}\n");
        assert_eq!(
            lines_and_rules(&one(comment)),
            vec![(3, "std::time::Instant::now")]
        );
    }

    #[test]
    fn live_expects_are_not_stale() {
        let src = format!(
            "{}\nuse std::collections::{{{}, {}}};\nfn timed() {{\n    {}\n    let t = {};\n}}\nfn caller() {{\n    timed();\n}}\n",
            Lint::Types.expect_attr(),
            needle("std::collections::HashMap"),
            needle("std::collections::HashSet"),
            expect_methods(),
            clock_needle()
        );
        assert!(one(src).is_empty());
    }

    #[test]
    fn env_read_expects_validate_against_their_needles() {
        // Live over an environment read, stale over anything else.
        let live = format!(
            "fn knob() -> bool {{\n    {}\n    std::{}(\"X\").is_some()\n}}\n",
            expect_methods(),
            needle("std::env::var_os")
        );
        assert!(one(live).is_empty());
        let stale = format!(
            "fn knob() -> bool {{\n    {}\n    true\n}}\n",
            expect_methods()
        );
        assert_eq!(lines_and_rules(&one(stale)), vec![(2, "stale-expect")]);
    }

    #[test]
    fn a_longer_method_name_fires_only_its_own_entry() {
        for path in ["std::env::var_os", "std::env::vars", "std::env::vars_os"] {
            let found = one(format!("fn f() {{\n    let v = {}();\n}}\n", needle(path)));
            let rules: Vec<&str> = found.iter().map(|f| f.rule).collect();
            assert_eq!(rules, vec![path]);
        }
        let longer = format!(
            "fn f() {{\n    let t = {}ish();\n}}\n",
            needle("std::time::Instant::now")
        );
        assert!(one(longer).is_empty());
    }

    #[test]
    fn only_the_bare_attribute_sanctions() {
        // A `reason`, or an attribute one blank line up, is not the
        // sanction: the needle is flagged.
        for attr in [
            "#[expect(clippy::disallowed_methods, reason = \"stats only\")]".to_string(),
            format!("{}\n", expect_methods()),
        ] {
            let found = one(format!(
                "fn f() {{\n    {attr}\n    let t = {};\n}}\n",
                clock_needle()
            ));
            let rules: Vec<&str> = found.iter().map(|f| f.rule).collect();
            assert!(
                rules.contains(&"std::time::Instant::now"),
                "{attr}: {found:?}"
            );
        }
    }

    #[test]
    fn violation_display_is_greppable() {
        let n = needle("std::thread::current");
        let shown = one(format!("fn f() {{ {n}().id() }}\n"))[0].to_string();
        assert_eq!(
            shown,
            format!("a.rs:1: [std::thread::current] fn f() {{ {n}().id() }}")
        );
    }

    #[test]
    fn direct_source_flags_needle_and_function() {
        let src = format!("fn hot() {{\n    let t = {};\n}}\n", clock_needle());
        let found = one(src);
        assert_eq!(
            lines_and_rules(&found),
            vec![(2, "std::time::Instant::now")]
        );
        assert_eq!(found[0].snippet, format!("let t = {};", clock_needle()));
    }

    #[test]
    fn a_helper_is_flagged_at_its_needle_not_at_its_callers() {
        let src = format!(
            "fn helper() -> u64 {{\n    let t = {};\n    0\n}}\nfn caller() {{\n    let x = helper();\n}}\n",
            clock_needle()
        );
        assert_eq!(
            lines_and_rules(&one(src)),
            vec![(2, "std::time::Instant::now")]
        );
    }

    #[test]
    fn annotated_needles_do_not_source_taint() {
        let src = format!(
            "fn timed() {{\n    {}\n    let t = {};\n}}\nfn caller() {{\n    timed();\n}}\n",
            expect_methods(),
            clock_needle()
        );
        assert!(one(src).is_empty());
    }

    #[test]
    fn sinks_absorb_instead_of_relaying() {
        // The annotated read in `WallClock::start` is the whole site: with
        // the attribute nothing fires, without it the read alone does —
        // never its caller.
        let src = |attr: &str| {
            format!(
                "impl WallClock {{\n    fn start() -> Self {{\n        {attr}\n        let t = {};\n        WallClock\n    }}\n}}\nfn boot() {{\n    let c = WallClock::start();\n}}\n",
                clock_needle()
            )
        };
        assert!(run(&[("clock.rs", src(expect_methods()))]).is_empty());
        let found = run(&[("clock.rs", src(""))]);
        assert_eq!(
            lines_and_rules(&found),
            vec![(4, "std::time::Instant::now")]
        );
    }

    #[test]
    fn env_reads_outside_declared_sinks_are_flagged() {
        let env = format!("std::{}(\"X\")", needle("std::env::var"));
        for file in ["a.rs", "crates/core/src/congruence.rs"] {
            let bare = format!("fn sniff() -> bool {{\n    {env}.is_ok()\n}}\n");
            let found = run(&[(file, bare)]);
            assert_eq!(found.len(), 1, "{file}: {found:?}");
            assert_eq!(found[0].rule, "std::env::var");
            let sanctioned = format!(
                "fn sniff() -> bool {{\n    {}\n    {env}.is_ok()\n}}\n",
                expect_methods()
            );
            assert!(run(&[(file, sanctioned)]).is_empty(), "{file}");
        }
    }

    #[test]
    fn serving_clock_flags_direct_needles_despite_annotation() {
        let src = format!(
            "fn serve() {{\n    {}\n    let t = {};\n}}\n",
            expect_methods(),
            clock_needle()
        );
        let found = run(&[("crates/engine/src/serving.rs", src)]);
        assert_eq!(lines_and_rules(&found), vec![(3, "serving-clock")]);
    }

    #[test]
    fn serving_clock_is_the_serving_files_own_reads() {
        // A read in another file is that file's finding; the serving
        // function calling it adds none.
        let helper = format!(
            "pub fn sneak() -> u64 {{\n    let t = {};\n    1\n}}\n",
            clock_needle()
        );
        let serving = "fn admit() {\n    let d = sneak();\n}\n".to_string();
        let found: Vec<(String, usize, &str)> = run(&[
            ("crates/core/src/util.rs", helper),
            ("crates/engine/src/serving.rs", serving),
        ])
        .into_iter()
        .map(|f| (f.file, f.line, f.rule))
        .collect();
        assert_eq!(
            found,
            vec![(
                "crates/core/src/util.rs".to_string(),
                2,
                "std::time::Instant::now"
            )]
        );
    }

    #[test]
    fn random_state_maps_are_flagged() {
        let src = format!(
            "fn build() {{\n    let s = {}::new();\n}}\n",
            needle("std::collections::hash_map::RandomState")
        );
        assert_eq!(
            lines_and_rules(&one(src)),
            vec![(2, "std::collections::hash_map::RandomState")]
        );
    }

    #[test]
    fn findings_are_deterministically_ordered() {
        // By file, then line, then `clippy.toml` order, whatever order the
        // files come in.
        let a = format!(
            "fn helper() {{\n    let t = {};\n}}\nfn a() {{\n    helper();\n}}\n",
            clock_needle()
        );
        let b = format!(
            "let m: {}<u8, u8> = f({});\n",
            needle("std::collections::HashMap"),
            clock_needle()
        );
        let files = [("b.rs", b), ("a.rs", a)];
        let f1 = run(&files);
        assert_eq!(f1, run(&files));
        let order: Vec<(&str, usize, &str)> = f1
            .iter()
            .map(|f| (f.file.as_str(), f.line, f.rule))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs", 2, "std::time::Instant::now"),
                ("b.rs", 1, "std::collections::HashMap"),
                ("b.rs", 1, "std::time::Instant::now"),
            ]
        );
    }
}
