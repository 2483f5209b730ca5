//! The determinism scan: `clippy.toml`'s ban list, matched line by line in
//! the four logic crates and the experiment harness, and propagated over the
//! scraped call graph.
//!
//! Byte-identical output at every thread count is a repo-level invariant,
//! and the cheapest way to lose it is an innocent-looking
//! `std::collections::HashMap` (SipHash with a random key — iteration order
//! changes per process), a wall-clock read feeding a decision, or an
//! environment read. `clippy.toml` lists these once. Clippy enforces the
//! list by type under `-D warnings`; this scan enforces the same entries
//! (the file is embedded with `include_str!`) where clippy cannot look:
//! through the helpers that wrap them.
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
//! - **Propagation.** An unsanctioned needle is flagged at its line, and its
//!   enclosing function becomes a *source*: findings flow callee→caller over
//!   the [`crate::callgraph`] edges, so nondeterminism reached through a
//!   helper is flagged at every caller, with the call chain. A sanctioned
//!   needle sources nothing — the annotated site is the boundary.
//! - **`serving-clock`.** Deadline decisions in the serving layer must flow
//!   through the injectable `cnb_engine::clock::Clock`: a `std::time::`
//!   needle in [`SERVING_CLOCK_FILES`] is flagged **annotated or not**, and
//!   unsanctioned wall-clock taint that reaches a function defined there —
//!   through any helper chain, in any file — is flagged at that function.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::{build_graph, CallGraph};

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

/// Files whose functions form the serving layer. Matched by suffix so both
/// workspace-relative names and bare paths qualify.
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

/// One finding: a needle (or stale attribute) at its line, or a function
/// that transitively calls into an unsanctioned needle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaintFinding {
    /// File of the flagged line.
    pub file: String,
    /// 1-based line: the needle (or attribute) line for direct findings, the
    /// function header for propagated ones.
    pub line: usize,
    /// The `clippy.toml` path of the entry that fired, or `serving-clock`,
    /// or `stale-expect`.
    pub rule: &'static str,
    /// Qualified name of the flagged function (`<file scope>` outside any
    /// function).
    pub function: String,
    /// Call path from the flagged function down to the source function.
    pub path: Vec<String>,
    /// The flagged source line, or the relaying call (propagated).
    pub snippet: String,
}

impl std::fmt::Display for TaintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: tainted [{}] {}: {}",
            self.file,
            self.line,
            self.rule,
            self.path.join(" -> "),
            self.snippet
        )
    }
}

/// A needle occurrence.
struct Source<'f> {
    rule: &'static str,
    file: &'f str,
    line: usize,
    fn_idx: Option<usize>,
    snippet: String,
    /// Under the `#[expect]` of its list.
    sanctioned: bool,
}

/// A finding at one source line, attributed to its enclosing function.
fn at_line(
    g: &CallGraph,
    file: &str,
    line: usize,
    rule: &'static str,
    snippet: String,
) -> TaintFinding {
    let fn_idx = g.enclosing(file, line);
    TaintFinding {
        file: file.to_string(),
        line,
        rule,
        function: fn_idx.map_or_else(|| "<file scope>".to_string(), |i| g.fns[i].qualified()),
        path: fn_idx
            .map(|i| vec![g.fns[i].qualified()])
            .unwrap_or_default(),
        snippet,
    }
}

/// A finding at a function that reaches a source through `chain`.
fn relayed(g: &CallGraph, chain: &[usize], rule: &'static str) -> TaintFinding {
    let f = &g.fns[chain[0]];
    TaintFinding {
        file: f.file.clone(),
        line: f.line,
        rule,
        function: f.qualified(),
        path: chain.iter().map(|&i| g.fns[i].qualified()).collect(),
        snippet: format!("calls {}", g.fns[chain[1]].qualified()),
    }
}

/// Runs the scan over `(path, source)` file pairs — the workspace in
/// production, seeded corpora in tests.
pub fn taint_files(files: &[(String, String)]) -> Vec<TaintFinding> {
    let rules = rules();
    let g = build_graph(files);
    let mut out: Vec<TaintFinding> = Vec::new();

    let mut sources: Vec<Source> = Vec::new();
    for (path, text) in files {
        let lines = &g.lines[path];
        let raws: Vec<&str> = text.lines().collect();
        let snippet = |idx: usize| {
            raws.get(idx)
                .map(|s| s.trim().to_string())
                .unwrap_or_default()
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
                sources.push(Source {
                    rule: r.path,
                    file: path,
                    line: idx + 1,
                    fn_idx: g.enclosing(path, idx + 1),
                    snippet: snippet(idx),
                    sanctioned: above == Some(r.lint.expect_attr()),
                });
            }
            for lint in [Lint::Types, Lint::Methods] {
                if l.code.trim() == lint.expect_attr() && !has_needle(idx + 1, lint) {
                    out.push(at_line(&g, path, idx + 1, STALE_EXPECT, snippet(idx)));
                }
            }
        }
    }

    // Unsanctioned needles flag their line and propagate to every
    // transitive caller, one entry at a time.
    let callers = g.callers();
    for r in &rules {
        let roots: Vec<&Source> = sources
            .iter()
            .filter(|s| s.rule == r.path && !s.sanctioned)
            .collect();
        for s in &roots {
            out.push(at_line(&g, s.file, s.line, r.path, s.snippet.clone()));
        }
        for chain in propagate(&g, &callers, roots.iter().filter_map(|s| s.fn_idx)) {
            out.push(relayed(&g, &chain, r.path));
        }
    }

    // serving-clock: every wall-clock needle in a serving file, sanctioned
    // or not, and every serving-layer function that unsanctioned wall-clock
    // taint reaches.
    let clock: Vec<&Source> = sources
        .iter()
        .filter(|s| s.rule.starts_with(WALL_CLOCK))
        .collect();
    for s in clock.iter().filter(|s| serving_scope(s.file)) {
        out.push(at_line(
            &g,
            s.file,
            s.line,
            SERVING_CLOCK,
            s.snippet.clone(),
        ));
    }
    let clock_roots = clock
        .iter()
        .filter(|s| !s.sanctioned)
        .filter_map(|s| s.fn_idx);
    for chain in propagate(&g, &callers, clock_roots) {
        if serving_scope(&g.fns[chain[0]].file) {
            out.push(relayed(&g, &chain, SERVING_CLOCK));
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

/// BFS callee→caller from `roots`; returns, for each newly tainted function,
/// its (shortest, first-found) chain down to a root, the function first.
fn propagate(
    g: &CallGraph,
    callers: &[Vec<usize>],
    roots: impl Iterator<Item = usize>,
) -> Vec<Vec<usize>> {
    let mut chain: Vec<Option<Vec<usize>>> = vec![None; g.fns.len()];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for r in roots {
        if chain[r].is_none() {
            chain[r] = Some(vec![r]);
            queue.push_back(r);
        }
    }
    let mut out = Vec::new();
    while let Some(cur) = queue.pop_front() {
        let mut cs = callers[cur].clone();
        cs.sort_unstable();
        for caller in cs {
            if chain[caller].is_some() {
                continue;
            }
            let mut c = vec![caller];
            c.extend(chain[cur].as_ref().expect("visited").iter().copied());
            chain[caller] = Some(c.clone());
            out.push(c);
            queue.push_back(caller);
        }
    }
    out.sort_by_key(|c| (g.fns[c[0]].file.clone(), g.fns[c[0]].line));
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
            assert_eq!(found.len(), 1, "{}: {found:?}", r.path);
            assert_eq!((found[0].rule, found[0].line), (r.path, 2));
            assert_eq!(found[0].function, "f");
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
        let rules: Vec<(&str, usize)> = found.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(rules, vec![("std::collections::HashSet", 1)]);
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
        let found = one(src);
        let rules: Vec<(&str, usize)> = found.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(
            rules,
            vec![("stale-expect", 1), ("std::time::Instant::now", 2)]
        );
    }

    #[test]
    fn expect_over_a_clean_line_is_stale() {
        for attr in [expect_methods(), Lint::Types.expect_attr()] {
            let found = one(format!("{attr}\nlet a = 1;\n"));
            let rules: Vec<(&str, usize)> = found.iter().map(|f| (f.rule, f.line)).collect();
            assert_eq!(
                rules,
                vec![("stale-expect", 1)],
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
        let found = one(comment);
        let rules: Vec<(&str, usize)> = found.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(rules, vec![("std::time::Instant::now", 3)]);
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
        let found = one(stale);
        let rules: Vec<(&str, usize)> = found.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(rules, vec![("stale-expect", 2)]);
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
        let src = format!("fn f() {{ {}().id() }}\n", needle("std::thread::current"));
        let shown = one(src)[0].to_string();
        assert!(shown.contains("a.rs:1"), "{shown}");
        assert!(shown.contains("[std::thread::current] f"), "{shown}");
    }

    #[test]
    fn direct_source_flags_needle_and_function() {
        let src = format!("fn hot() {{\n    let t = {};\n}}\n", clock_needle());
        let found = one(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "std::time::Instant::now");
        assert_eq!(found[0].line, 2);
        assert_eq!(found[0].function, "hot");
    }

    #[test]
    fn taint_propagates_through_one_helper() {
        let src = format!(
            "fn helper() -> u64 {{\n    let t = {};\n    0\n}}\nfn caller() {{\n    let x = helper();\n}}\n",
            clock_needle()
        );
        let found = one(src);
        // Needle finding at line 2 + propagated finding at `caller`.
        assert_eq!(found.len(), 2, "{found:?}");
        let prop = found
            .iter()
            .find(|f| f.function == "caller")
            .expect("caller flagged");
        assert_eq!(prop.rule, "std::time::Instant::now");
        assert_eq!(prop.path, vec!["caller", "helper"]);
        assert_eq!(prop.snippet, "calls helper");
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
        // The annotated read in `WallClock::start` is the boundary: its
        // caller stays clean. Without the annotation both are flagged.
        let src = |attr: &str| {
            format!(
                "impl WallClock {{\n    fn start() -> Self {{\n        {attr}\n        let t = {};\n        WallClock\n    }}\n}}\nfn boot() {{\n    let c = WallClock::start();\n}}\n",
                clock_needle()
            )
        };
        assert!(run(&[("clock.rs", src(expect_methods()))]).is_empty());
        let found = run(&[("clock.rs", src(""))]);
        let flagged: Vec<&str> = found.iter().map(|f| f.function.as_str()).collect();
        assert_eq!(flagged, vec!["WallClock::start", "boot"], "{found:?}");
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
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "serving-clock");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn serving_clock_reaches_through_helpers_in_other_files() {
        let helper = format!(
            "pub fn sneak() -> u64 {{\n    let t = {};\n    1\n}}\n",
            clock_needle()
        );
        let serving = "fn admit() {\n    let d = sneak();\n}\n".to_string();
        let found = run(&[
            ("crates/core/src/util.rs", helper),
            ("crates/engine/src/serving.rs", serving),
        ]);
        let sc: Vec<_> = found.iter().filter(|f| f.rule == "serving-clock").collect();
        assert_eq!(sc.len(), 1, "{found:?}");
        assert_eq!(sc[0].function, "admit");
        assert_eq!(sc[0].path, vec!["admit", "sneak"]);
        // The helper itself is also a plain wall-clock finding.
        assert!(found
            .iter()
            .any(|f| f.rule == "std::time::Instant::now" && f.function == "sneak"));
    }

    #[test]
    fn random_state_maps_are_flagged() {
        let src = format!(
            "fn build() {{\n    let s = {}::new();\n}}\n",
            needle("std::collections::hash_map::RandomState")
        );
        let found = one(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "std::collections::hash_map::RandomState");
    }

    #[test]
    fn findings_are_deterministically_ordered() {
        let src = format!(
            "fn helper() {{\n    let t = {};\n}}\nfn a() {{\n    helper();\n}}\nfn b() {{\n    helper();\n}}\n",
            clock_needle()
        );
        let f1 = one(src.clone());
        let f2 = one(src);
        assert_eq!(f1, f2);
        assert_eq!(f1.len(), 3, "{f1:?}");
        let lines: Vec<usize> = f1.iter().map(|f| f.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }
}
