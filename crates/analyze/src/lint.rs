//! The determinism lint: an offline, dependency-free source scanner.
//!
//! Byte-identical output at every thread count is a repo-level invariant,
//! and the cheapest way to lose it is an innocent-looking
//! `std::collections::HashMap` (SipHash with a random key — iteration
//! order changes per process) or an ad-hoc wall-clock read feeding a
//! decision. This lint scans `crates/{core,engine,ir,workloads}` and
//! denies:
//!
//! | rule            | pattern                                | use instead                         |
//! |-----------------|----------------------------------------|-------------------------------------|
//! | `std-hash-map`  | `HashMap` / `HashSet`                  | `cnb_core::fxhash` maps             |
//! | `wall-clock`    | `Instant::now` / `SystemTime::now`     | an annotated stats-only site        |
//! | `thread-id`     | `thread::current`                      | nothing — logic must not know       |
//! | `stale-allow`   | an allow annotation suppressing nothing| delete the annotation               |
//!
//! A line (or the standalone comment line directly above it) may carry
//! `// cnb-lint: allow(<rule>)` to suppress a rule where the use is
//! sanctioned — the `fxhash` definition site, deadline checks and
//! stats-only timings that never influence emitted plans. An
//! annotation that suppresses nothing on its target line is itself flagged
//! (`stale-allow`), so sanctioned-site annotations cannot rot silently.
//!
//! Matching runs on lexed code (see [`crate::strip`]): comments, string
//! and raw-string contents are removed first, so prose about `HashMap` in
//! docs or a needle inside `r#"…"#` never false-positives, and code after
//! a multi-line `/* */` close is still scanned.
//!
//! The strict serving-layer clock rule (`serving-clock`) that used to live
//! here as a filename-suffix match is now a call-graph reachability rule in
//! [`crate::taint`], which also propagates these same hazards through
//! helper calls interprocedurally.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::strip::strip_source;

/// The textual lint rules, in reporting order. `stale-allow` (annotation
/// hygiene) reports under its own name; the interprocedural rules
/// (`serving-clock`, `std-env`, `random-state`) live in [`crate::taint`].
pub const LINT_RULES: [&str; 3] = ["std-hash-map", "wall-clock", "thread-id"];

/// The rule name stale annotations are reported under.
pub const STALE_ALLOW: &str = "stale-allow";

/// The crates the determinism contract covers. `cnb-bench` is excluded:
/// measuring wall time is its job. `cnb-analyze` itself never runs inside
/// the optimizer and is likewise out of scope.
pub(crate) const SCANNED_CRATES: [&str; 4] = [
    "crates/core",
    "crates/engine",
    "crates/ir",
    "crates/workloads",
];

/// One denied pattern occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintViolation {
    /// File the violation is in (as given to the scanner).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired (a [`LINT_RULES`] entry or [`STALE_ALLOW`]).
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl std::fmt::Display for LintViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: denied [{}]: {}",
            self.file, self.line, self.rule, self.snippet
        )
    }
}

/// The needle set per needle-bearing rule — the three textual lint rules
/// plus the taint-only source rules (`random-state`, `std-env`), which
/// share this table for source detection and stale-allow validation.
/// Built by concatenation at runtime so this file never contains its own
/// denied patterns as literals (the scanner must stay self-clean if it is
/// ever pointed at itself).
pub(crate) fn rule_needles() -> Vec<(&'static str, Vec<String>)> {
    let h = "Hash";
    let now = "::now";
    let sep = "::";
    vec![
        ("std-hash-map", vec![format!("{h}Map"), format!("{h}Set")]),
        (
            "wall-clock",
            vec![format!("Instant{now}"), format!("SystemTime{now}")],
        ),
        ("thread-id", vec![format!("thread{sep}current")]),
        ("random-state", vec![format!("Random{}", "State")]),
        ("std-env", vec![format!("std{sep}env{sep}")]),
    ]
}

/// True if `needle` occurs in `code` at an identifier boundary (the
/// preceding character is not alphanumeric or `_`, so `FxHashMap` does
/// not match the `HashMap` needle).
pub(crate) fn contains_token(code: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(i) = code[start..].find(needle) {
        let at = start + i;
        let boundary = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if boundary {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// The rule names inside `cnb-lint: allow(...)` annotations in `comment`,
/// verbatim (validity is the caller's concern — stale-allow flags unknown
/// names).
pub(crate) fn allows_in(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(i) = rest.find("cnb-lint: allow(") {
        let after = &rest[i + "cnb-lint: allow(".len()..];
        if let Some(end) = after.find(')') {
            out.push(after[..end].trim().to_string());
            rest = &after[end..];
        } else {
            break;
        }
    }
    out
}

/// Per-line allow context for a stripped file: `allowed[i]` is the set of
/// rule names suppressing findings on line `i+1` (same-line annotations
/// plus ones carried from a standalone comment line directly above).
pub(crate) fn allow_map(lines: &[crate::strip::StrippedLine]) -> Vec<Vec<String>> {
    let mut out = Vec::with_capacity(lines.len());
    let mut carried: Vec<String> = Vec::new();
    for l in lines {
        let mut here = allows_in(&l.comment);
        here.extend(carried.iter().cloned());
        out.push(here);
        carried = if l.code.trim().is_empty() {
            allows_in(&l.comment)
        } else {
            Vec::new()
        };
    }
    out
}

/// Scans one source text. `file` is used only for reporting.
pub fn lint_source(file: &str, content: &str) -> Vec<LintViolation> {
    let rules = rule_needles();
    let stripped = strip_source(content);
    let raws: Vec<&str> = content.lines().collect();
    let allowed = allow_map(&stripped);
    let mut out = Vec::new();
    for (idx, l) in stripped.iter().enumerate() {
        let raw = raws.get(idx).copied().unwrap_or_default();
        for rule in LINT_RULES {
            let ns = &rules.iter().find(|(r, _)| *r == rule).expect("known").1;
            if !ns.iter().any(|n| contains_token(&l.code, n)) {
                continue;
            }
            if allowed[idx].iter().any(|a| a == rule) {
                continue;
            }
            out.push(LintViolation {
                file: file.to_string(),
                line: idx + 1,
                rule,
                snippet: raw.trim().to_string(),
            });
        }
        // Stale-allow: every annotation on this line must have a needle of
        // its rule on the line it targets (this one, or the next when this
        // line is comment-only).
        for name in allows_in(&l.comment) {
            let target = if l.code.trim().is_empty() {
                idx + 1
            } else {
                idx
            };
            let live = rules.iter().any(|(r, ns)| {
                *r == name
                    && stripped
                        .get(target)
                        .is_some_and(|t| ns.iter().any(|n| contains_token(&t.code, n)))
            });
            if !live {
                out.push(LintViolation {
                    file: file.to_string(),
                    line: idx + 1,
                    rule: STALE_ALLOW,
                    snippet: raw.trim().to_string(),
                });
            }
        }
    }
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

/// Reads every determinism-covered source file under the workspace root
/// (the directory containing `crates/`) as `(relative path, content)`
/// pairs, sorted. Missing crate directories are an error: a silently
/// skipped crate would read as clean.
pub(crate) fn workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for rel in SCANNED_CRATES {
        let dir = root.join(rel);
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} not found under {}", rel, root.display()),
            ));
        }
        rust_files(&dir, &mut files)?;
    }
    files
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
        .collect()
}

/// Lints the determinism-covered crates under the workspace root `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<LintViolation>> {
    let mut out = Vec::new();
    for (name, content) in workspace_files(root)? {
        out.extend(lint_source(&name, &content));
    }
    Ok(out)
}

/// Every `cnb-lint: allow(rule)` annotation in the determinism-covered
/// crates, as `(file, 1-based line)`. The workspace test pins how many
/// there are per crate, so sanctioning one more nondeterminism source is a
/// reviewed change to a number, not just one more comment.
pub fn allow_sites(root: &Path, rule: &str) -> io::Result<Vec<(String, usize)>> {
    let mut out = Vec::new();
    for (name, content) in workspace_files(root)? {
        for (idx, l) in strip_source(&content).iter().enumerate() {
            if allows_in(&l.comment).iter().any(|a| a == rule) {
                out.push((name.clone(), idx + 1));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a line containing a denied pattern without this test file
    /// itself containing it.
    fn seeded(rule: &str) -> String {
        match rule {
            "std-hash-map" => format!("    let m: {}Map<u32, u32> = Default::default();", "Hash"),
            "wall-clock" => format!("    let t0 = Instant{}now();", "::"),
            "thread-id" => format!("    let id = thread{}current().id();", "::"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn every_rule_fires_on_a_seeded_violation() {
        for rule in LINT_RULES {
            let src = format!("fn f() {{\n{}\n}}\n", seeded(rule));
            let found = lint_source("seed.rs", &src);
            assert_eq!(found.len(), 1, "{rule}: {found:?}");
            assert_eq!(found[0].rule, rule);
            assert_eq!(found[0].line, 2);
        }
    }

    #[test]
    fn hash_set_variant_fires_too() {
        let src = format!("use std::collections::{}Set;\n", "Hash");
        let found = lint_source("seed.rs", &src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "std-hash-map");
    }

    #[test]
    fn fx_aliases_do_not_fire() {
        let src = format!(
            "use cnb_core::fxhash::{{Fx{h}Map, Fx{h}Set}};\nlet m: Fx{h}Map<u8, u8> = Fx{h}Map::default();\n",
            h = "Hash"
        );
        assert!(lint_source("ok.rs", &src).is_empty());
    }

    #[test]
    fn comments_are_stripped() {
        let src = format!("// std {}Map is denied in prose too? no.\n", "Hash");
        assert!(lint_source("ok.rs", &src).is_empty());
    }

    #[test]
    fn needles_inside_raw_strings_do_not_fire() {
        let src = format!("let doc = r#\"call Instant{}now() here\"#;\n", "::");
        assert!(lint_source("ok.rs", &src).is_empty(), "{src}");
    }

    #[test]
    fn needles_inside_block_comments_do_not_fire_but_code_after_does() {
        let n = seeded("wall-clock");
        let src = format!(
            "/* {} spans\nlines {} */ {}\n",
            n.trim(),
            n.trim(),
            n.trim()
        );
        let found = lint_source("seed.rs", &src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 2, "only the code after */ fires");
    }

    #[test]
    fn same_line_allow_suppresses() {
        let src = format!(
            "{} // cnb-lint: allow(std-hash-map)\n",
            seeded("std-hash-map")
        );
        assert!(lint_source("ok.rs", &src).is_empty());
    }

    #[test]
    fn preceding_comment_line_allow_suppresses() {
        let src = format!("// cnb-lint: allow(wall-clock)\n{}\n", seeded("wall-clock"));
        assert!(lint_source("ok.rs", &src).is_empty());
    }

    #[test]
    fn allow_does_not_leak_past_one_line() {
        let src = format!(
            "// cnb-lint: allow(wall-clock)\n{}\n{}\n",
            seeded("wall-clock"),
            seeded("wall-clock")
        );
        let found = lint_source("leak.rs", &src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn allow_of_wrong_rule_does_not_suppress_and_is_stale() {
        let src = format!(
            "{} // cnb-lint: allow(wall-clock)\n",
            seeded("std-hash-map")
        );
        let found = lint_source("bad.rs", &src);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().any(|v| v.rule == "std-hash-map"));
        assert!(found.iter().any(|v| v.rule == STALE_ALLOW));
    }

    #[test]
    fn allow_suppressing_nothing_is_stale() {
        let found = lint_source("x.rs", "let a = 1; // cnb-lint: allow(wall-clock)\n");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, STALE_ALLOW);
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn standalone_allow_over_a_clean_line_is_stale() {
        let src = "// cnb-lint: allow(std-hash-map)\nlet a = 1;\n";
        let found = lint_source("x.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, STALE_ALLOW);
        assert_eq!(found[0].line, 1, "reported at the annotation");
    }

    #[test]
    fn allow_of_unknown_rule_is_stale() {
        let found = lint_source("x.rs", "let a = 1; // cnb-lint: allow(no-such-rule)\n");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, STALE_ALLOW);
    }

    #[test]
    fn live_allows_are_not_stale() {
        // Same-line and carried forms, both with real needles.
        let src = format!(
            "{} // cnb-lint: allow(std-hash-map)\n// cnb-lint: allow(wall-clock)\n{}\n",
            seeded("std-hash-map"),
            seeded("wall-clock")
        );
        assert!(lint_source("ok.rs", &src).is_empty());
    }

    #[test]
    fn taint_rule_allows_validate_against_their_needles() {
        // `std-env` has no textual lint, but its allow is live when the
        // needle is present — and stale when not.
        let live = format!(
            "let v = std{}env{}var(\"X\"); // cnb-lint: allow(std-env)\n",
            "::", "::"
        );
        assert!(lint_source("ok.rs", &live).is_empty());
        let stale = "let v = 1; // cnb-lint: allow(std-env)\n";
        assert_eq!(lint_source("x.rs", stale).len(), 1);
    }

    #[test]
    fn violation_display_is_greppable() {
        let found = lint_source("x.rs", &format!("fn f() {{ {} }}\n", seeded("thread-id")));
        let shown = found[0].to_string();
        assert!(shown.contains("x.rs:1"), "{shown}");
        assert!(shown.contains("thread-id"), "{shown}");
    }
}
