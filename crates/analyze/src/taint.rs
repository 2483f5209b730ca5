//! Interprocedural determinism taint: nondeterminism sources propagated
//! over the scraped call graph.
//!
//! The textual lint ([`crate::lint`]) sees a hazard only at its needle
//! line; a helper that wraps `Instant::now()` launders the hazard past
//! every caller. This pass closes that hole: needles mark their enclosing
//! function as a taint *source*, and taint flows callee→caller over the
//! [`crate::callgraph`] edges, so nondeterminism reached through a helper
//! is flagged at the call site too — with the full call path in the
//! finding.
//!
//! Sanctioning is two-level:
//!
//! - **Annotations**: a needle suppressed by `// cnb-lint: allow(<rule>)`
//!   is a declared boundary — it does not source taint for its own rule
//!   (the lint already audits these sites, and stale ones are flagged).
//! - **Sink functions** ([`sanctioned_sink`]): `WallClock::start` (the one
//!   sanctioned wall-clock origin behind the injectable `Clock`), every
//!   function in `engine/src/prng.rs` (the seeded in-repo PRNG) and
//!   `trail_check_enabled` (debug trail toggle — the one environment read
//!   of the product crates). Needles inside a sink never source, and taint
//!   never propagates *into* a sink — the boundary absorbs.
//!
//! The strict `serving-clock` tier is a reachability rule here (it was a
//! filename-suffix match in the per-line lint): wall-clock needles in
//! [`SERVING_CLOCK_FILES`] are flagged directly and **no annotation
//! suppresses them**, and any *unsanctioned* wall-clock taint that reaches
//! a function defined in the serving layer — through any helper chain, in
//! any file — is flagged at that serving function.

use std::io;
use std::path::Path;

use crate::callgraph::{build_graph, CallGraph};
use crate::lint::{allow_map, contains_token, rule_needles, workspace_files};

/// The taint rules, in reporting order. The first four are needle-sourced;
/// `serving-clock` derives from wall-clock sources via reachability.
pub const TAINT_RULES: [&str; 5] = [
    "wall-clock",
    "thread-id",
    "random-state",
    "std-env",
    "serving-clock",
];

/// Files whose functions form the serving layer — deadline decisions there
/// must flow through the injectable `cnb_engine::clock::Clock`. Matched by
/// suffix so both workspace-relative names and bare paths qualify.
pub const SERVING_CLOCK_FILES: [&str; 2] = [
    "crates/engine/src/serving.rs",
    "crates/engine/src/pressure.rs",
];

/// True when `file` is part of the serving layer.
fn serving_scope(file: &str) -> bool {
    let norm = file.replace('\\', "/");
    SERVING_CLOCK_FILES
        .iter()
        .any(|f| norm == *f || norm.ends_with(&format!("/{f}")))
}

/// The declared sanctioned sinks: boundaries where nondeterminism is
/// contained by design, reviewed once, and absorbed by the analysis.
fn sanctioned_sink(g: &CallGraph, idx: usize) -> bool {
    let f = &g.fns[idx];
    let file = f.file.replace('\\', "/");
    (f.name == "start" && f.owner.as_deref() == Some("WallClock"))
        || file.ends_with("engine/src/prng.rs")
        || (f.name == "trail_check_enabled" && f.owner.is_none() && file.ends_with("congruence.rs"))
}

/// One taint finding: a function that contains — or transitively calls
/// into — an unsanctioned nondeterminism source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaintFinding {
    /// File of the flagged line.
    pub file: String,
    /// 1-based line: the needle line for direct sources, the function
    /// header for propagated findings.
    pub line: usize,
    /// Which of [`TAINT_RULES`] fired.
    pub rule: &'static str,
    /// Qualified name of the flagged function (`<file scope>` for needles
    /// outside any function).
    pub function: String,
    /// Call path from the flagged function down to the source function.
    pub path: Vec<String>,
    /// The needle line (sources) or the relaying call (propagated).
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

/// A needle occurrence classified against annotations and sinks.
struct Source {
    fn_idx: Option<usize>,
    file: String,
    line: usize,
    rule: &'static str,
    snippet: String,
    /// Suppressed by a (live) allow annotation.
    annotated: bool,
}

/// Runs the taint analysis over `(path, source)` file pairs — the
/// workspace in production, seeded corpora in tests.
pub fn taint_files(files: &[(String, String)]) -> Vec<TaintFinding> {
    let g = build_graph(files);
    let needles = rule_needles();
    let raws: std::collections::BTreeMap<&str, Vec<&str>> = files
        .iter()
        .map(|(p, s)| (p.as_str(), s.lines().collect()))
        .collect();

    // Collect every needle occurrence for the four source rules.
    let mut sources: Vec<Source> = Vec::new();
    for (path, _) in files {
        let stripped = &g.lines[path];
        let allowed = allow_map(stripped);
        for (idx, l) in stripped.iter().enumerate() {
            for rule in &TAINT_RULES[..4] {
                let ns = &needles.iter().find(|(r, _)| r == rule).expect("known").1;
                if !ns.iter().any(|n| contains_token(&l.code, n)) {
                    continue;
                }
                let fn_idx = g.enclosing(path, idx + 1);
                if fn_idx.is_some_and(|i| sanctioned_sink(&g, i)) {
                    continue; // inside a declared boundary
                }
                let snippet = raws[path.as_str()]
                    .get(idx)
                    .map(|s| s.trim().to_string())
                    .unwrap_or_default();
                sources.push(Source {
                    fn_idx,
                    file: path.clone(),
                    line: idx + 1,
                    rule,
                    snippet,
                    annotated: allowed[idx].iter().any(|a| a == rule),
                });
            }
        }
    }

    let callers = g.callers();
    let mut out: Vec<TaintFinding> = Vec::new();

    // Needle-sourced rules: unannotated sources flag their function and
    // propagate to every (non-sink) transitive caller.
    for rule in &TAINT_RULES[..4] {
        let roots: Vec<&Source> = sources
            .iter()
            .filter(|s| s.rule == *rule && !s.annotated)
            .collect();
        for s in &roots {
            out.push(TaintFinding {
                file: s.file.clone(),
                line: s.line,
                rule,
                function: s
                    .fn_idx
                    .map(|i| g.fns[i].qualified())
                    .unwrap_or_else(|| "<file scope>".to_string()),
                path: s
                    .fn_idx
                    .map(|i| vec![g.fns[i].qualified()])
                    .unwrap_or_default(),
                snippet: s.snippet.clone(),
            });
        }
        for (fi, chain) in propagate(&g, &callers, roots.iter().filter_map(|s| s.fn_idx)) {
            let f = &g.fns[fi];
            out.push(TaintFinding {
                file: f.file.clone(),
                line: f.line,
                rule,
                function: f.qualified(),
                path: chain.iter().map(|&i| g.fns[i].qualified()).collect(),
                snippet: format!("calls {}", g.fns[chain[1]].qualified()),
            });
        }
    }

    // serving-clock: every wall-clock needle (annotated or not, sinks
    // excepted) in a serving file is flagged directly — unsuppressible —
    // and unsanctioned wall-clock taint reaching a serving-layer function
    // is flagged at that function.
    for s in sources.iter().filter(|s| s.rule == "wall-clock") {
        if serving_scope(&s.file) {
            out.push(TaintFinding {
                file: s.file.clone(),
                line: s.line,
                rule: "serving-clock",
                function: s
                    .fn_idx
                    .map(|i| g.fns[i].qualified())
                    .unwrap_or_else(|| "<file scope>".to_string()),
                path: s
                    .fn_idx
                    .map(|i| vec![g.fns[i].qualified()])
                    .unwrap_or_default(),
                snippet: s.snippet.clone(),
            });
        }
    }
    let clock_roots = sources
        .iter()
        .filter(|s| s.rule == "wall-clock" && !s.annotated)
        .filter_map(|s| s.fn_idx);
    for (fi, chain) in propagate(&g, &callers, clock_roots) {
        let f = &g.fns[fi];
        if serving_scope(&f.file) {
            out.push(TaintFinding {
                file: f.file.clone(),
                line: f.line,
                rule: "serving-clock",
                function: f.qualified(),
                path: chain.iter().map(|&i| g.fns[i].qualified()).collect(),
                snippet: format!("calls {}", g.fns[chain[1]].qualified()),
            });
        }
    }

    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, rule_rank(a.rule)).cmp(&(
            b.file.as_str(),
            b.line,
            rule_rank(b.rule),
        ))
    });
    out.dedup();
    out
}

fn rule_rank(rule: &str) -> usize {
    TAINT_RULES
        .iter()
        .position(|r| *r == rule)
        .unwrap_or(usize::MAX)
}

/// BFS callee→caller from `roots`, skipping sinks; returns each newly
/// tainted function with its (shortest, first-found) chain down to a root.
fn propagate(
    g: &CallGraph,
    callers: &[Vec<usize>],
    roots: impl Iterator<Item = usize>,
) -> Vec<(usize, Vec<usize>)> {
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
            if chain[caller].is_some() || sanctioned_sink(g, caller) {
                continue;
            }
            let mut c = vec![caller];
            c.extend(chain[cur].as_ref().expect("visited").iter().copied());
            chain[caller] = Some(c.clone());
            out.push((caller, c));
            queue.push_back(caller);
        }
    }
    out.sort_by_key(|(i, _)| (g.fns[*i].file.clone(), g.fns[*i].line));
    out
}

/// Runs the taint analysis over the determinism-covered crates beneath
/// `root` (the directory containing `crates/`).
pub fn taint_workspace(root: &Path) -> io::Result<Vec<TaintFinding>> {
    Ok(taint_files(&workspace_files(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock_needle() -> String {
        format!("Instant{}now()", "::")
    }

    fn run(files: &[(&str, String)]) -> Vec<TaintFinding> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.clone()))
            .collect();
        taint_files(&owned)
    }

    #[test]
    fn direct_source_flags_needle_and_function() {
        let src = format!("fn hot() {{\n    let t = {};\n}}\n", clock_needle());
        let found = run(&[("a.rs", src)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "wall-clock");
        assert_eq!(found[0].line, 2);
        assert_eq!(found[0].function, "hot");
    }

    #[test]
    fn taint_propagates_through_one_helper() {
        let src = format!(
            "fn helper() -> u64 {{\n    let t = {};\n    0\n}}\nfn caller() {{\n    let x = helper();\n}}\n",
            clock_needle()
        );
        let found = run(&[("a.rs", src)]);
        // Needle finding at line 2 + propagated finding at `caller`.
        assert_eq!(found.len(), 2, "{found:?}");
        let prop = found
            .iter()
            .find(|f| f.function == "caller")
            .expect("caller flagged");
        assert_eq!(prop.rule, "wall-clock");
        assert_eq!(prop.path, vec!["caller", "helper"]);
        assert_eq!(prop.snippet, "calls helper");
    }

    #[test]
    fn annotated_needles_do_not_source_taint() {
        let src = format!(
            "fn timed() {{\n    let t = {}; // cnb-lint: allow(wall-clock)\n}}\nfn caller() {{\n    timed();\n}}\n",
            clock_needle()
        );
        assert!(run(&[("a.rs", src)]).is_empty());
    }

    #[test]
    fn sinks_absorb_instead_of_relaying() {
        // `WallClock::start` may read the clock; its caller stays clean.
        let src = format!(
            "impl WallClock {{\n    fn start() -> Self {{\n        let t = {};\n        WallClock\n    }}\n}}\nfn boot() {{\n    let c = WallClock::start();\n}}\n",
            clock_needle()
        );
        assert!(run(&[("clock.rs", src)]).is_empty());
    }

    #[test]
    fn env_reads_outside_declared_sinks_are_flagged() {
        let env = format!("std{}env{}var(\"X\")", "::", "::");
        let bad = format!("fn sniff() -> bool {{\n    {env}.is_ok()\n}}\n");
        let found = run(&[("a.rs", bad)]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "std-env");
        // …while the one declared sink stays sanctioned.
        let ok = format!("fn trail_check_enabled() -> bool {{\n    {env}.is_ok()\n}}\n");
        assert!(run(&[("crates/core/src/congruence.rs", ok)]).is_empty());
    }

    #[test]
    fn serving_clock_flags_direct_needles_despite_annotation() {
        let src = format!(
            "fn serve() {{\n    let t = {}; // cnb-lint: allow(wall-clock)\n}}\n",
            clock_needle()
        );
        let found = run(&[("crates/engine/src/serving.rs", src)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "serving-clock");
        assert_eq!(found[0].line, 2);
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
            .any(|f| f.rule == "wall-clock" && f.function == "sneak"));
    }

    #[test]
    fn random_state_maps_are_flagged() {
        let src = format!("fn build() {{\n    let s = Random{}::new();\n}}\n", "State");
        let found = run(&[("a.rs", src)]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "random-state");
    }

    #[test]
    fn findings_are_deterministically_ordered() {
        let src = format!(
            "fn helper() {{\n    let t = {};\n}}\nfn a() {{\n    helper();\n}}\nfn b() {{\n    helper();\n}}\n",
            clock_needle()
        );
        let f1 = run(&[("a.rs", src.clone())]);
        let f2 = run(&[("a.rs", src)]);
        assert_eq!(f1, f2);
        assert_eq!(f1.len(), 3, "{f1:?}");
        let lines: Vec<usize> = f1.iter().map(|f| f.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }
}
