//! Machine-readable analysis output: every prong's findings in one JSON
//! document with stable field order.
//!
//! The `check.sh` gate consumes this instead of scraping exit text. The
//! writer is hand-rolled (the workspace is dependency-free by policy);
//! object keys are emitted in fixed source order and every list is sorted
//! upstream, so two runs over the same tree produce byte-identical
//! documents — the determinism gate diffs them.

use std::io;
use std::path::Path;

use crate::agm::{certify_suite, shape_report, ShapeAgm, WorkloadAgm};
use crate::suite::validate_suite;
use crate::taint::{taint_workspace, TaintFinding};

/// Everything one `cnb-analyze all` run produced.
pub struct AnalysisReport {
    /// Determinism findings (empty when clean).
    pub taint: Vec<TaintFinding>,
    /// Per-workload validation report lines, or the first failure.
    pub validate: Result<Vec<String>, String>,
    /// AGM certification per workload plus the shape report, or the first
    /// failure (including an expectation-contradicting verdict).
    pub agm: Result<(Vec<WorkloadAgm>, Vec<ShapeAgm>), String>,
}

impl AnalysisReport {
    /// True when every prong is clean.
    pub fn ok(&self) -> bool {
        self.taint.is_empty() && self.validate.is_ok() && self.agm.is_ok()
    }

    /// The full report as one stable-field-order JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"version\": 3,\n");
        // taint
        s.push_str("  \"taint\": {\"count\": ");
        s.push_str(&self.taint.len().to_string());
        s.push_str(", \"findings\": [");
        for (i, f) in self.taint.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"file\": {}, \"line\": {}, \"rule\": {}, \"snippet\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(&f.snippet)
            ));
        }
        s.push_str("]},\n");
        // validate
        match &self.validate {
            Ok(lines) => {
                s.push_str("  \"validate\": {\"ok\": true, \"workloads\": [");
                for (i, l) in lines.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&json_str(l));
                }
                s.push_str("]},\n");
            }
            Err(e) => {
                s.push_str("  \"validate\": {\"ok\": false, \"error\": ");
                s.push_str(&json_str(e));
                s.push_str("},\n");
            }
        }
        // agm
        match &self.agm {
            Ok((workloads, shapes)) => {
                s.push_str("  \"agm\": {\"ok\": true, \"workloads\": [\n");
                for (i, w) in workloads.iter().enumerate() {
                    if i > 0 {
                        s.push_str(",\n");
                    }
                    s.push_str("    ");
                    s.push_str(&workload_json(w));
                }
                s.push_str("\n  ], \"shapes\": [");
                for (i, sh) in shapes.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&format!(
                        "{{\"name\": {}, \"bound\": {}, \"worst\": {}, \"wcoj_needed\": {}}}",
                        json_str(&sh.name),
                        json_str(&sh.bound.to_string()),
                        json_str(&sh.worst.to_string()),
                        sh.wcoj_needed
                    ));
                }
                s.push_str("]},\n");
            }
            Err(e) => {
                s.push_str("  \"agm\": {\"ok\": false, \"error\": ");
                s.push_str(&json_str(e));
                s.push_str("},\n");
            }
        }
        s.push_str(&format!("  \"ok\": {}\n}}\n", self.ok()));
        s
    }
}

fn workload_json(w: &WorkloadAgm) -> String {
    let plans = w
        .plans
        .iter()
        .map(|p| {
            format!(
                "{{\"index\": {}, \"worst\": {}, \"worst_prefix\": {}, \"within\": {}, \"uses_view\": {}, \"wcoj\": {}, \"cover\": [{}]}}",
                p.index,
                json_str(&p.worst.to_string()),
                p.worst_prefix,
                p.within,
                p.uses_view,
                p.wcoj,
                cover_json(&p.cover)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"name\": {}, \"bound\": {}, \"verdict\": {}, \"bound_cover\": [{}], \"plans\": [{}]}}",
        json_str(&w.name),
        json_str(&w.bound.to_string()),
        json_str(w.verdict.name()),
        cover_json(&w.bound_cover),
        plans
    )
}

fn cover_json(cover: &[cnb_ir::hypergraph::CoverEdge]) -> String {
    cover
        .iter()
        .map(|c| {
            format!(
                "[{}, {}]",
                json_str(&c.label),
                json_str(&c.weight.to_string())
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// JSON string literal with escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs every prong against the workspace under `root` and collects one
/// report. IO errors (unreadable tree) surface as `Err`; analysis
/// *findings* do not — they land in the report with `ok() == false`.
pub fn run_all(root: &Path) -> io::Result<AnalysisReport> {
    Ok(AnalysisReport {
        taint: taint_workspace(root)?,
        validate: validate_suite(),
        agm: certify_suite().and_then(|w| shape_report().map(|s| (w, s))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("plain"), "\"plain\"");
    }

    #[test]
    fn empty_report_is_ok_and_parses_shapewise() {
        let r = AnalysisReport {
            taint: vec![],
            validate: Ok(vec!["EC1: valid".to_string()]),
            agm: Ok((vec![], vec![])),
        };
        assert!(r.ok());
        let j = r.to_json();
        assert!(j.contains("\"version\": 3"), "{j}");
        assert!(j.contains("\"ok\": true"), "{j}");
        assert!(j.ends_with("}\n"), "{j}");
    }

    #[test]
    fn findings_flip_ok_to_false() {
        let r = AnalysisReport {
            taint: vec![TaintFinding {
                file: "x.rs".into(),
                line: 1,
                rule: "std::time::Instant::now",
                snippet: "bad".into(),
            }],
            validate: Ok(vec![]),
            agm: Ok((vec![], vec![])),
        };
        assert!(!r.ok());
        assert!(r.to_json().contains("\"ok\": false"));
    }
}
