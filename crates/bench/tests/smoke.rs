//! Smoke tests for the `figures` registry: every entry of
//! `cnb_bench::FIGURES` is rendered at smoke scale and must yield a
//! non-empty markdown table, so no figure can silently rot.

use cnb_bench::{FigureArgs, Scale, FIGURES};

/// The registry names, in registry order, that have a test below.
const SMOKE_TESTED: [&str; 9] = [
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "plan-counts",
    "fig11",
    "fig12",
];

/// A rendered figure must contain at least one markdown table with a header,
/// a separator, and one data row.
fn assert_markdown_table(name: &str, rendered: &str) {
    let pipe_rows = rendered
        .lines()
        .filter(|l| l.starts_with('|') && l.ends_with('|'))
        .count();
    assert!(
        pipe_rows >= 3,
        "{name}: expected a markdown table (header + separator + data), got:\n{rendered}"
    );
    assert!(
        rendered.lines().any(|l| l.contains("|---")),
        "{name}: missing a markdown separator row:\n{rendered}"
    );
}

/// Renders the registry entry `name` at smoke scale (`rows` is read by
/// figs. 9–12 only) and checks that it is a markdown table.
fn smoke(name: &str, rows: usize) -> String {
    let (_, _, render) = FIGURES
        .iter()
        .find(|(n, ..)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not in the registry"));
    let args = FigureArgs {
        scale: Scale::Smoke,
        rows,
        ..FigureArgs::default()
    };
    let rendered = render(&args);
    assert_markdown_table(name, &rendered);
    rendered
}

/// A figure added to the registry fails here until it has a smoke test.
#[test]
fn every_registered_figure_is_smoke_tested() {
    let registered: Vec<&str> = FIGURES.iter().map(|(name, ..)| *name).collect();
    assert_eq!(registered, SMOKE_TESTED);
}

/// The command line refuses what it cannot run: status 2 and the usage,
/// which names every figure, on stderr.
#[test]
fn figures_refuses_a_bad_command_line_with_the_usage() {
    for args in [
        &[][..],
        &["fig4"],
        &["fig9", "--rows", "0"],
        &["fig9", "--timeout"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("run figures");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let usage = String::from_utf8_lossy(&out.stderr);
        for (name, ..) in &FIGURES {
            assert!(usage.contains(name), "{args:?}: {usage}");
        }
    }
}

/// One figure end to end through the command line — argument parsing,
/// dataset generation, optimization, execution of every plan: it exits 0,
/// writes nothing to stderr and prints a markdown table in which exactly
/// one plan is the original query.
#[test]
fn figures_prints_fig9_from_the_command_line() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig9", "--rows", "60", "--timeout", "20"])
        .output()
        .expect("run figures");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_markdown_table("figures fig9", &stdout);
    assert_eq!(stdout.matches("(*) original query").count(), 1, "{stdout}");
}

#[test]
fn fig5_chase_time_smoke() {
    smoke("fig5", 60);
}

#[test]
fn fig6_tpp_ec1_ec3_smoke() {
    smoke("fig6", 60);
}

#[test]
fn fig7_tpp_ec2_smoke() {
    smoke("fig7", 60);
}

#[test]
fn fig8_stratification_smoke() {
    smoke("fig8", 60);
}

#[test]
fn fig9_plan_detail_smoke() {
    let rendered = smoke("fig9", 60);
    // The OQF strategy finds the paper's 8 plans for [3,2,1], and exactly
    // one of them is the original (view-free) query.
    assert_eq!(rendered.matches("(*) original query").count(), 1);
}

#[test]
fn fig10_redux_smoke() {
    smoke("fig10", 60);
}

#[test]
fn fig11_ec4_star_smoke() {
    let rendered = smoke("fig11", 120);
    // The execution detail must include the view-free original plan and at
    // least one view-based rewrite.
    assert_eq!(rendered.matches("(*) original query").count(), 1);
    assert!(
        rendered.contains("VF1"),
        "no view plan rendered:\n{rendered}"
    );
    assert!(
        rendered.contains("measured join selectivity"),
        "feedback line missing:\n{rendered}"
    );
}

#[test]
fn fig12_ec5_cyclic_smoke() {
    let rendered = smoke("fig12", 250);
    // Both distributions must execute and report measured feedback.
    assert!(rendered.contains("uniform"), "{rendered}");
    assert!(rendered.contains("skewed"), "{rendered}");
    assert!(
        rendered.contains("triangle"),
        "shape table missing:\n{rendered}"
    );
}

#[test]
fn table_plan_counts_smoke() {
    let rendered = smoke("plan-counts", 60);
    // Smoke scale covers the first two paper rows.
    assert!(
        rendered.contains("2/2/2"),
        "paper column missing:\n{rendered}"
    );
}
