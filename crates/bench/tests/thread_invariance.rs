//! Figs. 6 and 7 yield identical plan counts (and identical timeout/missing
//! cells) under `CNB_THREADS` 1 and 4 — the determinism guarantee, observed
//! end to end through the figure pipeline: the optimizer does not read the
//! knob. Timing columns are the only thing allowed to differ.
//!
//! This test lives in its own integration-test binary (= its own process)
//! because it mutates the process environment: concurrent `getenv`/`setenv`
//! from the multi-threaded default test harness would be undefined behavior
//! on glibc. Keep it the only test in this file.

use cnb_bench::figs::{self, Scale};

/// Extracts the plan-count tokens — "(8 plans)" / "(8)" — from a rendered
/// figure, ignoring the timing numbers (which legitimately vary run to run).
fn plan_count_tokens(rendered: &str) -> Vec<String> {
    let mut out = Vec::new();
    for chunk in rendered.split('(').skip(1) {
        let Some(inner) = chunk.split(')').next() else {
            continue;
        };
        let body = inner.strip_suffix(" plans").unwrap_or(inner);
        if !body.is_empty() && body.chars().all(|c| c.is_ascii_digit()) {
            out.push(inner.to_string());
        }
    }
    out
}

#[test]
fn fig6_fig7_thread_count_invariant() {
    // Restore any externally pinned value afterwards.
    let pinned = std::env::var("CNB_THREADS").ok();
    let render = |threads: &str| {
        std::env::set_var("CNB_THREADS", threads);
        (
            figs::fig6_tpp_ec1_ec3(Scale::Smoke),
            figs::fig7_tpp_ec2(Scale::Smoke),
        )
    };
    let (f6_seq, f7_seq) = render("1");
    let (f6_par, f7_par) = render("4");
    match pinned {
        Some(v) => std::env::set_var("CNB_THREADS", v),
        None => std::env::remove_var("CNB_THREADS"),
    }

    let counts6 = plan_count_tokens(&f6_seq);
    assert!(
        !counts6.is_empty(),
        "fig6 rendered no plan counts:\n{f6_seq}"
    );
    assert_eq!(
        counts6,
        plan_count_tokens(&f6_par),
        "fig6 plan counts diverged between 1 and 4 threads"
    );
    let counts7 = plan_count_tokens(&f7_seq);
    assert!(
        !counts7.is_empty(),
        "fig7 rendered no plan counts:\n{f7_seq}"
    );
    assert_eq!(
        counts7,
        plan_count_tokens(&f7_par),
        "fig7 plan counts diverged between 1 and 4 threads"
    );
    // Missing bars (timeouts) must also agree, in both figures.
    assert_eq!(
        f6_seq.matches('—').count(),
        f6_par.matches('—').count(),
        "fig6 timeout cells diverged between thread counts"
    );
    assert_eq!(
        f7_seq.matches('—').count(),
        f7_par.matches('—').count(),
        "fig7 timeout cells diverged between thread counts"
    );
}
