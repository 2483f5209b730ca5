//! Enforces the zero-clone contract of the backchase: the search induces in
//! place on the one universal plan and recycles one scratch database, so it
//! clones no `CanonDb` at all — regardless of how many candidates (2,579 on
//! `ec1_4_2`) it explores, and whatever `BackchaseConfig::threads` says
//! (there is no frontier left to give each worker a copy).
//!
//! This file must stay a single-test binary: the clone counter is
//! process-global, and unrelated tests running in the same process would
//! perturb the deltas.

use chase_too_far::core::canon::canon_db_clones;
use chase_too_far::core::prelude::*;
use chase_too_far::workloads::Ec1;

#[test]
fn backchase_frontier_never_clones_per_candidate() {
    let ec1 = Ec1::new(4, 2);
    let q = ec1.query();
    let cs = ec1.schema().all_constraints();
    for threads in [1, 4] {
        let cfg = BackchaseConfig {
            threads,
            ..BackchaseConfig::default()
        };
        let before = canon_db_clones();
        let run = chase_and_backchase(&q, &cs, &cfg);
        let clones = canon_db_clones() - before;
        assert!(
            run.explored > 1_000,
            "workload too small to prove anything: explored {}",
            run.explored
        );
        assert_eq!(
            clones, 0,
            "threads={threads}: the backchase must perform zero CanonDb clones"
        );
    }
}
