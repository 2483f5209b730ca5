//! Pins the backchase's memory traffic: heap allocations per explored
//! candidate over one warm sequential `chase_and_backchase`, on the four
//! full-backchase points of the `optimize_cold` benchmark workload, and per
//! explored or pruned candidate over the bottom-up pass of its two
//! `optimize_measured` points.
//!
//! Before the inner loop stopped allocating (probes interned through the
//! homomorphism's assignment, bodies compiled once, closure lists recycled)
//! these read 450 / 464 / 513 / 574, and 49 / 62 / 51 / 42 after. What was
//! left was mostly the candidate itself: the induced query, the bindings and
//! equalities its chase steps add, its copy in the scratch database — and
//! since the lattice answers most verdicts from its borders, most candidates
//! are never built: 19 / 21 / 8 / 4. A candidate that is chased is no longer
//! written out as a query either: it is loaded from the universal plan
//! straight into the scratch database, no equality or path built on the way
//! (`subquery::load_subquery`), and plan dedup chases no pair of plans whose
//! ranges already differ: 6 / 15 / 5 / 3, what is left being mostly the
//! emitted plans, the steps a chase adds and the memo keys. A verdict the borders
//! answer allocates nothing (the memo key aside), so each ceiling below is
//! that reading plus half, rounded up: one induction per inferred verdict
//! costs some twenty allocations and a database clone hundreds, and either
//! goes through every one of them.
//!
//! The bottom-up pass built every candidate it counted — induced it, priced
//! it, and dropped three in four on the price: 103 / 71 per candidate. Since
//! the pricer's floor decides most of those from the from-clause alone, they
//! are never induced: 15 / 9 (16 / 9 before checks loaded their candidates),
//! what is left being the candidates the bound still has built and the
//! frontier's index vectors. Same ceiling rule, taken at 16 / 9; an
//! induction or a price that starts allocating more, or a floor that stops
//! deciding, goes through it.
//!
//! This file must stay a single-test binary: the counter is the process's
//! allocator, and a sibling test running on another thread would be counted
//! in. It holds the repository's one `unsafe impl` — a `GlobalAlloc` that
//! counts and delegates to `System`; every library crate keeps
//! `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use chase_too_far::core::cost::{CostModel, WcojAwarePricer};
use chase_too_far::core::prelude::*;
use chase_too_far::workloads::{Ec1, Ec2, Ec4, Ec5};

/// Calls to `alloc` / `alloc_zeroed` / `realloc` since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic that
// publishes no other data and allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per candidate over one warm call of `run`, which returns how
/// many candidates it judged — `candidates`, or the search has moved.
fn per_candidate(name: &str, candidates: usize, run: impl Fn() -> usize) -> u64 {
    // Warm: symbol interning and other first-call costs land here.
    assert_eq!(run(), candidates, "{name}: candidates moved");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let judged = run();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(judged, candidates, "{name}: candidates moved");
    let per_candidate = allocations / candidates as u64;
    println!("{name}: {allocations} allocations / {candidates} candidates = {per_candidate}");
    per_candidate
}

#[test]
fn backchase_allocations_per_explored_candidate() {
    let (ec1, ec2, ec4, ec5) = (
        Ec1::new(4, 2),
        Ec2::new(1, 4, 2),
        Ec4::new(4, 3, 2),
        Ec5::new(3, true, true),
    );
    let cfg = BackchaseConfig {
        threads: 1,
        ..BackchaseConfig::default()
    };
    let model = CostModel::default();
    let (fb, oqf) = (Strategy::Full, Strategy::Oqf);
    // (point, schema, query, `explored` of the full backchase, ceiling:
    // allocations per explored candidate it may make).
    let full = [
        ("ec1_4_2.fb", ec1.schema(), ec1.query(), 2579, 9),
        ("ec2_1_4_2.fb", ec2.schema(), ec2.query(), 63, 23),
        ("ec4_4_3_2.fb", ec4.schema(), ec4.query(), 1565, 8),
        (
            "ec5_tri_wedge_idx.fb",
            ec5.schema(),
            ec5.cycle_query(),
            3183,
            5,
        ),
    ];
    // (point, schema, query, strategy of the first pass, `explored + pruned`
    // of the bottom-up pass, ceiling: allocations per such candidate).
    let measured = [
        (
            "ec1_4_2.oqf.measured",
            ec1.schema(),
            ec1.query(),
            oqf,
            60 + 1717,
            24,
        ),
        (
            "ec5_tri_wedge_idx.fb.measured",
            ec5.schema(),
            ec5.cycle_query(),
            fb,
            6 + 830,
            13,
        ),
    ];
    let mut over = Vec::new();
    let mut hold = |name: &str, reading: u64, ceiling: u64| {
        if reading > ceiling {
            over.push(format!("{name}: {reading} > {ceiling}"));
        }
    };
    for (name, schema, q, explored, ceiling) in full {
        let cs = schema.all_constraints();
        let reading = per_candidate(name, explored, || {
            chase_and_backchase(&q, &cs, &cfg).explored
        });
        hold(name, reading, ceiling);
    }
    for (name, schema, q, strategy, candidates, ceiling) in measured {
        // As `Optimizer::optimize_measured` runs its second pass: the
        // WCOJ-aware pricer, bounded by the first pass's cheapest price.
        let optimizer = Optimizer::new(schema.clone());
        let seed = optimizer
            .optimize(&q, &OptimizerConfig::with_strategy(strategy))
            .plans
            .iter()
            .map(|p| plan_price(&model, p))
            .fold(f64::INFINITY, f64::min);
        let pricer = WcojAwarePricer {
            schema: &schema,
            model: &model,
        };
        let reading = per_candidate(name, candidates, || {
            let pass = bottom_up_backchase(&q, optimizer.constraints(), &cfg, &pricer, Some(seed));
            pass.explored + pass.pruned
        });
        hold(name, reading, ceiling);
    }
    // Debug builds run `validate()` (and its allocations) per induction.
    if cfg!(not(debug_assertions)) {
        assert!(
            over.is_empty(),
            "allocations per candidate above the ceiling: {over:?}"
        );
    }
}
