//! Pins the backchase's memory traffic: heap allocations per explored
//! candidate over one warm sequential `chase_and_backchase`, on the four
//! full-backchase points of the `optimize_cold` benchmark workload.
//!
//! Before the inner loop stopped allocating (probes interned through the
//! homomorphism's assignment, bodies compiled once, closure lists recycled)
//! these read 450 / 464 / 513 / 574, and 49 / 62 / 51 / 42 after. What was
//! left was mostly the candidate itself: the induced query, the bindings and
//! equalities its chase steps add, its copy in the scratch database — and
//! since the lattice answers most verdicts from its borders, most candidates
//! are never built: 19 / 21 / 8 / 4. A verdict the borders answer allocates
//! nothing (the memo key aside), so each ceiling below is that reading plus
//! half: one induction per inferred verdict costs some twenty allocations
//! and a database clone hundreds, and either goes through every one of them.
//!
//! This file must stay a single-test binary: the counter is the process's
//! allocator, and a sibling test running on another thread would be counted
//! in. It holds the repository's one `unsafe impl` — a `GlobalAlloc` that
//! counts and delegates to `System`; every library crate keeps
//! `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use chase_too_far::core::prelude::*;
use chase_too_far::ir::prelude::{Constraint, Query};
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

#[test]
fn backchase_allocations_per_explored_candidate() {
    let (ec1, ec2, ec4, ec5) = (
        Ec1::new(4, 2),
        Ec2::new(1, 4, 2),
        Ec4::new(4, 3, 2),
        Ec5::new(3, true, true),
    );
    // (point, query, constraints, `explored`, ceiling: allocations per
    // explored candidate the full backchase may make).
    let points: [(&str, Query, Vec<Constraint>, usize, u64); 4] = [
        (
            "ec1_4_2.fb",
            ec1.query(),
            ec1.schema().all_constraints(),
            2579,
            28,
        ),
        (
            "ec2_1_4_2.fb",
            ec2.query(),
            ec2.schema().all_constraints(),
            63,
            32,
        ),
        (
            "ec4_4_3_2.fb",
            ec4.query(),
            ec4.schema().all_constraints(),
            1565,
            12,
        ),
        (
            "ec5_tri_wedge_idx.fb",
            ec5.cycle_query(),
            ec5.schema().all_constraints(),
            3183,
            6,
        ),
    ];
    let cfg = BackchaseConfig {
        threads: 1,
        ..BackchaseConfig::default()
    };
    let mut over = Vec::new();
    for (name, q, cs, explored, ceiling) in &points {
        // Warm: symbol interning and other first-call costs land here.
        let warm = chase_and_backchase(q, cs, &cfg);
        assert_eq!(warm.explored, *explored, "{name}: explored moved");
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let run = chase_and_backchase(q, cs, &cfg);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(run.explored, *explored, "{name}: explored moved");
        let per_candidate = allocations / run.explored as u64;
        println!("{name}: {allocations} allocations / {explored} explored = {per_candidate}");
        if per_candidate > *ceiling {
            over.push(format!("{name}: {per_candidate} > {ceiling}"));
        }
    }
    // Debug builds run `validate()` (and its allocations) per induction.
    if cfg!(not(debug_assertions)) {
        assert!(
            over.is_empty(),
            "allocations per explored candidate above the ceiling: {over:?}"
        );
    }
}
