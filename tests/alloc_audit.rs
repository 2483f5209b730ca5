//! Pins the memory traffic of two kernels. The backchase's: heap
//! allocations per explored candidate over one warm sequential
//! `chase_and_backchase`, on the four full-backchase points of the
//! `optimize_cold` benchmark workload, and per explored or pruned candidate
//! over the bottom-up pass of its two `optimize_measured` points. The
//! generic join's: heap allocations per `execute_wcoj` call on the two EC5
//! graphs of the `exec_analytic` workload.
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
//! Most of the candidates the borders leave are refuted by the universal
//! plan's derivations (`cnb_core::derivations`), neither loaded nor chased:
//! 5 / 12 / 4 / 3 → 2 / 12 / 4 / 2, and the first and last ceilings were
//! lowered by the same rule, to 3 / 3. The derivations are built once per
//! lattice, a handful of allocations that fit under every ceiling; their
//! check allocates nothing, which the per-candidate readings are too coarse
//! to see (591 checks among `ec1_4_2`'s 2 579 candidates), so it has a
//! reading of its own with a ceiling of 0: every subset of `ec1_4_2`'s
//! universal plan checked on a lattice whose derivations are built.
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
//! The generic join sorted every binding's relation through one vector per
//! row and copied its range frame for every lead value: 9 704 allocations
//! on the uniform graph (120 rows out) and 12 049 on the skewed one (1 803).
//! It now builds each distinct index once, into sorted key columns, and
//! reuses its frames: 199 and 1 894, of which one per output row is the
//! projected row itself. The ceiling bounds the rest — 79 and 91, the
//! query's validation, the indexes, the batch's columns growing — by the
//! same rule, at 119 / 137; a lead value, a seek or an index row that
//! starts allocating goes through it.
//!
//! The ceilings are asserted in release only, the profile the benchmark
//! runs: a debug build validates every induced query and re-proves every
//! inferred verdict, and those allocate.
//!
//! This file must stay a single-test binary: the counter is the process's
//! allocator, and a sibling test running on another thread would be counted
//! in. It holds the repository's one `unsafe impl` — a `GlobalAlloc` that
//! counts and delegates to `System`; every library crate keeps
//! `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use chase_too_far::core::backchase::Lattice;
use chase_too_far::core::bitset::VarSet;
use chase_too_far::core::cost::{CostModel, WcojAwarePricer};
use chase_too_far::core::prelude::*;
use chase_too_far::engine::datagen::EdgeDist;
use chase_too_far::engine::execute_wcoj;
use chase_too_far::engine::prng::SplitMix64;
use chase_too_far::workloads::ec5::Ec5DataSpec;
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
        ("ec1_4_2.fb", ec1.schema(), ec1.query(), 2579, 3),
        ("ec2_1_4_2.fb", ec2.schema(), ec2.query(), 63, 23),
        ("ec4_4_3_2.fb", ec4.schema(), ec4.query(), 1565, 8),
        (
            "ec5_tri_wedge_idx.fb",
            ec5.schema(),
            ec5.cycle_query(),
            3183,
            3,
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
    // The derivations' refutation check allocates nothing per candidate
    // once they are built: every subset of `ec1_4_2`'s universal plan, swept
    // twice through one lattice, the second sweep read.
    let (q, cs) = (ec1.query(), ec1.schema().all_constraints());
    let universal = chase_query(&q, &cs, ChaseConfig::default()).0.query.from;
    let keeps: Vec<VarSet> = (0u32..1 << universal.len())
        .map(|mask| {
            let kept = universal.iter().enumerate();
            VarSet::from_iter(
                kept.filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, b)| b.var),
            )
        })
        .collect();
    let mut lattice = Lattice::chase(&q, &cs, &cfg);
    let mut sweep = || keeps.iter().filter(|k| lattice.underivable(k)).count();
    let refuted = sweep();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(sweep(), refuted, "ec1_4_2.refutations: refutations moved");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    println!(
        "ec1_4_2.refutations: {allocations} allocations / {} checks ({refuted} refuted)",
        keeps.len()
    );
    hold("ec1_4_2.refutations", allocations, 0);
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
    // The generic join on the two EC5 graphs of the `exec_analytic`
    // benchmark workload (240 nodes, 1 200 edges, its data seeds): one
    // warm `execute_wcoj` of the triangle, whose allocations beyond one per
    // output row may not pass the ceiling.
    let data_seed = |stream: u64| {
        SplitMix64::seed_from_u64(0x5eed_da7a ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .next_u64()
    };
    let triangle = Ec5::triangle();
    for (g, (name, dist, ceiling)) in [
        ("ec5u.wcoj", EdgeDist::Uniform, 119),
        ("ec5s.wcoj", EdgeDist::Skewed(2.0), 137),
    ]
    .into_iter()
    .enumerate()
    {
        let db = triangle.generate(Ec5DataSpec {
            nodes: 240,
            edges: 1200,
            dist,
            seed: data_seed(10 + g as u64),
        });
        let q = triangle.cycle_query();
        let rows = execute_wcoj(&db, &q).unwrap().stats.rows_out as u64;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let again = execute_wcoj(&db, &q).unwrap().stats.rows_out as u64;
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(again, rows, "{name}: rows moved");
        let beyond = allocations.saturating_sub(rows);
        println!(
            "{name}: {allocations} allocations / {rows} rows out, {beyond} beyond one per row"
        );
        hold(name, beyond, ceiling);
    }
    // Debug builds run `validate()` (and its allocations) per induction.
    if cfg!(not(debug_assertions)) {
        assert!(over.is_empty(), "allocations above the ceiling: {over:?}");
    }
}
