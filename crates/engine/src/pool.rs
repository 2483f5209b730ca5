//! The serving pool: a scoped fork/join map over `0..len` on `std::thread`
//! alone (the workspace has no registry dependencies, so no rayon).
//!
//! `PlanServer::serve_batch_under` is its one caller, and that call's
//! `threads` argument is the only place a thread count comes from — no
//! environment variable, no config field, no look at the machine.
//!
//! Determinism contract: workers may *compute* in any interleaving, but each
//! result lands in the slot of its input index, and a cooperative stop
//! (deadline) only turns slots into `None` — it never reorders.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Hard cap on worker threads; beyond this the scoped-spawn overhead
/// outweighs any batch we serve.
const MAX_THREADS: usize = 64;

/// Workers for `len` items when the caller asks for `threads`: clamped to
/// `1..=`[`MAX_THREADS`] (`0` means 1), and never more workers than items —
/// a surplus worker would claim nothing and its spawn is pure overhead.
fn workers(threads: usize, len: usize) -> usize {
    threads.clamp(1, MAX_THREADS).min(len.max(1))
}

/// Maps `eval` over `0..len` on up to `threads` scoped workers sharing an
/// atomic cursor, returning the results **in index order**.
///
/// `eval` returning `None` requests a cooperative stop (deadline expired):
/// the flag is broadcast and workers finish without claiming further items.
/// Unevaluated slots come back as `None`, evaluated ones as `Some(T)` — so
/// callers can tell "computed" from "never ran". With one worker everything
/// runs inline on the caller's thread: no spawn, same results, same order.
pub(crate) fn map_in_order<T: Send>(
    threads: usize,
    len: usize,
    eval: impl Fn(usize) -> Option<T> + Sync,
) -> Vec<Option<T>> {
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(len, || None);
    let workers = workers(threads, len);
    if workers == 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = eval(i);
            if slot.is_none() {
                break;
            }
        }
        return slots;
    }

    let (cursor, stop) = (AtomicUsize::new(0), AtomicBool::new(false));
    let drain = || {
        let mut local: Vec<(usize, T)> = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            match eval(i) {
                Some(v) => local.push((i, v)),
                None => stop.store(true, Ordering::Relaxed),
            }
        }
        local
    };
    let collected: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });
    for (i, v) in collected.into_iter().flatten() {
        slots[i] = Some(v);
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Items evaluated on *this* thread — how a test tells inline
        /// evaluation from a worker's without asking who it is.
        static EVALUATED_HERE: Cell<usize> = const { Cell::new(0) };
    }

    fn count_here(i: usize) -> Option<usize> {
        EVALUATED_HERE.with(|n| n.set(n.get() + 1));
        Some(i)
    }

    #[test]
    fn results_are_in_index_order_under_out_of_order_completion() {
        // Item 0 finishes only once every other item has: completion order
        // is forced to differ from index order.
        for threads in [2, 4, 8] {
            let done = AtomicUsize::new(0);
            let out = map_in_order(threads, 24, |i| {
                if i == 0 {
                    while done.load(Ordering::Acquire) < 23 {
                        std::thread::yield_now();
                    }
                } else {
                    done.fetch_add(1, Ordering::Release);
                }
                Some(i * i)
            });
            let expect: Vec<Option<usize>> = (0..24).map(|i| Some(i * i)).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn cooperative_stop_leaves_only_none_slots_and_never_reorders() {
        // Inline: stop at item 5 — everything from there on is None.
        let out = map_in_order(1, 10, |i| if i == 5 { None } else { Some(i) });
        assert_eq!(out[..5], [Some(0), Some(1), Some(2), Some(3), Some(4)]);
        assert!(out[5..].iter().all(Option::is_none));
        // Workers: *at least* the stopping item is None, and whatever was
        // evaluated sits in its own slot — no result is fabricated or moved.
        let out = map_in_order(4, 40, |i| if i == 20 { None } else { Some(i) });
        assert!(out[20].is_none());
        for (i, v) in out.iter().enumerate() {
            assert!(v.is_none() || *v == Some(i), "slot {i} holds {v:?}");
        }
    }

    #[test]
    fn one_worker_runs_inline_on_the_callers_thread() {
        EVALUATED_HERE.with(|n| n.set(0));
        let out = map_in_order(1, 5, count_here);
        assert_eq!(out, (0..5).map(Some).collect::<Vec<_>>());
        assert_eq!(EVALUATED_HERE.with(Cell::get), 5);
        // A single item needs no second thread either, whatever was asked.
        map_in_order(8, 1, count_here);
        assert_eq!(EVALUATED_HERE.with(Cell::get), 6);
        // Two workers are two other threads: nothing more is counted here.
        let out = map_in_order(2, 5, count_here);
        assert_eq!(out, (0..5).map(Some).collect::<Vec<_>>());
        assert_eq!(EVALUATED_HERE.with(Cell::get), 6);
    }

    #[test]
    fn never_more_workers_than_items() {
        assert_eq!(workers(8, 3), 3);
        assert_eq!(workers(8, 0), 1);
        assert!(map_in_order(8, 0, Some).is_empty());
    }

    #[test]
    fn threads_are_clamped_and_zero_means_one() {
        assert_eq!(workers(0, 100), 1);
        assert_eq!(workers(64, 100), 64);
        assert_eq!(workers(1000, 100), MAX_THREADS);
        let out = map_in_order(0, 4, Some);
        assert_eq!(out, (0..4).map(Some).collect::<Vec<_>>());
    }
}
