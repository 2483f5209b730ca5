//! A hand-rolled scoped thread pool with a chunked work queue.
//!
//! A batch of requests is "embarrassingly parallel": `cnb_engine`'s
//! `PlanServer::serve_batch` executes them independently. (The backchase's
//! breadth-first frontier was this module's first user; it is gone — see
//! "Borders" in [`crate::backchase`].) The workspace has no registry
//! dependencies (no rayon), so this module provides the minimal machinery on
//! `std::thread` alone:
//!
//! * [`resolve_threads`] — the `CNB_THREADS` knob (explicit config beats the
//!   environment beats `available_parallelism`);
//! * [`WorkQueue`] — an atomic cursor handing out index chunks;
//! * [`map_chunked`] — a scoped fork/join map over `0..len` that returns
//!   results **in index order**, so callers merge deterministically no matter
//!   how the OS schedules the workers.
//!
//! Determinism contract: workers may *compute* in any interleaving, but each
//! result lands in the slot of its input index, and a cooperative stop
//! (deadline) only turns trailing slots into `None` — it never reorders.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Hard cap on worker threads; beyond this the scoped-spawn overhead
/// outweighs any batch we serve.
pub const MAX_THREADS: usize = 64;

/// Resolves the effective worker count.
///
/// `explicit` (a caller's thread-count argument) wins when non-zero;
/// otherwise the `CNB_THREADS` environment variable; otherwise the machine's
/// [`std::thread::available_parallelism`]. The result is clamped to
/// `1..=`[`MAX_THREADS`].
pub fn resolve_threads(explicit: usize) -> usize {
    let env = std::env::var("CNB_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok());
    let available = std::thread::available_parallelism().map(|n| n.get()).ok();
    resolve_threads_from(explicit, env, available)
}

/// The pure core of [`resolve_threads`]: source precedence plus the cap,
/// with every source clamped individually. An oversized value from *any*
/// source — explicit config, `CNB_THREADS`, or a machine reporting hundreds
/// of cores — must not blow past the scoped-spawn cap, and an unset or
/// zero source falls through to the next rather than forcing 1.
pub fn resolve_threads_from(
    explicit: usize,
    env: Option<usize>,
    available: Option<usize>,
) -> usize {
    let n = if explicit > 0 {
        explicit
    } else if let Some(env) = env.filter(|&n| n > 0) {
        env
    } else {
        available.filter(|&n| n > 0).unwrap_or(1)
    };
    n.clamp(1, MAX_THREADS)
}

/// An atomic cursor over `0..len` handing out chunks of indices.
///
/// Chunking amortizes the atomic operation over several items when waves are
/// large; a chunk size of 1 degenerates into classic work stealing from a
/// single shared deque, which is right when each item is expensive.
pub struct WorkQueue {
    next: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl WorkQueue {
    /// A queue over `0..len` with the given chunk size (min 1).
    pub fn new(len: usize, chunk: usize) -> WorkQueue {
        WorkQueue {
            next: AtomicUsize::new(0),
            len,
            chunk: chunk.max(1),
        }
    }

    /// Claims the next chunk of indices, or `None` when drained.
    pub fn claim(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.len {
            return None;
        }
        Some(start..(start + self.chunk).min(self.len))
    }

    /// A chunk size balancing atomic traffic against load imbalance:
    /// several chunks per worker, never below 1.
    pub fn balanced_chunk(len: usize, threads: usize) -> usize {
        (len / (threads.max(1) * 8)).max(1)
    }
}

/// Maps `eval` over `0..len` on up to `threads` scoped worker threads,
/// returning the results **in index order**.
///
/// Each worker builds one private `state` via `init` (e.g. a scratch
/// buffer) and reuses it across its items.
/// `eval` returning `None` requests a cooperative stop (deadline expired):
/// the flag is broadcast and workers finish without claiming further items.
/// Unevaluated slots come back as `None`; evaluated ones as `Some(T)` —
/// callers can therefore distinguish "computed false" from "never ran".
///
/// With `threads <= 1` (or a single item) everything runs inline on the
/// caller's thread — no spawn, same results, same order. When the same
/// states should survive *across* calls, build them once and use
/// [`map_chunked_with`] directly.
pub fn map_chunked<S: Send, T: Send>(
    threads: usize,
    len: usize,
    chunk: usize,
    init: impl Fn() -> S + Sync,
    eval: impl Fn(&mut S, usize) -> Option<T> + Sync,
) -> Vec<Option<T>> {
    let threads = threads.clamp(1, MAX_THREADS).min(len.max(1));
    let mut states: Vec<S> = (0..threads).map(|_| init()).collect();
    map_chunked_with(&mut states, len, chunk, eval)
}

/// [`map_chunked`] over caller-owned worker states: `states.len()` is the
/// worker count and slot `k` is lent to worker `k` for the duration of the
/// call. Lets expensive per-worker state (a scratch arena) be built once and
/// reused across many calls, instead of rebuilt per call.
///
/// Same contract as [`map_chunked`] otherwise: results in index order,
/// `None` slots for items never evaluated after a cooperative stop, inline
/// execution on the caller's thread when only one worker (or item) exists.
pub fn map_chunked_with<S: Send, T: Send>(
    states: &mut [S],
    len: usize,
    chunk: usize,
    eval: impl Fn(&mut S, usize) -> Option<T> + Sync,
) -> Vec<Option<T>> {
    assert!(
        !states.is_empty(),
        "map_chunked_with needs at least 1 state"
    );
    if states.len() == 1 || len <= 1 {
        let state = &mut states[0];
        let mut out: Vec<Option<T>> = Vec::with_capacity(len);
        for i in 0..len {
            match eval(state, i) {
                Some(v) => out.push(Some(v)),
                None => break,
            }
        }
        out.resize_with(len, || None);
        return out;
    }

    let queue = WorkQueue::new(len, chunk);
    let stop = AtomicBool::new(false);
    let (queue, stop, eval) = (&queue, &stop, &eval);
    // Never spawn more workers than items: surplus states would claim
    // nothing from the queue and the spawns are pure overhead.
    let spawn = states.len().min(len);
    let collected: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = states[..spawn]
            .iter_mut()
            .map(|state| {
                scope.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    'drain: while let Some(range) = queue.claim() {
                        for i in range {
                            if stop.load(Ordering::Relaxed) {
                                break 'drain;
                            }
                            match eval(state, i) {
                                Some(v) => local.push((i, v)),
                                None => {
                                    stop.store(true, Ordering::Relaxed);
                                    break 'drain;
                                }
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(len, || None);
    for worker in collected {
        for (i, v) in worker {
            slots[i] = Some(v);
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_hands_out_every_index_once() {
        let q = WorkQueue::new(10, 3);
        let mut seen = Vec::new();
        while let Some(r) = q.claim() {
            seen.extend(r);
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn queue_empty() {
        let q = WorkQueue::new(0, 4);
        assert!(q.claim().is_none());
    }

    #[test]
    fn map_results_are_in_index_order() {
        for threads in [1, 2, 4, 8] {
            let out = map_chunked(threads, 100, 3, || (), |_, i| Some(i * i));
            let expect: Vec<Option<usize>> = (0..100).map(|i| Some(i * i)).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn worker_state_is_private() {
        // Each worker counts its own items; the total must cover the range.
        let totals: Vec<Option<usize>> = map_chunked(
            4,
            64,
            2,
            || 0usize,
            |count, _| {
                *count += 1;
                Some(*count)
            },
        );
        assert_eq!(totals.iter().filter(|t| t.is_some()).count(), 64);
    }

    #[test]
    fn cooperative_stop_leaves_trailing_none() {
        // Sequential fast path: stop at item 5 — everything after is None.
        let out = map_chunked(1, 10, 1, || (), |_, i| if i == 5 { None } else { Some(i) });
        assert_eq!(out[..5], [Some(0), Some(1), Some(2), Some(3), Some(4)]);
        assert!(out[5..].iter().all(|v| v.is_none()));
        // Parallel: the stop is cooperative, so *at least* the stopping item
        // is None and no result is fabricated.
        let out = map_chunked(4, 40, 1, || (), |_, i| if i == 20 { None } else { Some(i) });
        assert!(out[20].is_none());
        for (i, v) in out.iter().enumerate() {
            if let Some(v) = v {
                assert_eq!(*v, i);
            }
        }
    }

    #[test]
    fn with_states_reuses_across_calls() {
        // Worker-owned counters persist across two waves; the totals cover
        // both ranges exactly once.
        let mut states = vec![0usize; 3];
        let a = map_chunked_with(&mut states, 30, 2, |c, i| {
            *c += 1;
            Some(i)
        });
        let b = map_chunked_with(&mut states, 12, 2, |c, i| {
            *c += 1;
            Some(i * 2)
        });
        assert_eq!(a, (0..30).map(Some).collect::<Vec<_>>());
        assert_eq!(b, (0..12).map(|i| Some(i * 2)).collect::<Vec<_>>());
        assert_eq!(states.iter().sum::<usize>(), 42, "state carried over");
    }

    #[test]
    fn surplus_states_are_left_idle() {
        // More workers than items: the extra states must not be touched.
        let mut states = vec![0usize; 8];
        let out = map_chunked_with(&mut states, 3, 1, |c, i| {
            *c += 1;
            Some(i)
        });
        assert_eq!(out, vec![Some(0), Some(1), Some(2)]);
        assert_eq!(states.iter().sum::<usize>(), 3);
        assert!(states[3..].iter().all(|&c| c == 0));
    }

    #[test]
    fn with_single_state_runs_inline() {
        let mut states = vec![0usize];
        let out = map_chunked_with(&mut states, 5, 1, |c, i| {
            *c += i;
            Some(i)
        });
        assert_eq!(out, (0..5).map(Some).collect::<Vec<_>>());
        assert_eq!(states[0], 10);
    }

    #[test]
    fn resolve_threads_explicit_wins() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(1000), MAX_THREADS);
        // 0 = auto: whatever it resolves to, it is at least 1.
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn resolve_threads_clamps_every_source() {
        // Each source can independently exceed the cap; all must clamp.
        assert_eq!(resolve_threads_from(1000, None, None), MAX_THREADS);
        assert_eq!(resolve_threads_from(0, Some(1000), None), MAX_THREADS);
        assert_eq!(resolve_threads_from(0, None, Some(1000)), MAX_THREADS);
        // In-range values pass through untouched, by precedence.
        assert_eq!(resolve_threads_from(3, Some(7), Some(12)), 3);
        assert_eq!(resolve_threads_from(0, Some(7), Some(12)), 7);
        assert_eq!(resolve_threads_from(0, None, Some(12)), 12);
        // Zero / unset sources fall through; everything absent floors at 1.
        assert_eq!(resolve_threads_from(0, Some(0), Some(5)), 5);
        assert_eq!(resolve_threads_from(0, None, Some(0)), 1);
        assert_eq!(resolve_threads_from(0, None, None), 1);
    }
}
