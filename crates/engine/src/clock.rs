//! The serving path's injectable time source.
//!
//! Deadline decisions must be *typed and reproducible*: a test that wants a
//! deterministic expiry schedule cannot depend on how fast the host happens
//! to run. So serving logic never reads the wall clock directly — it asks a
//! [`Clock`]. `serving.rs` and `pressure.rs` each open with
//! `#![forbid(clippy::disallowed_methods)]`, so clippy refuses a wall-clock
//! read there *even under an `#[expect]`*: this module's [`WallClock`] is
//! the single sanctioned wall-clock read of the serving path.
//!
//! Two implementations cover both worlds:
//!
//! * [`WallClock`] — monotonic real time since construction; what the bench
//!   harness and production serving use.
//! * [`VirtualClock`] — a deterministic clock: frozen (never advances — the
//!   default for tests that want *no* expirations and byte-identical
//!   results at every thread count), ticking (advances a fixed step per
//!   read — deterministic expiry schedules in sequential tests,
//!   panic-free cooperative stops in parallel ones), or manually advanced.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source for serving: `now()` is the time elapsed since
/// the clock's epoch (construction for [`WallClock`], zero for
/// [`VirtualClock`]). `Sync` because executor workers share it.
pub trait Clock: Sync {
    /// Time since the clock's epoch.
    fn now(&self) -> Duration;
}

/// Real monotonic time since construction — the production/bench clock.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Starts a wall clock; its epoch is this call.
    ///
    /// This is the serving path's one sanctioned wall-clock read: every
    /// deadline the serving path checks derives from this origin.
    pub fn start() -> WallClock {
        #[expect(clippy::disallowed_methods)]
        let origin = Instant::now();
        WallClock { origin }
    }
}

impl Default for WallClock {
    fn default() -> WallClock {
        WallClock::start()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        // `elapsed` re-reads the monotonic clock against the sanctioned
        // origin above; no other serving code touches the wall clock.
        self.origin.elapsed()
    }
}

/// A deterministic clock over virtual nanoseconds.
///
/// `now()` returns the current virtual time and then advances it by the
/// configured step (zero for [`VirtualClock::frozen`]). With a frozen
/// clock, deadline decisions are a pure function of the configuration — no
/// request ever expires unless the test advances time itself — so batch
/// results stay byte-identical at every thread count. A ticking clock makes
/// time pass one step per read: in a sequential run the expiry schedule is
/// exact; in a parallel run it exercises the cooperative-stop path without
/// ever producing a panic or a partial row.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
    step_nanos: u64,
}

impl VirtualClock {
    /// A clock stuck at zero: reads never advance it.
    pub fn frozen() -> VirtualClock {
        VirtualClock::default()
    }

    /// A clock advancing `step` per read, starting at zero.
    pub fn ticking(step: Duration) -> VirtualClock {
        VirtualClock {
            nanos: AtomicU64::new(0),
            step_nanos: step.as_nanos().try_into().unwrap_or(u64::MAX),
        }
    }

    /// Advances virtual time by `d` (test control).
    pub fn advance(&self, d: Duration) {
        let nanos: u64 = d.as_nanos().try_into().unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.fetch_add(self.step_nanos, Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_clock_never_moves() {
        let c = VirtualClock::frozen();
        for _ in 0..100 {
            assert_eq!(c.now(), Duration::ZERO);
        }
    }

    #[test]
    fn ticking_clock_advances_per_read() {
        let c = VirtualClock::ticking(Duration::from_millis(2));
        assert_eq!(c.now(), Duration::ZERO);
        assert_eq!(c.now(), Duration::from_millis(2));
        assert_eq!(c.now(), Duration::from_millis(4));
    }

    #[test]
    fn manual_advance_composes_with_reads() {
        let c = VirtualClock::frozen();
        c.advance(Duration::from_secs(3));
        assert_eq!(c.now(), Duration::from_secs(3));
        let t = VirtualClock::ticking(Duration::from_nanos(1));
        t.advance(Duration::from_nanos(10));
        assert_eq!(t.now(), Duration::from_nanos(10));
        assert_eq!(t.now(), Duration::from_nanos(11));
    }

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::start();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}
