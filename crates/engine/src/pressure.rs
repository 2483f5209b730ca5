//! Pressure knobs for the serving path: per-batch budgets and seeded faults.
//!
//! [`ServeConfig`] is the contract a batch is served under — an admission
//! cost budget and a deadline. [`FaultPlan`] is the chaos half: a *pure
//! function* of `(seed, request index)` built on the in-repo SplitMix64 PRNG
//! that says which requests fail before they execute. Because the plan is
//! stateless per call, the set of faulted requests is identical no matter
//! which worker thread evaluates a request or in what order — fault
//! decisions are reproducible at every thread count, which is what lets the
//! property suite assert that non-faulted requests return rows
//! byte-identical to a fault-free run.
//!
//! Time never enters this module: deadlines are judged against the
//! injectable [`crate::clock::Clock`] by the serving loop, and the
//! attribute below makes any wall-clock read here a clippy error that no
//! `#[expect]` can sanction.

#![forbid(clippy::disallowed_methods)]

use std::time::Duration;

use crate::prng::SplitMix64;

/// The pressure contract one batch is served under.
///
/// The default is the polite world every pre-existing caller lived in: no
/// admission budget, no deadline — [`ServeConfig::default`] makes
/// `serve_batch` behave exactly as before the robustness layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeConfig {
    /// Admission control: requests whose (cached or freshly optimized) plan
    /// prices over this budget under the server's cost model are shed with
    /// a typed [`crate::ServeError::Rejected`] before touching the pool.
    /// `None` admits everything.
    pub cost_budget: Option<f64>,
    /// Per-request deadline, measured from batch start on the injected
    /// clock. Requests still unevaluated when it passes come back as
    /// [`crate::ServeError::DeadlineExpired`] — never partial rows.
    /// `None` never expires.
    pub deadline: Option<Duration>,
}

impl ServeConfig {
    /// No budget, no deadline — the unpressured contract.
    pub fn unbounded() -> ServeConfig {
        ServeConfig::default()
    }

    /// Sets the admission cost budget (builder style).
    pub fn with_cost_budget(mut self, budget: f64) -> ServeConfig {
        self.cost_budget = Some(budget);
        self
    }

    /// Sets the per-request deadline (builder style).
    pub fn with_deadline(mut self, deadline: Duration) -> ServeConfig {
        self.deadline = Some(deadline);
        self
    }
}

/// A seeded fault-injection schedule: which requests of a batch fail.
///
/// [`FaultPlan::fails`] derives a fresh SplitMix64 stream from
/// `(seed, request)` on every call, so the verdict for a request is a pure
/// function of those two values: no interior mutability, no cross-thread
/// ordering sensitivity, byte-identical schedules on every run. A failed
/// request surfaces as [`crate::ServeError::FaultInjected`]; it is not
/// retried.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    fail_rate: f64,
}

impl FaultPlan {
    /// A plan failing each request independently with probability
    /// `fail_rate` (clamped to `[0, 1]`).
    pub fn failures(seed: u64, fail_rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            fail_rate: fail_rate.clamp(0.0, 1.0),
        }
    }

    /// Whether `request` fails. Pure: same arguments, same verdict, on any
    /// thread, forever.
    pub fn fails(&self, request: usize) -> bool {
        // A fixed salt, so request 0 does not draw from the bare seed.
        let mut rng = SplitMix64::seed_from_u64(
            self.seed
                ^ (request as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ 0xD1B5_4A32_D192_ED03,
        );
        // Burn one draw: xor-derived seeds of neighboring requests are
        // correlated in their low bits; SplitMix64's first output already
        // decorrelates, the second is belt and braces.
        rng.next_u64();
        rng.gen_bool(self.fail_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_unbounded() {
        let c = ServeConfig::default();
        assert_eq!(c, ServeConfig::unbounded());
        assert!(c.cost_budget.is_none());
        assert!(c.deadline.is_none());
    }

    #[test]
    fn builders_compose() {
        let c = ServeConfig::unbounded()
            .with_cost_budget(100.0)
            .with_deadline(Duration::from_millis(5));
        assert_eq!(c.cost_budget, Some(100.0));
        assert_eq!(c.deadline, Some(Duration::from_millis(5)));
    }

    #[test]
    fn fault_plan_is_a_pure_function() {
        let plan = FaultPlan::failures(0xFA17, 0.3);
        for request in 0..256 {
            assert_eq!(
                plan.fails(request),
                plan.fails(request),
                "request {request}"
            );
        }
        // And the clone sees the identical schedule.
        let other = plan.clone();
        for request in 0..64 {
            assert_eq!(plan.fails(request), other.fails(request));
        }
    }

    #[test]
    fn rates_are_honored_at_the_extremes() {
        let never = FaultPlan::failures(1, 0.0);
        assert!((0..200).all(|r| !never.fails(r)));
        let always = FaultPlan::failures(1, 1.0);
        assert!((0..200).all(|r| always.fails(r)));
        let clamped = FaultPlan::failures(1, 7.0);
        assert_eq!(clamped, always);
    }

    #[test]
    fn half_rate_is_roughly_half_and_varies_by_request() {
        let plan = FaultPlan::failures(7, 0.5);
        let fails = (0..1000).filter(|&r| plan.fails(r)).count();
        assert!((400..600).contains(&fails), "fails {fails}");
        // Another seed draws another schedule over the same requests.
        let other = FaultPlan::failures(8, 0.5);
        assert!((0..1000).any(|r| plan.fails(r) != other.fails(r)));
    }
}
