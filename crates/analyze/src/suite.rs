//! Suite-wide validation: every registered workload, end to end — the
//! analyzer's one pass over `cnb_workloads::suite()`.
//!
//! For each `Workload` in `cnb_workloads::suite()` this validates the
//! schema (every semantic constraint and skeleton direction, plus the
//! weak-acyclicity termination check over the full constraint set), the
//! central query, and then *runs the optimizer* once and validates every
//! backchase-emitted plan — binding order and join connectivity included.
//! This is the static half of the plan/execution agreement suites: a plan
//! that validates here may still be wrong, but a plan that fails here
//! would have been wrong at runtime. The same plans are then certified
//! against the query's AGM bound ([`crate::agm`]) and the computed verdict
//! checked against the family's declared [`AgmExpectation`]. A new
//! per-workload check joins this loop.
//!
//! [`AgmExpectation`]: cnb_workloads::workload::AgmExpectation

use cnb_workloads::suite;

use crate::agm::{certify_plans, WorkloadAgm};
use crate::validate::{validate_plan, validate_query, validate_schema, ValidateError};

/// Validates every suite workload and every plan its optimization emits,
/// then certifies the plans against the workload's AGM bound. Returns each
/// workload's certificate, or the first failure (wrapped with the workload
/// and plan it came from).
pub fn validate_suite() -> Result<Vec<WorkloadAgm>, String> {
    let mut certs = Vec::new();
    for w in suite() {
        let name = w.name();
        let schema = w.schema();
        validate_schema(&schema).map_err(|e| format!("{name}: schema: {e}"))?;
        let q = w.query();
        validate_query(&schema, &q).map_err(|e| format!("{name}: query: {e}"))?;
        let result = w.optimize();
        for (i, p) in result.plans.iter().enumerate() {
            validate_plan(&schema, &p.query).map_err(|e: ValidateError| {
                format!("{name}: plan {i} invalid: {e}\n{}", p.query)
            })?;
        }
        // Also the check that the optimizer emitted a plan at all.
        let cert = certify_plans(w.as_ref(), &result)?;
        if !cert.verdict.matches(cert.expected) {
            return Err(format!(
                "{name}: AGM verdict {} contradicts the declared expectation {:?}",
                cert.verdict.name(),
                cert.expected
            ));
        }
        certs.push(cert);
    }
    Ok(certs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The suite-wide guarantee: every workload in `suite()`
    /// and every backchase-emitted plan validates.
    #[test]
    fn every_suite_workload_and_plan_validates() {
        let certs = validate_suite().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(certs.len(), 5);
        for c in &certs {
            assert!(!c.plans.is_empty(), "{}: no plan certified", c.name);
        }
    }
}
