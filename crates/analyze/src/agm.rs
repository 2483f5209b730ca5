//! AGM-bound plan certification: exact fractional edge covers over query
//! hypergraphs.
//!
//! The AGM bound (Atserias–Grohe–Marx) says a join's output is at most
//! `N^ρ*` where `ρ*` is the optimal *fractional edge cover* of the query
//! hypergraph — the LP `min Σ w_e` subject to `Σ_{e ∋ v} w_e ≥ 1` per join
//! vertex `v` (all scanned collections here scale as `N¹`: base relations,
//! index domains and flattened index buckets are linear in the data, and
//! materialized views are *unfolded* into their defining scans by
//! [`cnb_ir::hypergraph`]). The certifier compares, for every
//! backchase-emitted plan, the worst binding-order *prefix* bound — the
//! largest intermediate a left-deep binary-join execution of that plan can
//! produce — against the central query's own `ρ*`:
//!
//! * every prefix within the query bound ⇒ the plan gets a machine-checkable
//!   [`PlanAgm`] certificate (the optimal cover weights of its worst
//!   prefix; feasibility and cost are arithmetic anyone can re-verify);
//! * some prefix exceeding the bound ⇒ the plan provably materializes an
//!   intermediate asymptotically larger than the query's output bound.
//!
//! Generic-join (WCOJ) plan twins ([`ExecStrategy::Wcoj`]) are judged
//! differently: the operator resolves one join class at a time with every
//! intermediate capped at `N^{ρ*}` of the *full* query hypergraph, so the
//! full-query cover IS the certificate — there is no binding-order prefix
//! to blow up. A cyclic family whose left-deep plans all exceed but whose
//! WCOJ twin meets the bound earns [`Verdict::WcojClosed`] (EC5's odd
//! cycles since the generic-join operator landed); if not even a WCOJ plan
//! meets it, the verdict stays [`Verdict::WcojNeeded`].
//!
//! Everything is exact rational arithmetic ([`Rat`], from
//! [`cnb_ir::cover`] with *checked* overflow-reporting operations) solved
//! by a tiny Bland-rule simplex — byte-identical verdicts across runs and
//! hosts, no floats anywhere. Queries are small (≤ a dozen scans), so
//! exactness is free.

use cnb_core::prelude::OptimizeResult;
use cnb_ir::cover::{cover_lp, Rat};
use cnb_ir::hypergraph::{query_hypergraph, weighted_cover, worst_prefix, CoverEdge, ExecStrategy};
use cnb_ir::prelude::{PhysicalSpec, Query, Range, Schema};
use cnb_workloads::workload::{AgmExpectation, Workload};

/// Workload-level verdict over all emitted plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every emitted plan's worst prefix stays within the query bound.
    Certified,
    /// No *left-deep* plan over base scans stays within the bound, but the
    /// optimizer's generic-join (WCOJ) twin of a base-scan plan does: the
    /// multiway operator caps every intermediate at the full-query bound by
    /// construction, closing the gap on the data itself rather than leaning
    /// on a pre-materialized superlinear structure.
    WcojClosed,
    /// No base-scan plan of *any* kind stays within the bound. Any
    /// within-bound plan the backchase found leans on a pre-materialized
    /// superlinear structure (EC5's wedge view is itself an `N²` object —
    /// probing it keeps query-time intermediates small by paying the blowup
    /// at view maintenance time). Meeting the bound on the data itself
    /// takes a worst-case-optimal multiway join the optimizer did not emit.
    WcojNeeded,
    /// Some plans exceed while at least one *left-deep* base-scan plan
    /// stays within (ranking should prefer the certified ones).
    Mixed,
}

impl Verdict {
    /// Stable lowercase name used in messages and goldens.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Certified => "certified",
            Verdict::WcojClosed => "wcoj-closed",
            Verdict::WcojNeeded => "wcoj-needed",
            Verdict::Mixed => "mixed",
        }
    }

    /// True when this verdict satisfies the workload's declared
    /// expectation. No family declares `WcojNeeded` or `Mixed`, so those
    /// verdicts fail the suite pass wherever they appear.
    pub fn matches(self, expected: AgmExpectation) -> bool {
        matches!(
            (self, expected),
            (Verdict::Certified, AgmExpectation::Certified)
                | (Verdict::WcojClosed, AgmExpectation::WcojClosed)
        )
    }
}

/// Per-plan certification result.
#[derive(Clone, Debug)]
pub struct PlanAgm {
    /// Plan index in the optimizer's emission order.
    pub index: usize,
    /// Worst prefix bound exponent over the plan's binding order.
    pub worst: Rat,
    /// 1-based length of the worst prefix.
    pub worst_prefix: usize,
    /// `worst ≤` the query bound.
    pub within: bool,
    /// The plan ranges over at least one materialized view/ASR (its
    /// within-bound status then rests on a structure whose own size may
    /// exceed `N`).
    pub uses_view: bool,
    /// The plan executes as a generic join ([`ExecStrategy::Wcoj`]): its
    /// `worst` is the *full-query* exponent (every intermediate is capped
    /// there by the operator), not a binary-prefix worst case.
    pub wcoj: bool,
    /// Optimal cover of the worst prefix, one weighted scan per edge in
    /// edge order — the machine-checkable half of the certificate
    /// (re-verify with [`verify_cover`] against
    /// [`cnb_ir::hypergraph::prefix_hypergraph`]; for WCOJ plans the worst
    /// prefix is the whole plan, so the same call re-verifies it too).
    pub cover: Vec<CoverEdge>,
}

/// One workload's certification: the query bound and every plan's verdict.
#[derive(Clone, Debug)]
pub struct WorkloadAgm {
    /// Workload family name.
    pub name: String,
    /// The central query's AGM exponent ρ*.
    pub bound: Rat,
    /// Optimal cover of the central query proving `bound`.
    pub bound_cover: Vec<CoverEdge>,
    /// Per-plan results, in emission order.
    pub plans: Vec<PlanAgm>,
    /// Aggregate verdict.
    pub verdict: Verdict,
    /// The verdict the workload's [`Expectations`] declares.
    ///
    /// [`Expectations`]: cnb_workloads::workload::Expectations
    pub expected: AgmExpectation,
}

/// The central query's AGM exponent and an optimal cover proving it.
pub fn query_bound(schema: &Schema, query: &Query) -> Result<(Rat, Vec<CoverEdge>), String> {
    let hg = query_hypergraph(schema, query)?;
    let lp = cover_lp(&hg).map_err(|e| e.to_string())?;
    Ok((lp.rho, weighted_cover(&hg, &lp)))
}

/// True when the query ranges over a materialized view or ASR.
fn scans_view(schema: &Schema, query: &Query) -> bool {
    query.from.iter().any(|b| {
        if let Range::Name(n) = &b.range {
            schema
                .skeletons()
                .iter()
                .any(|sk| sk.physical_name == *n && matches!(sk.spec, PhysicalSpec::View(_)))
        } else {
            false
        }
    })
}

/// Certifies one *left-deep* plan against a precomputed query bound:
/// computes the prefix exponent for every binding-order prefix and keeps
/// the worst.
pub fn plan_agm(
    schema: &Schema,
    plan: &Query,
    index: usize,
    bound: Rat,
) -> Result<PlanAgm, String> {
    let (worst_prefix, worst, cover) = worst_prefix(schema, plan)?;
    Ok(PlanAgm {
        index,
        worst,
        worst_prefix,
        within: worst.le(&bound),
        uses_view: scans_view(schema, plan),
        wcoj: false,
        cover,
    })
}

/// Certifies one *generic-join* plan: the operator resolves join classes
/// multiway with every intermediate capped at the plan's full-query
/// exponent, so the worst "prefix" is the whole plan and the full-query
/// cover is the certificate.
pub fn plan_agm_wcoj(
    schema: &Schema,
    plan: &Query,
    index: usize,
    bound: Rat,
) -> Result<PlanAgm, String> {
    let (worst, cover) = query_bound(schema, plan)?;
    Ok(PlanAgm {
        index,
        worst,
        worst_prefix: plan.from.len(),
        within: worst.le(&bound),
        uses_view: scans_view(schema, plan),
        wcoj: true,
        cover,
    })
}

/// Certifies the plans of `result` — an optimization of `w`'s central
/// query the caller already ran — against that query's AGM bound.
pub(crate) fn certify_plans(
    w: &dyn Workload,
    result: &OptimizeResult,
) -> Result<WorkloadAgm, String> {
    let schema = w.schema();
    let query = w.query();
    let (bound, bound_cover) =
        query_bound(&schema, &query).map_err(|e| format!("{}: query bound: {e}", w.name()))?;
    if result.plans.is_empty() {
        return Err(format!("{}: optimizer emitted no plans", w.name()));
    }
    let mut plans = Vec::with_capacity(result.plans.len());
    for (i, p) in result.plans.iter().enumerate() {
        let agm = match p.strategy {
            ExecStrategy::LeftDeep => plan_agm(&schema, &p.query, i, bound),
            ExecStrategy::Wcoj => plan_agm_wcoj(&schema, &p.query, i, bound),
        };
        plans.push(agm.map_err(|e| format!("{}: plan {i}: {e}", w.name()))?);
    }
    let within = plans.iter().filter(|p| p.within).count();
    let base_ld_within = plans
        .iter()
        .filter(|p| p.within && !p.uses_view && !p.wcoj)
        .count();
    let base_wcoj_within = plans
        .iter()
        .filter(|p| p.within && !p.uses_view && p.wcoj)
        .count();
    let verdict = if within == plans.len() {
        Verdict::Certified
    } else if base_ld_within > 0 {
        Verdict::Mixed
    } else if base_wcoj_within > 0 {
        Verdict::WcojClosed
    } else {
        Verdict::WcojNeeded
    };
    Ok(WorkloadAgm {
        name: w.name().to_string(),
        bound,
        bound_cover,
        plans,
        verdict,
        expected: w.expectations().agm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnb_workloads::Ec5;

    /// EC5's triangle: every left-deep base plan exceeds `ρ* = 3/2`, the
    /// generic-join twin meets it exactly — verdict `wcoj-closed`, with a
    /// re-verifiable full-query cover on the twin.
    #[test]
    fn ec5_triangle_certifies_wcoj_closed() {
        let w = Ec5::triangle();
        let cert = certify_plans(&w, &w.optimize()).unwrap();
        assert_eq!(cert.bound, Rat::new(3, 2));
        assert_eq!(cert.verdict, Verdict::WcojClosed);
        assert!(cert.verdict.matches(cert.expected));
        let twin = cert
            .plans
            .iter()
            .find(|p| p.wcoj)
            .expect("a generic-join twin must be emitted");
        assert!(twin.within, "the twin meets the full-query bound");
        assert_eq!(twin.worst, Rat::new(3, 2));
        assert!(!twin.uses_view);
        // Every left-deep base plan still exceeds.
        assert!(cert
            .plans
            .iter()
            .filter(|p| !p.wcoj && !p.uses_view)
            .all(|p| !p.within));
    }

    /// EC5's 4-cycle meets its bound with plain binary joins — no twin is
    /// emitted and the verdict stays `certified`.
    #[test]
    fn ec5_four_cycle_stays_certified() {
        let w = Ec5::four_cycle();
        let cert = certify_plans(&w, &w.optimize()).unwrap();
        assert_eq!(cert.verdict, Verdict::Certified);
        assert!(cert.plans.iter().all(|p| !p.wcoj), "no gap, no twin");
    }

    #[test]
    fn verdict_names_and_matching_are_stable() {
        assert_eq!(Verdict::WcojClosed.name(), "wcoj-closed");
        assert!(Verdict::WcojClosed.matches(AgmExpectation::WcojClosed));
        assert!(!Verdict::WcojClosed.matches(AgmExpectation::Certified));
        assert!(!Verdict::WcojNeeded.matches(AgmExpectation::WcojClosed));
        assert!(!Verdict::Mixed.matches(AgmExpectation::Certified));
    }

    /// The two verdicts no suite workload reaches, driven with hand-built
    /// plan lists: EC5's triangle plans without the generic-join twin leave
    /// no base plan within the bound (`wcoj-needed`; the wedge-view plans
    /// stay within, but on a superlinear structure), and the 4-cycle's
    /// plans plus one cross product over its four scans leave a left-deep
    /// base plan within beside one that exceeds (`mixed`).
    #[test]
    fn dropped_twin_and_cross_product_reach_needed_and_mixed() {
        let tri = Ec5::triangle();
        let mut result = tri.optimize();
        result
            .plans
            .retain(|p| p.strategy == ExecStrategy::LeftDeep);
        let cert = certify_plans(&tri, &result).unwrap();
        assert_eq!(cert.verdict, Verdict::WcojNeeded);
        assert!(cert.plans.iter().any(|p| p.within && p.uses_view));

        let four = Ec5::four_cycle();
        let mut result = four.optimize();
        let mut cross = result.plans[0].clone();
        cross.query.where_.clear();
        result.plans.push(cross);
        let cert = certify_plans(&four, &result).unwrap();
        assert_eq!(cert.verdict, Verdict::Mixed);
        let last = cert.plans.last().unwrap();
        assert_eq!((last.within, last.worst), (false, Rat::int(4)));
    }
}
