//! Exact fractional edge covers: checked rational arithmetic and the
//! cover LP shared by the certifier and the optimizer.
//!
//! The AGM bound (Atserias–Grohe–Marx) says a join's output is at most
//! `N^ρ*` where `ρ*` is the optimal *fractional edge cover* of the query
//! hypergraph — the LP `min Σ w_e` subject to `Σ_{e ∋ v} w_e ≥ 1` per join
//! vertex `v` (all scanned collections here scale as `N¹`). This module
//! holds the arithmetic and the solver; [`crate::hypergraph`] builds the
//! hypergraphs and `cnb-analyze` turns solutions into verdicts.
//!
//! Everything is exact rational arithmetic ([`Rat`]) solved by a tiny
//! Bland-rule simplex — byte-identical results across runs and hosts, no
//! floats anywhere. Tableaux stay normalized (every entry is gcd-reduced by
//! construction after each pivot) and every multiplication reduces by gcd
//! *before* multiplying, so overflow only occurs for genuinely huge
//! rationals — and then surfaces as a typed [`CoverError::Overflow`], never
//! a debug-mode panic or a release-mode wrap.

use crate::hypergraph::QueryHypergraph;

/// A typed error from exact cover arithmetic or the cover LP.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoverError {
    /// An exact rational operation exceeded `i128` range.
    Overflow {
        /// The operation that overflowed (`add`, `mul`, `cmp`, …).
        op: &'static str,
    },
    /// A rational with denominator zero (division by an exact zero).
    ZeroDenominator,
    /// The cover LP is unbounded: some required vertex no edge covers.
    Unbounded,
    /// A cover certificate failed re-verification.
    Certificate(String),
}

impl std::fmt::Display for CoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoverError::Overflow { op } => {
                write!(f, "exact rational overflow in {op} (i128 range exceeded)")
            }
            CoverError::ZeroDenominator => write!(f, "rational with zero denominator"),
            CoverError::Unbounded => {
                write!(f, "cover LP unbounded: a required vertex no edge covers")
            }
            CoverError::Certificate(msg) => write!(f, "bad cover certificate: {msg}"),
        }
    }
}

impl std::error::Error for CoverError {}

/// An exact rational, always normalized (`den > 0`, `gcd(num, den) = 1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rat {
    /// Numerator (sign carrier).
    pub num: i128,
    /// Denominator, strictly positive.
    pub den: i128,
}

impl Rat {
    /// `n/d`, normalized by gcd, with typed errors for a zero denominator
    /// or an `i128::MIN` sign flip.
    pub fn checked_new(num: i128, den: i128) -> Result<Rat, CoverError> {
        if den == 0 {
            return Err(CoverError::ZeroDenominator);
        }
        let (num, den) = if den < 0 {
            (
                num.checked_neg()
                    .ok_or(CoverError::Overflow { op: "neg" })?,
                den.checked_neg()
                    .ok_or(CoverError::Overflow { op: "neg" })?,
            )
        } else {
            (num, den)
        };
        let g = gcd(num.unsigned_abs(), den.unsigned_abs()) as i128;
        Ok(Rat {
            num: num / g,
            den: den / g,
        })
    }

    /// The integer `n`.
    pub fn int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// Zero.
    pub fn zero() -> Rat {
        Rat::int(0)
    }

    /// `self + o` without overflow: scale by `lcm` of the denominators.
    pub fn checked_add(self, o: Rat) -> Result<Rat, CoverError> {
        let g = gcd(self.den.unsigned_abs(), o.den.unsigned_abs()) as i128;
        let lhs = self
            .num
            .checked_mul(o.den / g)
            .ok_or(CoverError::Overflow { op: "add" })?;
        let rhs = o
            .num
            .checked_mul(self.den / g)
            .ok_or(CoverError::Overflow { op: "add" })?;
        let num = lhs
            .checked_add(rhs)
            .ok_or(CoverError::Overflow { op: "add" })?;
        let den = self
            .den
            .checked_mul(o.den / g)
            .ok_or(CoverError::Overflow { op: "add" })?;
        Rat::checked_new(num, den)
    }

    /// `self - o`, checked.
    pub fn checked_sub(self, o: Rat) -> Result<Rat, CoverError> {
        let neg = Rat {
            num: o
                .num
                .checked_neg()
                .ok_or(CoverError::Overflow { op: "sub" })?,
            den: o.den,
        };
        self.checked_add(neg)
    }

    /// `self * o`, reducing by gcd *before* multiplying so products of
    /// already-normalized rationals overflow only when the true result
    /// does.
    pub fn checked_mul(self, o: Rat) -> Result<Rat, CoverError> {
        let g1 = gcd(self.num.unsigned_abs(), o.den.unsigned_abs()) as i128;
        let g2 = gcd(o.num.unsigned_abs(), self.den.unsigned_abs()) as i128;
        let num = (self.num / g1)
            .checked_mul(o.num / g2)
            .ok_or(CoverError::Overflow { op: "mul" })?;
        let den = (self.den / g2)
            .checked_mul(o.den / g1)
            .ok_or(CoverError::Overflow { op: "mul" })?;
        Rat::checked_new(num, den)
    }

    /// `self / o`, checked; a zero divisor is [`CoverError::ZeroDenominator`].
    pub fn checked_div(self, o: Rat) -> Result<Rat, CoverError> {
        if o.num == 0 {
            return Err(CoverError::ZeroDenominator);
        }
        let inv = Rat::checked_new(o.den, o.num)?;
        self.checked_mul(inv)
    }

    /// Exact comparison, reducing the cross-multiplication by the
    /// denominators' gcd first.
    pub fn checked_cmp(&self, o: &Rat) -> Result<std::cmp::Ordering, CoverError> {
        let g = gcd(self.den.unsigned_abs(), o.den.unsigned_abs()) as i128;
        let lhs = self
            .num
            .checked_mul(o.den / g)
            .ok_or(CoverError::Overflow { op: "cmp" })?;
        let rhs = o
            .num
            .checked_mul(self.den / g)
            .ok_or(CoverError::Overflow { op: "cmp" })?;
        Ok(lhs.cmp(&rhs))
    }

    /// The value as an `f64` (for cost-model estimates only; certification
    /// never leaves exact arithmetic).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl std::fmt::Display for Rat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

/// An exact LP solution for one hypergraph: the cover number `rho`, an
/// optimal primal cover (`weights`, one per edge), and an optimal dual
/// vertex packing (`packing`, one per required vertex). Strong duality
/// makes both sides certificates: the cover proves `bound ≤ rho`
/// feasibly, the packing proves no smaller cover exists.
#[derive(Clone, Debug)]
pub struct CoverLp {
    /// Optimal fractional edge cover number ρ*.
    pub rho: Rat,
    /// Cover weight per edge, aligned with the hypergraph's edge order.
    pub weights: Vec<Rat>,
    /// Packing value per required vertex, aligned with
    /// [`QueryHypergraph::required`].
    pub packing: Vec<Rat>,
}

/// Solves the fractional edge cover LP exactly.
///
/// Internally runs primal simplex with Bland's rule on the *dual*
/// (maximum fractional vertex packing: `max Σ y_v` s.t. `Σ_{v ∈ e} y_v ≤ 1`
/// per edge, `y ≥ 0`), whose origin is a basic feasible point; the primal
/// cover weights fall out of the optimal tableau's slack reduced costs.
/// Every pivot renormalizes by gcd (through [`Rat::checked_new`]) and all
/// arithmetic is checked, so pathological hypergraphs report
/// [`CoverError::Overflow`] rather than panicking or wrapping.
pub fn cover_lp(hg: &QueryHypergraph) -> Result<CoverLp, CoverError> {
    let n = hg.required.len();
    let m = hg.edges.len();
    if n == 0 {
        return Ok(CoverLp {
            rho: Rat::zero(),
            weights: vec![Rat::zero(); m],
            packing: Vec::new(),
        });
    }
    // Column j < n: y for required vertex j; column n+i: slack of edge i.
    let cols = n + m;
    let mut tab: Vec<Vec<Rat>> = Vec::with_capacity(m);
    for (i, e) in hg.edges.iter().enumerate() {
        let mut row = vec![Rat::zero(); cols + 1];
        for (j, v) in hg.required.iter().enumerate() {
            if e.covers.contains(v) {
                row[j] = Rat::int(1);
            }
        }
        row[n + i] = Rat::int(1);
        row[cols] = Rat::int(1); // every scan is N^1
        tab.push(row);
    }
    // Reduced-cost row for maximization; value tracked separately.
    let mut rc: Vec<Rat> = (0..cols)
        .map(|j| if j < n { Rat::int(1) } else { Rat::zero() })
        .collect();
    let mut value = Rat::zero();
    let mut basis: Vec<usize> = (n..cols).collect();

    for _round in 0..10_000 {
        // Bland: smallest improving column.
        let mut enter = None;
        for (j, r) in rc.iter().enumerate() {
            if r.checked_cmp(&Rat::zero())? == std::cmp::Ordering::Greater {
                enter = Some(j);
                break;
            }
        }
        let Some(enter) = enter else {
            break;
        };
        // Ratio test; Bland ties by smallest basic variable.
        let mut leave: Option<(usize, Rat)> = None;
        for (i, row) in tab.iter().enumerate() {
            if row[enter].checked_cmp(&Rat::zero())? == std::cmp::Ordering::Greater {
                let ratio = row[cols].checked_div(row[enter])?;
                let better = match &leave {
                    None => true,
                    Some((li, lr)) => match ratio.checked_cmp(lr)? {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Equal => basis[i] < basis[*li],
                        std::cmp::Ordering::Greater => false,
                    },
                };
                if better {
                    leave = Some((i, ratio));
                }
            }
        }
        let Some((pivot_row, _)) = leave else {
            return Err(CoverError::Unbounded);
        };
        // Pivot; each entry passes through checked_new, so the tableau is
        // gcd-normalized after every pivot.
        let piv = tab[pivot_row][enter];
        for x in tab[pivot_row].iter_mut() {
            *x = x.checked_div(piv)?;
        }
        let prow = tab[pivot_row].clone();
        for (i, row) in tab.iter_mut().enumerate() {
            if i != pivot_row && row[enter] != Rat::zero() {
                let f = row[enter];
                for (x, p) in row.iter_mut().zip(&prow) {
                    *x = x.checked_sub(f.checked_mul(*p)?)?;
                }
            }
        }
        let f = rc[enter];
        for (x, p) in rc.iter_mut().zip(&prow) {
            *x = x.checked_sub(f.checked_mul(*p)?)?;
        }
        value = value.checked_add(f.checked_mul(tab[pivot_row][cols])?)?;
        basis[pivot_row] = enter;
    }

    let mut packing = vec![Rat::zero(); n];
    for (i, &b) in basis.iter().enumerate() {
        if b < n {
            packing[b] = tab[i][cols];
        }
    }
    // Primal optimum: dual of the dual — slack reduced costs, negated.
    let mut weights = Vec::with_capacity(m);
    for i in 0..m {
        weights.push(Rat::zero().checked_sub(rc[n + i])?);
    }
    Ok(CoverLp {
        rho: value,
        weights,
        packing,
    })
}

/// Re-verifies a cover certificate by plain arithmetic: every required
/// vertex covered with total weight ≥ 1, and the claimed cost equal to the
/// weight sum. Returns the re-computed cost.
pub fn verify_cover(hg: &QueryHypergraph, weights: &[Rat]) -> Result<Rat, CoverError> {
    if weights.len() != hg.edges.len() {
        return Err(CoverError::Certificate(format!(
            "certificate has {} weights for {} edges",
            weights.len(),
            hg.edges.len()
        )));
    }
    for w in weights {
        if Rat::zero().checked_cmp(w)? == std::cmp::Ordering::Greater {
            return Err(CoverError::Certificate("negative cover weight".into()));
        }
    }
    for v in &hg.required {
        let mut total = Rat::zero();
        for (e, w) in hg.edges.iter().zip(weights) {
            if e.covers.contains(v) {
                total = total.checked_add(*w)?;
            }
        }
        if Rat::int(1).checked_cmp(&total)? == std::cmp::Ordering::Greater {
            return Err(CoverError::Certificate(format!(
                "vertex {v} covered with total weight {total} < 1"
            )));
        }
    }
    let mut sum = Rat::zero();
    for w in weights {
        sum = sum.checked_add(*w)?;
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::HyperEdge;
    use std::cmp::Ordering;

    /// `num/den`, normalized; the denominators here are nonzero literals.
    fn rat(num: i128, den: i128) -> Rat {
        Rat::checked_new(num, den).unwrap()
    }

    fn hg(required: usize, edges: &[&[usize]]) -> QueryHypergraph {
        QueryHypergraph {
            class_count: required,
            required: (0..required).collect(),
            edges: edges
                .iter()
                .enumerate()
                .map(|(i, c)| HyperEdge {
                    label: format!("e{i}"),
                    covers: c.to_vec(),
                    relation: None,
                })
                .collect(),
        }
    }

    #[test]
    fn rational_arithmetic_normalizes() {
        assert_eq!(rat(2, 4), rat(1, 2));
        assert_eq!(rat(1, -2), rat(-1, 2));
        let (half, third) = (rat(1, 2), rat(1, 3));
        assert_eq!(half.checked_add(third), Ok(rat(5, 6)));
        assert_eq!(half.checked_sub(third), Ok(rat(1, 6)));
        assert_eq!(half.checked_mul(rat(2, 3)), Ok(third));
        assert_eq!(half.checked_div(rat(3, 2)), Ok(third));
        assert_eq!(rat(3, 2).to_string(), "3/2");
        assert_eq!(Rat::int(2).to_string(), "2");
        assert_eq!(rat(3, 2).checked_cmp(&rat(4, 3)), Ok(Ordering::Greater));
    }

    #[test]
    fn checked_ops_report_overflow_instead_of_wrapping() {
        let huge = Rat::int(i128::MAX / 2);
        assert_eq!(
            huge.checked_mul(huge),
            Err(CoverError::Overflow { op: "mul" })
        );
        assert_eq!(
            Rat::int(i128::MAX - 1).checked_add(Rat::int(i128::MAX - 1)),
            Err(CoverError::Overflow { op: "add" })
        );
        // Coprime denominators force the full cross-multiplication:
        // 2^100 * (2^30 + 1) exceeds i128.
        let a = rat(1i128 << 100, 3);
        let b = rat(1, (1i128 << 30) + 1);
        assert_eq!(a.checked_cmp(&b), Err(CoverError::Overflow { op: "cmp" }));
        assert_eq!(Rat::checked_new(1, 0), Err(CoverError::ZeroDenominator));
        assert_eq!(
            Rat::int(1).checked_div(Rat::zero()),
            Err(CoverError::ZeroDenominator)
        );
    }

    #[test]
    fn multiplication_reduces_before_multiplying() {
        // (2^100 / 3) * (3 / 2^100) = 1: the naive cross-multiplication
        // overflows i128, the gcd-reduced product does not.
        let big = 1i128 << 100;
        let a = rat(big, 3);
        let b = rat(3, big);
        assert_eq!(a.checked_mul(b), Ok(Rat::int(1)));
        // Same shape for comparison: 2^100/3 vs 2^100/3.
        assert_eq!(
            rat(big, 3).checked_cmp(&rat(big, 3)),
            Ok(std::cmp::Ordering::Equal)
        );
        // And addition over a shared denominator factor.
        assert_eq!(rat(1, big).checked_add(rat(1, big)), Ok(rat(2, big)));
    }

    #[test]
    fn triangle_cover_is_three_halves() {
        let g = hg(3, &[&[0, 1], &[1, 2], &[2, 0]]);
        let lp = cover_lp(&g).unwrap();
        assert_eq!(lp.rho, rat(3, 2));
        assert_eq!(verify_cover(&g, &lp.weights).unwrap(), rat(3, 2));
        // The packing certifies optimality: Σy = 3/2 too.
        let total = lp
            .packing
            .iter()
            .try_fold(Rat::zero(), |a, y| a.checked_add(*y))
            .unwrap();
        assert_eq!(total, rat(3, 2));
    }

    #[test]
    fn chain_cover_is_two() {
        // R1{a,b} R2{b,c} R3{c,d}: ends force weight 1, middle rides free.
        let g = hg(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        let lp = cover_lp(&g).unwrap();
        assert_eq!(lp.rho, Rat::int(2));
        assert_eq!(lp.weights[0], Rat::int(1));
        assert_eq!(lp.weights[2], Rat::int(1));
        assert_eq!(verify_cover(&g, &lp.weights).unwrap(), Rat::int(2));
    }

    #[test]
    fn star_cover_is_the_leaf_count() {
        // Three edges sharing a hub, each with a private leaf.
        let g = hg(4, &[&[0, 1], &[0, 2], &[0, 3]]);
        let lp = cover_lp(&g).unwrap();
        assert_eq!(lp.rho, Rat::int(3));
    }

    #[test]
    fn four_clique_cover_is_a_perfect_matching() {
        // K4 on vertices 0..4: ρ* = 2 (e.g. two disjoint edges).
        let g = hg(4, &[&[0, 1], &[0, 2], &[0, 3], &[1, 2], &[1, 3], &[2, 3]]);
        let lp = cover_lp(&g).unwrap();
        assert_eq!(lp.rho, Rat::int(2));
        assert_eq!(verify_cover(&g, &lp.weights).unwrap(), Rat::int(2));
    }

    #[test]
    fn stress_hypergraph_solves_and_reverifies() {
        // A 12-vertex stack of odd cycles sharing vertices — many pivots,
        // fractional optima throughout. C5 on 0..5 (ρ* = 5/2), C7 on 5..12
        // (ρ* = 7/2), a chord web tying them together.
        let g = hg(
            12,
            &[
                &[0, 1],
                &[1, 2],
                &[2, 3],
                &[3, 4],
                &[4, 0],
                &[5, 6],
                &[6, 7],
                &[7, 8],
                &[8, 9],
                &[9, 10],
                &[10, 11],
                &[11, 5],
                &[0, 5],
                &[1, 6],
                &[2, 7],
                &[3, 8],
                &[4, 9],
                &[0, 10],
                &[1, 11],
                &[2, 9],
            ],
        );
        let lp = cover_lp(&g).unwrap();
        // Whatever the optimum is, the certificate must re-verify to it
        // exactly and sit between the trivial bounds.
        let cost = verify_cover(&g, &lp.weights).unwrap();
        assert_eq!(cost, lp.rho);
        assert_eq!(
            lp.rho.checked_cmp(&Rat::int(2)),
            Ok(Ordering::Greater),
            "12 vertices over 2-ary edges"
        );
        assert_ne!(lp.rho.checked_cmp(&Rat::int(6)), Ok(Ordering::Greater));
        // Weak duality re-check: packing total equals rho at the optimum.
        let total = lp
            .packing
            .iter()
            .try_fold(Rat::zero(), |a, y| a.checked_add(*y))
            .unwrap();
        assert_eq!(total, lp.rho);
    }

    #[test]
    fn uncovered_vertex_is_an_error() {
        let g = hg(2, &[&[0]]);
        assert!(matches!(cover_lp(&g), Err(CoverError::Unbounded)));
    }

    #[test]
    fn empty_requirement_costs_nothing() {
        let g = QueryHypergraph {
            class_count: 1,
            required: vec![],
            edges: vec![HyperEdge {
                label: "e".into(),
                covers: vec![0],
                relation: None,
            }],
        };
        assert_eq!(cover_lp(&g).unwrap().rho, Rat::zero());
    }

    #[test]
    fn bad_certificates_are_rejected() {
        let g = hg(3, &[&[0, 1], &[1, 2], &[2, 0]]);
        // Underweight cover.
        let under = vec![rat(1, 4); 3];
        assert!(verify_cover(&g, &under).is_err());
        // Wrong arity.
        assert!(verify_cover(&g, &[Rat::int(1)]).is_err());
        // Negative weight.
        let neg = vec![Rat::int(1), Rat::int(1), rat(-1, 2)];
        assert!(verify_cover(&g, &neg).is_err());
    }

    #[test]
    fn cover_lp_partialeq_support() {
        // CoverError implements Error + Display for `?` ergonomics.
        let e = CoverError::Overflow { op: "mul" };
        assert!(e.to_string().contains("mul"));
        assert!(CoverError::Unbounded.to_string().contains("unbounded"));
    }
}
