//! Synthetic data generation with controlled join selectivities.
//!
//! The paper's §5.4 dataset: 5 000 tuples per relation, 4 % selectivity for
//! hub–corner joins and 2 % for hub–hub joins. Selectivity here means
//! `|R ⋈ S| / |R|`: a join attribute drawn uniformly from a domain of size
//! `|S| / selectivity` yields the desired expected match count.
//!
//! Beyond the paper's uniform columns, [`ColumnGen::Skewed`] draws
//! power-law-shaped integers for the EC5 cyclic-join workloads: cyclic
//! queries (triangles, 4-cycles) are precisely where a few hub nodes
//! dominate the output, so the graph generators come in both uniform and
//! skewed flavours ([`gen_edge_table`]).

use crate::prng::SplitMix64;
use cnb_ir::prelude::*;

/// Column generators for [`gen_table`].
#[derive(Clone, Debug)]
pub enum ColumnGen {
    /// Sequential values `0, 1, 2, …` (unique keys).
    Serial,
    /// Uniform integers in `[0, n)`.
    Uniform(i64),
    /// Power-law-skewed integers in `[0, n)`: `⌊n · u^gamma⌋` for uniform
    /// `u ∈ [0, 1)`. `gamma = 1` degenerates to uniform; larger values
    /// concentrate mass near 0 (low ids become "hub" values). The implied
    /// density is `Pr[X = x] ∝ x^(1/gamma - 1)` — Zipf-like without the
    /// harmonic-sum bookkeeping, and exactly seed-stable.
    Skewed(i64, f64),
}

/// A column specification.
#[derive(Clone, Debug)]
pub struct ColumnSpec {
    /// Attribute name.
    pub name: Symbol,
    /// How values are drawn.
    pub gen: ColumnGen,
}

impl ColumnSpec {
    /// Shorthand constructor.
    pub fn new(name: &str, gen: ColumnGen) -> ColumnSpec {
        ColumnSpec {
            name: sym(name),
            gen,
        }
    }
}

/// Generates `rows` struct rows from the column specs.
pub fn gen_table(rows: usize, cols: &[ColumnSpec], rng: &mut SplitMix64) -> Vec<Value> {
    (0..rows)
        .map(|i| {
            Value::record(cols.iter().map(|c| {
                let v = match c.gen {
                    ColumnGen::Serial => i as i64,
                    ColumnGen::Uniform(n) => rng.gen_range(0..n.max(1)),
                    ColumnGen::Skewed(n, gamma) => skewed_value(n, gamma, rng),
                };
                (c.name, Value::Int(v))
            }))
        })
        .collect()
}

fn skewed_value(n: i64, gamma: f64, rng: &mut SplitMix64) -> i64 {
    let n = n.max(1);
    debug_assert!(gamma >= 1.0, "gamma < 1 would skew toward n, not 0");
    let u = rng.gen_f64();
    ((n as f64 * u.powf(gamma)) as i64).min(n - 1)
}

/// How edge endpoints are drawn by [`gen_edge_table`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EdgeDist {
    /// Both endpoints uniform over the node ids.
    Uniform,
    /// Both endpoints skewed toward low node ids with the given exponent
    /// (`> 1`; see [`ColumnGen::Skewed`]) — a few hub nodes collect most
    /// edges, the regime where cyclic-join outputs concentrate.
    Skewed(f64),
}

/// Generates a directed edge table `E(S, T)` with `edges` rows over node ids
/// `[0, nodes)`, endpoints drawn per `dist`. Self-loops and parallel edges
/// are possible, as in the standard random-multigraph model.
pub fn gen_edge_table(
    nodes: usize,
    edges: usize,
    dist: EdgeDist,
    rng: &mut SplitMix64,
) -> Vec<Value> {
    let gen = |dist: EdgeDist| match dist {
        EdgeDist::Uniform => ColumnGen::Uniform(nodes as i64),
        EdgeDist::Skewed(gamma) => ColumnGen::Skewed(nodes as i64, gamma),
    };
    let cols = [
        ColumnSpec::new("S", gen(dist)),
        ColumnSpec::new("T", gen(dist)),
    ];
    gen_table(edges, &cols, rng)
}

/// Domain size giving join selectivity `sel` against a table of `target_card`
/// unique keys: `target_card / sel`.
pub fn domain_for_selectivity(target_card: usize, sel: f64) -> i64 {
    assert!(sel > 0.0 && sel <= 1.0);
    ((target_card as f64) / sel).round() as i64
}

/// A deterministic RNG for reproducible datasets.
pub fn rng(seed: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_is_unique() {
        let mut r = rng(1);
        let t = gen_table(100, &[ColumnSpec::new("K", ColumnGen::Serial)], &mut r);
        let mut keys: Vec<i64> = t
            .iter()
            .map(|row| match row.field(sym("K")) {
                Some(Value::Int(i)) => *i,
                _ => panic!(),
            })
            .collect();
        keys.dedup();
        assert_eq!(keys.len(), 100);
    }

    #[test]
    fn uniform_in_range() {
        let mut r = rng(2);
        let t = gen_table(
            1000,
            &[ColumnSpec::new("A", ColumnGen::Uniform(10))],
            &mut r,
        );
        assert!(t.iter().all(|row| match row.field(sym("A")) {
            Some(Value::Int(i)) => (0..10).contains(i),
            _ => false,
        }));
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut r = rng(42);
            gen_table(
                50,
                &[ColumnSpec::new("A", ColumnGen::Uniform(1000))],
                &mut r,
            )
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn skewed_stays_in_range_and_concentrates_low() {
        let mut r = rng(9);
        let n = 100i64;
        let t = gen_table(
            10_000,
            &[ColumnSpec::new("A", ColumnGen::Skewed(n, 3.0))],
            &mut r,
        );
        let vals: Vec<i64> = t
            .iter()
            .map(|row| match row.field(sym("A")) {
                Some(Value::Int(i)) => *i,
                _ => panic!(),
            })
            .collect();
        assert!(vals.iter().all(|v| (0..n).contains(v)));
        // With gamma = 3, Pr[X < n/8] = Pr[u < 1/2] = 1/2: the bottom eighth
        // of the domain holds about half the mass.
        let low = vals.iter().filter(|&&v| v < n / 8).count();
        assert!(
            (4_000..6_000).contains(&low),
            "bottom-eighth count {low} not concentrated"
        );
    }

    #[test]
    fn edge_table_shapes_and_determinism() {
        let mk = |dist| {
            let mut r = rng(13);
            gen_edge_table(50, 400, dist, &mut r)
        };
        for dist in [EdgeDist::Uniform, EdgeDist::Skewed(2.0)] {
            let t = mk(dist);
            assert_eq!(t.len(), 400);
            assert!(t.iter().all(|row| {
                matches!(row.field(sym("S")), Some(Value::Int(s)) if (0..50).contains(s))
                    && matches!(row.field(sym("T")), Some(Value::Int(d)) if (0..50).contains(d))
            }));
            assert_eq!(t, mk(dist), "edge tables must be seed-stable");
        }
        assert_ne!(
            mk(EdgeDist::Uniform),
            mk(EdgeDist::Skewed(2.0)),
            "the two distributions draw different streams"
        );
    }

    #[test]
    fn selectivity_domain_math() {
        assert_eq!(domain_for_selectivity(5000, 0.04), 125_000);
        assert_eq!(domain_for_selectivity(5000, 0.02), 250_000);
    }

    #[test]
    fn empirical_selectivity_close_to_target() {
        // Join R.F (uniform over domain) against S.K (serial): expected
        // matches = rows * sel.
        let rows = 5000usize;
        let sel = 0.04;
        let dom = domain_for_selectivity(rows, sel);
        let mut r = rng(7);
        let fks = gen_table(
            rows,
            &[ColumnSpec::new("F", ColumnGen::Uniform(dom))],
            &mut r,
        );
        let matches = fks
            .iter()
            .filter(|row| match row.field(sym("F")) {
                Some(Value::Int(i)) => (*i as usize) < rows,
                _ => false,
            })
            .count();
        let expected = (rows as f64 * sel) as usize;
        assert!(
            matches > expected / 2 && matches < expected * 2,
            "matches {matches} vs expected {expected}"
        );
    }
}
