//! Off-line constraint stratification (OCS) — §3.2.2 and Appendix C.
//!
//! Algorithm C.1 builds a *query-independent* interaction graph over the
//! constraints: an edge connects `c₁` and `c₂` when the universal part of one
//! maps homomorphically (injectively on bindings) into the *tableau* of the
//! other. Connected components become strata; the optimizer then pipelines
//! the query through the strata, chasing/backchasing with one stratum at a
//! time. OCS trades completeness for time: it is validated against the
//! paper's EC2 plan counts (3/5/8 where FB finds 4/7/13).

use cnb_ir::prelude::Constraint;
use cnb_ir::unionfind::UnionFind;

use crate::canon::CanonDb;
use crate::homomorphism::{find_homs, HomConfig, HomMap};

/// Partitions `constraints` into strata (index groups) per Algorithm C.1.
/// Strata are ordered by their smallest constraint index, so the pipeline
/// order is deterministic.
pub fn stratify(constraints: &[Constraint]) -> Vec<Vec<usize>> {
    let n = constraints.len();
    let mut uf = UnionFind::new(n);

    // Pre-compile each tableau once.
    let mut tableaux: Vec<CanonDb> = constraints
        .iter()
        .map(|c| CanonDb::new(&c.tableau()))
        .collect();

    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if interacts(&constraints[i], &mut tableaux[j]) {
                uf.union(i, j);
            }
        }
    }

    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for i in 0..n {
        let r = uf.find(i);
        match groups.iter_mut().find(|(rep, _)| *rep == r) {
            Some((_, g)) => g.push(i),
            None => groups.push((r, vec![i])),
        }
    }
    groups.sort_by_key(|(rep, _)| *rep);
    groups.into_iter().map(|(_, g)| g).collect()
}

/// Does `c`'s universal part map (binding-injectively) into the tableau db?
fn interacts(c: &Constraint, tableau: &mut CanonDb) -> bool {
    let homs = find_homs(
        tableau,
        &c.universal,
        &c.premise,
        &HomMap::default(),
        HomConfig {
            max_homs: 1,
            injective: true,
        },
    );
    !homs.is_empty()
}

/// Regroups strata into coarser groups of `group_size` strata each (for the
/// fig. 8 granularity sweep: size 1 = OCS, size = #strata ≈ FB).
pub fn regroup(strata: &[Vec<usize>], group_size: usize) -> Vec<Vec<usize>> {
    assert!(group_size >= 1);
    strata
        .chunks(group_size)
        .map(|chunk| chunk.iter().flatten().copied().collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnb_ir::prelude::*;

    /// Example 3.3: inverse pairs of adjacent class links form separate
    /// strata — INV(M1,M2) does not interact with INV(M2,M3).
    #[test]
    fn inverse_pairs_stratify_per_link() {
        let mut cs = Vec::new();
        for i in 1..=2 {
            let [a, b] = inverse_relationship(
                sym(&format!("M{i}")),
                sym(&format!("M{}", i + 1)),
                sym("N"),
                sym("P"),
            );
            cs.push(a);
            cs.push(b);
        }
        let strata = stratify(&cs);
        assert_eq!(strata.len(), 2, "{strata:?}");
        assert_eq!(strata[0], vec![0, 1]);
        assert_eq!(strata[1], vec![2, 3]);
    }

    /// A view's forward/backward pair interacts (they are converses over the
    /// same names), so each view stays whole, but independent views over
    /// disjoint relations split.
    #[test]
    fn independent_views_split() {
        let mut schema = Schema::new();
        for i in 1..=2 {
            schema.add_relation(format!("A{i}"), [(sym("X"), Type::Int)]);
            let mut def = Query::new();
            let a = def.bind("a", Range::Name(sym(&format!("A{i}"))));
            def.output("X", PathExpr::from(a).dot("X"));
            add_materialized_view(&mut schema, format!("V{i}"), &def);
        }
        let cs = schema.all_constraints();
        let strata = stratify(&cs);
        assert_eq!(strata.len(), 2, "{strata:?}");
    }

    /// The key constraint on a star hub does *not* join the view strata: its
    /// two universal bindings cannot map injectively into a tableau with a
    /// single hub binding. This is what reproduces the paper's EC2 OCS
    /// incompleteness (3 plans vs FB's 4).
    #[test]
    fn key_constraint_isolated_from_views() {
        let mut schema = Schema::new();
        schema.add_relation(
            "R",
            [
                (sym("K"), Type::Int),
                (sym("A1"), Type::Int),
                (sym("A2"), Type::Int),
            ],
        );
        schema.add_relation("S1", [(sym("A"), Type::Int), (sym("B"), Type::Int)]);
        schema.add_relation("S2", [(sym("A"), Type::Int), (sym("B"), Type::Int)]);
        schema.add_constraint(key_constraint(sym("R"), sym("K")));
        for i in 1..=2 {
            let mut def = Query::new();
            let r = def.bind("r", Range::Name(sym("R")));
            let s = def.bind("s", Range::Name(sym(&format!("S{i}"))));
            def.equate(
                PathExpr::from(r).dot(format!("A{i}").as_str()),
                PathExpr::from(s).dot("A"),
            );
            def.output("K", PathExpr::from(r).dot("K"));
            def.output("B", PathExpr::from(s).dot("B"));
            add_materialized_view(&mut schema, format!("V{i}"), &def);
        }
        let cs = schema.all_constraints(); // [KEY, V1f, V1b, V2f, V2b]
        let strata = stratify(&cs);
        // KEY alone; V1 pair; V2 pair.
        assert_eq!(strata.len(), 3, "{strata:?}");
        assert_eq!(strata[0], vec![0]);
        assert_eq!(strata[1], vec![1, 2]);
        assert_eq!(strata[2], vec![3, 4]);
    }

    /// Two views over the *same* relations interact and share a stratum.
    #[test]
    fn overlapping_views_share_stratum() {
        let mut schema = Schema::new();
        schema.add_relation("R", [(sym("A"), Type::Int), (sym("B"), Type::Int)]);
        for i in 1..=2 {
            let mut def = Query::new();
            let r = def.bind("r", Range::Name(sym("R")));
            def.output("A", PathExpr::from(r).dot("A"));
            let _ = i;
            add_materialized_view(&mut schema, format!("U{i}"), &def);
        }
        let cs = schema.all_constraints();
        let strata = stratify(&cs);
        assert_eq!(strata.len(), 1, "{strata:?}");
    }

    #[test]
    fn regroup_merges_consecutive() {
        let strata = vec![vec![0, 1], vec![2, 3], vec![4], vec![5]];
        let g2 = regroup(&strata, 2);
        assert_eq!(g2, vec![vec![0, 1, 2, 3], vec![4, 5]]);
        let g1 = regroup(&strata, 1);
        assert_eq!(g1, strata);
        let g4 = regroup(&strata, 4);
        assert_eq!(g4, vec![vec![0, 1, 2, 3, 4, 5]]);
    }
}
