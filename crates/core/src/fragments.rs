//! On-line query fragmentation (OQF) — §3.2.1 and Appendix B.
//!
//! The interaction graph has a node for every (skeleton, homomorphism) pair
//! mapping a skeleton's logical side into the query, and an edge whenever two
//! images overlap. Its connected components induce *query fragments* that can
//! be chased/backchased independently and recombined by joining on *link
//! paths*; for skeleton schemas this loses no plans (Theorem 3.2), while
//! shrinking the search space exponentially (Example 3.1's analysis).

use crate::fxhash::FxHashMap;

use cnb_ir::prelude::{Binding, Equality, PathExpr, Query, Skeleton, Symbol};
use cnb_ir::unionfind::UnionFind;

use crate::bitset::VarSet;
use crate::canon::CanonDb;
use crate::homomorphism::{find_homs, HomConfig, HomMap};

/// A query fragment produced by Algorithm B.1.
#[derive(Clone, Debug)]
pub struct Fragment {
    /// The bindings of the original query this fragment keeps.
    pub bindings: VarSet,
    /// The induced fragment query (original outputs over this fragment plus
    /// link paths, per Appendix B's three conditions).
    pub query: Query,
    /// Output labels of the original query provided by this fragment.
    pub provides: Vec<Symbol>,
    /// Link labels shared with other fragments.
    pub links: Vec<Symbol>,
}

/// Decomposes `q` into fragments based on the skeletons (Algorithm B.1).
///
/// Bindings not covered by any skeleton homomorphism form one leftover
/// fragment. Bindings connected through range dependencies (`o in M[k].N`)
/// are always kept together.
pub fn decompose(q: &Query, skeletons: &[Skeleton]) -> Vec<Fragment> {
    let mut db = CanonDb::new(q);
    let n = q.from.len();
    let position: FxHashMap<_, _> = q.from.iter().enumerate().map(|(i, b)| (b.var, i)).collect();

    let mut uf = UnionFind::new(n);
    // Range dependencies keep dependent bindings together.
    for (i, b) in q.from.iter().enumerate() {
        for v in b.range.vars() {
            if let Some(&j) = position.get(&v) {
                uf.union(i, j);
            }
        }
    }

    // Step 1: skeleton homomorphism images.
    let mut covered = vec![false; n];
    for sk in skeletons {
        let homs = find_homs(
            &mut db,
            &sk.forward.universal,
            &sk.forward.premise,
            &HomMap::default(),
            HomConfig::default(),
        );
        for h in homs {
            let image: Vec<usize> = sk
                .forward
                .universal
                .iter()
                .filter_map(|b| position.get(&h[&b.var]).copied())
                .collect();
            for &i in &image {
                covered[i] = true;
            }
            for w in image.windows(2) {
                uf.union(w[0], w[1]);
            }
        }
    }

    // Step 2/3: connected components; covered components become fragments,
    // uncovered ones pool into one leftover fragment (Step 4).
    let mut comp_of: Vec<usize> = (0..n).map(|i| uf.find(i)).collect();
    let mut comp_covered: FxHashMap<usize, bool> = FxHashMap::default();
    for i in 0..n {
        *comp_covered.entry(comp_of[i]).or_default() |= covered[i];
    }
    // Remap uncovered components to one pseudo-component (usize::MAX).
    for i in 0..n {
        if !comp_covered[&comp_of[i]] {
            comp_of[i] = usize::MAX;
        }
    }
    let mut order: Vec<usize> = Vec::new();
    for &c in &comp_of {
        if !order.contains(&c) {
            order.push(c);
        }
    }

    let sets: Vec<VarSet> = order
        .iter()
        .map(|&c| {
            VarSet::from_iter(
                q.from
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| comp_of[*i] == c)
                    .map(|(_, b)| b.var),
            )
        })
        .collect();

    build_fragments(&mut db, q, &sets)
}

/// Induces the fragment queries for binding sets `sets` (Appendix B's
/// fragment definition, including link-path selection).
fn build_fragments(db: &mut CanonDb, q: &Query, sets: &[VarSet]) -> Vec<Fragment> {
    // Which fragments can express each congruence class, and with what path.
    // A class pinned to a constant needs no link (both sides carry the
    // constant); a class expressible by >= 2 fragments becomes a link class.
    struct LinkClass {
        label: Symbol,
        by_fragment: Vec<(usize, PathExpr)>,
    }
    let mut links: Vec<LinkClass> = Vec::new();
    for rep in db.cong.class_reps() {
        let members = db.cong.class_members(rep);
        let pinned = members
            .iter()
            .any(|&m| matches!(db.cong.node(m), crate::congruence::TermNode::Const(_)));
        if pinned {
            continue;
        }
        let mut by_fragment: Vec<(usize, PathExpr)> = Vec::new();
        for (fi, s) in sets.iter().enumerate() {
            let over = db.cong.class_paths_over(rep, s);
            if let Some(&best) = over.first() {
                if !db.cong.support(best).is_empty() {
                    by_fragment.push((fi, db.cong.path_of(best)));
                }
            }
        }
        if by_fragment.len() >= 2 {
            links.push(LinkClass {
                label: Symbol::new(&format!("__link{}", links.len())),
                by_fragment,
            });
        }
    }

    let mut fragments = Vec::with_capacity(sets.len());
    for (fi, s) in sets.iter().enumerate() {
        let mut fq = Query::new();
        fq.reserve_vars(q.var_bound());
        for b in &q.from {
            if s.contains(b.var) {
                fq.from.push(b.clone());
            }
        }
        // Where: restriction of the closure to this fragment (reduced).
        fq.where_ = crate::subquery::restricted_where(db, s);
        // Select: original outputs over this fragment...
        let mut provides = Vec::new();
        for (label, p) in &q.select {
            let t = db.cong.intern_path(p);
            if let Some(rw) = db.cong.rewrite_over(t, s) {
                fq.select.push((*label, db.cong.path_of(rw)));
                provides.push(*label);
            }
        }
        // ...plus link paths.
        let mut link_labels = Vec::new();
        for lc in &links {
            if let Some((_, path)) = lc.by_fragment.iter().find(|(i, _)| *i == fi) {
                fq.select.push((lc.label, path.clone()));
                link_labels.push(lc.label);
            }
        }
        debug_assert!(fq.validate().is_ok(), "fragment query ill-formed");
        fragments.push(Fragment {
            bindings: s.clone(),
            query: fq,
            provides,
            links: link_labels,
        });
    }

    // Outputs provided by several fragments (through equalities) should be
    // emitted by only one — keep the first provider.
    let mut seen: Vec<Symbol> = Vec::new();
    for f in &mut fragments {
        f.provides.retain(|l| {
            if seen.contains(l) {
                f.query.select.retain(|(sl, _)| sl != l);
                false
            } else {
                seen.push(*l);
                true
            }
        });
    }
    fragments
}

/// Reassembles one plan per fragment into a plan for the original query:
/// concatenate the (variable-renamed) fragment plans, join them on their link
/// paths, and project the original output labels (Algorithm 3.1, Step 3).
///
/// Fragment plans are chased apart, so two of them can name a binding alike
/// (`dom PI2 k_3`, `dom PI3 k_3`); a binding whose name `out` already holds
/// is renamed `name_1`, `name_2`, … so the plan's text parses back to it.
pub fn combine_plans(q0: &Query, fragments: &[Fragment], choice: &[&Query]) -> Query {
    assert_eq!(fragments.len(), choice.len());
    let mut out = Query::new();
    let mut remapped: Vec<Query> = Vec::new();
    for plan in choice {
        let offset = out.var_bound();
        let p = plan.offset_vars(offset);
        out.reserve_vars(p.var_bound());
        for b in &p.from {
            let taken = |name: Symbol| out.from.iter().any(|o| o.name == name);
            let mut name = b.name;
            let mut suffix = 0;
            while taken(name) {
                suffix += 1;
                name = Symbol::new(&format!("{}_{suffix}", b.name));
            }
            out.from.push(Binding { name, ..b.clone() });
        }
        out.where_.extend(p.where_.iter().cloned());
        remapped.push(p);
    }
    // Join on link labels: equate consecutive providers.
    let mut link_paths: FxHashMap<Symbol, Vec<PathExpr>> = FxHashMap::default();
    for (f, p) in fragments.iter().zip(&remapped) {
        for l in &f.links {
            if let Some((_, path)) = p.select.iter().find(|(sl, _)| sl == l) {
                link_paths.entry(*l).or_default().push(path.clone());
            }
        }
    }
    let mut labels: Vec<Symbol> = link_paths.keys().copied().collect();
    labels.sort();
    for l in labels {
        let paths = &link_paths[&l];
        for w in paths.windows(2) {
            out.where_.push(Equality::new(w[0].clone(), w[1].clone()));
        }
    }
    // Project original outputs.
    for (label, _) in &q0.select {
        #[expect(clippy::panic)]
        let provider = fragments
            .iter()
            .position(|f| f.provides.contains(label))
            .unwrap_or_else(|| panic!("no fragment provides output {label}"));
        let path = remapped[provider]
            .select
            .iter()
            .find(|(sl, _)| sl == label)
            .map(|(_, p)| p.clone())
            .expect("provider plan lost its output");
        out.select.push((*label, path));
    }
    debug_assert!(out.validate().is_ok(), "combined plan ill-formed");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnb_ir::prelude::*;

    /// EC1-style: chain of 2 relations with one primary index each →
    /// fragments are the individual loops.
    #[test]
    fn chain_fragments_per_loop() {
        let mut schema = Schema::new();
        for i in 1..=2 {
            schema.add_relation(
                format!("R{i}"),
                [(sym("A"), Type::Int), (sym("B"), Type::Int)],
            );
            add_primary_index(
                &mut schema,
                sym(&format!("R{i}")),
                sym("A"),
                format!("I{i}"),
            );
        }
        let mut q = Query::new();
        let r1 = q.bind("r1", Range::Name(sym("R1")));
        let r2 = q.bind("r2", Range::Name(sym("R2")));
        q.equate(PathExpr::from(r1).dot("B"), PathExpr::from(r2).dot("A"));
        q.output("A", PathExpr::from(r1).dot("A"));
        q.output("B", PathExpr::from(r2).dot("B"));

        let frags = decompose(&q, schema.skeletons());
        assert_eq!(frags.len(), 2);
        assert_eq!(frags[0].bindings.len(), 1);
        assert_eq!(frags[1].bindings.len(), 1);
        // The join condition r1.B = r2.A becomes a link in both fragments.
        assert_eq!(frags[0].links.len(), 1);
        assert_eq!(frags[0].links, frags[1].links);
        // Outputs: A from fragment 1, B from fragment 2.
        assert_eq!(frags[0].provides, vec![sym("A")]);
        assert_eq!(frags[1].provides, vec![sym("B")]);
    }

    /// Overlapping views force a single fragment (the paper's worst case).
    #[test]
    fn overlapping_views_merge() {
        let mut schema = Schema::new();
        schema.add_relation("R", [(sym("A1"), Type::Int), (sym("A2"), Type::Int)]);
        schema.add_relation("S1", [(sym("A"), Type::Int), (sym("B"), Type::Int)]);
        schema.add_relation("S2", [(sym("A"), Type::Int), (sym("B"), Type::Int)]);
        for i in 1..=2 {
            let mut def = Query::new();
            let r = def.bind("r", Range::Name(sym("R")));
            let s = def.bind("s", Range::Name(sym(&format!("S{i}"))));
            def.equate(
                PathExpr::from(r).dot(format!("A{i}").as_str()),
                PathExpr::from(s).dot("A"),
            );
            def.output("B", PathExpr::from(s).dot("B"));
            add_materialized_view(&mut schema, format!("W{i}"), &def);
        }
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s1 = q.bind("s1", Range::Name(sym("S1")));
        let s2 = q.bind("s2", Range::Name(sym("S2")));
        q.equate(PathExpr::from(r).dot("A1"), PathExpr::from(s1).dot("A"));
        q.equate(PathExpr::from(r).dot("A2"), PathExpr::from(s2).dot("A"));
        q.output("B1", PathExpr::from(s1).dot("B"));
        q.output("B2", PathExpr::from(s2).dot("B"));

        let frags = decompose(&q, schema.skeletons());
        assert_eq!(frags.len(), 1, "views share r — single fragment");
        assert_eq!(frags[0].bindings.len(), 3);
        assert!(frags[0].links.is_empty());
    }

    /// Bindings not covered by any skeleton pool into one leftover fragment.
    #[test]
    fn leftover_fragment() {
        let mut schema = Schema::new();
        schema.add_relation("R", [(sym("A"), Type::Int)]);
        schema.add_relation("T", [(sym("A"), Type::Int)]);
        add_primary_index(&mut schema, sym("R"), sym("A"), "IR");
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let t = q.bind("t", Range::Name(sym("T")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(t).dot("A"));
        q.output("A", PathExpr::from(r).dot("A"));

        let frags = decompose(&q, schema.skeletons());
        assert_eq!(frags.len(), 2);
        let leftover = frags.iter().find(|f| f.bindings.contains(t)).unwrap();
        assert_eq!(leftover.bindings.len(), 1);
    }

    /// combine_plans stitches fragment plans with link joins and recovers the
    /// original output labels.
    #[test]
    fn combine_round_trip() {
        let mut schema = Schema::new();
        for i in 1..=2 {
            schema.add_relation(
                format!("R{i}"),
                [(sym("A"), Type::Int), (sym("B"), Type::Int)],
            );
            add_primary_index(
                &mut schema,
                sym(&format!("R{i}")),
                sym("A"),
                format!("I{i}"),
            );
        }
        let mut q = Query::new();
        let r1 = q.bind("r1", Range::Name(sym("R1")));
        let r2 = q.bind("r2", Range::Name(sym("R2")));
        q.equate(PathExpr::from(r1).dot("B"), PathExpr::from(r2).dot("A"));
        q.output("A", PathExpr::from(r1).dot("A"));
        q.output("B", PathExpr::from(r2).dot("B"));

        let frags = decompose(&q, schema.skeletons());
        // Use the fragment queries themselves as (trivial) plans.
        let choice: Vec<&Query> = frags.iter().map(|f| &f.query).collect();
        let combined = combine_plans(&q, &frags, &choice);
        combined.validate().unwrap();
        assert_eq!(combined.from.len(), 2);
        assert_eq!(combined.select.len(), 2);
        assert_eq!(combined.select[0].0, sym("A"));
        // The link join is re-established.
        assert!(
            !combined.where_.is_empty(),
            "link equality must reappear: {combined}"
        );
    }
}
