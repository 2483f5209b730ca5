//! Two analyses of a constraint set, both built from its constraints'
//! tableaux ([`Constraint::tableau`], compiled into [`CanonDb`]s):
//! off-line constraint stratification for the OCS strategy ([`stratify`])
//! and the termination certificate every [`crate::optimizer::Optimizer`]
//! asks for once, when its set is fixed ([`certify`]).
//!
//! # Off-line constraint stratification (OCS) — §3.2.2 and Appendix C
//!
//! Algorithm C.1 builds a *query-independent* interaction graph over the
//! constraints: an edge connects `c₁` and `c₂` when the universal part of one
//! maps homomorphically (injectively on bindings) into the *tableau* of the
//! other. Connected components become strata; the optimizer then pipelines
//! the query through the strata, chasing/backchasing with one stratum at a
//! time. OCS trades completeness for time: it is validated against the
//! paper's EC2 plan counts (3/5/8 where FB finds 4/7/13).
//!
//! # Termination certification
//!
//! C&B's plans are complete only at the chase's fixpoint (§3), and the chase
//! reaches one on a *weakly acyclic* set (Fagin, Kolaitis, Miller, Popa,
//! *Data Exchange*, ICDT 2003). The classic test builds a dependency graph
//! over schema *positions* (collection × attribute), draws a normal edge
//! where a chase step copies a value between positions and a *special* edge
//! where a step invents a fresh labeled null, and accepts iff no cycle
//! contains a special edge. [`certify`] adapts the test to the
//! path-conjunctive IR: positions are derived from binding ranges (`(R,
//! ".A")` for relation attributes, `(M, "#key")`/`(M, "#val.f")` for
//! dictionary keys/entry fields, with `#elem` marking set-element
//! positions), and the copies-vs-nulls classification per TGD comes from
//! the congruence closure of its tableau: an existential position is
//! *determined* when its congruence class contains a constant or a term
//! over universal variables, and a fresh *null* otherwise. EGDs only merge
//! existing values and never create, so they contribute no edges. A special
//! edge `a ~> b` lies on a cycle exactly when `b` reaches `a`, so one
//! depth-first search from each special edge's head `b` decides the set and
//! names a witness cycle.

use std::fmt;

use cnb_ir::prelude::{
    Constraint, ConstraintKind, PathExpr, Range, Schema, ScopeError, Symbol, Var,
};
use cnb_ir::unionfind::UnionFind;

use crate::canon::CanonDb;
use crate::fxhash::{FxHashMap, FxHashSet};
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

/// Why [`certify`] refuses a constraint set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertifyError {
    /// A constraint breaks the scoping rule ([`Constraint::validate`]).
    Scope {
        /// The constraint's name.
        constraint: String,
        /// Which discipline broke, where.
        error: ScopeError,
    },
    /// The set is not weakly acyclic: chasing with it may not terminate.
    NonTerminating {
        /// The offending special edge and a cycle it lies on.
        cycle: String,
    },
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::Scope { constraint, error } => {
                write!(f, "constraint {constraint}: {error}")
            }
            CertifyError::NonTerminating { cycle } => write!(f, "chase may not terminate: {cycle}"),
        }
    }
}

impl std::error::Error for CertifyError {}

/// Certifies `constraints` for the chase: every constraint passes
/// [`Constraint::validate`], and the set is weakly acyclic over `schema`'s
/// positions (see "Termination certification" above), so every chase with
/// it reaches a fixpoint.
pub fn certify(schema: &Schema, constraints: &[Constraint]) -> Result<(), CertifyError> {
    for c in constraints {
        c.validate().map_err(|error| CertifyError::Scope {
            constraint: c.name.clone(),
            error,
        })?;
    }
    // Every edge, and the special ones again with the constraint that draws
    // them, for the diagnostic.
    let mut edges: Vec<Edge> = Vec::new();
    let mut special: Vec<(Position, Position, &str)> = Vec::new();
    let tgds = constraints
        .iter()
        .filter(|c| c.kind() == ConstraintKind::Tgd);
    for c in tgds {
        let (normal, specials) = tgd_edges(schema, c);
        edges.extend(normal.into_iter().chain(specials.iter().cloned()));
        special.extend(specials.into_iter().map(|(f, n)| (f, n, c.name.as_str())));
    }

    // Index positions deterministically (by display name, then role).
    let mut positions: Vec<Position> = edges.iter().flat_map(|(a, b)| [a, b]).cloned().collect();
    positions.sort_by(|x, y| (x.0.as_str(), &x.1).cmp(&(y.0.as_str(), &y.1)));
    positions.dedup();
    let index: FxHashMap<&Position, usize> =
        positions.iter().enumerate().map(|(i, p)| (p, i)).collect();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); positions.len()];
    for (a, b) in &edges {
        succ[index[a]].push(index[b]);
    }
    for s in &mut succ {
        s.sort_unstable();
        s.dedup();
    }

    // `a ~> b` lies on a cycle iff `b` reaches `a`: one depth-first search
    // from each `b`, remembering each position's predecessor for the witness.
    let mut reached: Vec<Option<Vec<usize>>> = vec![None; positions.len()];
    for (a, b, name) in &special {
        let (ia, ib) = (index[a], index[b]);
        let pred = reached[ib].get_or_insert_with(|| {
            let mut pred = vec![usize::MAX; succ.len()];
            pred[ib] = ib;
            let mut stack = vec![ib];
            while let Some(v) = stack.pop() {
                for &w in &succ[v] {
                    if pred[w] == usize::MAX {
                        pred[w] = v;
                        stack.push(w);
                    }
                }
            }
            pred
        });
        if pred[ia] == usize::MAX {
            continue;
        }
        let mut path = vec![show_position(a)];
        let mut at = ia;
        while at != ib {
            at = pred[at];
            path.push(show_position(&positions[at]));
        }
        path.reverse();
        return Err(CertifyError::NonTerminating {
            cycle: format!(
                "special edge {} ~> {} (from {name}) lies on a cycle through [{}]",
                show_position(a),
                show_position(b),
                path.join(", ")
            ),
        });
    }
    Ok(())
}

/// A schema position: a collection name plus a role path within its
/// elements (`""` the whole element, `".A"` a relation attribute, `"#key"`
/// a dictionary key, `"#val.f"` an entry field, `...#elem` a set element).
type Position = (Symbol, String);

/// A firing-graph edge between two positions.
type Edge = (Position, Position);

fn show_position(p: &Position) -> String {
    format!("{}{}", p.0, p.1)
}

/// The position of a path, given the positions of binding roots.
fn position_of(p: &PathExpr, base: &FxHashMap<Var, Option<Position>>) -> Option<Position> {
    match p {
        PathExpr::Var(v) => base.get(v).cloned().flatten(),
        PathExpr::Const(_) => None,
        PathExpr::Field(inner, f) => {
            position_of(inner, base).map(|(a, role)| (a, format!("{role}.{f}")))
        }
        PathExpr::Lookup(dict, _) => Some((*dict, "#val".into())),
        PathExpr::MkStruct(_) => None,
    }
}

/// All positions of universal-variable sub-terms of `p` (recursing into
/// struct literals, so a composite index key `struct(A = r.A, ...)`
/// contributes the positions of its fields).
fn universal_positions_of(
    p: &PathExpr,
    base: &FxHashMap<Var, Option<Position>>,
    out: &mut Vec<Position>,
) {
    if let PathExpr::MkStruct(fields) = p {
        for (_, fp) in fields {
            universal_positions_of(fp, base, out);
        }
        return;
    }
    if let Some(pos) = position_of(p, base) {
        out.push(pos);
    }
}

/// One TGD's firing-graph edges from the congruence closure of its
/// tableau: the normal ones, `(from, to)` where a chase step copies the
/// value at `from` into `to`, and the special ones, from each universal
/// position whose value the step propagates (the frontier) to each
/// position where it invents a fresh labeled null.
#[allow(clippy::type_complexity)]
fn tgd_edges(
    schema: &Schema,
    c: &Constraint,
) -> (Vec<(Position, Position)>, Vec<(Position, Position)>) {
    let (mut normal, mut frontier, mut nulls) = (Vec::new(), Vec::new(), Vec::new());
    let universal_vars: FxHashSet<Var> = c.universal.iter().map(|b| b.var).collect();

    // Base positions of binding roots, existentials included.
    let mut base: FxHashMap<Var, Option<Position>> = FxHashMap::default();
    for b in c.universal.iter().chain(c.existential.iter()) {
        let pos = match &b.range {
            Range::Name(s) => Some((*s, String::new())),
            Range::Dom(s) => Some((*s, "#key".into())),
            Range::Expr(p) => position_of(p, &base).map(|(a, role)| (a, format!("{role}#elem"))),
        };
        base.insert(b.var, pos);
    }

    // Congruence closure over the tableau: interns every term (bindings,
    // range expressions, both sides of every equality) and merges per the
    // premise and conclusion.
    let mut db = CanonDb::new(&c.tableau());
    let is_universal_term = |p: &PathExpr| p.vars().iter().all(|v| universal_vars.contains(v));

    let reps = db.cong.class_reps();
    for rep in reps {
        let members = db.cong.class_members(rep);
        let paths: Vec<PathExpr> = members.iter().map(|t| db.cong.path_of(*t)).collect();
        let mut ground = false;
        let mut sources: Vec<Position> = Vec::new();
        let mut targets: Vec<Position> = Vec::new();
        for p in &paths {
            if is_universal_term(p) {
                // Constants and universal-variable terms pin the class to
                // existing values.
                ground = true;
                universal_positions_of(p, &base, &mut sources);
            } else if let Some(pos) = position_of(p, &base) {
                targets.push(pos);
            }
        }
        if targets.is_empty() {
            continue;
        }
        if ground {
            for s in &sources {
                for t in &targets {
                    normal.push((s.clone(), t.clone()));
                }
                frontier.push(s.clone());
            }
        } else {
            nulls.extend(targets);
        }
    }

    // Attribute expansion: an existential element carries *all* attributes
    // of its collection, not only the ones the conclusion mentions. An
    // unmentioned attribute is copied along when the element itself is
    // determined wholesale (`r = I[k]`), and is a fresh null otherwise.
    for b in &c.existential {
        let (Some((anchor, role)), Range::Name(name)) = (base[&b.var].clone(), &b.range) else {
            continue;
        };
        let elem = db.cong.intern_path(&PathExpr::Var(b.var));
        let elem_members = db.cong.class_members(elem);
        let elem_paths: Vec<PathExpr> = elem_members.iter().map(|t| db.cong.path_of(*t)).collect();
        let parent_sources: Vec<Position> = elem_paths
            .iter()
            .filter(|p| is_universal_term(p))
            .filter_map(|p| position_of(p, &base))
            .collect();
        let parent_ground = elem_paths.iter().any(is_universal_term);
        // The attributes of a set of structs (relations, materialized views).
        for &(attr, _) in schema.relation_attrs(*name).unwrap_or_default() {
            let attr_path = PathExpr::from(b.var).dot(attr);
            let t = db.cong.intern_path(&attr_path);
            let attr_members = db.cong.class_members(t);
            let attr_paths: Vec<PathExpr> =
                attr_members.iter().map(|m| db.cong.path_of(*m)).collect();
            let target = (anchor, format!("{role}.{attr}"));
            let mut ground = false;
            let mut sources: Vec<Position> = Vec::new();
            for p in &attr_paths {
                if is_universal_term(p) {
                    ground = true;
                    universal_positions_of(p, &base, &mut sources);
                }
            }
            if !ground && parent_ground {
                // `v = u` for a universal term u determines every
                // attribute of v wholesale: v.f copies u.f.
                ground = true;
                sources = parent_sources
                    .iter()
                    .map(|(a, r)| (*a, format!("{r}.{attr}")))
                    .collect();
            }
            if ground {
                for s in &sources {
                    normal.push((s.clone(), target.clone()));
                    frontier.push(s.clone());
                }
            } else {
                nulls.push(target);
            }
        }
    }

    // The frontier also includes universal positions equated by the
    // conclusion (their values are what the firing propagates), even when
    // the equation is universal-to-universal.
    for eq in &c.conclusion {
        for side in [&eq.lhs, &eq.rhs] {
            if is_universal_term(side) {
                universal_positions_of(side, &base, &mut frontier);
            }
        }
    }

    frontier.sort();
    frontier.dedup();
    nulls.sort();
    nulls.dedup();
    let special = frontier
        .iter()
        .flat_map(|f| nulls.iter().map(move |n| (f.clone(), n.clone())))
        .collect();
    (normal, special)
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
