//! Semantic validation of queries, constraints, constraint sets and plans.
//!
//! Everything here is a *static* check: no data is touched. The checks are
//! layered —
//!
//! 1. [`validate_query`]: the scoping rule ([`cnb_ir::scope`], through
//!    `Query::validate`) plus schema agreement via the typechecker.
//! 2. [`validate_constraint`]: the same two for embedded dependencies —
//!    `cnb_ir::scope` through `Constraint::validate`, then typechecking of
//!    both implication sides.
//! 3. [`validate_constraint_set`]: a weak-acyclicity-style firing-graph
//!    check certifying that chasing with the set terminates (see below).
//! 4. [`validate_plan`]: [`validate_query`] plus join-connectivity — a
//!    plan whose binding graph falls into ≥ 2 components multiplies
//!    unrelated results (the cross-product shape the engine's greedy
//!    planner only demotes at runtime) and is rejected statically.
//!
//! # Termination certification
//!
//! The classic weak-acyclicity test builds a dependency graph over schema
//! *positions* (collection × attribute), draws a normal edge where a chase
//! step copies a value between positions and a *special* edge where a step
//! invents a fresh labeled null, and accepts iff no cycle contains a
//! special edge. This module adapts the test to the path-conjunctive IR:
//! positions are derived from binding ranges (`(R, ".A")` for relation
//! attributes, `(M, "#key")`/`(M, "#val.f")` for dictionary keys/entry
//! fields, with `#elem` marking set-element positions), and the copies-vs-
//! nulls classification per TGD comes from the congruence closure of its
//! tableau (the same [`CanonDb`] machinery the stratifier in
//! `cnb_core::strata` builds its interaction graph from): an existential
//! position is *determined* when its congruence class contains a constant
//! or a term over universal variables, and a fresh *null* otherwise. EGDs
//! only merge existing values and never create, so they contribute no
//! edges.

use std::fmt;

use cnb_core::prelude::{CanonDb, FxHashMap, FxHashSet};
use cnb_ir::prelude::{
    check_constraint, check_query, Constraint, ConstraintKind, PathExpr, Query, Range, Schema,
    ScopeError, Symbol, Var,
};
use cnb_ir::unionfind::UnionFind;

/// A defect found by one of the validators. Variants are specific enough
/// for the negative-case corpus to assert exactly which discipline broke.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// The scoping rule is broken: an unbound variable, a range that looks
    /// ahead, a variable bound twice — in a query's from/where/select
    /// clause or a constraint's universal/premise/existential/conclusion
    /// part, as the wrapped [`ScopeError`] says.
    Scope {
        /// The object it occurs in (`"query"`, `"constraint <name>"`).
        context: String,
        /// Which discipline broke, where.
        error: ScopeError,
    },
    /// Schema/arity disagreement caught by the typechecker (unknown
    /// collection, missing field, equality between different types, ...).
    Type {
        /// The typechecker's message.
        detail: String,
    },
    /// A physical plan whose binding graph is disconnected — executing it
    /// would multiply unrelated sub-results (a cross product).
    DisconnectedPlan {
        /// Number of connected components (≥ 2).
        components: usize,
    },
    /// The constraint set fails the weak-acyclicity firing-graph check:
    /// chasing with it may not terminate.
    NonTerminating {
        /// The offending special edge and the cycle it lies on.
        cycle: String,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Scope { context, error } => write!(f, "{context}: {error}"),
            ValidateError::Type { detail } => write!(f, "{detail}"),
            ValidateError::DisconnectedPlan { components } => {
                write!(
                    f,
                    "plan is a cross product: binding graph has {components} connected components"
                )
            }
            ValidateError::NonTerminating { cycle } => {
                write!(f, "chase may not terminate: {cycle}")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

// ---------------------------------------------------------------------------
// Queries and plans
// ---------------------------------------------------------------------------

/// Validates a query: the scoping rule, then schema agreement via the
/// typechecker.
pub fn validate_query(schema: &Schema, q: &Query) -> Result<(), ValidateError> {
    q.validate().map_err(|error| ValidateError::Scope {
        context: "query".into(),
        error,
    })?;
    check_query(schema, q)
        .map(|_| ())
        .map_err(|e| ValidateError::Type {
            detail: e.to_string(),
        })
}

/// The connected components of a query's binding graph. Two bindings are
/// connected when one ranges over an expression mentioning the other's
/// variable, a where-equality mentions variables of both, or both are
/// equated to the *same* ground term: `0 = r.K and 0 = v.K` is transitively
/// the equijoin `r.K = v.K`, the shape a point predicate leaves behind
/// after view rewriting. Equalities against *distinct* ground terms connect
/// nothing (`r.A = 3 and s.B = 5` is still a cross product).
pub fn join_components(q: &Query) -> usize {
    let n = q.from.len();
    if n <= 1 {
        return n;
    }
    let index: FxHashMap<Var, usize> = q.from.iter().enumerate().map(|(i, b)| (b.var, i)).collect();
    // Nodes 0..n are bindings; each distinct ground term equated to some
    // binding gets an extra node so shared constants act as join hubs.
    let mut ground_nodes: FxHashMap<String, usize> = FxHashMap::default();
    let mut uf = UnionFind::new(n);
    for (i, b) in q.from.iter().enumerate() {
        for v in b.range.vars() {
            if let Some(&j) = index.get(&v) {
                uf.union(i, j);
            }
        }
    }
    for eq in &q.where_ {
        let mut touched: Vec<usize> = eq
            .vars()
            .iter()
            .filter_map(|v| index.get(v).copied())
            .collect();
        touched.sort_unstable();
        touched.dedup();
        if touched.is_empty() {
            continue;
        }
        for w in touched.windows(2) {
            uf.union(w[0], w[1]);
        }
        // A side with no variables is a ground term; bindings equated to
        // equal ground terms share its node (and thus its component).
        for side in [&eq.lhs, &eq.rhs] {
            if side.vars().is_empty() {
                let node = *ground_nodes
                    .entry(side.to_string())
                    .or_insert_with(|| uf.push());
                uf.union(touched[0], node);
            }
        }
    }
    let mut roots: Vec<usize> = (0..n).map(|i| uf.find(i)).collect();
    roots.sort_unstable();
    roots.dedup();
    roots.len()
}

/// Validates a physical plan: everything [`validate_query`] checks (the
/// binding-order soundness part doubles as "every operator input is bound
/// before use") plus join connectivity — a disconnected binding graph is
/// the cross-product shape and is rejected.
pub fn validate_plan(schema: &Schema, plan: &Query) -> Result<(), ValidateError> {
    validate_query(schema, plan)?;
    let components = join_components(plan);
    if components > 1 {
        return Err(ValidateError::DisconnectedPlan { components });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Constraints
// ---------------------------------------------------------------------------

/// Validates one embedded dependency: the scoping rule (universal ranges
/// over earlier universals; premise over universals only; existential
/// ranges over universals and earlier existentials; conclusion over bound
/// variables only — for EGDs this is exactly "equated terms are bound"),
/// then typechecking of both sides.
pub fn validate_constraint(schema: &Schema, c: &Constraint) -> Result<(), ValidateError> {
    c.validate().map_err(|error| ValidateError::Scope {
        context: format!("constraint {}", c.name),
        error,
    })?;
    check_constraint(schema, c).map_err(|e| ValidateError::Type {
        detail: e.to_string(),
    })
}

// ---------------------------------------------------------------------------
// Constraint sets: weak-acyclicity termination certification
// ---------------------------------------------------------------------------

/// A schema position: a collection name plus a role path within its
/// elements (`""` the whole element, `".A"` a relation attribute, `"#key"`
/// a dictionary key, `"#val.f"` an entry field, `...#elem` a set element).
type Position = (Symbol, String);

fn show_position(p: &Position) -> String {
    format!("{}{}", p.0, p.1)
}

/// Per-TGD firing-graph contribution.
#[derive(Default)]
struct TgdEdges {
    /// (from, to): a chase step copies the value at `from` into `to`.
    normal: Vec<(Position, Position)>,
    /// Positions where the step invents a fresh labeled null.
    nulls: Vec<Position>,
    /// Universal positions whose values the step propagates (the frontier);
    /// special edges run from each of these to each null position.
    frontier: Vec<Position>,
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

/// The attributes of the element struct a `Name` range iterates, if the
/// declaration is a set of structs (relations and materialized views).
fn element_attrs(schema: &Schema, range: &Range) -> Vec<Symbol> {
    match range {
        Range::Name(name) => schema
            .relation_attrs(*name)
            .map(|attrs| attrs.iter().map(|(a, _)| *a).collect())
            .unwrap_or_default(),
        _ => Vec::new(),
    }
}

/// Computes one TGD's firing-graph contribution from the congruence
/// closure of its tableau.
fn tgd_edges(schema: &Schema, c: &Constraint) -> TgdEdges {
    let mut edges = TgdEdges::default();
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
                    edges.normal.push((s.clone(), t.clone()));
                }
                edges.frontier.push(s.clone());
            }
        } else {
            edges.nulls.extend(targets);
        }
    }

    // Attribute expansion: an existential element carries *all* attributes
    // of its collection, not only the ones the conclusion mentions. An
    // unmentioned attribute is copied along when the element itself is
    // determined wholesale (`r = I[k]`), and is a fresh null otherwise.
    for b in &c.existential {
        let Some((anchor, role)) = base.get(&b.var).cloned().flatten() else {
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
        for attr in element_attrs(schema, &b.range) {
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
                    edges.normal.push((s.clone(), target.clone()));
                    edges.frontier.push(s.clone());
                }
            } else {
                edges.nulls.push(target);
            }
        }
    }

    // The frontier also includes universal positions equated by the
    // conclusion (their values are what the firing propagates), even when
    // the equation is universal-to-universal.
    for eq in &c.conclusion {
        for side in [&eq.lhs, &eq.rhs] {
            if is_universal_term(side) {
                universal_positions_of(side, &base, &mut edges.frontier);
            }
        }
    }

    edges.frontier.sort();
    edges.frontier.dedup();
    edges.nulls.sort();
    edges.nulls.dedup();
    edges.normal.sort();
    edges.normal.dedup();
    edges
}

/// Certifies that chasing with `constraints` terminates, via a
/// position-level weak-acyclicity check: build the firing graph over
/// schema positions (normal edges for value copies, special edges from
/// each TGD's frontier to each position it fills with a fresh null) and
/// reject iff some strongly connected component contains a special edge.
/// EGDs never create values and are skipped.
pub fn validate_constraint_set(
    schema: &Schema,
    constraints: &[Constraint],
) -> Result<(), ValidateError> {
    let mut normal: Vec<(Position, Position)> = Vec::new();
    // Special edges, remembering the introducing constraint for diagnostics.
    let mut special: Vec<(Position, Position, String)> = Vec::new();
    for c in constraints {
        if c.kind() != ConstraintKind::Tgd {
            continue;
        }
        let edges = tgd_edges(schema, c);
        normal.extend(edges.normal);
        for f in &edges.frontier {
            for n in &edges.nulls {
                special.push((f.clone(), n.clone(), c.name.clone()));
            }
        }
    }

    // Index positions deterministically (by display name, then role).
    let mut positions: Vec<Position> = Vec::new();
    for (a, b) in &normal {
        positions.push(a.clone());
        positions.push(b.clone());
    }
    for (a, b, _) in &special {
        positions.push(a.clone());
        positions.push(b.clone());
    }
    positions.sort_by(|x, y| (x.0.as_str(), &x.1).cmp(&(y.0.as_str(), &y.1)));
    positions.dedup();
    let index: FxHashMap<&Position, usize> =
        positions.iter().enumerate().map(|(i, p)| (p, i)).collect();

    let n = positions.len();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b) in &normal {
        succ[index[a]].push(index[b]);
    }
    for (a, b, _) in &special {
        succ[index[a]].push(index[b]);
    }
    for s in &mut succ {
        s.sort_unstable();
        s.dedup();
    }

    let scc = scc_ids(&succ);
    for (a, b, name) in &special {
        let (ia, ib) = (index[a], index[b]);
        if scc[ia] == scc[ib] {
            let cycle_members: Vec<String> = positions
                .iter()
                .enumerate()
                .filter(|(i, _)| scc[*i] == scc[ia])
                .map(|(_, p)| show_position(p))
                .collect();
            return Err(ValidateError::NonTerminating {
                cycle: format!(
                    "special edge {} ~> {} (from {}) lies on a cycle through [{}]",
                    show_position(a),
                    show_position(b),
                    name,
                    cycle_members.join(", ")
                ),
            });
        }
    }
    Ok(())
}

/// Iterative Tarjan SCC; returns a component id per node.
fn scc_ids(succ: &[Vec<usize>]) -> Vec<usize> {
    let n = succ.len();
    const UNSET: usize = usize::MAX;
    let mut ids = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut order = vec![UNSET; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_order = 0usize;
    let mut next_id = 0usize;

    for root in 0..n {
        if order[root] != UNSET {
            continue;
        }
        // (node, next-successor-index) call frames.
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut si)) = frames.last_mut() {
            if *si == 0 {
                order[v] = next_order;
                low[v] = next_order;
                next_order += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *si < succ[v].len() {
                let w = succ[v][*si];
                *si += 1;
                if order[w] == UNSET {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(order[w]);
                }
            } else {
                if low[v] == order[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        ids[w] = next_id;
                        if w == v {
                            break;
                        }
                    }
                    next_id += 1;
                }
                frames.pop();
                if let Some(&mut (u, _)) = frames.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    ids
}

/// Validates a whole schema: every semantic constraint and skeleton
/// direction individually, then the full constraint set for termination.
pub fn validate_schema(schema: &Schema) -> Result<(), ValidateError> {
    for c in schema.semantic_constraints() {
        validate_constraint(schema, c)?;
    }
    for sk in schema.skeletons() {
        validate_constraint(schema, &sk.forward)?;
        validate_constraint(schema, &sk.backward)?;
    }
    validate_constraint_set(schema, &schema.all_constraints())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnb_ir::prelude::*;

    fn two_rel_schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation("R", [(sym("A"), Type::Int), (sym("B"), Type::Int)]);
        s.add_relation("S", [(sym("A"), Type::Int), (sym("B"), Type::Int)]);
        s
    }

    #[test]
    fn accepts_well_formed_query() {
        let s = two_rel_schema();
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let t = q.bind("t", Range::Name(sym("S")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(t).dot("A"));
        q.output("B", PathExpr::from(r).dot("B"));
        validate_query(&s, &q).unwrap();
        validate_plan(&s, &q).unwrap();
    }

    #[test]
    fn join_components_counts() {
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let t = q.bind("t", Range::Name(sym("S")));
        assert_eq!(join_components(&q), 2, "no predicate, no connection");
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(3i64));
        assert_eq!(join_components(&q), 2, "one filter does not connect");
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(t).dot("A"));
        assert_eq!(join_components(&q), 1);
    }

    /// Two bindings pinned to the *same* ground term are transitively
    /// equijoined through it — the shape a point predicate leaves after
    /// view rewriting (`0 = r.K and 0 = v.K`). Distinct constants still
    /// leave a genuine cross product.
    #[test]
    fn shared_ground_terms_connect() {
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let t = q.bind("t", Range::Name(sym("S")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(3i64));
        q.equate(PathExpr::from(t).dot("A"), PathExpr::from(5i64));
        assert_eq!(join_components(&q), 2, "distinct constants do not join");
        q.equate(PathExpr::from(t).dot("B"), PathExpr::from(3i64));
        assert_eq!(join_components(&q), 1, "shared constant is a join hub");

        // Same through a parameter placeholder (the serving-path shape).
        let mut p = Query::new();
        let r = p.bind("r", Range::Name(sym("R")));
        let t = p.bind("t", Range::Name(sym("S")));
        p.equate(PathExpr::from(Value::Param(0)), PathExpr::from(r).dot("A"));
        p.equate(PathExpr::from(Value::Param(0)), PathExpr::from(t).dot("A"));
        assert_eq!(join_components(&p), 1, "shared param is a join hub");
        let mut p2 = Query::new();
        let r = p2.bind("r", Range::Name(sym("R")));
        let t = p2.bind("t", Range::Name(sym("S")));
        p2.equate(PathExpr::from(Value::Param(0)), PathExpr::from(r).dot("A"));
        p2.equate(PathExpr::from(Value::Param(1)), PathExpr::from(t).dot("A"));
        assert_eq!(join_components(&p2), 2, "distinct params do not join");
    }

    #[test]
    fn dependent_ranges_connect() {
        let mut q = Query::new();
        let k = q.bind("k", Range::Dom(sym("M")));
        let _o = q.bind("o", Range::Expr(PathExpr::from(k).lookup_in("M").dot("N")));
        assert_eq!(join_components(&q), 1);
    }

    #[test]
    fn accepts_single_fk() {
        let s = two_rel_schema();
        let cs = vec![foreign_key(sym("R"), sym("A"), sym("S"), sym("A"))];
        validate_constraint_set(&s, &cs).unwrap();
    }

    #[test]
    fn accepts_mutual_inclusion() {
        // R.A ⊆ S.A and S.A ⊆ R.A copy values in a loop without ever
        // inventing a null at a position inside the loop — terminating.
        let s = two_rel_schema();
        let cs = vec![
            foreign_key(sym("R"), sym("A"), sym("S"), sym("A")),
            foreign_key(sym("S"), sym("A"), sym("R"), sym("A")),
        ];
        validate_constraint_set(&s, &cs).unwrap();
    }

    #[test]
    fn rejects_diverging_ric_cycle() {
        // R.A ⊆ S.A and S.B ⊆ R.B: each firing invents a null the other
        // constraint then propagates — the chase runs forever.
        let s = two_rel_schema();
        let cs = vec![
            foreign_key(sym("R"), sym("A"), sym("S"), sym("A")),
            foreign_key(sym("S"), sym("B"), sym("R"), sym("B")),
        ];
        let err = validate_constraint_set(&s, &cs).unwrap_err();
        assert!(matches!(err, ValidateError::NonTerminating { .. }), "{err}");
    }

    #[test]
    fn accepts_index_pairs() {
        let mut s = two_rel_schema();
        add_primary_index(&mut s, sym("R"), sym("A"), "PI");
        add_secondary_index(&mut s, sym("S"), sym("B"), "SI");
        add_composite_index(&mut s, sym("R"), &[sym("A"), sym("B")], "CI");
        validate_schema(&s).unwrap();
    }

    #[test]
    fn accepts_view_pair() {
        let mut s = two_rel_schema();
        let mut def = Query::new();
        let r = def.bind("r", Range::Name(sym("R")));
        let t = def.bind("t", Range::Name(sym("S")));
        def.equate(PathExpr::from(r).dot("A"), PathExpr::from(t).dot("A"));
        def.output("B", PathExpr::from(r).dot("B"));
        def.output("C", PathExpr::from(t).dot("B"));
        add_materialized_view(&mut s, "V", &def);
        validate_schema(&s).unwrap();
    }

    #[test]
    fn accepts_inverse_relationship() {
        let mut s = Schema::new();
        let m1_ty = Type::record([(sym("N"), Type::Set(Box::new(Type::Oid(sym("M2")))))]);
        let m2_ty = Type::record([(sym("P"), Type::Set(Box::new(Type::Oid(sym("M1")))))]);
        s.add_logical_dict("M1", Type::Oid(sym("M1")), m1_ty);
        s.add_logical_dict("M2", Type::Oid(sym("M2")), m2_ty);
        let [a, b] = inverse_relationship(sym("M1"), sym("M2"), sym("N"), sym("P"));
        s.add_constraint(a);
        s.add_constraint(b);
        validate_schema(&s).unwrap();
    }
}
