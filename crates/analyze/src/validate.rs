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
//! 3. [`validate_schema`]: 2. for every constraint of a schema, then the
//!    whole set through [`cnb_core::strata::certify`], the weak-acyclicity
//!    check that certifies chasing with it terminates (its module docs
//!    argue how).
//! 4. [`validate_plan`]: [`validate_query`] plus join-connectivity — a
//!    plan whose binding graph falls into ≥ 2 components multiplies
//!    unrelated results (the cross-product shape the engine's greedy
//!    planner only demotes at runtime) and is rejected statically.

use std::fmt;

use cnb_core::prelude::FxHashMap;
use cnb_core::strata::{certify, CertifyError};
use cnb_ir::prelude::{
    check_constraint, check_query, Constraint, PathExpr, Query, Schema, ScopeError, Var,
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
    /// The constraint set is not certified ([`certify`]): chasing with it
    /// may not terminate.
    Certify(CertifyError),
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
            ValidateError::Certify(e) => write!(f, "{e}"),
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
    // Keyed by the term itself, not its text: `7` and `7.0` print alike
    // but are different values, as are two NaNs with different payloads.
    let mut ground_nodes: FxHashMap<&PathExpr, usize> = FxHashMap::default();
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
                let node = *ground_nodes.entry(side).or_insert_with(|| uf.push());
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

/// Validates a whole schema: every constraint (semantic ones and both
/// directions of every skeleton) individually, then the full set with
/// [`certify`] — the check every `Optimizer` runs at construction.
pub fn validate_schema(schema: &Schema) -> Result<(), ValidateError> {
    let constraints = schema.all_constraints();
    for c in &constraints {
        validate_constraint(schema, c)?;
    }
    certify(schema, &constraints).map_err(ValidateError::Certify)
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
        certify(&s, &cs).unwrap();
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
        certify(&s, &cs).unwrap();
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
        let err = certify(&s, &cs).unwrap_err();
        assert!(matches!(err, CertifyError::NonTerminating { .. }), "{err}");
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
