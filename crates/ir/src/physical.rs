//! Builders for the constraint patterns of Appendix A.
//!
//! Indexes, materialized views, ASRs, keys, referential integrity and inverse
//! relationships are all "just constraints" to the C&B optimizer; these
//! helpers construct the standard pairs so that workloads and tests do not
//! hand-write them.

use crate::constraint::{Constraint, PhysicalSpec, Skeleton};
use crate::path::PathExpr;
use crate::query::{Query, Range};
use crate::schema::Schema;
use crate::symbol::Symbol;
use crate::typecheck::check_query;
use crate::types::Type;

/// A key constraint: `forall (r in rel)(r2 in rel) r.key = r2.key => r = r2`.
pub fn key_constraint(rel: Symbol, key: Symbol) -> Constraint {
    let mut c = Constraint::new(format!("KEY({rel}.{key})"));
    let r = c.forall("r", Range::Name(rel));
    let r2 = c.forall("r2", Range::Name(rel));
    c.given(PathExpr::from(r).dot(key), PathExpr::from(r2).dot(key));
    c.then(PathExpr::from(r), PathExpr::from(r2));
    c
}

/// A referential integrity constraint:
/// `forall (r in from_rel) exists (s in to_rel) r.from_attr = s.to_attr`.
pub fn foreign_key(
    from_rel: Symbol,
    from_attr: Symbol,
    to_rel: Symbol,
    to_attr: Symbol,
) -> Constraint {
    let mut c = Constraint::new(format!("RIC({from_rel}.{from_attr} -> {to_rel}.{to_attr})"));
    let r = c.forall("r", Range::Name(from_rel));
    let s = c.exists("s", Range::Name(to_rel));
    c.then(
        PathExpr::from(r).dot(from_attr),
        PathExpr::from(s).dot(to_attr),
    );
    c
}

/// Declares a *primary* (unique) index `index_name` on `rel.key` — a
/// dictionary from key values to the unique matching tuple — and registers
/// its skeleton. Returns the index name.
///
/// ```text
/// (forward)  forall (r in R)        exists (k in dom I)  k = r.K and I[k] = r
/// (backward) forall (k in dom I)    exists (r in R)      r.K = k and r = I[k]
/// ```
pub fn add_primary_index(
    schema: &mut Schema,
    rel: Symbol,
    key: Symbol,
    index_name: impl Into<Symbol>,
) -> Symbol {
    let index_name = index_name.into();
    #[expect(clippy::panic)]
    let attrs = schema
        .relation_attrs(rel)
        .unwrap_or_else(|| panic!("{rel} is not a relation"));
    #[expect(clippy::panic)]
    let key_ty = attrs
        .iter()
        .find(|(a, _)| *a == key)
        .map(|(_, t)| t.clone())
        .unwrap_or_else(|| panic!("{rel} has no attribute {key}"));
    let tuple_ty = Type::Struct(attrs.to_vec());
    schema.add_physical_dict(index_name, key_ty, tuple_ty);

    let mut fwd = Constraint::new(format!("PIDX_b({index_name})"));
    let r = fwd.forall("r", Range::Name(rel));
    let k = fwd.exists("k", Range::Dom(index_name));
    fwd.then(PathExpr::from(k), PathExpr::from(r).dot(key));
    fwd.then(PathExpr::from(r), PathExpr::from(k).lookup_in(index_name));

    let mut bwd = Constraint::new(format!("PIDX_f({index_name})"));
    let k = bwd.forall("k", Range::Dom(index_name));
    let r = bwd.exists("r", Range::Name(rel));
    bwd.then(PathExpr::from(r).dot(key), PathExpr::from(k));
    bwd.then(PathExpr::from(r), PathExpr::from(k).lookup_in(index_name));

    schema.add_skeleton(Skeleton {
        physical_name: index_name,
        forward: fwd,
        backward: bwd,
        spec: PhysicalSpec::PrimaryIndex { rel, key },
    });
    index_name
}

/// Declares a *composite* primary index on several attributes (the `ABC`
/// index of Example 2.1): a dictionary from `struct(attrs...)` to the tuple.
pub fn add_composite_index(
    schema: &mut Schema,
    rel: Symbol,
    key_attrs: &[Symbol],
    index_name: impl Into<Symbol>,
) -> Symbol {
    let index_name = index_name.into();
    #[expect(clippy::panic)]
    let attrs = schema
        .relation_attrs(rel)
        .unwrap_or_else(|| panic!("{rel} is not a relation"));
    let key_ty = Type::Struct(
        key_attrs
            .iter()
            .map(|a| {
                #[expect(clippy::panic)]
                let t = attrs
                    .iter()
                    .find(|(n, _)| n == a)
                    .map(|(_, t)| t.clone())
                    .unwrap_or_else(|| panic!("{rel} has no attribute {a}"));
                (*a, t)
            })
            .collect(),
    );
    let tuple_ty = Type::Struct(attrs.to_vec());
    schema.add_physical_dict(index_name, key_ty, tuple_ty);

    let key_struct_of = |v: PathExpr| {
        PathExpr::MkStruct(key_attrs.iter().map(|a| (*a, v.clone().dot(*a))).collect())
    };

    let mut fwd = Constraint::new(format!("CIDX_b({index_name})"));
    let r = fwd.forall("r", Range::Name(rel));
    let k = fwd.exists("k", Range::Dom(index_name));
    fwd.then(PathExpr::from(k), key_struct_of(PathExpr::from(r)));
    fwd.then(PathExpr::from(r), PathExpr::from(k).lookup_in(index_name));

    let mut bwd = Constraint::new(format!("CIDX_f({index_name})"));
    let k = bwd.forall("k", Range::Dom(index_name));
    let r = bwd.exists("r", Range::Name(rel));
    for a in key_attrs {
        bwd.then(PathExpr::from(r).dot(*a), PathExpr::from(k).dot(*a));
    }
    bwd.then(PathExpr::from(r), PathExpr::from(k).lookup_in(index_name));

    schema.add_skeleton(Skeleton {
        physical_name: index_name,
        forward: fwd,
        backward: bwd,
        spec: PhysicalSpec::CompositeIndex {
            rel,
            keys: key_attrs.to_vec(),
        },
    });
    index_name
}

/// Declares a *secondary* (non-unique) index on `rel.attr` — a dictionary
/// from attribute values to the *set* of matching tuples.
///
/// ```text
/// (forward)  forall (r in R)                   exists (k in dom SI)(t in SI[k])  k = r.N and t = r
/// (backward) forall (k in dom SI)(t in SI[k])  exists (r in R)                   r.N = k and r = t
/// ```
pub fn add_secondary_index(
    schema: &mut Schema,
    rel: Symbol,
    attr: Symbol,
    index_name: impl Into<Symbol>,
) -> Symbol {
    let index_name = index_name.into();
    #[expect(clippy::panic)]
    let attrs = schema
        .relation_attrs(rel)
        .unwrap_or_else(|| panic!("{rel} is not a relation"));
    #[expect(clippy::panic)]
    let attr_ty = attrs
        .iter()
        .find(|(a, _)| *a == attr)
        .map(|(_, t)| t.clone())
        .unwrap_or_else(|| panic!("{rel} has no attribute {attr}"));
    let tuple_ty = Type::Struct(attrs.to_vec());
    schema.add_physical_dict(index_name, attr_ty, Type::Set(Box::new(tuple_ty)));

    let mut fwd = Constraint::new(format!("SIDX_b({index_name})"));
    let r = fwd.forall("r", Range::Name(rel));
    let k = fwd.exists("k", Range::Dom(index_name));
    let t = fwd.exists("t", Range::Expr(PathExpr::from(k).lookup_in(index_name)));
    fwd.then(PathExpr::from(k), PathExpr::from(r).dot(attr));
    fwd.then(PathExpr::from(t), PathExpr::from(r));

    let mut bwd = Constraint::new(format!("SIDX_f({index_name})"));
    let k = bwd.forall("k", Range::Dom(index_name));
    let t = bwd.forall("t", Range::Expr(PathExpr::from(k).lookup_in(index_name)));
    let r = bwd.exists("r", Range::Name(rel));
    bwd.then(PathExpr::from(r).dot(attr), PathExpr::from(k));
    bwd.then(PathExpr::from(r), PathExpr::from(t));

    schema.add_skeleton(Skeleton {
        physical_name: index_name,
        forward: fwd,
        backward: bwd,
        spec: PhysicalSpec::SecondaryIndex { rel, attr },
    });
    index_name
}

/// Declares a materialized view named `name` defined by `def` (which must
/// type-check against the logical schema), registering the standard pair of
/// inclusion constraints (`V_f`, `V_b` of Appendix A).
///
/// Access support relations (EC3) are materialized navigation-join views and
/// use this same builder.
pub fn add_materialized_view(schema: &mut Schema, name: impl Into<Symbol>, def: &Query) -> Symbol {
    let name = name.into();
    #[expect(clippy::panic)]
    let out_ty = check_query(schema, def)
        .unwrap_or_else(|e| panic!("view {name} definition does not type-check: {e}"));
    schema.add_physical_set(name, out_ty);

    // Forward: forall (def bindings) where(def) => exists (v in V) /\ v.L = P
    let mut fwd = Constraint::new(format!("VIEW_f({name})"));
    fwd.universal = def.from.clone();
    fwd.premise = def.where_.clone();
    // Allocate v after the definition's variables.
    let mut tail = Query::new();
    tail.reserve_vars(def.var_bound());
    let v = tail.bind("v", Range::Name(name));
    fwd.existential = tail.from.clone();
    for (label, p) in &def.select {
        fwd.then(PathExpr::from(v).dot(*label), p.clone());
    }
    fwd.reserve_vars(def.var_bound() + 1);

    // Backward: forall (v in V) => exists (def bindings) where(def) /\ v.L = P
    let mut bwd = Constraint::new(format!("VIEW_b({name})"));
    let v = bwd.forall("v", Range::Name(name));
    let offset = 1u32;
    let mut shift = |var: crate::path::Var| PathExpr::Var(crate::path::Var(var.0 + offset));
    for b in &def.from {
        bwd.existential.push(crate::query::Binding {
            var: crate::path::Var(b.var.0 + offset),
            name: b.name,
            range: b.range.map_vars(&mut shift),
        });
    }
    for eq in &def.where_ {
        bwd.conclusion.push(eq.map_vars(&mut shift));
    }
    for (label, p) in &def.select {
        bwd.then(PathExpr::from(v).dot(*label), p.map_vars(&mut shift));
    }
    bwd.reserve_vars(def.var_bound() + offset);

    schema.add_skeleton(Skeleton {
        physical_name: name,
        forward: fwd,
        backward: bwd,
        spec: PhysicalSpec::View(def.clone()),
    });
    name
}

/// The inverse-relationship constraint pair of Example 3.3 between classes
/// `m1` and `m2` (both dictionaries from oids to structs), where `m1`'s
/// set-valued attribute `n` ("next") is inverse to `m2`'s `p` ("previous").
///
/// ```text
/// (INV_N) forall (k in dom M1)(o in M1[k].N) exists (k2 in dom M2)(o2 in M2[k2].P) k2 = o and o2 = k
/// (INV_P) forall (k2 in dom M2)(o2 in M2[k2].P) exists (k in dom M1)(o in M1[k].N) k2 = o and o2 = k
/// ```
pub fn inverse_relationship(m1: Symbol, m2: Symbol, n: Symbol, p: Symbol) -> [Constraint; 2] {
    let mut inv_n = Constraint::new(format!("INV_N({m1}.{n} ~ {m2}.{p})"));
    let k = inv_n.forall("k", Range::Dom(m1));
    let o = inv_n.forall("o", Range::Expr(PathExpr::from(k).lookup_in(m1).dot(n)));
    let k2 = inv_n.exists("k2", Range::Dom(m2));
    let o2 = inv_n.exists("o2", Range::Expr(PathExpr::from(k2).lookup_in(m2).dot(p)));
    inv_n.then(PathExpr::from(k2), PathExpr::from(o));
    inv_n.then(PathExpr::from(o2), PathExpr::from(k));

    let mut inv_p = Constraint::new(format!("INV_P({m2}.{p} ~ {m1}.{n})"));
    let k2 = inv_p.forall("k2", Range::Dom(m2));
    let o2 = inv_p.forall("o2", Range::Expr(PathExpr::from(k2).lookup_in(m2).dot(p)));
    let k = inv_p.exists("k", Range::Dom(m1));
    let o = inv_p.exists("o", Range::Expr(PathExpr::from(k).lookup_in(m1).dot(n)));
    inv_p.then(PathExpr::from(k2), PathExpr::from(o));
    inv_p.then(PathExpr::from(o2), PathExpr::from(k));

    [inv_n, inv_p]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;
    use crate::typecheck::check_constraint;

    fn rel_schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation(
            "R",
            [
                (sym("K"), Type::Int),
                (sym("N"), Type::Int),
                (sym("A"), Type::Str),
            ],
        );
        s.add_relation("S", [(sym("A"), Type::Int), (sym("B"), Type::Str)]);
        s
    }

    #[test]
    fn primary_index_constraints_typecheck() {
        let mut s = rel_schema();
        add_primary_index(&mut s, sym("R"), sym("K"), "PI_R");
        let sk = &s.skeletons()[0];
        sk.validate().unwrap();
        check_constraint(&s, &sk.forward).unwrap();
        check_constraint(&s, &sk.backward).unwrap();
        assert!(s.is_physical(sym("PI_R")));
    }

    #[test]
    fn secondary_index_constraints_typecheck() {
        let mut s = rel_schema();
        add_secondary_index(&mut s, sym("R"), sym("N"), "SI_R");
        let sk = &s.skeletons()[0];
        sk.validate().unwrap();
        check_constraint(&s, &sk.forward).unwrap();
        check_constraint(&s, &sk.backward).unwrap();
        // Forward has two existential bindings: k and t in SI[k].
        assert_eq!(sk.forward.existential.len(), 2);
    }

    #[test]
    fn composite_index_constraints_typecheck() {
        let mut s = rel_schema();
        add_composite_index(&mut s, sym("R"), &[sym("K"), sym("N")], "I_KN");
        let sk = &s.skeletons()[0];
        check_constraint(&s, &sk.forward).unwrap();
        check_constraint(&s, &sk.backward).unwrap();
    }

    #[test]
    fn view_constraints_typecheck() {
        let mut s = rel_schema();
        // V = select struct(K = r.K, B = t.B) from R r, S t where r.N = t.A
        let mut def = Query::new();
        let r = def.bind("r", Range::Name(sym("R")));
        let t = def.bind("t", Range::Name(sym("S")));
        def.equate(PathExpr::from(r).dot("N"), PathExpr::from(t).dot("A"));
        def.output("K", PathExpr::from(r).dot("K"));
        def.output("B", PathExpr::from(t).dot("B"));
        add_materialized_view(&mut s, "V", &def);

        let sk = &s.skeletons()[0];
        sk.validate().unwrap();
        check_constraint(&s, &sk.forward).unwrap();
        check_constraint(&s, &sk.backward).unwrap();
        assert_eq!(sk.forward.universal.len(), 2);
        assert_eq!(sk.forward.existential.len(), 1);
        assert_eq!(sk.backward.universal.len(), 1);
        assert_eq!(sk.backward.existential.len(), 2);
        // v.K = r.K, v.B = t.B in the forward conclusion.
        assert_eq!(sk.forward.conclusion.len(), 2);
        // where(def) + 2 select equalities in the backward conclusion.
        assert_eq!(sk.backward.conclusion.len(), 3);
    }

    /// Every index builder stamps its spec with the logical source relation
    /// it indexes; a view's spec names no single relation.
    #[test]
    fn specs_carry_their_source_relation() {
        let mut s = rel_schema();
        add_primary_index(&mut s, sym("R"), sym("K"), "PI_R");
        add_secondary_index(&mut s, sym("R"), sym("N"), "SI_R");
        add_composite_index(&mut s, sym("R"), &[sym("K"), sym("N")], "I_KN");
        let mut def = Query::new();
        let r = def.bind("r", Range::Name(sym("R")));
        def.output("K", PathExpr::from(r).dot("K"));
        add_materialized_view(&mut s, "V", &def);

        let sources: Vec<Option<Symbol>> = s
            .skeletons()
            .iter()
            .map(|sk| match sk.spec {
                PhysicalSpec::PrimaryIndex { rel, .. }
                | PhysicalSpec::CompositeIndex { rel, .. }
                | PhysicalSpec::SecondaryIndex { rel, .. } => Some(rel),
                PhysicalSpec::View(_) | PhysicalSpec::Opaque => None,
            })
            .collect();
        assert_eq!(
            sources,
            vec![Some(sym("R")), Some(sym("R")), Some(sym("R")), None],
            "indexes name their relation; views have no single source"
        );
    }

    #[test]
    fn key_and_ric_builders() {
        let s = rel_schema();
        let k = key_constraint(sym("R"), sym("K"));
        check_constraint(&s, &k).unwrap();
        let f = foreign_key(sym("R"), sym("N"), sym("S"), sym("A"));
        check_constraint(&s, &f).unwrap();
    }

    #[test]
    fn inverse_relationship_typechecks() {
        let mut s = Schema::new();
        let obj = |class: &str| {
            Type::record([
                (sym("N"), Type::Set(Box::new(Type::Oid(sym(class))))),
                (sym("P"), Type::Set(Box::new(Type::Oid(sym(class))))),
            ])
        };
        // M1's N points into M2 (oid type M2); M2's P points back into M1.
        let m1_ty = Type::record([
            (sym("N"), Type::Set(Box::new(Type::Oid(sym("M2"))))),
            (sym("P"), Type::Set(Box::new(Type::Oid(sym("M1"))))),
        ]);
        let m2_ty = Type::record([
            (sym("N"), Type::Set(Box::new(Type::Oid(sym("M3"))))),
            (sym("P"), Type::Set(Box::new(Type::Oid(sym("M1"))))),
        ]);
        let _ = obj;
        s.add_logical_dict("M1", Type::Oid(sym("M1")), m1_ty);
        s.add_logical_dict("M2", Type::Oid(sym("M2")), m2_ty);
        let [inv_n, inv_p] = inverse_relationship(sym("M1"), sym("M2"), sym("N"), sym("P"));
        // INV_N: k2 = o requires oid<M2> = oid<M2> ✓; o2 = k requires oid<M1> = oid<M1> ✓
        check_constraint(&s, &inv_n).unwrap();
        check_constraint(&s, &inv_p).unwrap();
    }
}
