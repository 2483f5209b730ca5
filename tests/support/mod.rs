//! The frozen-chase oracle: equivalence under a constraint set decided by
//! evaluating a query on a database, not by a homomorphism search.
//!
//! A chase that reaches its fixpoint is a *universal model* (Fagin,
//! Kolaitis, Miller and Popa, *Data exchange: semantics and query
//! answering*, ICDT 2003). Freeze `chase(P)` into an instance `D_P`: one
//! fresh value per congruence class, a class's constant where it has one.
//! Then `P ⊆ Q` under Σ holds iff `P`'s frozen head is a row of `Q(D_P)`.
//! `Q(D_P)` is computed by `cnb_engine::execute`, whose joins share no code
//! with `cnb_core::homomorphism`, so the oracle and the checker it judges
//! meet only in the chase.
//!
//! Relational bindings only: every binding of a chased query must range over
//! a relation of the schema (a view is one). `dom` and path bindings panic;
//! freezing dictionary entries and set values is open work.

use chase_too_far::core::prelude::*;
use chase_too_far::engine::{execute, Database};
use chase_too_far::ir::prelude::*;

/// Is `candidate` equivalent to `q0` under `constraints`, by the frozen
/// chases of both?
pub fn frozen_equivalent(
    schema: &Schema,
    q0: &Query,
    candidate: &Query,
    constraints: &[Constraint],
) -> bool {
    contained(schema, candidate, q0, constraints) && contained(schema, q0, candidate, constraints)
}

/// Is `p ⊆ q` under `constraints`: is `p`'s frozen head a row of `q` over
/// the frozen chase of `p`? The outputs are matched by label.
pub fn contained(schema: &Schema, p: &Query, q: &Query, constraints: &[Constraint]) -> bool {
    let (mut chased, stats) = chase_query(p, constraints, ChaseConfig::default());
    assert!(!stats.truncated, "the oracle needs a chase fixpoint: {p}");
    let mut frozen = Frozen::default();
    let mut db = Database::new();
    for b in chased.query.from.clone() {
        let Range::Name(relation) = b.range else {
            panic!("the oracle freezes relational bindings only: {b:?}");
        };
        let attrs = schema
            .relation_attrs(relation)
            .unwrap_or_else(|| panic!("{relation} is not a relation of the schema"));
        let row = attrs
            .iter()
            .map(|&(attr, _)| {
                (
                    attr,
                    frozen.value(&mut chased, &PathExpr::from(b.var).dot(attr)),
                )
            })
            .collect::<Vec<_>>();
        db.insert_row(relation, Value::record(row));
    }
    let head = q
        .select
        .iter()
        .map(|(label, _)| {
            let (_, path) = p
                .select
                .iter()
                .find(|(l, _)| l == label)
                .unwrap_or_else(|| panic!("{p} has no output {label}"));
            (*label, frozen.value(&mut chased, path))
        })
        .collect::<Vec<_>>();
    let head = Value::record(head);
    let answer = execute(&db, q).unwrap_or_else(|e| panic!("{q} over the frozen chase: {e:?}"));
    answer.rows.contains(&head)
}

/// The value of each congruence class of one chased query.
#[derive(Default)]
struct Frozen {
    classes: FxHashMap<TermId, Value>,
}

impl Frozen {
    /// The frozen value of `path`: the constant of its class, or a value
    /// that no constant and no other class has.
    fn value(&mut self, db: &mut CanonDb, path: &PathExpr) -> Value {
        let term = db.probe_term(path);
        let class = db.cong.find(term);
        if let Some(v) = self.classes.get(&class) {
            return v.clone();
        }
        let constant =
            db.cong
                .class_members(class)
                .into_iter()
                .find_map(|m| match db.cong.node(m) {
                    TermNode::Const(c) => Some(c.clone()),
                    _ => None,
                });
        let fresh = Value::Str(format!("⊥{}", self.classes.len()).into());
        let v = constant.unwrap_or(fresh);
        self.classes.insert(class, v.clone());
        v
    }
}
