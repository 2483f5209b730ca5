//! Embedded path-conjunctive dependencies.
//!
//! Every constraint of the paper has the form (Appendix A):
//!
//! ```text
//! forall (x1 in P1) ... (xm in Pm)  [ B1  =>  exists (y1 in Q1) ... (yn in Qn)  B2 ]
//! ```
//!
//! where the `Pi`/`Qj` are ranges (possibly depending on earlier variables)
//! and `B1`, `B2` are conjunctions of path equalities. Constraints with an
//! empty existential part whose conclusion equates universal terms are
//! EGD-shaped (keys, functional dependencies); the rest are TGD-shaped
//! (referential integrity, inverse relationships, index/view/ASR
//! descriptions).

use std::fmt;

use crate::path::{Equality, PathExpr, Var};
use crate::print::{named, Printer};
use crate::query::{Binding, Query, Range};
use crate::scope::{Clause, Scope, ScopeError};
use crate::symbol::Symbol;

/// Rough classification of a constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConstraintKind {
    /// Has existential bindings: chasing adds bindings (tuple-generating).
    Tgd,
    /// No existential bindings: chasing asserts equalities
    /// (equality-generating; keys and functional dependencies).
    Egd,
}

/// An embedded path-conjunctive dependency.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Constraint {
    /// Diagnostic name, e.g. `"IDX_f(I)"` or `"KEY(R1.K)"`.
    pub name: String,
    /// Universally quantified bindings (the constraint's "from clause").
    pub universal: Vec<Binding>,
    /// Premise `B1`.
    pub premise: Vec<Equality>,
    /// Existentially quantified bindings.
    pub existential: Vec<Binding>,
    /// Conclusion `B2`.
    pub conclusion: Vec<Equality>,
    next_var: u32,
}

impl Constraint {
    /// Creates an empty constraint with the given name. Populate it with
    /// [`Constraint::forall`], [`Constraint::exists`], premises and
    /// conclusions.
    pub fn new(name: impl Into<String>) -> Constraint {
        Constraint {
            name: name.into(),
            universal: Vec::new(),
            premise: Vec::new(),
            existential: Vec::new(),
            conclusion: Vec::new(),
            next_var: 0,
        }
    }

    /// Adds a universally quantified binding and returns its variable.
    pub fn forall(&mut self, name: &str, range: Range) -> Var {
        let var = Var(self.next_var);
        self.next_var += 1;
        self.universal.push(Binding {
            var,
            name: Symbol::new(name),
            range,
        });
        var
    }

    /// Adds an existentially quantified binding and returns its variable.
    pub fn exists(&mut self, name: &str, range: Range) -> Var {
        let var = Var(self.next_var);
        self.next_var += 1;
        self.existential.push(Binding {
            var,
            name: Symbol::new(name),
            range,
        });
        var
    }

    /// Adds a premise equality (to `B1`).
    pub fn given(&mut self, lhs: impl Into<PathExpr>, rhs: impl Into<PathExpr>) {
        self.premise.push(Equality::new(lhs, rhs));
    }

    /// Adds a conclusion equality (to `B2`).
    pub fn then(&mut self, lhs: impl Into<PathExpr>, rhs: impl Into<PathExpr>) {
        self.conclusion.push(Equality::new(lhs, rhs));
    }

    /// TGD or EGD.
    pub fn kind(&self) -> ConstraintKind {
        if self.existential.is_empty() {
            ConstraintKind::Egd
        } else {
            ConstraintKind::Tgd
        }
    }

    /// Upper bound (exclusive) on variable ids allocated in this constraint.
    pub fn var_bound(&self) -> u32 {
        self.next_var
    }

    /// Reserves variable ids so that ids below `bound` are never reallocated.
    /// Used when bindings are grafted in from a related query (view builders).
    pub fn reserve_vars(&mut self, bound: u32) {
        self.next_var = self.next_var.max(bound);
    }

    /// The *tableau* `T(c)` of Appendix C: universal and existential bindings
    /// together, with all conditions conjoined, as a body-only query.
    pub fn tableau(&self) -> Query {
        let mut q = Query::new();
        q.from.extend(self.universal.iter().cloned());
        q.from.extend(self.existential.iter().cloned());
        q.where_.extend(self.premise.iter().cloned());
        q.where_.extend(self.conclusion.iter().cloned());
        q.reserve_vars(self.next_var);
        q
    }

    /// Schema names mentioned in universal ranges.
    pub fn universal_anchors(&self) -> Vec<Symbol> {
        self.universal
            .iter()
            .filter_map(|b| b.range.anchor())
            .collect()
    }

    /// Schema names mentioned in existential ranges.
    pub fn existential_anchors(&self) -> Vec<Symbol> {
        self.existential
            .iter()
            .filter_map(|b| b.range.anchor())
            .collect()
    }

    /// Well-formedness under the scoping rule ([`crate::scope`]): universal
    /// ranges may reference earlier universal variables; the premise uses
    /// universal variables only; existential ranges may reference universal
    /// and earlier existential variables; the conclusion may use all of
    /// them. Returns the first violation in that order.
    pub fn validate(&self) -> Result<(), ScopeError> {
        let mut scope = Scope::default();
        scope.bind(Clause::Universal, &self.universal)?;
        scope.check_all(Clause::Premise, &self.premise)?;
        scope.bind(Clause::Existential, &self.existential)?;
        scope.check_all(Clause::Conclusion, &self.conclusion)
    }

    /// Renames every variable by adding `offset`, so the constraint's
    /// variables do not clash with a query allocating ids below `offset`.
    pub fn offset_vars(&self, offset: u32) -> Constraint {
        let mut shift = |v: Var| PathExpr::Var(Var(v.0 + offset));
        let map_binding = |b: &Binding| Binding {
            var: Var(b.var.0 + offset),
            name: b.name,
            range: b.range.map_vars(&mut |v| PathExpr::Var(Var(v.0 + offset))),
        };
        Constraint {
            name: self.name.clone(),
            universal: self.universal.iter().map(map_binding).collect(),
            premise: self
                .premise
                .iter()
                .map(|e| e.map_vars(&mut shift))
                .collect(),
            existential: self.existential.iter().map(map_binding).collect(),
            conclusion: self
                .conclusion
                .iter()
                .map(|e| e.map_vars(&mut shift))
                .collect(),
            next_var: self.next_var + offset,
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bindings = self.universal.iter().chain(&self.existential);
        Printer::new(f, named(bindings)).constraint(self)
    }
}

/// How a physical structure is populated from the logical data — used by the
/// execution engine to materialize it. The *optimizer* never looks at this;
/// it reasons purely from the constraint pair.
#[derive(Clone, Debug)]
pub enum PhysicalSpec {
    /// Unique dictionary from a key attribute to the tuple.
    PrimaryIndex {
        /// Indexed relation.
        rel: Symbol,
        /// Key attribute.
        key: Symbol,
    },
    /// Unique dictionary from a struct of attributes to the tuple.
    CompositeIndex {
        /// Indexed relation.
        rel: Symbol,
        /// Key attributes, in index order.
        keys: Vec<Symbol>,
    },
    /// Dictionary from an attribute value to the *set* of matching tuples.
    SecondaryIndex {
        /// Indexed relation.
        rel: Symbol,
        /// Indexed attribute.
        attr: Symbol,
    },
    /// Materialized view (or ASR): stored result of the defining query.
    View(Query),
    /// Declared externally; the engine will not materialize it.
    Opaque,
}

/// A *skeleton* (Appendix B): a pair of complementary inclusion constraints
/// describing a physical access structure. `forward` quantifies universally
/// over logical names and existentially over the physical structure;
/// `backward` is the converse inclusion.
#[derive(Clone, Debug)]
pub struct Skeleton {
    /// The physical structure this skeleton describes (index, view, ASR).
    pub physical_name: Symbol,
    /// `d`: logical ⇒ physical inclusion.
    pub forward: Constraint,
    /// `d⁻`: physical ⇒ logical inclusion.
    pub backward: Constraint,
    /// Materialization recipe for the execution engine.
    pub spec: PhysicalSpec,
}

impl Skeleton {
    /// Both constraints, forward first.
    pub fn constraints(&self) -> [&Constraint; 2] {
        [&self.forward, &self.backward]
    }

    /// Validates both directions and checks the orientation conventions:
    /// the forward constraint must mention the physical name only
    /// existentially, the backward constraint only universally.
    pub fn validate(&self) -> Result<(), String> {
        for c in self.constraints() {
            c.validate()
                .map_err(|e| format!("skeleton {}: {}: {e}", self.physical_name, c.name))?;
        }
        if !self
            .forward
            .existential_anchors()
            .contains(&self.physical_name)
        {
            return Err(format!(
                "skeleton {}: forward constraint does not produce the physical structure",
                self.physical_name
            ));
        }
        if !self
            .backward
            .universal_anchors()
            .contains(&self.physical_name)
        {
            return Err(format!(
                "skeleton {}: backward constraint does not consume the physical structure",
                self.physical_name
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    /// RIC from Example 2.1: forall (r in R) exists (s in S) r.A = s.A
    fn ric() -> Constraint {
        let mut c = Constraint::new("RIC(R.A -> S.A)");
        let r = c.forall("r", Range::Name(sym("R")));
        let s = c.exists("s", Range::Name(sym("S")));
        c.then(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
        c
    }

    /// KEY from Example 2.2: forall (r in R1)(r' in R1) r.K = r'.K => r = r'
    fn key() -> Constraint {
        let mut c = Constraint::new("KEY(R1.K)");
        let r = c.forall("r", Range::Name(sym("R1")));
        let r2 = c.forall("r2", Range::Name(sym("R1")));
        c.given(PathExpr::from(r).dot("K"), PathExpr::from(r2).dot("K"));
        c.then(PathExpr::from(r), PathExpr::from(r2));
        c
    }

    #[test]
    fn kinds() {
        assert_eq!(ric().kind(), ConstraintKind::Tgd);
        assert_eq!(key().kind(), ConstraintKind::Egd);
    }

    #[test]
    fn validation_accepts_good() {
        ric().validate().unwrap();
        key().validate().unwrap();
    }

    #[test]
    fn validation_rejects_premise_with_existential_var() {
        let mut c = Constraint::new("bad");
        let _r = c.forall("r", Range::Name(sym("R")));
        let s = c.exists("s", Range::Name(sym("S")));
        c.premise
            .push(Equality::new(PathExpr::from(s), PathExpr::from(0i64)));
        assert_eq!(
            c.validate(),
            Err(ScopeError::Unbound {
                clause: Clause::Premise,
                var: s
            })
        );
    }

    #[test]
    fn tableau_merges_parts() {
        let c = ric();
        let t = c.tableau();
        assert_eq!(t.from.len(), 2);
        assert_eq!(t.where_.len(), 1);
        assert!(t.select.is_empty());
    }

    #[test]
    fn offset_vars_is_consistent() {
        let c = ric().offset_vars(10);
        c.validate().unwrap();
        assert_eq!(c.universal[0].var, Var(10));
        assert_eq!(c.existential[0].var, Var(11));
        match &c.conclusion[0].lhs {
            PathExpr::Field(base, _) => assert_eq!(**base, PathExpr::Var(Var(10))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn display_reads_like_the_paper() {
        let c = ric();
        let s = c.to_string();
        assert!(s.contains("forall (r in R)"), "{s}");
        assert!(s.contains("exists (s in S)"), "{s}");
        assert!(s.contains("r.A = s.A"), "{s}");
        let k = key().to_string();
        assert!(k.contains("r.K = r2.K"), "{k}");
        assert!(k.contains("=> r = r2"), "{k}");
    }

    #[test]
    fn anchors() {
        let c = ric();
        assert_eq!(c.universal_anchors(), vec![sym("R")]);
        assert_eq!(c.existential_anchors(), vec![sym("S")]);
    }
}
