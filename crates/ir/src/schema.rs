//! Logical and physical schemas.
//!
//! A schema declares named collections — sets (relations, class extents) and
//! dictionaries (indexes, class implementations, ASRs) — split into a
//! *logical* layer (what queries are written against) and a *physical* layer
//! (access structures plans may use). Semantic integrity constraints and
//! skeleton constraint-pairs describing physical structures live here too;
//! together they completely specify the optimization (paper §1).

use crate::fxhash::FxHashMap;
use std::fmt;

use crate::constraint::{Constraint, Skeleton};
use crate::query::Query;
use crate::symbol::Symbol;
use crate::types::Type;

/// Which layer a declaration belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// User-visible schema: queries range over these names.
    Logical,
    /// Access structures: plans may range over these names.
    Physical,
}

/// Collection type of a declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CollType {
    /// A set of elements.
    Set(Type),
    /// A dictionary from keys to entries.
    Dict(Type, Type),
}

impl CollType {
    /// Element type for sets, entry type for dictionaries.
    pub fn element(&self) -> &Type {
        match self {
            CollType::Set(t) => t,
            CollType::Dict(_, t) => t,
        }
    }

    /// Key type for dictionaries.
    pub fn key(&self) -> Option<&Type> {
        match self {
            CollType::Set(_) => None,
            CollType::Dict(k, _) => Some(k),
        }
    }
}

/// A named collection declaration.
#[derive(Clone, Debug)]
pub struct Decl {
    /// Collection name.
    pub name: Symbol,
    /// Logical or physical.
    pub layer: Layer,
    /// Collection type.
    pub ty: CollType,
}

/// A complete schema: declarations, semantic constraints, and skeletons.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    decls: Vec<Decl>,
    by_name: FxHashMap<Symbol, usize>,
    /// Semantic integrity constraints (keys, RICs, inverses, ...).
    constraints: Vec<Constraint>,
    /// Physical access structures described as constraint pairs.
    skeletons: Vec<Skeleton>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Declares a collection. Panics on duplicate names (schema construction
    /// is programmatic; a duplicate is a bug in the caller).
    pub fn declare(&mut self, name: impl Into<Symbol>, layer: Layer, ty: CollType) -> Symbol {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate declaration of {name}"
        );
        self.by_name.insert(name, self.decls.len());
        self.decls.push(Decl { name, layer, ty });
        name
    }

    /// Declares a logical relation: a set of structs with the given attributes.
    pub fn add_relation(
        &mut self,
        name: impl Into<Symbol>,
        attrs: impl IntoIterator<Item = (Symbol, Type)>,
    ) -> Symbol {
        self.declare(name, Layer::Logical, CollType::Set(Type::record(attrs)))
    }

    /// Declares a physical set (e.g. a materialized view's stored table).
    pub fn add_physical_set(&mut self, name: impl Into<Symbol>, elem: Type) -> Symbol {
        self.declare(name, Layer::Physical, CollType::Set(elem))
    }

    /// Declares a logical dictionary (e.g. a class extent `M : oid -> struct`).
    pub fn add_logical_dict(&mut self, name: impl Into<Symbol>, key: Type, entry: Type) -> Symbol {
        self.declare(name, Layer::Logical, CollType::Dict(key, entry))
    }

    /// Declares a physical dictionary (e.g. an index).
    pub fn add_physical_dict(&mut self, name: impl Into<Symbol>, key: Type, entry: Type) -> Symbol {
        self.declare(name, Layer::Physical, CollType::Dict(key, entry))
    }

    /// Registers a semantic constraint.
    pub fn add_constraint(&mut self, c: Constraint) {
        debug_assert!(c.validate().is_ok(), "invalid constraint {}", c.name);
        self.constraints.push(c);
    }

    /// Registers a skeleton (physical structure description).
    pub fn add_skeleton(&mut self, s: Skeleton) {
        debug_assert!(s.validate().is_ok(), "invalid skeleton {}", s.physical_name);
        self.skeletons.push(s);
    }

    /// Looks up a declaration.
    pub fn decl(&self, name: Symbol) -> Option<&Decl> {
        self.by_name.get(&name).map(|&i| &self.decls[i])
    }

    /// All declarations in declaration order.
    pub fn decls(&self) -> &[Decl] {
        &self.decls
    }

    /// Semantic constraints only.
    pub fn semantic_constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Skeletons only.
    pub fn skeletons(&self) -> &[Skeleton] {
        &self.skeletons
    }

    /// Every constraint relevant to optimization: semantic constraints plus
    /// both directions of every skeleton, in deterministic order.
    pub fn all_constraints(&self) -> Vec<Constraint> {
        let mut out: Vec<Constraint> = self.constraints.clone();
        for s in &self.skeletons {
            out.push(s.forward.clone());
            out.push(s.backward.clone());
        }
        out
    }

    /// True if `name` is declared in the physical layer.
    pub fn is_physical(&self, name: Symbol) -> bool {
        matches!(self.decl(name), Some(d) if d.layer == Layer::Physical)
    }

    /// The physical structures (indexes, views, ASRs) `q` ranges over: the
    /// anchor of every binding anchored in the physical layer, one entry
    /// per binding, in from-clause order.
    pub fn physical_anchors<'a>(&'a self, q: &'a Query) -> impl Iterator<Item = Symbol> + 'a {
        q.from
            .iter()
            .filter_map(|b| b.range.anchor())
            .filter(|a| self.is_physical(*a))
    }

    /// True if `name` is declared in the logical layer.
    pub fn is_logical(&self, name: Symbol) -> bool {
        matches!(self.decl(name), Some(d) if d.layer == Layer::Logical)
    }

    /// The attribute list of a relation (set-of-struct) declaration.
    pub fn relation_attrs(&self, name: Symbol) -> Option<&[(Symbol, Type)]> {
        match &self.decl(name)?.ty {
            CollType::Set(Type::Struct(fields)) => Some(fields),
            _ => None,
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.decls {
            let layer = match d.layer {
                Layer::Logical => "logical",
                Layer::Physical => "physical",
            };
            match &d.ty {
                CollType::Set(t) => writeln!(f, "{layer} set {} : {t}", d.name)?,
                CollType::Dict(k, v) => writeln!(f, "{layer} dict {} : {k} -> {v}", d.name)?,
            }
        }
        for c in &self.constraints {
            writeln!(f, "constraint {} : {c}", c.name)?;
        }
        for s in &self.skeletons {
            writeln!(f, "skeleton {} :", s.physical_name)?;
            writeln!(f, "  {}", s.forward)?;
            writeln!(f, "  {}", s.backward)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::PhysicalSpec;
    use crate::path::PathExpr;
    use crate::query::Range;
    use crate::symbol::sym;

    fn toy() -> Schema {
        let mut s = Schema::new();
        s.add_relation("R", [(sym("A"), Type::Int), (sym("B"), Type::Int)]);
        s.add_physical_dict("I", Type::Int, Type::record([(sym("A"), Type::Int)]));
        s
    }

    #[test]
    fn declare_and_lookup() {
        let s = toy();
        assert!(s.is_logical(sym("R")));
        assert!(s.is_physical(sym("I")));
        assert!(!s.is_physical(sym("R")));
        assert!(s.decl(sym("missing")).is_none());
        assert_eq!(
            s.relation_attrs(sym("R")).unwrap(),
            &[(sym("A"), Type::Int), (sym("B"), Type::Int)]
        );
        assert!(s.relation_attrs(sym("I")).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_declaration_panics() {
        let mut s = toy();
        s.add_relation("R", []);
    }

    #[test]
    fn all_constraints_includes_skeletons() {
        let mut s = toy();
        let mut c = Constraint::new("ric");
        let r = c.forall("r", Range::Name(sym("R")));
        let r2 = c.exists("r2", Range::Name(sym("R")));
        c.then(PathExpr::from(r), PathExpr::from(r2));
        s.add_constraint(c.clone());

        let mut fwd = Constraint::new("f");
        let r = fwd.forall("r", Range::Name(sym("R")));
        let k = fwd.exists("k", Range::Dom(sym("I")));
        fwd.then(PathExpr::from(r).dot("A"), PathExpr::from(k));
        let mut bwd = Constraint::new("b");
        let k = bwd.forall("k", Range::Dom(sym("I")));
        let r = bwd.exists("r", Range::Name(sym("R")));
        bwd.then(PathExpr::from(k), PathExpr::from(r).dot("A"));
        s.add_skeleton(Skeleton {
            physical_name: sym("I"),
            forward: fwd,
            backward: bwd,
            spec: PhysicalSpec::Opaque,
        });

        let all = s.all_constraints();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].name, "ric");
        assert_eq!(all[1].name, "f");
        assert_eq!(all[2].name, "b");
    }

    #[test]
    fn display_lists_everything() {
        let s = toy();
        let text = s.to_string();
        assert!(text.contains("logical set R"), "{text}");
        assert!(text.contains("physical dict I"), "{text}");
    }

    #[test]
    fn colltype_accessors() {
        let set = CollType::Set(Type::Int);
        assert_eq!(set.element(), &Type::Int);
        assert_eq!(set.key(), None);
        let dict = CollType::Dict(Type::Int, Type::Str);
        assert_eq!(dict.element(), &Type::Str);
        assert_eq!(dict.key(), Some(&Type::Int));
    }
}
