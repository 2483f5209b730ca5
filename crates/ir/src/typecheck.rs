//! Type checking of queries and constraints against a schema.
//!
//! The optimizer itself is type-agnostic (it only reasons about equality),
//! but the engine and the data generators need element types, and type
//! checking catches workload-construction bugs early.

use crate::fxhash::FxHashMap;

use crate::constraint::Constraint;
use crate::path::{PathExpr, Var};
use crate::query::{Binding, Query, Range};
use crate::schema::{CollType, Schema};
use crate::types::Type;
use crate::value::Value;

/// A typing error with a human-readable description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeError(pub String);

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

fn err<T>(msg: impl Into<String>) -> Result<T, TypeError> {
    Err(TypeError(msg.into()))
}

/// Typing environment: a schema plus the types of bound variables.
pub struct TypeEnv<'a> {
    schema: &'a Schema,
    vars: FxHashMap<Var, Type>,
}

impl<'a> TypeEnv<'a> {
    /// An environment with no variables bound.
    pub fn new(schema: &'a Schema) -> TypeEnv<'a> {
        TypeEnv {
            schema,
            vars: FxHashMap::default(),
        }
    }

    /// Binds the variables of `bindings` in order, checking each range.
    pub fn bind_all(&mut self, bindings: &[Binding]) -> Result<(), TypeError> {
        for b in bindings {
            let elem = self.range_elem_type(&b.range)?;
            self.vars.insert(b.var, elem);
        }
        Ok(())
    }

    /// The element type a range iterates over.
    pub fn range_elem_type(&self, range: &Range) -> Result<Type, TypeError> {
        match range {
            Range::Name(name) => match self.schema.decl(*name) {
                Some(d) => match &d.ty {
                    CollType::Set(t) => Ok(t.clone()),
                    CollType::Dict(..) => err(format!(
                        "{name} is a dictionary; range over `dom {name}` or a lookup"
                    )),
                },
                None => err(format!("unknown collection {name}")),
            },
            Range::Dom(name) => match self.schema.decl(*name) {
                Some(d) => match &d.ty {
                    CollType::Dict(k, _) => Ok(k.clone()),
                    CollType::Set(_) => err(format!("dom applied to set {name}")),
                },
                None => err(format!("unknown dictionary {name}")),
            },
            Range::Expr(p) => match self.path_type(p)? {
                Type::Set(t) => Ok(*t),
                other => err(format!("range path has non-set type {other}")),
            },
        }
    }

    /// The type of a path expression.
    pub fn path_type(&self, p: &PathExpr) -> Result<Type, TypeError> {
        match p {
            PathExpr::Var(v) => match self.vars.get(v) {
                Some(t) => Ok(t.clone()),
                None => err(format!("unbound variable ${}", v.0)),
            },
            PathExpr::Const(c) => value_type(c),
            PathExpr::Field(base, field) => {
                let bt = self.path_type(base)?;
                match bt.field(*field) {
                    Some(t) => Ok(t.clone()),
                    None => err(format!("no field {field} on type {bt}")),
                }
            }
            PathExpr::Lookup(dict, key) => {
                let kt = self.path_type(key)?;
                match self.schema.decl(*dict) {
                    Some(d) => match &d.ty {
                        CollType::Dict(dk, dv) => {
                            if *dk != kt {
                                return err(format!(
                                    "dictionary {dict} expects key {dk}, got {kt}"
                                ));
                            }
                            Ok(dv.clone())
                        }
                        CollType::Set(_) => err(format!("{dict} is not a dictionary")),
                    },
                    None => err(format!("unknown dictionary {dict}")),
                }
            }
            PathExpr::MkStruct(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (name, p) in fields {
                    out.push((*name, self.path_type(p)?));
                }
                Ok(Type::Struct(out))
            }
        }
    }
}

/// The type of a constant value.
pub fn value_type(v: &Value) -> Result<Type, TypeError> {
    match v {
        Value::Int(_) => Ok(Type::Int),
        Value::Float(_) => Ok(Type::Float),
        Value::Str(_) => Ok(Type::Str),
        Value::Bool(_) => Ok(Type::Bool),
        Value::Oid(class, _) => Ok(Type::Oid(*class)),
        Value::Struct(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (name, v) in fields.iter() {
                out.push((*name, value_type(v)?));
            }
            Ok(Type::Struct(out))
        }
        Value::Set(items) => match items.first() {
            Some(v) => Ok(Type::Set(Box::new(value_type(v)?))),
            None => err("cannot infer the element type of an empty set"),
        },
        Value::Null => err("null has no type"),
        Value::Param(k) => err(format!(
            "parameter placeholder ?{k} has no type — bind parameters before typechecking"
        )),
    }
}

/// Type-checks a query; returns the output struct type.
pub fn check_query(schema: &Schema, q: &Query) -> Result<Type, TypeError> {
    q.validate().map_err(|e| TypeError(e.to_string()))?;
    let mut env = TypeEnv::new(schema);
    env.bind_all(&q.from)?;
    for eq in &q.where_ {
        let lt = env.path_type(&eq.lhs)?;
        let rt = env.path_type(&eq.rhs)?;
        if lt != rt {
            return err(format!("equality between {lt} and {rt} in `{eq}`"));
        }
    }
    let mut out = Vec::with_capacity(q.select.len());
    for (label, p) in &q.select {
        out.push((*label, env.path_type(p)?));
    }
    Ok(Type::Struct(out))
}

/// Type-checks a constraint (both parts share one environment).
pub fn check_constraint(schema: &Schema, c: &Constraint) -> Result<(), TypeError> {
    c.validate()
        .map_err(|e| TypeError(format!("constraint {}: {e}", c.name)))?;
    let mut env = TypeEnv::new(schema);
    env.bind_all(&c.universal)?;
    for eq in &c.premise {
        let lt = env.path_type(&eq.lhs)?;
        let rt = env.path_type(&eq.rhs)?;
        if lt != rt {
            return err(format!(
                "constraint {}: premise equality between {lt} and {rt}",
                c.name
            ));
        }
    }
    env.bind_all(&c.existential)?;
    for eq in &c.conclusion {
        let lt = env.path_type(&eq.lhs)?;
        let rt = env.path_type(&eq.rhs)?;
        if lt != rt {
            return err(format!(
                "constraint {}: conclusion equality between {lt} and {rt}",
                c.name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation("R", [(sym("A"), Type::Int), (sym("B"), Type::Str)]);
        s.add_relation("S", [(sym("A"), Type::Int)]);
        s.add_physical_dict(
            "I",
            Type::Int,
            Type::record([(sym("A"), Type::Int), (sym("B"), Type::Str)]),
        );
        s.add_logical_dict(
            "M",
            Type::Oid(sym("M")),
            Type::record([(sym("N"), Type::Set(Box::new(Type::Oid(sym("M")))))]),
        );
        s
    }

    #[test]
    fn well_typed_query() {
        let s = schema();
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let t = q.bind("t", Range::Name(sym("S")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(t).dot("A"));
        q.output("B", PathExpr::from(r).dot("B"));
        let ty = check_query(&s, &q).unwrap();
        assert_eq!(ty, Type::record([(sym("B"), Type::Str)]));
    }

    #[test]
    fn ill_typed_equality_rejected() {
        let s = schema();
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        q.equate(PathExpr::from(r).dot("A"), PathExpr::from(r).dot("B"));
        assert!(check_query(&s, &q).is_err());
    }

    #[test]
    fn unknown_field_rejected() {
        let s = schema();
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        q.output("X", PathExpr::from(r).dot("Z"));
        assert!(check_query(&s, &q).is_err());
    }

    #[test]
    fn dict_ranges() {
        let s = schema();
        let mut q = Query::new();
        let k = q.bind("k", Range::Dom(sym("M")));
        let o = q.bind("o", Range::Expr(PathExpr::from(k).lookup_in("M").dot("N")));
        q.output("o", PathExpr::from(o));
        let ty = check_query(&s, &q).unwrap();
        assert_eq!(ty, Type::record([(sym("o"), Type::Oid(sym("M")))]));
    }

    #[test]
    fn range_over_dict_directly_rejected() {
        let s = schema();
        let mut q = Query::new();
        q.bind("k", Range::Name(sym("M")));
        assert!(check_query(&s, &q).is_err());
    }

    #[test]
    fn dom_of_set_rejected() {
        let s = schema();
        let mut q = Query::new();
        q.bind("k", Range::Dom(sym("R")));
        assert!(check_query(&s, &q).is_err());
    }

    #[test]
    fn lookup_key_mismatch_rejected() {
        let s = schema();
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        // I expects int keys; r.B is a string.
        q.output("E", PathExpr::from(r).dot("B").lookup_in("I"));
        assert!(check_query(&s, &q).is_err());
    }

    #[test]
    fn constraint_checks() {
        let s = schema();
        let mut c = Constraint::new("ric");
        let r = c.forall("r", Range::Name(sym("R")));
        let t = c.exists("t", Range::Name(sym("S")));
        c.then(PathExpr::from(r).dot("A"), PathExpr::from(t).dot("A"));
        check_constraint(&s, &c).unwrap();

        let mut bad = Constraint::new("bad");
        let r = bad.forall("r", Range::Name(sym("R")));
        let t = bad.exists("t", Range::Name(sym("S")));
        bad.then(PathExpr::from(r).dot("B"), PathExpr::from(t).dot("A"));
        assert!(check_constraint(&s, &bad).is_err());
    }

    #[test]
    fn value_types() {
        assert_eq!(value_type(&Value::Int(1)).unwrap(), Type::Int);
        assert_eq!(value_type(&Value::str("x")).unwrap(), Type::Str);
        assert!(value_type(&Value::Null).is_err());
        let v = Value::record([(sym("A"), Value::Bool(true))]);
        assert_eq!(
            value_type(&v).unwrap(),
            Type::record([(sym("A"), Type::Bool)])
        );
    }
}
