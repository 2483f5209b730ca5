//! The type system of the extended ODL/OQL language of the paper.
//!
//! Schemas declare *collections*: sets of (usually struct-typed) elements, and
//! dictionaries (finite partial functions) used to model indexes, class
//! extents and other physical access structures (paper, Appendix A).

use std::fmt;

use crate::symbol::Symbol;

/// Element types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Type {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// String.
    Str,
    /// Boolean.
    Bool,
    /// Object identifier of the named class.
    Oid(Symbol),
    /// Record type with named, ordered fields.
    Struct(Vec<(Symbol, Type)>),
    /// Homogeneous set.
    Set(Box<Type>),
    /// Dictionary (finite function) from key type to entry type.
    Dict(Box<Type>, Box<Type>),
}

impl Type {
    /// Builds a struct type from field/type pairs.
    pub fn record(fields: impl IntoIterator<Item = (Symbol, Type)>) -> Type {
        Type::Struct(fields.into_iter().collect())
    }

    /// Looks up the type of a struct field.
    pub fn field(&self, name: Symbol) -> Option<&Type> {
        match self {
            Type::Struct(fields) => fields.iter().find(|(f, _)| *f == name).map(|(_, t)| t),
            _ => None,
        }
    }

    /// The element type if this is a set.
    pub fn elem(&self) -> Option<&Type> {
        match self {
            Type::Set(t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Float => write!(f, "float"),
            Type::Str => write!(f, "str"),
            Type::Bool => write!(f, "bool"),
            Type::Oid(class) => write!(f, "oid<{class}>"),
            Type::Struct(fields) => {
                write!(f, "struct{{")?;
                for (i, (name, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name}: {t}")?;
                }
                write!(f, "}}")
            }
            Type::Set(t) => write!(f, "set<{t}>"),
            Type::Dict(k, v) => write!(f, "dict<{k}, {v}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    #[test]
    fn struct_field_lookup() {
        let t = Type::record([(sym("A"), Type::Int), (sym("B"), Type::Str)]);
        assert_eq!(t.field(sym("A")), Some(&Type::Int));
        assert_eq!(t.field(sym("C")), None);
        assert_eq!(Type::Int.field(sym("A")), None);
    }

    #[test]
    fn set_elem() {
        let t = Type::Set(Box::new(Type::Int));
        assert_eq!(t.elem(), Some(&Type::Int));
        assert_eq!(Type::Int.elem(), None);
    }

    #[test]
    fn display() {
        let t = Type::Dict(
            Box::new(Type::record([(sym("A"), Type::Int)])),
            Box::new(Type::Str),
        );
        assert_eq!(t.to_string(), "dict<struct{A: int}, str>");
        assert_eq!(Type::Set(Box::new(Type::Bool)).to_string(), "set<bool>");
    }
}
