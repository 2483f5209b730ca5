//! Runtime values.
//!
//! Values appear in two places: as *constants* inside queries and constraints
//! (e.g. the `b` and `c` parameters of Example 2.1), and as the data the
//! execution engine stores and produces. A single `Value` type serves both so
//! that plans can be interpreted directly against stored data.

use std::fmt;
use std::sync::Arc;

use crate::symbol::Symbol;

/// A runtime value. `Eq`/`Hash` are total (floats compare by bit pattern) so
/// values can key hash joins and hash indexes.
#[derive(Clone, Debug)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float; equality and hashing use the raw bit pattern.
    Float(f64),
    /// Immutable shared string.
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
    /// Object identifier (EC3 classes); the symbol names the class extent.
    Oid(Symbol, u64),
    /// Record value with named fields in declaration order.
    Struct(Arc<[(Symbol, Value)]>),
    /// Set value (set-valued attributes such as EC3's `N`/`P`; order is
    /// preserved for determinism but ignored by equality-sensitive code).
    Set(Arc<[Value]>),
    /// Absent value (outer contexts only; never produced by the optimizer).
    Null,
    /// Parameter placeholder `?k` in a query *template* (serving path).
    /// Behaves as an opaque constant during optimization — two distinct
    /// parameters never compare equal, so any plan derived for the template
    /// is sound for every binding — and must be substituted out via the
    /// cache's bind step before execution.
    Param(u32),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// Builds a struct value from field/value pairs.
    pub fn record(fields: impl IntoIterator<Item = (Symbol, Value)>) -> Value {
        Value::Struct(fields.into_iter().collect())
    }

    /// Projects a field out of a struct value.
    #[inline]
    pub fn field(&self, name: Symbol) -> Option<&Value> {
        match self {
            Value::Struct(fields) => fields.iter().find(|(f, _)| *f == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Builds a set value.
    pub fn set(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Set(items.into_iter().collect())
    }

    /// The elements if this is a set value.
    pub fn elements(&self) -> Option<&[Value]> {
        match self {
            Value::Set(items) => Some(items),
            _ => None,
        }
    }

    /// A short tag naming the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Bool(_) => "bool",
            Value::Oid(..) => "oid",
            Value::Struct(_) => "struct",
            Value::Set(_) => "set",
            Value::Null => "null",
            Value::Param(_) => "param",
        }
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Oid(ca, a), Value::Oid(cb, b)) => ca == cb && a == b,
            (Value::Struct(a), Value::Struct(b)) => a == b,
            (Value::Set(a), Value::Set(b)) => a == b,
            (Value::Null, Value::Null) => true,
            (Value::Param(a), Value::Param(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Int(v) => v.hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Str(v) => v.hash(state),
            Value::Bool(v) => v.hash(state),
            Value::Oid(c, v) => {
                c.hash(state);
                v.hash(state);
            }
            Value::Struct(fields) => fields.hash(state),
            Value::Set(items) => items.hash(state),
            Value::Null => {}
            Value::Param(k) => k.hash(state),
        }
    }
}

/// Writes a constant as the parser reads it: a float always carries a
/// decimal point (`7.0`, never `7`) and a string doubles its quotes
/// (`'it''s'`), so no two values print alike but NaNs. An oid, `?k`, a set,
/// a struct (`struct(B: 1)`; the grammar has no `:`), `null` or a
/// non-finite float has no literal and prints a text the parser refuses.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) if v.fract() == 0.0 => write!(f, "{v}.0"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "'{}'", v.replace('\'', "''")),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Oid(c, v) => write!(f, "{c}#{v}"),
            Value::Struct(fields) => {
                write!(f, "struct(")?;
                for (i, (name, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name}: {v}")?;
                }
                write!(f, ")")
            }
            Value::Set(items) => {
                write!(f, "{{")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::Null => write!(f, "null"),
            Value::Param(k) => write!(f, "?{k}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn h(v: &Value) -> u64 {
        let mut hasher = DefaultHasher::new();
        v.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn int_equality_and_hash() {
        assert_eq!(Value::Int(3), Value::from(3));
        assert_eq!(h(&Value::Int(3)), h(&Value::Int(3)));
        assert_ne!(Value::Int(3), Value::Int(4));
    }

    #[test]
    fn float_bitwise_semantics() {
        assert_eq!(Value::Float(1.5), Value::Float(1.5));
        // NaN equals itself under bit equality — required for total Eq.
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
    }

    #[test]
    fn cross_kind_inequality() {
        assert_ne!(Value::Int(1), Value::Bool(true));
        assert_ne!(Value::Null, Value::Int(0));
    }

    #[test]
    fn struct_field_projection() {
        let v = Value::record([(sym("A"), Value::Int(1)), (sym("B"), Value::str("x"))]);
        assert_eq!(v.field(sym("A")), Some(&Value::Int(1)));
        assert_eq!(v.field(sym("B")), Some(&Value::str("x")));
        assert_eq!(v.field(sym("C")), None);
        assert_eq!(Value::Int(1).field(sym("A")), None);
    }

    #[test]
    fn oid_identity() {
        let a = Value::Oid(sym("M1"), 7);
        let b = Value::Oid(sym("M1"), 7);
        let c = Value::Oid(sym("M2"), 7);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("hi").to_string(), "'hi'");
        assert_eq!(Value::Oid(sym("M1"), 3).to_string(), "M1#3");
        let v = Value::record([(sym("A"), Value::Int(1))]);
        assert_eq!(v.to_string(), "struct(A: 1)");
        assert_eq!(Value::Float(7.0).to_string(), "7.0");
        assert_eq!(Value::Float(-0.0).to_string(), "-0.0");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Float(f64::INFINITY).to_string(), "inf");
        assert_eq!(Value::Float(f64::NAN).to_string(), "NaN");
        assert_eq!(Value::str("it's").to_string(), "'it''s'");
    }

    #[test]
    fn param_placeholder_semantics() {
        assert_eq!(Value::Param(0), Value::Param(0));
        assert_ne!(Value::Param(0), Value::Param(1));
        assert_ne!(Value::Param(0), Value::Int(0));
        assert_eq!(h(&Value::Param(2)), h(&Value::Param(2)));
        assert_eq!(Value::Param(3).to_string(), "?3");
        assert_eq!(Value::Param(0).kind(), "param");
    }

    #[test]
    fn kind_tags() {
        assert_eq!(Value::Int(0).kind(), "int");
        assert_eq!(Value::Null.kind(), "null");
    }
}
