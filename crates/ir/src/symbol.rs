//! Global string interning.
//!
//! Every identifier appearing in queries, constraints and schemas (relation
//! names, attribute names, dictionary names, variable names, output labels) is
//! interned into a [`Symbol`] — a `Copy` 32-bit handle. Interning makes the
//! hot paths of the optimizer (homomorphism search, congruence closure)
//! compare names with a single integer comparison, exactly as the paper's
//! prototype compiles queries and constraints into an internal form.
//!
//! The interner is a process-global append-only table. Strings are leaked on
//! first interning; the total leaked memory is bounded by the number of
//! distinct identifiers, which is small for any realistic schema.

use crate::fxhash::FxHashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// An interned identifier.
///
/// Two `Symbol`s are equal iff the strings they intern are equal. Symbols are
/// cheap to copy, hash and compare, and resolve back to `&'static str` via
/// [`Symbol::as_str`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    map: FxHashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

/// The interner, locked. A poisoned lock is taken as it is: under the lock
/// the only panics come before an update (the id overflow in
/// [`Symbol::new`]) or in a read, so the table a panicking thread left
/// behind is whole.
fn interner() -> MutexGuard<'static, Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER
        .get_or_init(|| {
            Mutex::new(Interner {
                map: FxHashMap::default(),
                strings: Vec::new(),
            })
        })
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

impl Symbol {
    /// Interns `s`, returning its symbol. Idempotent.
    pub fn new(s: &str) -> Symbol {
        let mut int = interner();
        if let Some(&id) = int.map.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        #[expect(clippy::expect_used, reason = "memory runs out before 2^32 symbols")]
        let id = u32::try_from(int.strings.len()).expect("symbol table overflow");
        int.strings.push(leaked);
        int.map.insert(leaked, id);
        Symbol(id)
    }

    /// Resolves the symbol back to its string.
    pub fn as_str(self) -> &'static str {
        let int = interner();
        int.strings[self.0 as usize]
    }

    /// The raw handle; useful as an index for dense side tables.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::new(&s)
    }
}

/// Shorthand for `Symbol::new`.
pub fn sym(s: &str) -> Symbol {
    Symbol::new(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("R1");
        let b = Symbol::new("R1");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "R1");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::new("A"), Symbol::new("B"));
    }

    #[test]
    fn display_round_trips() {
        let s = Symbol::new("some_attribute");
        assert_eq!(s.to_string(), "some_attribute");
        assert_eq!(format!("{s:?}"), "Symbol(\"some_attribute\")");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Symbol::from("x"), Symbol::new("x"));
        assert_eq!(Symbol::from(String::from("x")), Symbol::new("x"));
        assert_eq!(sym("x"), Symbol::new("x"));
    }

    #[test]
    fn many_symbols() {
        let syms: Vec<Symbol> = (0..1000).map(|i| Symbol::new(&format!("s{i}"))).collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(s.as_str(), format!("s{i}"));
        }
    }
}
