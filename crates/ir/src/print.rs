//! The one text form of the IR: the grammar [`crate::parser`] reads.
//!
//! Every text the crate prints — a path, equality, range or binding on its
//! own, a query, a constraint, and [`crate::query::Query::canonical_key`] —
//! is written by one [`Printer`]. They differ only in how it names a
//! variable:
//!
//! - [`dollar`]: `$n`, for a path, equality, range or binding on its own;
//! - [`named`]: the name of the variable's binding, for a query or a
//!   constraint, so the text parses back;
//! - [`canonical_key`]'s positional `#i`, the binding's from-clause position,
//!   so renaming a variable leaves the key alone.
//!
//! Constants print through `Value`'s `Display`, which writes the parser's
//! literals: a float always carries a decimal point and a string doubles
//! its quotes. A constant the grammar has no literal for (an oid, `?k`,
//! `null`, a set, a struct, a non-finite float) keeps a text the parser
//! refuses.

use std::fmt::{self, Write};

use crate::constraint::Constraint;
use crate::path::{Equality, PathExpr, Var};
use crate::query::{Binding, Query, Range};
use crate::symbol::Symbol;

/// Where an entry of a canonical key landed in the printer's buffer.
type Span = std::ops::Range<usize>;

/// Writes IR text into `out`, naming each variable through `name`.
pub(crate) struct Printer<W, N> {
    out: W,
    name: N,
}

/// Names every variable `$n`.
pub(crate) fn dollar<W: Write>(out: &mut W, v: Var) -> fmt::Result {
    write!(out, "${}", v.0)
}

/// Names a variable after its first binding among `bindings`, or `$n` if
/// it has none.
pub(crate) fn named<'b, W: Write>(
    bindings: impl Iterator<Item = &'b Binding> + Clone,
) -> impl Fn(&mut W, Var) -> fmt::Result {
    move |out, v| match bindings.clone().find(|b| b.var == v) {
        Some(b) => write!(out, "{}", b.name),
        None => dollar(out, v),
    }
}

impl<W: Write, N: Fn(&mut W, Var) -> fmt::Result> Printer<W, N> {
    pub(crate) fn new(out: W, name: N) -> Self {
        Printer { out, name }
    }

    /// `r.A`, `I[k].E`, `struct(A = r.A, B = 7)`.
    pub(crate) fn path(&mut self, p: &PathExpr) -> fmt::Result {
        match p {
            PathExpr::Var(v) => (self.name)(&mut self.out, *v),
            PathExpr::Const(c) => write!(self.out, "{c}"),
            PathExpr::Field(base, field) => {
                self.path(base)?;
                write!(self.out, ".{field}")
            }
            PathExpr::Lookup(dict, key) => {
                write!(self.out, "{dict}[")?;
                self.path(key)?;
                self.out.write_char(']')
            }
            PathExpr::MkStruct(fields) => {
                self.out.write_str("struct(")?;
                self.fields(fields)?;
                self.out.write_char(')')
            }
        }
    }

    /// `A = r.A, B = 7`: a struct's fields, or a select clause.
    fn fields(&mut self, fields: &[(Symbol, PathExpr)]) -> fmt::Result {
        for (i, (label, p)) in fields.iter().enumerate() {
            if i > 0 {
                self.out.write_str(", ")?;
            }
            write!(self.out, "{label} = ")?;
            self.path(p)?;
        }
        Ok(())
    }

    /// `R`, `dom M`, `M[k].N`.
    pub(crate) fn range(&mut self, r: &Range) -> fmt::Result {
        match r {
            Range::Name(s) => write!(self.out, "{s}"),
            Range::Dom(s) => write!(self.out, "dom {s}"),
            Range::Expr(p) => self.path(p),
        }
    }

    /// `R r, M[r.K].N o`: a from-clause.
    pub(crate) fn bindings(&mut self, bindings: &[Binding]) -> fmt::Result {
        for (i, b) in bindings.iter().enumerate() {
            if i > 0 {
                self.out.write_str(", ")?;
            }
            self.range(&b.range)?;
            write!(self.out, " {}", b.name)?;
        }
        Ok(())
    }

    /// `(r in R)(o in M[r.K].N)`: a quantifier prefix.
    fn quantifiers(&mut self, bindings: &[Binding]) -> fmt::Result {
        for b in bindings {
            write!(self.out, "({} in ", b.name)?;
            self.range(&b.range)?;
            self.out.write_char(')')?;
        }
        Ok(())
    }

    /// `a = b and c = d`.
    pub(crate) fn conjunction(&mut self, eqs: &[Equality]) -> fmt::Result {
        for (i, eq) in eqs.iter().enumerate() {
            if i > 0 {
                self.out.write_str(" and ")?;
            }
            self.path(&eq.lhs)?;
            self.out.write_str(" = ")?;
            self.path(&eq.rhs)?;
        }
        Ok(())
    }

    /// `select struct(…)` / `from …` / `where …`, one clause a line.
    pub(crate) fn query(&mut self, q: &Query) -> fmt::Result {
        self.out.write_str("select struct(")?;
        self.fields(&q.select)?;
        self.out.write_str(")\nfrom ")?;
        self.bindings(&q.from)?;
        if !q.where_.is_empty() {
            self.out.write_str("\nwhere ")?;
            self.conjunction(&q.where_)?;
        }
        Ok(())
    }

    /// `forall (…) premise => exists (…) conclusion`.
    pub(crate) fn constraint(&mut self, c: &Constraint) -> fmt::Result {
        self.out.write_str("forall ")?;
        self.quantifiers(&c.universal)?;
        if !c.premise.is_empty() {
            self.out.write_char(' ')?;
            self.conjunction(&c.premise)?;
        }
        self.out.write_str(" => ")?;
        if !c.existential.is_empty() {
            self.out.write_str("exists ")?;
            self.quantifiers(&c.existential)?;
            self.out.write_char(' ')?;
        }
        self.conjunction(&c.conclusion)
    }
}

/// See [`Query::canonical_key`]: `select|from|where`, entries joined by
/// `,`. Select entries `label=path` and where entries `lhs=rhs` (the
/// smaller side first, duplicates dropped) are sorted; ranges keep their
/// from-clause order. Every variable is named `#i` after the position of
/// its (last) binding, or `$?n` if it has none.
pub(crate) fn canonical_key(q: &Query) -> String {
    let position = |out: &mut String, v: Var| match q.from.iter().rposition(|b| b.var == v) {
        Some(i) => write!(out, "#{i}"),
        None => write!(out, "$?{}", v.0),
    };
    let mut p = Printer::new(String::new(), position);
    // Writing into a `String` cannot fail.
    let (mut select, from, mut where_) = p.key_entries(q).unwrap_or_default();
    let text = &p.out;
    select.sort_by_key(|s| &text[s.clone()]);
    where_.sort_by_key(|s| &text[s.clone()]);
    where_.dedup_by_key(|s| &text[s.clone()]);
    let mut key = String::with_capacity(text.len() + 2);
    let sections = [&select[..], std::slice::from_ref(&from), &where_[..]];
    for (i, section) in sections.into_iter().enumerate() {
        if i > 0 {
            key.push('|');
        }
        for (j, s) in section.iter().enumerate() {
            if j > 0 {
                key.push(',');
            }
            key.push_str(&text[s.clone()]);
        }
    }
    key
}

impl<N: Fn(&mut String, Var) -> fmt::Result> Printer<String, N> {
    /// Writes the entries of `q`'s key, each once, and returns where each
    /// landed: the select entries, the from-clause as one entry, and the
    /// where entries, each with its smaller side first.
    fn key_entries(&mut self, q: &Query) -> Result<(Vec<Span>, Span, Vec<Span>), fmt::Error> {
        let mut select = Vec::with_capacity(q.select.len());
        for (label, path) in &q.select {
            let start = self.out.len();
            write!(self.out, "{label}=")?;
            self.path(path)?;
            select.push(start..self.out.len());
        }
        let start = self.out.len();
        for (i, b) in q.from.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.range(&b.range)?;
        }
        let from = start..self.out.len();
        let mut where_ = Vec::with_capacity(q.where_.len());
        for eq in &q.where_ {
            let start = self.out.len();
            self.path(&eq.lhs)?;
            let mid = self.out.len();
            self.out.push('=');
            self.path(&eq.rhs)?;
            let end = self.out.len();
            if self.out[start..mid] <= self.out[mid + 1..end] {
                where_.push(start..end);
            } else {
                self.out.extend_from_within(mid + 1..end);
                self.out.push('=');
                self.out.extend_from_within(start..mid);
                where_.push(end..self.out.len());
            }
        }
        Ok((select, from, where_))
    }
}
