//! An OQL-like surface syntax for queries and constraints.
//!
//! The paper's prototype offers "a language for describing queries and
//! constraints that is as user friendly as OQL" (§4). This module parses
//! that concrete syntax into the IR:
//!
//! ```text
//! select struct(A = r.A, E = r.E)
//! from R r, S s
//! where r.B = 7 and r.A = s.A
//! ```
//!
//! ```text
//! forall (r in R) exists (s in S) r.A = s.A
//! forall (r in R)(r2 in R) r.K = r2.K => r = r2
//! forall (k in dom M1)(o in M1[k].N)
//!   => exists (k2 in dom M2)(o2 in M2[k2].P) k2 = o and o2 = k
//! ```
//!
//! Identifier resolution: in *range* position a bare identifier is a
//! collection name; in *path* position it is a bound variable. `dom M`
//! ranges over a dictionary's keys; `M[k]` is a dictionary lookup.

use std::fmt;

use crate::constraint::Constraint;
use crate::path::{Equality, PathExpr, Var};
use crate::query::{Query, Range};
use crate::symbol::Symbol;
use crate::value::Value;

/// A parse error with position information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

// ------------------------------------------------------------------ lexer --

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Punct(char), // ( ) [ ] , . =
    Arrow,       // =>
    Eof,
}

struct Lexer {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

fn lex(input: &str) -> Result<Lexer, ParseError> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '-' && i + 1 < bytes.len() && bytes[i + 1] == b'-' {
            // Line comment.
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        if c.is_ascii_alphabetic() || c == '_' {
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            toks.push((Tok::Ident(input[start..i].to_string()), start));
        } else if c.is_ascii_digit()
            || (c == '-' && i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit())
        {
            i += 1;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            if i < bytes.len()
                && bytes[i] == b'.'
                && i + 1 < bytes.len()
                && (bytes[i + 1] as char).is_ascii_digit()
            {
                i += 1;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let v: f64 = input[start..i].parse().map_err(|_| ParseError {
                    message: "bad float literal".into(),
                    offset: start,
                })?;
                toks.push((Tok::Float(v), start));
            } else {
                let v: i64 = input[start..i].parse().map_err(|_| ParseError {
                    message: "bad integer literal".into(),
                    offset: start,
                })?;
                toks.push((Tok::Int(v), start));
            }
        } else if c == '\'' {
            // `''` inside a literal is one quote.
            i += 1;
            let s = i;
            loop {
                match bytes.get(i) {
                    Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => i += 2,
                    Some(b'\'') => break,
                    Some(_) => i += 1,
                    None => {
                        return Err(ParseError {
                            message: "unterminated string literal".into(),
                            offset: start,
                        })
                    }
                }
            }
            toks.push((Tok::Str(input[s..i].replace("''", "'")), start));
            i += 1;
        } else if c == '=' && i + 1 < bytes.len() && bytes[i + 1] == b'>' {
            toks.push((Tok::Arrow, start));
            i += 2;
        } else if "()[],.=".contains(c) {
            toks.push((Tok::Punct(c), start));
            i += 1;
        } else {
            return Err(ParseError {
                message: format!("unexpected character {c:?}"),
                offset: i,
            });
        }
    }
    toks.push((Tok::Eof, input.len()));
    Ok(Lexer { toks, pos: 0 })
}

impl Lexer {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].1
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            offset: self.offset(),
        })
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Punct(p) if *p == c => {
                self.next();
                Ok(())
            }
            other => self.err(format!("expected {c:?}, found {other:?}")),
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Ident(s) if s.eq_ignore_ascii_case(kw) => {
                self.next();
                Ok(())
            }
            other => self.err(format!("expected keyword {kw:?}, found {other:?}")),
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.next();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    /// A variable's name: an identifier that is not a keyword.
    fn var_name(&mut self) -> Result<String, ParseError> {
        let name = self.ident()?;
        if KEYWORDS.contains(&name.to_ascii_lowercase().as_str()) {
            return self.err(format!("`{name}` cannot be used as a variable name"));
        }
        Ok(name)
    }
}

// ----------------------------------------------------------------- parser --

/// Reserved words, never variable names. `null`, `nan` and `inf` are what
/// `Value`'s `Display` prints for constants with no literal, so such a text
/// fails to parse (an unbound name) rather than reads as a variable.
const KEYWORDS: &[&str] = &[
    "select", "from", "where", "and", "struct", "dom", "in", "forall", "exists", "true", "false",
    "null", "nan", "inf",
];

struct Scope {
    vars: Vec<(String, Var)>,
}

impl Scope {
    fn lookup(&self, name: &str) -> Option<Var> {
        self.vars.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Reads the name of a new binding. A name already in scope is an
    /// error: a second binding would shadow the first, and the text would
    /// parse as another query than the one it spells.
    fn fresh_name(&self, lx: &mut Lexer) -> Result<String, ParseError> {
        let offset = lx.offset();
        let name = lx.var_name()?;
        if self.lookup(&name).is_some() {
            return Err(ParseError {
                message: format!("`{name}` is bound twice"),
                offset,
            });
        }
        Ok(name)
    }
}

/// How deep a parsed path may nest, counting each lookup, field and struct
/// constructor on the way down: deeper text is a [`ParseError`], never a
/// walk that outruns the stack.
const MAX_DEPTH: usize = 128;

/// Parses a path; bare identifiers resolve through `scope` (error if
/// unbound).
fn parse_path(lx: &mut Lexer, scope: &Scope) -> Result<PathExpr, ParseError> {
    parse_nested(lx, scope, MAX_DEPTH).map(|(p, _)| p)
}

/// Parses a path at most `room` levels deep; returns it with its depth.
fn parse_nested(
    lx: &mut Lexer,
    scope: &Scope,
    room: usize,
) -> Result<(PathExpr, usize), ParseError> {
    let too_deep = |lx: &Lexer| lx.err(format!("path nests deeper than {MAX_DEPTH} levels"));
    if room == 0 {
        return too_deep(lx);
    }
    let (mut base, mut depth) = parse_primary(lx, scope, room)?;
    while matches!(lx.peek(), Tok::Punct('.')) {
        if depth == room {
            return too_deep(lx);
        }
        lx.next();
        let field = lx.ident()?;
        base = base.dot(field.as_str());
        depth += 1;
    }
    Ok((base, depth))
}

fn parse_primary(
    lx: &mut Lexer,
    scope: &Scope,
    room: usize,
) -> Result<(PathExpr, usize), ParseError> {
    let constant = match lx.peek().clone() {
        Tok::Int(v) => Value::Int(v),
        Tok::Float(v) => Value::Float(v),
        Tok::Str(s) => Value::str(&s),
        Tok::Ident(name) if name.eq_ignore_ascii_case("true") => Value::Bool(true),
        Tok::Ident(name) if name.eq_ignore_ascii_case("false") => Value::Bool(false),
        Tok::Ident(name) if name.eq_ignore_ascii_case("struct") => {
            lx.next();
            lx.expect_punct('(')?;
            let mut fields = Vec::new();
            let mut depth = 0;
            loop {
                let label = lx.ident()?;
                lx.expect_punct('=')?;
                let (p, d) = parse_nested(lx, scope, room - 1)?;
                fields.push((Symbol::new(&label), p));
                depth = depth.max(d);
                match lx.peek() {
                    Tok::Punct(',') => {
                        lx.next();
                    }
                    _ => break,
                }
            }
            lx.expect_punct(')')?;
            return Ok((PathExpr::MkStruct(fields), depth + 1));
        }
        Tok::Ident(name) => {
            lx.next();
            // Dictionary lookup `M[path]` or a variable reference.
            if matches!(lx.peek(), Tok::Punct('[')) {
                lx.next();
                let (key, depth) = parse_nested(lx, scope, room - 1)?;
                lx.expect_punct(']')?;
                return Ok((
                    PathExpr::Lookup(Symbol::new(&name), Box::new(key)),
                    depth + 1,
                ));
            }
            return match scope.lookup(&name) {
                Some(v) => Ok((PathExpr::Var(v), 1)),
                None => Err(ParseError {
                    message: format!("unbound variable `{name}`"),
                    offset: lx.offset(),
                }),
            };
        }
        other => return lx.err(format!("expected a path, found {other:?}")),
    };
    lx.next();
    Ok((PathExpr::Const(constant), 1))
}

/// Parses a range: `dom M`, a collection name, or a set-valued path.
fn parse_range(lx: &mut Lexer, scope: &Scope) -> Result<Range, ParseError> {
    if lx.at_kw("dom") {
        lx.next();
        let name = lx.ident()?;
        return Ok(Range::Dom(Symbol::new(&name)));
    }
    // A bare identifier not followed by `[` or `.` is a collection name.
    if let Tok::Ident(name) = lx.peek().clone() {
        let save = lx.pos;
        lx.next();
        if !matches!(lx.peek(), Tok::Punct('[') | Tok::Punct('.')) {
            return Ok(Range::Name(Symbol::new(&name)));
        }
        lx.pos = save;
    }
    Ok(Range::Expr(parse_path(lx, scope)?))
}

fn parse_equality(lx: &mut Lexer, scope: &Scope) -> Result<Equality, ParseError> {
    let lhs = parse_path(lx, scope)?;
    lx.expect_punct('=')?;
    let rhs = parse_path(lx, scope)?;
    Ok(Equality { lhs, rhs })
}

fn parse_conjunction(lx: &mut Lexer, scope: &Scope) -> Result<Vec<Equality>, ParseError> {
    let mut out = vec![parse_equality(lx, scope)?];
    while lx.at_kw("and") {
        lx.next();
        out.push(parse_equality(lx, scope)?);
    }
    Ok(out)
}

/// Reads a quantifier prefix `(x in R)(o in M[x].N)…`, binding each
/// variable through `bind` and into `scope` for the ranges after it.
fn parse_quantifiers(
    lx: &mut Lexer,
    scope: &mut Scope,
    c: &mut Constraint,
    bind: fn(&mut Constraint, &str, Range) -> Var,
) -> Result<(), ParseError> {
    while matches!(lx.peek(), Tok::Punct('(')) {
        lx.next();
        let name = scope.fresh_name(lx)?;
        lx.expect_kw("in")?;
        let range = parse_range(lx, scope)?;
        lx.expect_punct(')')?;
        let var = bind(c, &name, range);
        scope.vars.push((name, var));
    }
    Ok(())
}

/// Parses a query in the paper's OQL-like syntax.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let mut lx = lex(input)?;
    let mut q = Query::new();
    let mut scope = Scope { vars: Vec::new() };

    lx.expect_kw("select")?;
    lx.expect_kw("struct")?;
    lx.expect_punct('(')?;
    // Select labels reference from-clause variables: parse them *after* the
    // from clause by saving the token window.
    let select_start = lx.pos;
    let mut depth = 1usize;
    while depth > 0 {
        match lx.next() {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => depth -= 1,
            Tok::Eof => return lx.err("unterminated select clause"),
            _ => {}
        }
    }
    let select_end = lx.pos - 1; // position of the closing ')'

    lx.expect_kw("from")?;
    loop {
        let range = parse_range(&mut lx, &scope)?;
        let name = scope.fresh_name(&mut lx)?;
        let var = q.bind(&name, range);
        scope.vars.push((name, var));
        match lx.peek() {
            Tok::Punct(',') => {
                lx.next();
            }
            _ => break,
        }
    }
    if lx.at_kw("where") {
        lx.next();
        q.where_ = parse_conjunction(&mut lx, &scope)?;
    }
    match lx.peek() {
        Tok::Eof => {}
        other => return lx.err(format!("trailing input: {other:?}")),
    }

    // Now parse the saved select window with the full scope.
    let mut slx = Lexer {
        toks: lx.toks[select_start..=select_end].to_vec(),
        pos: 0,
    };
    // Replace the final ')' with Eof for clean termination.
    let last = slx.toks.len() - 1;
    slx.toks[last] = (Tok::Eof, lx.toks[select_end].1);
    loop {
        let label = slx.ident()?;
        slx.expect_punct('=')?;
        let p = parse_path(&mut slx, &scope)?;
        q.select.push((Symbol::new(&label), p));
        match slx.peek() {
            Tok::Punct(',') => {
                slx.next();
            }
            _ => break,
        }
    }

    q.validate().map_err(|e| ParseError {
        message: e.to_string(),
        offset: 0,
    })?;
    Ok(q)
}

/// Parses a constraint:
/// `forall (x in R)... [premise] => [exists (y in S)...] conclusion`.
pub fn parse_constraint(name: &str, input: &str) -> Result<Constraint, ParseError> {
    let mut lx = lex(input)?;
    let mut c = Constraint::new(name);
    let mut scope = Scope { vars: Vec::new() };

    lx.expect_kw("forall")?;
    parse_quantifiers(&mut lx, &mut scope, &mut c, Constraint::forall)?;
    if !matches!(lx.peek(), Tok::Arrow) {
        c.premise = parse_conjunction(&mut lx, &scope)?;
    }
    match lx.peek() {
        Tok::Arrow => {
            lx.next();
        }
        other => return lx.err(format!("expected `=>`, found {other:?}")),
    }
    if lx.at_kw("exists") {
        lx.next();
        parse_quantifiers(&mut lx, &mut scope, &mut c, Constraint::exists)?;
    }
    c.conclusion = parse_conjunction(&mut lx, &scope)?;
    match lx.peek() {
        Tok::Eof => {}
        other => return lx.err(format!("trailing input: {other:?}")),
    }
    c.validate().map_err(|e| ParseError {
        message: e.to_string(),
        offset: 0,
    })?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintKind;
    use crate::symbol::sym;

    #[test]
    fn parses_example_21_query() {
        let q =
            parse_query("select struct(A = r.A, E = r.E) from R r where r.B = 7 and r.C = 'c0'")
                .unwrap();
        assert_eq!(q.from.len(), 1);
        assert_eq!(q.where_.len(), 2);
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.from[0].range, Range::Name(sym("R")));
        assert_eq!(q.select[0].0, sym("A"));
    }

    #[test]
    fn parses_joins() {
        let q = parse_query("select struct(B = s.B) from R r, S s where r.A = s.A").unwrap();
        assert_eq!(q.from.len(), 2);
        let r = q.from[0].var;
        let s = q.from[1].var;
        assert_eq!(
            q.where_[0],
            Equality::new(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"))
        );
    }

    #[test]
    fn parses_dictionary_navigation() {
        // Example 3.3's query.
        let q = parse_query(
            "select struct(F = k1, L = o2) \
             from dom M1 k1, M1[k1].N o1, dom M2 k2, M2[k2].N o2 \
             where o1 = k2",
        )
        .unwrap();
        assert_eq!(q.from.len(), 4);
        assert_eq!(q.from[0].range, Range::Dom(sym("M1")));
        let k1 = q.from[0].var;
        assert_eq!(
            q.from[1].range,
            Range::Expr(PathExpr::from(k1).lookup_in("M1").dot("N"))
        );
        q.validate().unwrap();
    }

    #[test]
    fn parses_index_lookup_select() {
        // The paper's plan P for example 2.1 (Appendix A).
        let q = parse_query(
            "select struct(A = s.A, E = I[struct(A = s.A, B = 7, C = 'c0')].E) from S s",
        )
        .unwrap();
        assert_eq!(q.from.len(), 1);
        match &q.select[1].1 {
            PathExpr::Field(inner, e) => {
                assert_eq!(*e, sym("E"));
                assert!(matches!(**inner, PathExpr::Lookup(d, _) if d == sym("I")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn colon_is_refused() {
        // A struct constant prints `struct(B: 1)`; the grammar has no
        // literal for one, so its text must not parse as the constructor
        // `struct(B = 1)`, nor `r.A : 3` as an equality.
        for text in [
            "select struct(A: r.A) from R r",
            "select struct(A = r.A) from R r where r.A = struct(B: 1)",
            "select struct(A = r.A) from R r where r.A : 3",
        ] {
            let e = parse_query(text).unwrap_err();
            assert!(
                e.message.contains("unexpected character ':'"),
                "{text}: {e}"
            );
        }
    }

    #[test]
    fn unbound_variable_rejected() {
        let e = parse_query("select struct(A = z.A) from R r").unwrap_err();
        assert!(e.message.contains("unbound"), "{e}");
    }

    #[test]
    fn repeated_binding_name_rejected() {
        let e = parse_query("select struct(A = r.A) from R r, S r where r.A = r.B").unwrap_err();
        assert!(e.message.contains("`r` is bound twice"), "{e}");
        assert_eq!(e.offset, 35, "{e}");
    }

    #[test]
    fn repeated_quantifier_name_rejected() {
        let e =
            parse_constraint("twice", "forall (x in R) => exists (x in S) x.A = x.A").unwrap_err();
        assert!(e.message.contains("`x` is bound twice"), "{e}");
        let e = parse_constraint("twice", "forall (x in R)(x in S) x.A = x.B => x.A = x.A")
            .unwrap_err();
        assert!(e.message.contains("`x` is bound twice"), "{e}");
    }

    #[test]
    fn keyword_variable_rejected() {
        assert!(parse_query("select struct(A = r.A) from R where").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_query("select struct(A = r.A) from R r garbage garbage").is_err());
    }

    #[test]
    fn unterminated_string_rejected() {
        let e = parse_query("select struct(A = r.A) from R r where r.C = 'oops").unwrap_err();
        assert!(e.message.contains("unterminated"), "{e}");
    }

    #[test]
    fn parses_ric_constraint() {
        let c = parse_constraint("RIC", "forall (r in R) => exists (s in S) r.A = s.A").unwrap();
        assert_eq!(c.kind(), ConstraintKind::Tgd);
        assert_eq!(c.universal.len(), 1);
        assert_eq!(c.existential.len(), 1);
        assert_eq!(c.conclusion.len(), 1);
    }

    #[test]
    fn parses_key_constraint() {
        let c = parse_constraint("KEY", "forall (r in R)(r2 in R) r.K = r2.K => r = r2").unwrap();
        assert_eq!(c.kind(), ConstraintKind::Egd);
        assert_eq!(c.premise.len(), 1);
        assert_eq!(c.conclusion.len(), 1);
    }

    #[test]
    fn parses_inverse_constraint() {
        let c = parse_constraint(
            "INV_1N",
            "forall (k in dom M1)(o in M1[k].N) \
             => exists (k2 in dom M2)(o2 in M2[k2].P) k2 = o and o2 = k",
        )
        .unwrap();
        assert_eq!(c.universal.len(), 2);
        assert_eq!(c.existential.len(), 2);
        assert_eq!(c.conclusion.len(), 2);
        c.validate().unwrap();
    }

    #[test]
    fn parsed_matches_programmatic() {
        // The parser and the builders produce identical queries.
        let parsed = parse_query("select struct(A = r.A) from R r, S s where r.A = s.A").unwrap();
        let mut built = Query::new();
        let r = built.bind("r", Range::Name(sym("R")));
        let s = built.bind("s", Range::Name(sym("S")));
        built.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
        built.output("A", PathExpr::from(r).dot("A"));
        assert_eq!(parsed.canonical_key(), built.canonical_key());
    }

    #[test]
    fn comments_are_skipped() {
        let q = parse_query("select struct(A = r.A) -- output\nfrom R r -- scan\nwhere r.B = 1")
            .unwrap();
        assert_eq!(q.where_.len(), 1);
    }

    #[test]
    fn negative_and_float_literals() {
        let q =
            parse_query("select struct(A = r.A) from R r where r.B = -3 and r.F = 1.5").unwrap();
        assert_eq!(q.where_[0].rhs, PathExpr::Const(Value::Int(-3)));
        assert_eq!(q.where_[1].rhs, PathExpr::Const(Value::Float(1.5)));
    }

    #[test]
    fn doubled_quote_is_one_quote() {
        let q = parse_query("select struct(A = r.A) from R r where r.C = 'it''s'''").unwrap();
        assert_eq!(q.where_[0].rhs, PathExpr::Const(Value::str("it's'")));
        assert!(parse_query("select struct(A = r.A) from R r where r.C = 'it''s").is_err());
    }

    /// Nesting past `MAX_DEPTH` is an error, not a stack overflow — in
    /// lookups, struct constructors and field chains alike. How deep a
    /// parse can go before it outruns the stack depends on the profile's
    /// stack frames, so this must pass in release as well as in debug.
    #[test]
    fn deep_nesting_is_an_error() {
        let n = 100_000;
        let lookups = format!("{}r{}", "M[".repeat(n), "]".repeat(n));
        let structs = format!("{}r{}", "struct(A = ".repeat(n), ")".repeat(n));
        let fields = format!("r{}", ".A".repeat(n));
        for path in [lookups, structs, fields] {
            let e = parse_query(&format!("select struct(A = {path}) from R r")).unwrap_err();
            assert!(e.message.contains("nests deeper"), "{e}");
            let e =
                parse_constraint("deep", &format!("forall (r in R) => {path} = r")).unwrap_err();
            assert!(e.message.contains("nests deeper"), "{e}");
        }
        let at_bound = format!(
            "{}r{}",
            "M[".repeat(MAX_DEPTH - 1),
            "]".repeat(MAX_DEPTH - 1)
        );
        parse_query(&format!("select struct(A = {at_bound}) from R r")).unwrap();
        let past = format!("M[{at_bound}]");
        assert!(parse_query(&format!("select struct(A = {past}) from R r")).is_err());
        assert!(parse_query(&format!("select struct(A = {at_bound}.A) from R r")).is_err());
    }

    #[test]
    fn constants_without_a_literal_are_refused() {
        for c in ["null", "NaN", "inf", "-inf", "M1#3", "?0", "{1, 2}"] {
            let text = format!("select struct(A = r.A) from R r where r.B = {c}");
            assert!(parse_query(&text).is_err(), "{c} parsed");
        }
        assert!(parse_query("select struct(A = x.A) from R null").is_err());
        assert!(parse_constraint("c", "forall (true in R) => true = true").is_err());
    }
}
