//! The round-trip oracle the parser suites share: `Display` prints the
//! grammar `parse_query` / `parse_constraint` read, so printing and parsing
//! gives back the same IR up to variable renumbering — or, for a constant
//! the grammar has no literal for, a `ParseError`. The IR is compared, not
//! its text: a text comparison cannot see a printer that loses what the
//! parser then cannot restore (a float printed as an int, say).

use chase_too_far::ir::prelude::*;

/// Display → `parse_query`. `Err` is the parser's refusal; a parse that
/// gives back another query panics.
pub fn query_roundtrip(q: &Query) -> Result<(), ParseError> {
    let text = q.to_string();
    let parsed = parse_query(&text)?;
    let ir = |q: &Query| {
        let r = Renumber(q.from.iter().map(|b| b.var).collect());
        let select: Vec<_> = q.select.iter().map(|(l, p)| (*l, r.path(p))).collect();
        (select, r.bindings(&q.from), r.eqs(&q.where_))
    };
    assert_eq!(ir(&parsed), ir(q), "round trip changed the query:\n{text}");
    Ok(())
}

/// Display → `parse_constraint`, as [`query_roundtrip`].
pub fn constraint_roundtrip(c: &Constraint) -> Result<(), ParseError> {
    let text = c.to_string();
    let parsed = parse_constraint(&c.name, &text)?;
    let ir = |c: &Constraint| {
        let bound = c.universal.iter().chain(&c.existential);
        let r = Renumber(bound.map(|b| b.var).collect());
        let universal = (r.bindings(&c.universal), r.eqs(&c.premise));
        (universal, r.bindings(&c.existential), r.eqs(&c.conclusion))
    };
    assert_eq!(ir(&parsed), ir(c), "round trip changed {}:\n{text}", c.name);
    Ok(())
}

/// The parser's variable numbering: each variable is its binding's
/// position, in binding order.
struct Renumber(Vec<Var>);

impl Renumber {
    fn var(&self, v: Var) -> Var {
        let at = self.0.iter().position(|&w| w == v);
        Var(at.expect("every variable is bound") as u32)
    }

    fn path(&self, p: &PathExpr) -> PathExpr {
        p.map_vars(&mut |v| PathExpr::Var(self.var(v)))
    }

    fn bindings(&self, bindings: &[Binding]) -> Vec<Binding> {
        let rebind = |b: &Binding| Binding {
            var: self.var(b.var),
            name: b.name,
            range: b.range.map_vars(&mut |v| PathExpr::Var(self.var(v))),
        };
        bindings.iter().map(rebind).collect()
    }

    fn eqs(&self, eqs: &[Equality]) -> Vec<Equality> {
        let map = |e: &Equality| Equality::new(self.path(&e.lhs), self.path(&e.rhs));
        eqs.iter().map(map).collect()
    }
}
