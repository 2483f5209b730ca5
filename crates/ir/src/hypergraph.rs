//! Query hypergraph export — the structural input to output-size bounds.
//!
//! The AGM/fractional-edge-cover bound (Atserias–Grohe–Marx; see the
//! Abo Khamis–Ngo–Suciu survey in PAPERS.md) reads a conjunctive query as a
//! hypergraph: vertices are join variables, hyperedges are the collections
//! scanned, and any fractional edge cover exponentiates into a worst-case
//! output-size bound. This module builds that hypergraph from a
//! path-conjunctive [`Query`] so `cnb-analyze` can run the (tiny, exact,
//! rational) cover LP over it. The translation:
//!
//! * **Vertices** are equivalence classes of path terms under the query's
//!   equalities — `e1.T = e2.S` makes `{e1.T, e2.S}` one vertex. For a
//!   binding over a named relation with known attributes, every attribute
//!   term `v.a` is a vertex (relations are *sets*, so a row is exactly its
//!   attribute tuple); for `dom`/path-expression bindings the bound
//!   variable itself is the vertex.
//! * **Edges** are the scanned collections. An edge *covers* a vertex when
//!   enumerating the collection enumerates the vertex's terms: a binding
//!   `R v` covers every class containing a term rooted at `v`, and a path
//!   binding `M[k].N o` covers classes of terms over `{o, k}` (the
//!   flattened pairs `(k, o)` are one scan).
//! * **Materialized views are unfolded**: a binding over a view contributes
//!   its *definition's* edges (recursively, with fresh variables), its
//!   definition's equalities, and `v.label = select-path` bridges. The view
//!   binding itself is no edge — its rows are determined by base scans, and
//!   treating it as an opaque unit-size edge would be unsound in one
//!   direction and wildly imprecise in the other.
//! * **Only outer-visible vertices are required** to be covered. View- and
//!   prefix-internal classes are projected away, which is sound by
//!   Shearer's lemma: a feasible cover of any vertex subset bounds the
//!   number of distinct projections onto that subset.
//!
//! [`prefix_hypergraph`] builds the hypergraph of a *binding-order prefix*
//! (the first `k` loops plus the equalities they close), which is exactly
//! the worst-case intermediate size of a left-deep binary-join execution —
//! what the plan certifier compares against the full query's bound.

use crate::constraint::PhysicalSpec;
use crate::cover::{cover_lp, CoverLp, Rat};
use crate::fxhash::FxHashMap;
use crate::path::{PathExpr, Var};
use crate::query::{Binding, Query, Range};
use crate::schema::Schema;
use crate::symbol::Symbol;
use crate::unionfind::UnionFind;

/// One hyperedge: a scanned collection and the vertex classes it covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HyperEdge {
    /// Human-readable scan label, e.g. `E e1` or `E e1 (via W w)` for an
    /// edge contributed by unfolding the view `W`.
    pub label: String,
    /// Covered vertex classes (sorted, deduplicated).
    pub covers: Vec<usize>,
    /// The stored collection this edge scans, when there is one: the base
    /// relation of a `R v` binding (including base scans contributed by
    /// view unfolding) or the dictionary of a `dom M` binding. `None` for
    /// path-expression ranges, whose rows come from an earlier binding's
    /// values rather than a named collection. Cost models use this to look
    /// up observed cardinalities per cover edge.
    pub relation: Option<Symbol>,
}

/// The hypergraph of a query (or of a binding-order prefix of one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryHypergraph {
    /// Number of vertex classes (dense ids `0..class_count`).
    pub class_count: usize,
    /// Classes a fractional edge cover must cover (sorted): the
    /// outer-visible vertices. Internal (view-definition) classes are
    /// projected away.
    pub required: Vec<usize>,
    /// The scanned collections.
    pub edges: Vec<HyperEdge>,
}

/// Nested-view unfolding depth limit; exceeding it is a schema cycle.
const MAX_VIEW_DEPTH: usize = 8;

struct Builder<'a> {
    schema: &'a Schema,
    /// Term registry: path term → dense id.
    terms: FxHashMap<PathExpr, usize>,
    /// Variables of each registered term (sorted, deduplicated).
    term_vars: Vec<Vec<Var>>,
    /// Vertex classes over term ids.
    classes: UnionFind,
    /// Term ids whose classes must be covered.
    required_terms: Vec<usize>,
    /// Per edge: (label, determines-set of variables, scanned collection).
    edges: Vec<(String, Vec<Var>, Option<Symbol>)>,
    /// Next fresh variable id for unfolded view definitions.
    next_var: u32,
}

impl Builder<'_> {
    fn register(&mut self, term: &PathExpr) -> Option<usize> {
        let mut vars = term.vars();
        vars.sort_unstable();
        vars.dedup();
        if vars.is_empty() {
            // Constant-valued terms carry no counting dimension.
            return None;
        }
        if let Some(&id) = self.terms.get(term) {
            return Some(id);
        }
        let id = self.classes.push();
        self.terms.insert(term.clone(), id);
        self.term_vars.push(vars);
        Some(id)
    }

    fn unite(&mut self, lhs: &PathExpr, rhs: &PathExpr) {
        if let (Some(a), Some(b)) = (self.register(lhs), self.register(rhs)) {
            self.classes.union(a, b);
        }
    }

    /// The view definition behind `name`, if `name` is a materialized view
    /// (or ASR) with a known defining query.
    fn view_def(&self, name: Symbol) -> Option<&'_ Query> {
        self.schema.skeletons().iter().find_map(|s| {
            if s.physical_name == name {
                match &s.spec {
                    PhysicalSpec::View(def) => Some(def),
                    _ => None,
                }
            } else {
                None
            }
        })
    }

    fn add_binding(&mut self, b: &Binding, outer: bool, depth: usize) -> Result<(), String> {
        if depth > MAX_VIEW_DEPTH {
            return Err(format!(
                "view unfolding exceeded depth {MAX_VIEW_DEPTH} at {} — cyclic view definitions?",
                b.name
            ));
        }
        match &b.range {
            Range::Name(n) => {
                if let Some(def) = self.view_def(*n) {
                    // Unfold: the view's rows are determined by its
                    // definition's scans, so the definition contributes the
                    // edges and the view binding only its visible surface.
                    let def = def.offset_vars(self.next_var);
                    self.next_var = def.var_bound();
                    if outer {
                        if let Some(attrs) = self.schema.relation_attrs(*n) {
                            for (a, _) in attrs {
                                let t = PathExpr::from(b.var).dot(*a);
                                if let Some(id) = self.register(&t) {
                                    self.required_terms.push(id);
                                }
                            }
                        } else if let Some(id) = self.register(&PathExpr::from(b.var)) {
                            self.required_terms.push(id);
                        }
                    }
                    let via = format!(" (via {} {})", n, b.name);
                    let edge_start = self.edges.len();
                    for db in def.from.clone() {
                        self.add_binding(&db, false, depth + 1)?;
                    }
                    for e in self.edges[edge_start..].iter_mut() {
                        if !e.0.ends_with(&via) {
                            e.0.push_str(&via);
                        }
                    }
                    for eq in &def.where_ {
                        self.unite(&eq.lhs, &eq.rhs);
                    }
                    for (label, path) in &def.select {
                        let visible = PathExpr::from(b.var).dot(*label);
                        self.unite(&visible, path);
                    }
                } else {
                    let mut covered = Vec::new();
                    if let Some(attrs) = self.schema.relation_attrs(*n) {
                        for (a, _) in attrs {
                            let t = PathExpr::from(b.var).dot(*a);
                            if let Some(id) = self.register(&t) {
                                covered.push(id);
                            }
                        }
                    } else if let Some(id) = self.register(&PathExpr::from(b.var)) {
                        covered.push(id);
                    }
                    if outer {
                        self.required_terms.extend(covered);
                    }
                    self.edges.push((format!("{b}"), vec![b.var], Some(*n)));
                }
            }
            Range::Dom(_) | Range::Expr(_) => {
                if let Some(id) = self.register(&PathExpr::from(b.var)) {
                    if outer {
                        self.required_terms.push(id);
                    }
                }
                let mut determines = vec![b.var];
                determines.extend(b.range.vars());
                determines.sort_unstable();
                determines.dedup();
                let relation = match &b.range {
                    Range::Dom(d) => Some(*d),
                    _ => None,
                };
                self.edges.push((format!("{b}"), determines, relation));
            }
        }
        Ok(())
    }
}

/// Builds the hypergraph of an arbitrary *subset* of `query`'s bindings
/// (given by index into `query.from`) plus every equality closed within
/// them — the worst-case shape of the intermediate result once exactly
/// those bindings are bound, in any order. [`prefix_hypergraph`] is the
/// contiguous special case.
///
/// Errors on malformed input: a required vertex no edge covers (a binding
/// whose value the scans cannot enumerate) or cyclic view definitions.
pub fn subset_hypergraph(
    schema: &Schema,
    query: &Query,
    subset: &[usize],
) -> Result<QueryHypergraph, String> {
    let mut b = Builder {
        schema,
        terms: FxHashMap::default(),
        term_vars: Vec::new(),
        classes: UnionFind::new(0),
        required_terms: Vec::new(),
        edges: Vec::new(),
        next_var: query.var_bound(),
    };
    let chosen: Vec<&Binding> = subset.iter().filter_map(|&i| query.from.get(i)).collect();
    let in_subset: Vec<Var> = chosen.iter().map(|x| x.var).collect();
    for binding in &chosen {
        b.add_binding(binding, true, 0)?;
    }
    for eq in &query.where_ {
        if eq.vars().iter().all(|v| in_subset.contains(v)) {
            b.unite(&eq.lhs, &eq.rhs);
        }
    }

    // Dense class ids in root-id order (registration order is
    // deterministic, so class numbering is too).
    let roots: Vec<usize> = (0..b.term_vars.len()).map(|i| b.classes.find(i)).collect();
    let mut class_of_root: FxHashMap<usize, usize> = FxHashMap::default();
    let mut class_count = 0usize;
    let mut class_of_term = vec![0usize; roots.len()];
    for (term, &root) in roots.iter().enumerate() {
        let id = *class_of_root.entry(root).or_insert_with(|| {
            let id = class_count;
            class_count += 1;
            id
        });
        class_of_term[term] = id;
    }

    let mut required: Vec<usize> = b.required_terms.iter().map(|&t| class_of_term[t]).collect();
    required.sort_unstable();
    required.dedup();

    let mut edges = Vec::with_capacity(b.edges.len());
    for (label, determines, relation) in &b.edges {
        let mut covers = Vec::new();
        for (term, vars) in b.term_vars.iter().enumerate() {
            if vars.iter().all(|v| determines.contains(v)) {
                covers.push(class_of_term[term]);
            }
        }
        covers.sort_unstable();
        covers.dedup();
        edges.push(HyperEdge {
            label: label.clone(),
            covers,
            relation: *relation,
        });
    }

    for &r in &required {
        if !edges.iter().any(|e| e.covers.contains(&r)) {
            return Err(format!(
                "vertex class {r} is required but no scan covers it (subset {subset:?})"
            ));
        }
    }

    Ok(QueryHypergraph {
        class_count,
        required,
        edges,
    })
}

/// Builds the hypergraph of the first `prefix` bindings of `query` plus
/// every equality closed within them — the worst-case shape of the
/// intermediate result after `prefix` joins of a left-deep execution in the
/// query's binding order. `prefix == query.from.len()` is the whole query.
pub fn prefix_hypergraph(
    schema: &Schema,
    query: &Query,
    prefix: usize,
) -> Result<QueryHypergraph, String> {
    let prefix = prefix.min(query.from.len());
    let subset: Vec<usize> = (0..prefix).collect();
    subset_hypergraph(schema, query, &subset)
}

/// The hypergraph of the whole query — [`prefix_hypergraph`] over every
/// binding.
pub fn query_hypergraph(schema: &Schema, query: &Query) -> Result<QueryHypergraph, String> {
    prefix_hypergraph(schema, query, query.from.len())
}

/// How the engine should execute a plan: left-deep binary joins in binding
/// order (the default everywhere), or the generic-join multiway
/// intersection whose intermediates the AGM bound certifies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ExecStrategy {
    /// Tuple- or batch-at-a-time left-deep binary joins.
    #[default]
    LeftDeep,
    /// Variable-at-a-time generic join (worst-case optimal).
    Wcoj,
}

impl ExecStrategy {
    /// Stable lowercase name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ExecStrategy::LeftDeep => "left-deep",
            ExecStrategy::Wcoj => "wcoj",
        }
    }
}

/// True when `query` has the shape the generic-join operator executes:
/// every binding ranges over a named collection with known attributes (a
/// relation — sets of flat records), and every where-equality relates
/// single-step attribute projections `v.a` and/or constants. Deeper paths,
/// `dom`/path-expression ranges and whole-row equalities fall back to the
/// binary-join executors.
pub fn generic_join_supported(schema: &Schema, query: &Query) -> bool {
    if query.from.is_empty() {
        return false;
    }
    let flat = |p: &PathExpr| -> bool {
        match p {
            PathExpr::Const(_) => true,
            PathExpr::Field(base, _) => matches!(**base, PathExpr::Var(_)),
            _ => false,
        }
    };
    query.from.iter().all(|b| match &b.range {
        Range::Name(n) => schema.relation_attrs(*n).is_some(),
        _ => false,
    }) && query.where_.iter().all(|eq| flat(&eq.lhs) && flat(&eq.rhs))
}

/// One weighted edge of a fractional cover certificate, resolved to the
/// collection it scans so cost models can price it.
#[derive(Clone, Debug)]
pub struct CoverEdge {
    /// Human-readable scan label (matches [`HyperEdge::label`]).
    pub label: String,
    /// The stored collection the edge scans, if any.
    pub relation: Option<Symbol>,
    /// The edge's cover weight.
    pub weight: Rat,
}

/// Labels an LP solution's weights with the edges of the hypergraph it
/// solved, in edge order — the certificate form of a fractional cover.
pub fn weighted_cover(hg: &QueryHypergraph, lp: &CoverLp) -> Vec<CoverEdge> {
    hg.edges
        .iter()
        .zip(&lp.weights)
        .map(|(e, w)| CoverEdge {
            label: e.label.clone(),
            relation: e.relation,
            weight: *w,
        })
        .collect()
}

/// `a > b`, exactly; an `i128` overflow in the comparison is the error
/// every caller here returns.
fn exceeds(a: &Rat, b: &Rat) -> Result<bool, String> {
    Ok(a.checked_cmp(b).map_err(|e| e.to_string())?.is_gt())
}

/// The worst binding-order prefix of `query` as written — the largest
/// intermediate a left-deep execution in that order can produce: its
/// 1-based length (the shortest, on ties; 0 for an empty from-clause), its
/// exponent, and the optimal cover proving it.
pub fn worst_prefix(
    schema: &Schema,
    query: &Query,
) -> Result<(usize, Rat, Vec<CoverEdge>), String> {
    let mut worst = (0, Rat::zero(), Vec::new());
    for k in 1..=query.from.len() {
        let hg = prefix_hypergraph(schema, query, k)?;
        let lp = cover_lp(&hg).map_err(|e| e.to_string())?;
        if k == 1 || exceeds(&lp.rho, &worst.1)? {
            worst = (k, lp.rho, weighted_cover(&hg, &lp));
        }
    }
    Ok(worst)
}

/// The result of [`wcoj_gap`]: proof that *no* binary binding order of the
/// query meets its own AGM bound, plus the optimal full-query cover a
/// generic-join execution is certified by.
#[derive(Clone, Debug)]
pub struct WcojAnalysis {
    /// The query's AGM exponent ρ*.
    pub bound: Rat,
    /// The best achievable worst-prefix exponent over *all* binary binding
    /// orders (dependency-respecting). Strictly greater than `bound` when
    /// this analysis is returned.
    pub best_binary: Rat,
    /// Optimal fractional cover of the full query — the machine-checkable
    /// certificate a worst-case optimal execution inherits
    /// (intermediates stay within `N^bound`; NPRR).
    pub cover: Vec<CoverEdge>,
}

/// Binding orders with more loops than this skip the exact subset DP
/// (2^n states) and report no gap.
const MAX_WCOJ_BINDINGS: usize = 12;

/// Detects a *certified WCOJ gap*: returns `Some` exactly when no binary
/// join order of `query` (over any dependency-respecting permutation of
/// its bindings) keeps every intermediate within the query's own AGM
/// bound, so only a multiway intersection can meet it.
///
/// The check is exact and cheap in the common case: the as-written order
/// is scored first (per-prefix cover LPs) and an in-bound order exits
/// early with `None`. Only genuinely gapped shapes (odd cycles, cliques)
/// reach the subset DP, which exploits that a prefix's exponent depends
/// only on the *set* of bound loops, not their order:
/// `g(S) = max(ρ*(S), min over last-removable v of g(S \ {v}))`.
pub fn wcoj_gap(schema: &Schema, query: &Query) -> Result<Option<WcojAnalysis>, String> {
    let n = query.from.len();
    if n == 0 || n > MAX_WCOJ_BINDINGS {
        return Ok(None);
    }
    let full = query_hypergraph(schema, query)?;
    let lp = cover_lp(&full).map_err(|e| e.to_string())?;
    let bound = lp.rho;

    // Cheap exit: if the as-written order already stays within the bound,
    // there is no gap (this keeps the non-cyclic workloads at O(n) LPs).
    let (_, as_written, _) = worst_prefix(schema, query)?;
    if !exceeds(&as_written, &bound)? {
        return Ok(None);
    }

    // Dependency mask per binding: loops whose variables its range reads
    // (path/dom ranges); those must be bound first in any legal order.
    let var_to_idx: FxHashMap<Var, usize> = query
        .from
        .iter()
        .enumerate()
        .map(|(i, b)| (b.var, i))
        .collect();
    let deps: Vec<u32> = query
        .from
        .iter()
        .map(|b| {
            let mut mask = 0u32;
            for v in b.range.vars() {
                if let Some(&j) = var_to_idx.get(&v) {
                    mask |= 1 << j;
                }
            }
            mask
        })
        .collect();

    // g(S) over dependency-closed subsets, ascending by popcount so every
    // g(S \ {i}) is already computed.
    let all: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let mut g: Vec<Option<Rat>> = vec![None; (all as usize) + 1];
    g[0] = Some(Rat::zero());
    let mut masks: Vec<u32> = (1..=all).collect();
    masks.sort_by_key(|m| m.count_ones());
    for s in masks {
        let closed = (0..n).all(|i| s & (1 << i) == 0 || deps[i] & s == deps[i]);
        if !closed {
            continue;
        }
        let members: Vec<usize> = (0..n).filter(|i| s & (1 << i) != 0).collect();
        let rho = cover_lp(&subset_hypergraph(schema, query, &members)?)
            .map_err(|e| e.to_string())?
            .rho;
        let mut best_tail: Option<Rat> = None;
        for &i in &members {
            // i can come last iff no remaining loop depends on it.
            let rest = s & !(1 << i);
            if members.iter().any(|&j| j != i && deps[j] & (1 << i) != 0) {
                continue;
            }
            if let Some(t) = g[rest as usize] {
                best_tail = match best_tail {
                    Some(b) if !exceeds(&b, &t)? => Some(b),
                    _ => Some(t),
                };
            }
        }
        let tail = best_tail.unwrap_or(rho);
        g[s as usize] = Some(if exceeds(&rho, &tail)? { rho } else { tail });
    }

    let best_binary =
        g[all as usize].ok_or_else(|| "binding dependencies admit no order".to_string())?;
    if !exceeds(&best_binary, &bound)? {
        return Ok(None);
    }
    Ok(Some(WcojAnalysis {
        bound,
        best_binary,
        cover: weighted_cover(&full, &lp),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::add_materialized_view;
    use crate::symbol::sym;
    use crate::types::Type;

    fn edge_schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation("E", [(sym("S"), Type::Int), (sym("T"), Type::Int)]);
        s
    }

    fn triangle(schema_vars: &Schema) -> Query {
        let _ = schema_vars;
        let mut q = Query::new();
        let e1 = q.bind("e1", Range::Name(sym("E")));
        let e2 = q.bind("e2", Range::Name(sym("E")));
        let e3 = q.bind("e3", Range::Name(sym("E")));
        q.equate(PathExpr::from(e1).dot("T"), PathExpr::from(e2).dot("S"));
        q.equate(PathExpr::from(e2).dot("T"), PathExpr::from(e3).dot("S"));
        q.equate(PathExpr::from(e3).dot("T"), PathExpr::from(e1).dot("S"));
        q.output("N1", PathExpr::from(e1).dot("S"));
        q
    }

    #[test]
    fn triangle_is_the_classic_three_vertex_hypergraph() {
        let s = edge_schema();
        let hg = query_hypergraph(&s, &triangle(&s)).unwrap();
        // Six attribute terms collapse into three join vertices, each
        // covered by exactly two of the three edges.
        assert_eq!(hg.required.len(), 3, "{hg:?}");
        assert_eq!(hg.edges.len(), 3);
        for e in &hg.edges {
            let req: Vec<_> = e
                .covers
                .iter()
                .filter(|c| hg.required.contains(c))
                .collect();
            assert_eq!(req.len(), 2, "{e:?}");
        }
    }

    #[test]
    fn prefix_drops_unclosed_equalities() {
        let s = edge_schema();
        let hg = prefix_hypergraph(&s, &triangle(&s), 2).unwrap();
        // e1, e2 with only e1.T = e2.S closed: S1, (T1=S2), T2.
        assert_eq!(hg.required.len(), 3);
        assert_eq!(hg.edges.len(), 2);
    }

    #[test]
    fn view_bindings_unfold_into_definition_edges() {
        let mut s = edge_schema();
        let mut def = Query::new();
        let e1 = def.bind("e1", Range::Name(sym("E")));
        let e2 = def.bind("e2", Range::Name(sym("E")));
        def.equate(PathExpr::from(e1).dot("T"), PathExpr::from(e2).dot("S"));
        def.output("S", PathExpr::from(e1).dot("S"));
        def.output("M", PathExpr::from(e1).dot("T"));
        def.output("T", PathExpr::from(e2).dot("T"));
        add_materialized_view(&mut s, "W", &def);

        let mut q = Query::new();
        let w = q.bind("w", Range::Name(sym("W")));
        q.output("S", PathExpr::from(w).dot("S"));
        let hg = query_hypergraph(&s, &q).unwrap();
        // The view contributes its two E scans, not an opaque W edge.
        assert_eq!(hg.edges.len(), 2, "{hg:?}");
        assert!(hg.edges.iter().all(|e| e.label.contains("via W")));
        // Visible vertices: w.S, w.M, w.T (merged with definition terms).
        assert_eq!(hg.required.len(), 3);
        // S is only enumerable from the first E scan, T only from the
        // second, M from both.
        let cover_counts: Vec<usize> = hg
            .required
            .iter()
            .map(|r| hg.edges.iter().filter(|e| e.covers.contains(r)).count())
            .collect();
        let mut sorted = cover_counts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 1, 2], "{hg:?}");
    }

    #[test]
    fn dom_and_expr_ranges_cover_through_their_variables() {
        let mut s = Schema::new();
        s.add_physical_dict(
            "M",
            Type::Int,
            Type::Struct(vec![(sym("N"), Type::Set(Box::new(Type::Int)))]),
        );
        let mut q = Query::new();
        let k = q.bind("k", Range::Dom(sym("M")));
        let o = q.bind("o", Range::Expr(PathExpr::from(k).lookup_in("M").dot("N")));
        q.output("O", PathExpr::from(o));
        let hg = query_hypergraph(&s, &q).unwrap();
        assert_eq!(hg.edges.len(), 2);
        assert_eq!(hg.required.len(), 2);
        // The path edge enumerates (k, o) pairs: it covers both vertices.
        assert_eq!(hg.edges[1].covers.len(), 2, "{hg:?}");
    }

    fn cycle(k: usize) -> Query {
        let mut q = Query::new();
        let vars: Vec<_> = (0..k)
            .map(|i| q.bind(&format!("e{}", i + 1), Range::Name(sym("E"))))
            .collect();
        for i in 0..k {
            q.equate(
                PathExpr::from(vars[i]).dot("T"),
                PathExpr::from(vars[(i + 1) % k]).dot("S"),
            );
        }
        q.output("N1", PathExpr::from(vars[0]).dot("S"));
        q
    }

    #[test]
    fn subset_matches_prefix_on_contiguous_sets() {
        let s = edge_schema();
        let q = triangle(&s);
        for k in 1..=3 {
            let by_prefix = prefix_hypergraph(&s, &q, k).unwrap();
            let subset: Vec<usize> = (0..k).collect();
            let by_subset = subset_hypergraph(&s, &q, &subset).unwrap();
            assert_eq!(by_prefix, by_subset);
        }
    }

    #[test]
    fn noncontiguous_subsets_close_their_own_equalities() {
        let s = edge_schema();
        let q = triangle(&s);
        // {e1, e3}: only e3.T = e1.S is closed → 3 visible classes, and the
        // two scans are symmetric to a 2-prefix.
        let hg = subset_hypergraph(&s, &q, &[0, 2]).unwrap();
        assert_eq!(hg.edges.len(), 2);
        assert_eq!(hg.required.len(), 3);
    }

    #[test]
    fn base_scans_carry_their_relation_symbol() {
        let s = edge_schema();
        let hg = query_hypergraph(&s, &triangle(&s)).unwrap();
        assert!(hg.edges.iter().all(|e| e.relation == Some(sym("E"))));
    }

    #[test]
    fn triangle_has_a_certified_wcoj_gap() {
        let s = edge_schema();
        let gap = wcoj_gap(&s, &triangle(&s)).unwrap().expect("gap");
        assert_eq!(gap.bound, Rat::checked_new(3, 2).unwrap());
        assert_eq!(gap.best_binary, Rat::int(2));
        // The certificate re-verifies against the full-query hypergraph.
        let hg = query_hypergraph(&s, &triangle(&s)).unwrap();
        let weights: Vec<Rat> = gap.cover.iter().map(|c| c.weight).collect();
        let cost = crate::cover::verify_cover(&hg, &weights).unwrap();
        assert_eq!(cost, gap.bound);
        assert!(gap.cover.iter().all(|c| c.relation == Some(sym("E"))));
    }

    #[test]
    fn even_cycles_have_no_gap() {
        let s = edge_schema();
        assert!(wcoj_gap(&s, &cycle(4)).unwrap().is_none());
        // 5-cycle: odd again — ρ* = 5/2, every order's worst prefix ≥ 3.
        let gap = wcoj_gap(&s, &cycle(5)).unwrap().expect("odd gap");
        assert_eq!(gap.bound, Rat::checked_new(5, 2).unwrap());
        assert!(gap.best_binary.checked_cmp(&gap.bound).unwrap().is_gt());
    }

    #[test]
    fn single_scans_and_chains_have_no_gap() {
        let s = edge_schema();
        let mut q = Query::new();
        let e = q.bind("e", Range::Name(sym("E")));
        q.output("S", PathExpr::from(e).dot("S"));
        assert!(wcoj_gap(&s, &q).unwrap().is_none());
    }

    #[test]
    fn generic_join_supports_flat_relation_joins_only() {
        let s = edge_schema();
        assert!(generic_join_supported(&s, &triangle(&s)));

        // Constant pins keep the shape flat.
        let mut pinned = triangle(&s);
        let e1 = pinned.from[0].var;
        pinned.equate(PathExpr::from(e1).dot("S"), PathExpr::from(7i64));
        assert!(generic_join_supported(&s, &pinned));

        // dom/path ranges are out.
        let mut ds = Schema::new();
        ds.add_physical_dict(
            "M",
            Type::Int,
            Type::Struct(vec![(sym("N"), Type::Set(Box::new(Type::Int)))]),
        );
        let mut q = Query::new();
        let k = q.bind("k", Range::Dom(sym("M")));
        q.output("K", PathExpr::from(k));
        assert!(!generic_join_supported(&ds, &q));

        // Whole-row equalities are out.
        let mut rowq = Query::new();
        let a = rowq.bind("a", Range::Name(sym("E")));
        let b = rowq.bind("b", Range::Name(sym("E")));
        rowq.equate(PathExpr::from(a), PathExpr::from(b));
        rowq.output("S", PathExpr::from(a).dot("S"));
        assert!(!generic_join_supported(&s, &rowq));
    }

    #[test]
    fn constants_carry_no_vertex() {
        let s = edge_schema();
        let mut q = triangle(&s);
        let e1 = q.from[0].var;
        q.equate(PathExpr::from(e1).dot("S"), PathExpr::from(7i64));
        let hg = query_hypergraph(&s, &q).unwrap();
        assert_eq!(hg.required.len(), 3, "{hg:?}");
    }
}
