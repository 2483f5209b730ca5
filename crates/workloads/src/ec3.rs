//! Experimental configuration EC3 (§5.1): object-oriented navigation with
//! inverse relationships and access support relations.
//!
//! `n` classes `M_1 … M_n`, each a dictionary from oids to structs with a
//! set-valued "next" attribute `N` (pointing into the next class) and a
//! set-valued "previous" attribute `P` (pointing back), obeying many-to-many
//! inverse-relationship constraints (Example 3.3). The physical schema has
//! ASRs — binary tables materializing two-hop *backward* (`P`) navigations —
//! so that plans using them are only reachable after the semantic
//! (inverse-flipping) optimization phase.

use crate::workload::{AgmExpectation, DataScale, Expectations, Workload};
use cnb_core::prelude::Strategy;
use cnb_ir::prelude::*;

/// EC3 parameters.
#[derive(Clone, Copy, Debug)]
pub struct Ec3 {
    /// Number of classes `n` (the query navigates all of them).
    pub classes: usize,
    /// Number of ASRs (each covering two consecutive backward hops). At most
    /// `⌊(n−1)/2⌋`.
    pub asrs: usize,
}

impl Ec3 {
    /// Creates the configuration, validating the ASR count.
    pub fn new(classes: usize, asrs: usize) -> Ec3 {
        assert!(classes >= 2, "need at least two classes to navigate");
        assert!(
            asrs <= (classes - 1) / 2,
            "each ASR covers two hops; at most (n-1)/2 fit"
        );
        Ec3 { classes, asrs }
    }

    /// Class extent (dictionary) name `M_i` (1-based).
    pub fn class(&self, i: usize) -> Symbol {
        sym(&format!("M{i}"))
    }

    /// ASR name `ASR_k` (1-based), covering hops `2k−1` and `2k`, i.e.
    /// classes `M_{2k−1} → M_{2k} → M_{2k+1}` navigated backward via `P`.
    pub fn asr(&self, k: usize) -> Symbol {
        sym(&format!("ASR{k}"))
    }

    /// The ASR definition query: a two-hop backward navigation selecting the
    /// start oid (in `M_{2k+1}`) and end oid (in `M_{2k−1}`).
    pub fn asr_def(&self, k: usize) -> Query {
        let hi = 2 * k + 1; // start class (navigating backward)
        let mid = 2 * k;
        let mut def = Query::new();
        let k2 = def.bind("k2", Range::Dom(self.class(hi)));
        let o1 = def.bind(
            "o1",
            Range::Expr(PathExpr::from(k2).lookup_in(self.class(hi)).dot("P")),
        );
        let k1 = def.bind("k1", Range::Dom(self.class(mid)));
        let o0 = def.bind(
            "o0",
            Range::Expr(PathExpr::from(k1).lookup_in(self.class(mid)).dot("P")),
        );
        def.equate(PathExpr::from(o1), PathExpr::from(k1));
        def.output("S", PathExpr::from(k2));
        def.output("E", PathExpr::from(o0));
        def
    }

    /// Builds the schema: class dictionaries, inverse constraints, ASR
    /// skeletons.
    pub fn schema(&self) -> Schema {
        let mut schema = Schema::new();
        let n = self.classes;
        for i in 1..=n {
            // N points into M_{i+1}, P back into M_{i-1}; boundary classes
            // point to themselves (the attributes are simply never navigated).
            let next = if i < n { i + 1 } else { i };
            let prev = if i > 1 { i - 1 } else { i };
            let ty = Type::record([
                (sym("N"), Type::Set(Box::new(Type::Oid(self.class(next))))),
                (sym("P"), Type::Set(Box::new(Type::Oid(self.class(prev))))),
            ]);
            schema.add_logical_dict(self.class(i), Type::Oid(self.class(i)), ty);
        }
        for i in 1..n {
            let [inv_n, inv_p] =
                inverse_relationship(self.class(i), self.class(i + 1), sym("N"), sym("P"));
            schema.add_constraint(inv_n);
            schema.add_constraint(inv_p);
        }
        for k in 1..=self.asrs {
            let def = self.asr_def(k);
            add_materialized_view(&mut schema, self.asr(k), &def);
        }
        schema
    }

    /// The navigation query (fig. 2): follow `N` from `M_1` through `M_n`,
    /// returning the first key and the last object.
    pub fn query(&self) -> Query {
        self.navigation_query(self.classes)
    }

    /// Navigation over the first `len` classes.
    pub fn navigation_query(&self, len: usize) -> Query {
        assert!(len >= 2 && len <= self.classes);
        let mut q = Query::new();
        let mut prev_obj: Option<Var> = None;
        let mut first_key = None;
        let mut last_obj = None;
        for i in 1..len {
            let k = q.bind(&format!("k{i}"), Range::Dom(self.class(i)));
            if first_key.is_none() {
                first_key = Some(k);
            }
            let o = q.bind(
                &format!("o{i}"),
                Range::Expr(PathExpr::from(k).lookup_in(self.class(i)).dot("N")),
            );
            if let Some(p) = prev_obj {
                q.equate(PathExpr::from(p), PathExpr::from(k));
            }
            prev_obj = Some(o);
            last_obj = Some(o);
        }
        q.output("F", PathExpr::from(first_key.expect("len >= 2")));
        q.output("L", PathExpr::from(last_obj.expect("len >= 2")));
        q
    }

    /// Number of inverse constraints: `2(n−1)`.
    pub fn inverse_constraint_count(&self) -> usize {
        2 * (self.classes - 1)
    }

    /// Generates an object graph: `objects` oids per class, each linking to
    /// `fanout` random objects of the next class via `N`, with `P` kept as
    /// the exact inverse (so the inverse constraints genuinely hold). ASRs
    /// are materialized by evaluating their definitions.
    pub fn generate(&self, objects: usize, fanout: usize, seed: u64) -> cnb_engine::Database {
        use cnb_ir::prelude::Value;
        let mut rng = cnb_engine::datagen::rng(seed);
        let n = self.classes;
        // n_links[i][src] = targets in class i+1 (0-based class index).
        let mut n_links: Vec<Vec<Vec<usize>>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut per_class = Vec::with_capacity(objects);
            for _ in 0..objects {
                let targets = if i + 1 < n {
                    (0..fanout).map(|_| rng.gen_range(0..objects)).collect()
                } else {
                    Vec::new()
                };
                per_class.push(targets);
            }
            n_links.push(per_class);
        }
        // Invert into p_links[i][obj] = sources in class i-1.
        let mut p_links: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); objects]; n];
        for i in 0..n.saturating_sub(1) {
            for (src, targets) in n_links[i].iter().enumerate() {
                for &t in targets {
                    p_links[i + 1][t].push(src);
                }
            }
        }
        let mut db = cnb_engine::Database::new();
        for i in 0..n {
            let class = self.class(i + 1);
            let next_class = self.class((i + 2).min(n));
            let prev_class = self.class(i.max(1));
            for obj in 0..objects {
                let nv = Value::set(
                    n_links[i][obj]
                        .iter()
                        .map(|&t| Value::Oid(next_class, t as u64)),
                );
                let pv = Value::set(
                    p_links[i][obj]
                        .iter()
                        .map(|&s| Value::Oid(prev_class, s as u64)),
                );
                db.set_entry(
                    class,
                    Value::Oid(class, obj as u64),
                    Value::record([
                        (cnb_ir::prelude::sym("N"), nv),
                        (cnb_ir::prelude::sym("P"), pv),
                    ]),
                );
            }
        }
        db.materialize_physical(&self.schema())
            .expect("EC3 materialization cannot fail");
        db
    }
}

impl Workload for Ec3 {
    fn name(&self) -> &'static str {
        "EC3"
    }

    fn schema(&self) -> Schema {
        Ec3::schema(self)
    }

    fn query(&self) -> Query {
        Ec3::query(self)
    }

    fn generate_at(&self, scale: DataScale) -> cnb_engine::Database {
        // A third of the base size in objects per class at fan-out 3 keeps
        // navigation results nonempty without exploding set sizes.
        self.generate((scale.rows / 3).max(2), 3, scale.seed)
    }

    fn serving_query(&self, scale: DataScale, pick: u64) -> Query {
        // Navigation from one specific root object: pin the first
        // dictionary key to an oid in the generated [0, objects) id space.
        let mut q = self.query();
        let k1 = q.from[0].var;
        let objects = (scale.rows / 3).max(2) as u64;
        q.equate(
            PathExpr::from(k1),
            PathExpr::from(Value::Oid(self.class(1), pick % objects)),
        );
        q
    }

    fn expectations(&self) -> Expectations {
        Expectations {
            strategy: Strategy::Full,
            // Forward navigation, inverse-flipped navigation, and ASR-based
            // rewrites each contribute at least one plan.
            min_plans: if self.asrs > 0 { 3 } else { 2 },
            physical_plan: self.asrs > 0,
            // Dictionary navigation chains are acyclic.
            agm: AgmExpectation::Certified,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_and_query_typecheck() {
        let ec3 = Ec3::new(4, 1);
        let schema = ec3.schema();
        let q = ec3.query();
        check_query(&schema, &q).expect("well-typed");
        assert_eq!(
            schema.semantic_constraints().len(),
            ec3.inverse_constraint_count()
        );
        assert_eq!(schema.skeletons().len(), 1);
    }

    #[test]
    fn asr_def_typechecks() {
        let ec3 = Ec3::new(5, 2);
        let schema = ec3.schema();
        for k in 1..=2 {
            check_query(&schema, &ec3.asr_def(k)).expect("asr def well-typed");
        }
        assert!(schema.is_physical(ec3.asr(1)));
    }

    #[test]
    fn navigation_shape() {
        let ec3 = Ec3::new(4, 0);
        let q = ec3.query();
        // 3 hops: (k_i, o_i) pairs for i = 1..3.
        assert_eq!(q.from.len(), 6);
        assert_eq!(q.where_.len(), 2);
        assert_eq!(q.select.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn rejects_too_many_asrs() {
        Ec3::new(4, 2);
    }
}
