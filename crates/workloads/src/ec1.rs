//! Experimental configuration EC1 (§5.1): a relational chain with indexes.
//!
//! `n` relations `R_i(K, N, D)`; each has a primary index `PI_i` on the key
//! `K`; the first `j` also have secondary indexes `SI_i` on the foreign-key
//! attribute `N`. Chain queries join `R_i.N = R_{i+1}.K` (fig. 4) and return
//! all key attributes. Scaling parameters: `n` and `m = n + j` indexes.

use crate::workload::{AgmExpectation, DataScale, Expectations, Workload};
use cnb_core::prelude::Strategy;
use cnb_ir::prelude::*;

/// EC1 parameters.
#[derive(Clone, Copy, Debug)]
pub struct Ec1 {
    /// Number of chained relations (and primary indexes).
    pub relations: usize,
    /// Number of secondary indexes (on the first `j` relations).
    pub secondary: usize,
}

impl Ec1 {
    /// Creates the configuration, validating the parameters.
    pub fn new(relations: usize, secondary: usize) -> Ec1 {
        assert!(relations >= 1, "need at least one relation");
        assert!(
            secondary <= relations,
            "more secondary indexes than relations"
        );
        Ec1 {
            relations,
            secondary,
        }
    }

    /// Total number of indexes in the physical schema (`m = n + j`).
    pub fn index_count(&self) -> usize {
        self.relations + self.secondary
    }

    /// The relation name `R_i` (1-based).
    pub fn relation(&self, i: usize) -> Symbol {
        sym(&format!("R{i}"))
    }

    /// Builds the schema: relations, primary and secondary index skeletons.
    pub fn schema(&self) -> Schema {
        let mut schema = Schema::new();
        for i in 1..=self.relations {
            schema.add_relation(
                format!("R{i}"),
                [
                    (sym("K"), Type::Int),
                    (sym("N"), Type::Int),
                    (sym("D"), Type::Int),
                ],
            );
            add_primary_index(&mut schema, self.relation(i), sym("K"), format!("PI{i}"));
            if i <= self.secondary {
                add_secondary_index(&mut schema, self.relation(i), sym("N"), format!("SI{i}"));
            }
        }
        schema
    }

    /// The chain query over the first `len` relations (fig. 4): joins
    /// `R_i.N = R_{i+1}.K` and returns every key attribute.
    pub fn chain_query(&self, len: usize) -> Query {
        assert!(len >= 1 && len <= self.relations);
        let mut q = Query::new();
        let vars: Vec<Var> = (1..=len)
            .map(|i| q.bind(&format!("r{i}"), Range::Name(self.relation(i))))
            .collect();
        for w in vars.windows(2) {
            q.equate(PathExpr::from(w[0]).dot("N"), PathExpr::from(w[1]).dot("K"));
        }
        for (i, v) in vars.iter().enumerate() {
            q.output(&format!("K{}", i + 1), PathExpr::from(*v).dot("K"));
        }
        q
    }

    /// Full-length chain query.
    pub fn query(&self) -> Query {
        self.chain_query(self.relations)
    }

    /// Generates data (`rows` tuples per relation, `N` hitting the next
    /// relation's serial key with the given selectivity) and materializes
    /// the indexes.
    pub fn generate(&self, rows: usize, selectivity: f64, seed: u64) -> cnb_engine::Database {
        use cnb_engine::datagen::{domain_for_selectivity, gen_table, rng, ColumnGen, ColumnSpec};
        let mut db = cnb_engine::Database::new();
        let mut r = rng(seed);
        let dn = domain_for_selectivity(rows, selectivity);
        for i in 1..=self.relations {
            let cols = [
                ColumnSpec::new("K", ColumnGen::Serial),
                ColumnSpec::new("N", ColumnGen::Uniform(dn)),
                ColumnSpec::new("D", ColumnGen::Uniform(1000)),
            ];
            db.load_table(self.relation(i), gen_table(rows, &cols, &mut r));
        }
        db.materialize_physical(&self.schema())
            .expect("EC1 materialization cannot fail");
        db
    }
}

impl Workload for Ec1 {
    fn name(&self) -> &'static str {
        "EC1"
    }

    fn schema(&self) -> Schema {
        Ec1::schema(self)
    }

    fn query(&self) -> Query {
        Ec1::query(self)
    }

    fn generate_at(&self, scale: DataScale) -> cnb_engine::Database {
        // 30 % chain selectivity: selective enough to exercise the joins,
        // dense enough that full-length chains survive at smoke sizes.
        self.generate(scale.rows, 0.3, scale.seed)
    }

    fn serving_query(&self, scale: DataScale, pick: u64) -> Query {
        // Point lookup on the chain head: K is serial over [0, rows), so
        // every pick anchors the chain at exactly one R1 tuple.
        let mut q = self.query();
        let head = q.from[0].var;
        let k = (pick % scale.rows.max(1) as u64) as i64;
        q.equate(PathExpr::from(head).dot("K"), PathExpr::from(k));
        q
    }

    fn expectations(&self) -> Expectations {
        Expectations {
            strategy: Strategy::Oqf,
            // Scan-vs-primary-index is an independent choice per relation.
            min_plans: 1 << self.relations,
            physical_plan: true,
            // A key chain is acyclic: every rewrite joins along keys.
            agm: AgmExpectation::Certified,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_shape() {
        let ec1 = Ec1::new(3, 2);
        let s = ec1.schema();
        assert_eq!(ec1.index_count(), 5);
        assert_eq!(s.skeletons().len(), 5);
        assert!(s.is_logical(sym("R1")));
        assert!(s.is_physical(sym("PI1")));
        assert!(s.is_physical(sym("SI2")));
        assert!(s.decl(sym("SI3")).is_none());
    }

    #[test]
    fn query_shape() {
        let ec1 = Ec1::new(4, 0);
        let q = ec1.query();
        assert_eq!(q.from.len(), 4);
        assert_eq!(q.where_.len(), 3);
        assert_eq!(q.select.len(), 4);
        check_query(&ec1.schema(), &q).expect("well-typed");
    }

    #[test]
    #[should_panic(expected = "more secondary")]
    fn rejects_bad_params() {
        Ec1::new(2, 3);
    }

    #[test]
    fn constraint_counts_match_paper() {
        // 2 constraints per primary index, 2 per secondary (skeleton pairs).
        let ec1 = Ec1::new(5, 2);
        let s = ec1.schema();
        assert_eq!(s.all_constraints().len(), 2 * 5 + 2 * 2);
    }
}
