//! Experimental configuration EC4 (post-paper): a TPC-style star schema.
//!
//! One fact table `F(K, F1..Fd, M)` and `d` dimension tables `D_l(K, A)`;
//! the star query joins every `F.Fl = D_l.K` and returns each dimension's
//! descriptive attribute plus the fact measure. The physical schema holds
//! the structures a warehouse would: materialized fact–dimension join views
//! `VF_l` (for the first `v` dimensions) and secondary indexes `SIF_l` on
//! the first `j` fact foreign keys — both expressed as backchase
//! constraints, so view- and index-based rewrites fall out of C&B rather
//! than special cases. Key constraints on every table make the fact binding
//! recoverable from a view (the same mechanism as EC2's hub keys).
//!
//! This is the workload the ROADMAP's "TPC-style star schemas" item asks
//! for: it stresses exactly the materialized-view/index rewrites the
//! backchase was built around, at warehouse-shaped fan-outs.

use crate::workload::{AgmExpectation, DataScale, Expectations, Workload};
use cnb_core::prelude::Strategy;
use cnb_ir::prelude::*;

/// Dataset parameters for [`Ec4::generate`]. Selectivities are
/// parameterized per the star shape: `fk_sel = |F ⋈ D_l| / |F|`, the chance
/// a fact row finds its dimension row.
#[derive(Clone, Copy, Debug)]
pub struct Ec4DataSpec {
    /// Rows in the fact table.
    pub fact_rows: usize,
    /// Rows per dimension table.
    pub dim_rows: usize,
    /// Fact–dimension join selectivity `|F ⋈ D_l| / |F|` (per dimension).
    pub fk_sel: f64,
    /// Distinct values of the dimensions' descriptive attribute `A`.
    pub a_values: i64,
    /// RNG seed (datasets are fully reproducible).
    pub seed: u64,
}

impl Default for Ec4DataSpec {
    fn default() -> Ec4DataSpec {
        Ec4DataSpec {
            fact_rows: 5000,
            dim_rows: 1000,
            fk_sel: 0.2,
            a_values: 50,
            seed: 42,
        }
    }
}

/// EC4 parameters `[d, v, j]` — dimensions, materialized views, indexed
/// foreign keys.
#[derive(Clone, Copy, Debug)]
pub struct Ec4 {
    /// Number of dimension tables `d` (a TPC-style star has 4).
    pub dims: usize,
    /// Materialized fact–dimension views `VF_1..VF_v` (`v ≤ d`).
    pub views: usize,
    /// Secondary indexes `SIF_1..SIF_j` on the first `j` fact foreign keys.
    pub indexed: usize,
}

impl Ec4 {
    /// Creates the configuration, validating `v ≤ d` and `j ≤ d`.
    pub fn new(dims: usize, views: usize, indexed: usize) -> Ec4 {
        assert!(dims >= 1, "a star needs at least one dimension");
        assert!(views <= dims, "more views than dimensions");
        assert!(indexed <= dims, "more indexed foreign keys than dimensions");
        Ec4 {
            dims,
            views,
            indexed,
        }
    }

    /// The fact table name.
    pub fn fact(&self) -> Symbol {
        sym("F")
    }

    /// Dimension table name `D_l` (1-based).
    pub fn dim(&self, l: usize) -> Symbol {
        sym(&format!("D{l}"))
    }

    /// Materialized view name `VF_l` (1-based).
    pub fn view(&self, l: usize) -> Symbol {
        sym(&format!("VF{l}"))
    }

    /// Secondary index name `SIF_l` (1-based).
    pub fn index(&self, l: usize) -> Symbol {
        sym(&format!("SIF{l}"))
    }

    /// The view definition for `VF_l`: the fact table joined with dimension
    /// `l`, selecting the fact key and the dimension attribute. Plans keep
    /// the fact binding (rejoined on its key, like EC2's hubs) for the
    /// measure and the remaining dimensions.
    pub fn view_def(&self, l: usize) -> Query {
        let mut def = Query::new();
        let f = def.bind("f", Range::Name(self.fact()));
        let d = def.bind("d", Range::Name(self.dim(l)));
        def.equate(
            PathExpr::from(f).dot(format!("F{l}").as_str()),
            PathExpr::from(d).dot("K"),
        );
        def.output("K", PathExpr::from(f).dot("K"));
        def.output("A", PathExpr::from(d).dot("A"));
        def
    }

    /// Builds the schema: fact + dimensions, key constraints, views, FK
    /// indexes.
    pub fn schema(&self) -> Schema {
        let mut schema = Schema::new();
        let mut fact_attrs = vec![(sym("K"), Type::Int)];
        for l in 1..=self.dims {
            fact_attrs.push((sym(&format!("F{l}")), Type::Int));
        }
        fact_attrs.push((sym("M"), Type::Int));
        schema.add_relation("F", fact_attrs);
        for l in 1..=self.dims {
            schema.add_relation(
                format!("D{l}"),
                [(sym("K"), Type::Int), (sym("A"), Type::Int)],
            );
        }
        // Semantic keys first, then the skeletons, mirroring EC2's ordering.
        schema.add_constraint(key_constraint(self.fact(), sym("K")));
        for l in 1..=self.dims {
            schema.add_constraint(key_constraint(self.dim(l), sym("K")));
        }
        for l in 1..=self.views {
            let def = self.view_def(l);
            add_materialized_view(&mut schema, self.view(l), &def);
        }
        for l in 1..=self.indexed {
            add_secondary_index(
                &mut schema,
                self.fact(),
                sym(&format!("F{l}")),
                format!("SIF{l}"),
            );
        }
        schema
    }

    /// The star query: the fact joined with every dimension, returning each
    /// dimension attribute and the measure.
    pub fn query(&self) -> Query {
        let mut q = Query::new();
        let f = q.bind("f", Range::Name(self.fact()));
        for l in 1..=self.dims {
            let d = q.bind(&format!("d{l}"), Range::Name(self.dim(l)));
            q.equate(
                PathExpr::from(f).dot(format!("F{l}").as_str()),
                PathExpr::from(d).dot("K"),
            );
            q.output(&format!("A{l}"), PathExpr::from(d).dot("A"));
        }
        q.output("M", PathExpr::from(f).dot("M"));
        q
    }

    /// Constraint count: `1 + d` keys plus two per view and two per index.
    pub fn constraint_count(&self) -> usize {
        1 + self.dims + 2 * self.views + 2 * self.indexed
    }

    /// Generates the dataset and materializes views/indexes. Each fact
    /// foreign key is uniform over `dim_rows / fk_sel`, so a fact row joins
    /// dimension `l` with probability `fk_sel`; the star result size is
    /// `fact_rows · fk_sel^d` in expectation.
    pub fn generate(&self, spec: Ec4DataSpec) -> cnb_engine::Database {
        use cnb_engine::datagen::{domain_for_selectivity, gen_table, rng, ColumnGen, ColumnSpec};
        let mut db = cnb_engine::Database::new();
        let mut r = rng(spec.seed);
        let dom = domain_for_selectivity(spec.dim_rows, spec.fk_sel);
        let mut cols = vec![ColumnSpec::new("K", ColumnGen::Serial)];
        for l in 1..=self.dims {
            cols.push(ColumnSpec::new(&format!("F{l}"), ColumnGen::Uniform(dom)));
        }
        cols.push(ColumnSpec::new("M", ColumnGen::Uniform(1000)));
        db.load_table(self.fact(), gen_table(spec.fact_rows, &cols, &mut r));
        for l in 1..=self.dims {
            let cols = [
                ColumnSpec::new("K", ColumnGen::Serial),
                ColumnSpec::new("A", ColumnGen::Uniform(spec.a_values)),
            ];
            db.load_table(self.dim(l), gen_table(spec.dim_rows, &cols, &mut r));
        }
        db.materialize_physical(&self.schema())
            .expect("EC4 materialization cannot fail");
        db
    }
}

impl Workload for Ec4 {
    fn name(&self) -> &'static str {
        "EC4"
    }

    fn schema(&self) -> Schema {
        Ec4::schema(self)
    }

    fn query(&self) -> Query {
        Ec4::query(self)
    }

    fn generate_at(&self, scale: DataScale) -> cnb_engine::Database {
        // Fat joins at suite scale so smoke datasets produce rows even
        // through a d-way star: dim tables at half the fact size, 60 %
        // per-dimension selectivity.
        self.generate(Ec4DataSpec {
            fact_rows: scale.rows,
            dim_rows: (scale.rows / 2).max(1),
            fk_sel: 0.6,
            a_values: 20,
            seed: scale.seed,
        })
    }

    fn serving_query(&self, scale: DataScale, pick: u64) -> Query {
        // Dimension-sliced star: filter the first dimension's attribute,
        // which `generate_at` draws uniformly from [0, 20) — a ~5 % slice
        // of the fact join per request.
        let _ = scale;
        let mut q = self.query();
        let d1 = q.from[1].var;
        q.equate(
            PathExpr::from(d1).dot("A"),
            PathExpr::from((pick % 20) as i64),
        );
        q
    }

    fn expectations(&self) -> Expectations {
        Expectations {
            strategy: Strategy::Oqf,
            // Every view choice at least doubles the plan count (use VF_l or
            // join the base tables), independently per view.
            min_plans: 1 << self.views,
            physical_plan: self.views + self.indexed > 0,
            // A star schema is acyclic: the fact scan covers the hub.
            agm: AgmExpectation::Certified,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_and_query_typecheck() {
        let ec4 = Ec4::new(4, 2, 1);
        let schema = ec4.schema();
        let q = ec4.query();
        check_query(&schema, &q).expect("well-typed");
        assert_eq!(q.from.len(), 5, "fact + 4 dimensions");
        assert_eq!(q.where_.len(), 4);
        assert_eq!(q.select.len(), 5, "4 dimension attributes + measure");
        assert_eq!(schema.all_constraints().len(), ec4.constraint_count());
        assert_eq!(schema.skeletons().len(), 3, "2 views + 1 index");
    }

    #[test]
    fn view_defs_typecheck() {
        let ec4 = Ec4::new(3, 3, 0);
        let schema = ec4.schema();
        for l in 1..=3 {
            check_query(&schema, &ec4.view_def(l)).expect("view def well-typed");
        }
        assert!(schema.is_physical(ec4.view(1)));
        assert!(schema.is_logical(ec4.dim(2)));
    }

    #[test]
    fn generated_star_is_deterministic_and_materialized() {
        let ec4 = Ec4::new(3, 2, 1);
        let spec = Ec4DataSpec {
            fact_rows: 100,
            dim_rows: 40,
            fk_sel: 0.8,
            ..Ec4DataSpec::default()
        };
        let (a, b) = (ec4.generate(spec), ec4.generate(spec));
        assert_eq!(a.cardinalities(), b.cardinalities());
        assert_eq!(a.table(ec4.fact()).len(), 100);
        assert_eq!(a.table(ec4.dim(3)).len(), 40);
        // Views and indexes are populated.
        assert!(!a.table(ec4.view(1)).is_empty(), "VF1 materialized");
        assert!(a.dict(ec4.index(1)).is_some(), "SIF1 materialized");
    }

    #[test]
    #[should_panic(expected = "more views")]
    fn rejects_bad_params() {
        Ec4::new(2, 3, 0);
    }
}
