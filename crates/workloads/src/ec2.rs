//! Experimental configuration EC2 (§5.1): chain-of-stars with materialized
//! views and key constraints.
//!
//! `s` stars; star `i` has hub `R_i(K, A1..Ac, F)` and corners
//! `S_i1..S_ic(A, B)`, joined `R_i.Aj = S_ij.A`; hubs chain by
//! `R_i.F = R_{i+1}.K`. For each star, `v ≤ c − 1` materialized views
//! `V_i1..V_iv`, where `V_il` joins the hub with corners `l` and `l+1` and
//! selects their `B` attributes plus the hub key `K` (figs. 0 and 1). Each
//! hub key has a key constraint. Query size is `s(c+1)`; constraint count is
//! `s(1 + 2v)`.

use crate::workload::{AgmExpectation, DataScale, Expectations, Workload};
use cnb_core::prelude::Strategy;
use cnb_ir::prelude::*;

/// Dataset parameters for [`Ec2::generate`] (defaults = the paper's §5.4
/// values: 5 000 tuples, 4 % corner selectivity, 2 % chain selectivity).
#[derive(Clone, Copy, Debug)]
pub struct Ec2DataSpec {
    /// Tuples per relation.
    pub rows: usize,
    /// `|R_i ⋈ S_ij| / |R_i|`.
    pub corner_sel: f64,
    /// `|R_i ⋈ R_{i+1}| / |R_i|`.
    pub chain_sel: f64,
    /// Distinct values of the corner `B` attributes ("few", per §2).
    pub b_values: i64,
    /// RNG seed (datasets are fully reproducible).
    pub seed: u64,
}

impl Default for Ec2DataSpec {
    fn default() -> Ec2DataSpec {
        Ec2DataSpec {
            rows: 5000,
            corner_sel: 0.04,
            chain_sel: 0.02,
            b_values: 50,
            seed: 42,
        }
    }
}

/// The paper's §5.3.1 table "Number of plans in EC2": each row's
/// `[s, c, v]` and the number of plans FB, OQF and OCS find for it.
/// `figures plan-counts` prints it beside the measured counts, and
/// `tests/ec2_plan_counts.rs` holds the optimizer to it.
pub const PAPER_PLAN_COUNTS: [([usize; 3], [usize; 3]); 9] = [
    ([1, 3, 1], [2, 2, 2]),
    ([1, 3, 2], [4, 4, 3]),
    ([1, 4, 3], [7, 7, 5]),
    ([1, 5, 1], [2, 2, 2]),
    ([1, 5, 2], [4, 4, 3]),
    ([1, 5, 3], [7, 7, 5]),
    ([1, 5, 4], [13, 13, 8]),
    ([2, 5, 1], [4, 4, 4]),
    ([3, 5, 1], [8, 8, 8]),
];

/// EC2 parameters `[s, c, v]` — stars, corners per star, views per star.
#[derive(Clone, Copy, Debug)]
pub struct Ec2 {
    /// Number of stars `s`.
    pub stars: usize,
    /// Corners per star `c`.
    pub corners: usize,
    /// Views per star `v` (each covering corners `l` and `l+1`).
    pub views: usize,
}

impl Ec2 {
    /// Creates the configuration, validating `v ≤ c − 1`.
    pub fn new(stars: usize, corners: usize, views: usize) -> Ec2 {
        assert!(stars >= 1 && corners >= 1);
        assert!(
            views < corners,
            "views per star must be at most corners - 1"
        );
        Ec2 {
            stars,
            corners,
            views,
        }
    }

    /// Hub relation name `R_i` (1-based).
    pub fn hub(&self, i: usize) -> Symbol {
        sym(&format!("R{i}"))
    }

    /// Corner relation name `S_ij`.
    pub fn corner(&self, i: usize, j: usize) -> Symbol {
        sym(&format!("S{i}_{j}"))
    }

    /// View name `V_il`.
    pub fn view(&self, i: usize, l: usize) -> Symbol {
        sym(&format!("V{i}_{l}"))
    }

    /// The view definition query for `V_il`: hub `R_i` joined with corners
    /// `l` and `l+1`, selecting `K`, `B1`, `B2`.
    pub fn view_def(&self, i: usize, l: usize) -> Query {
        let mut def = Query::new();
        let r = def.bind("r", Range::Name(self.hub(i)));
        let s1 = def.bind("s1", Range::Name(self.corner(i, l)));
        let s2 = def.bind("s2", Range::Name(self.corner(i, l + 1)));
        def.equate(
            PathExpr::from(r).dot(format!("A{l}").as_str()),
            PathExpr::from(s1).dot("A"),
        );
        def.equate(
            PathExpr::from(r).dot(format!("A{}", l + 1).as_str()),
            PathExpr::from(s2).dot("A"),
        );
        def.output("K", PathExpr::from(r).dot("K"));
        def.output("B1", PathExpr::from(s1).dot("B"));
        def.output("B2", PathExpr::from(s2).dot("B"));
        def
    }

    /// Builds the schema: hubs, corners, views, key constraints.
    pub fn schema(&self) -> Schema {
        let mut schema = Schema::new();
        for i in 1..=self.stars {
            let mut attrs = vec![(sym("K"), Type::Int)];
            for j in 1..=self.corners {
                attrs.push((sym(&format!("A{j}")), Type::Int));
            }
            attrs.push((sym("F"), Type::Int));
            schema.add_relation(format!("R{i}"), attrs);
            for j in 1..=self.corners {
                schema.add_relation(
                    format!("S{i}_{j}"),
                    [(sym("A"), Type::Int), (sym("B"), Type::Int)],
                );
            }
        }
        // Key constraints first (semantic), then the view skeletons, so the
        // constraint ordering matches the paper's `s(1 + 2v)` accounting.
        for i in 1..=self.stars {
            schema.add_constraint(key_constraint(self.hub(i), sym("K")));
        }
        for i in 1..=self.stars {
            for l in 1..=self.views {
                let def = self.view_def(i, l);
                add_materialized_view(&mut schema, self.view(i, l), &def);
            }
        }
        schema
    }

    /// The chain-of-stars query (fig. 1): all corner joins plus the hub
    /// chain, returning the `B` attribute of every corner.
    pub fn query(&self) -> Query {
        let mut q = Query::new();
        let mut hubs = Vec::with_capacity(self.stars);
        for i in 1..=self.stars {
            let r = q.bind(&format!("r{i}"), Range::Name(self.hub(i)));
            hubs.push(r);
            for j in 1..=self.corners {
                let s = q.bind(&format!("s{i}_{j}"), Range::Name(self.corner(i, j)));
                q.equate(
                    PathExpr::from(r).dot(format!("A{j}").as_str()),
                    PathExpr::from(s).dot("A"),
                );
                q.output(&format!("B{i}_{j}"), PathExpr::from(s).dot("B"));
            }
        }
        for w in hubs.windows(2) {
            q.equate(PathExpr::from(w[0]).dot("F"), PathExpr::from(w[1]).dot("K"));
        }
        q
    }

    /// Generates the §5.4 dataset and materializes views: `rows` tuples per
    /// relation, hub–corner join selectivity `corner_sel`, hub–hub chain
    /// selectivity `chain_sel` (the paper used 5 000 / 4 % / 2 %).
    pub fn generate(&self, spec: Ec2DataSpec) -> cnb_engine::Database {
        use cnb_engine::datagen::{domain_for_selectivity, gen_table, rng, ColumnGen, ColumnSpec};
        let mut db = cnb_engine::Database::new();
        let mut r = rng(spec.seed);
        let da = domain_for_selectivity(spec.rows, spec.corner_sel);
        let df = domain_for_selectivity(spec.rows, spec.chain_sel);
        for i in 1..=self.stars {
            let mut cols = vec![ColumnSpec::new("K", ColumnGen::Serial)];
            for j in 1..=self.corners {
                cols.push(ColumnSpec::new(&format!("A{j}"), ColumnGen::Uniform(da)));
            }
            cols.push(ColumnSpec::new("F", ColumnGen::Uniform(df)));
            db.load_table(self.hub(i), gen_table(spec.rows, &cols, &mut r));
            for j in 1..=self.corners {
                let cols = [
                    ColumnSpec::new("A", ColumnGen::Uniform(da)),
                    ColumnSpec::new("B", ColumnGen::Uniform(spec.b_values)),
                ];
                db.load_table(self.corner(i, j), gen_table(spec.rows, &cols, &mut r));
            }
        }
        db.materialize_physical(&self.schema())
            .expect("EC2 materialization cannot fail");
        db
    }

    /// Query size `s(c+1)` — the paper's size measure.
    pub fn query_size(&self) -> usize {
        self.stars * (self.corners + 1)
    }

    /// Constraint count `s(1 + 2v)` — the paper's measure.
    pub fn constraint_count(&self) -> usize {
        self.stars * (1 + 2 * self.views)
    }
}

impl Workload for Ec2 {
    fn name(&self) -> &'static str {
        "EC2"
    }

    fn schema(&self) -> Schema {
        Ec2::schema(self)
    }

    fn query(&self) -> Query {
        Ec2::query(self)
    }

    fn generate_at(&self, scale: DataScale) -> cnb_engine::Database {
        // Fat joins (every corner matches, half the chain links do) so the
        // chain-of-stars result is nonempty at smoke sizes.
        self.generate(Ec2DataSpec {
            rows: scale.rows,
            corner_sel: 1.0,
            chain_sel: 0.5,
            seed: scale.seed,
            ..Ec2DataSpec::default()
        })
    }

    fn serving_query(&self, scale: DataScale, pick: u64) -> Query {
        // Point lookup on the first hub's serial key: anchors the whole
        // chain of stars at one hub tuple per request.
        let mut q = self.query();
        let hub1 = q.from[0].var;
        let k = (pick % scale.rows.max(1) as u64) as i64;
        q.equate(PathExpr::from(hub1).dot("K"), PathExpr::from(k));
        q
    }

    fn expectations(&self) -> Expectations {
        Expectations {
            strategy: Strategy::Full,
            // Each star's views can replace its corner pairs independently.
            min_plans: 1 + self.stars * self.views,
            physical_plan: self.views > 0,
            // Chained stars are acyclic; view plans unfold within bound.
            agm: AgmExpectation::Certified,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_and_query_typecheck() {
        let ec2 = Ec2::new(2, 3, 2);
        let schema = ec2.schema();
        let q = ec2.query();
        check_query(&schema, &q).expect("well-typed");
        assert_eq!(q.from.len(), ec2.query_size());
        assert_eq!(schema.all_constraints().len(), ec2.constraint_count());
    }

    #[test]
    fn view_defs_typecheck() {
        let ec2 = Ec2::new(1, 4, 3);
        let schema = ec2.schema();
        for l in 1..=3 {
            check_query(&schema, &ec2.view_def(1, l)).expect("view def well-typed");
        }
        assert_eq!(schema.skeletons().len(), 3);
    }

    #[test]
    fn query_output_counts() {
        let ec2 = Ec2::new(3, 5, 1);
        let q = ec2.query();
        assert_eq!(q.select.len(), 15, "one B per corner");
        // joins: s*c corner joins + (s-1) hub chain.
        assert_eq!(q.where_.len(), 3 * 5 + 2);
    }

    #[test]
    #[should_panic(expected = "at most corners")]
    fn rejects_too_many_views() {
        Ec2::new(1, 3, 3);
    }
}
