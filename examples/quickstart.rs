//! Quickstart: declare a schema with an index, write a query, run the
//! Chase & Backchase optimizer, execute the best plan.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use chase_too_far::core::prelude::*;
use chase_too_far::engine::{execute, Database};
use chase_too_far::ir::prelude::*;

fn main() {
    // 1. Logical schema: one relation Emp(Id, Dept, Salary).
    let mut schema = Schema::new();
    schema.add_relation(
        "Emp",
        [
            (sym("Id"), Type::Int),
            (sym("Dept"), Type::Int),
            (sym("Salary"), Type::Int),
        ],
    );
    // 2. Physical schema: a primary index on Id, described to the optimizer
    //    purely as a pair of inclusion constraints (a "skeleton").
    add_primary_index(&mut schema, sym("Emp"), sym("Id"), "EmpById");

    // 3. The query: select struct(Id, Salary) from Emp e where e.Dept = 7.
    let mut q = Query::new();
    let e = q.bind("e", Range::Name(sym("Emp")));
    q.equate(PathExpr::from(e).dot("Dept"), PathExpr::from(7i64));
    q.output("Id", PathExpr::from(e).dot("Id"));
    q.output("Salary", PathExpr::from(e).dot("Salary"));
    println!("query:\n{q}\n");

    // 4. Optimize: chase to the universal plan, backchase to minimal plans.
    let optimizer = Optimizer::new(schema.clone());
    let result = optimizer.optimize(&q, &OptimizerConfig::with_strategy(Strategy::Full));
    // Timing goes to stderr: stdout is fully deterministic
    // (`scripts/check.sh` runs this example in two processes and diffs
    // their stdout).
    println!(
        "{} plans (universal plan had {} bindings, {} subqueries explored)",
        result.plans.len(),
        result.universal_arity,
        result.explored
    );
    eprintln!("optimized in {:?}", result.total_time);
    for (i, p) in result.plans.iter().enumerate() {
        println!(
            "\nplan {} (physical structures: {:?}):\n{}",
            i + 1,
            p.physical_used,
            p.query
        );
    }

    // 5. Execute the best plan on some data.
    let mut db = Database::new();
    for (id, dept, salary) in [(1, 7, 120), (2, 7, 95), (3, 4, 150)] {
        db.insert_row(
            sym("Emp"),
            Value::record([
                (sym("Id"), Value::Int(id)),
                (sym("Dept"), Value::Int(dept)),
                (sym("Salary"), Value::Int(salary)),
            ]),
        );
    }
    db.materialize_physical(&schema).expect("materialization");
    let best = &result.plans[0].query;
    let out = execute(&db, best).expect("execution");
    println!("\nbest plan result ({} rows):", out.rows.len());
    for row in &out.rows {
        println!("  {row}");
    }
    // Row order is exact, not just the row *set*: the engine's batched
    // executor guarantees output order is a pure function of (db, plan) —
    // here the EmpById dom-scan enumerates keys in Emp insertion order.
    let rendered: Vec<String> = out.rows.iter().map(|r| r.to_string()).collect();
    assert_eq!(
        rendered,
        [
            "struct(Id: 1, Salary: 120)".to_string(),
            "struct(Id: 2, Salary: 95)".to_string(),
        ],
        "deterministic row order"
    );
}
