//! Example 2.2 from the paper: a key constraint enables rewriting with a
//! second materialized view.
//!
//! The query joins two normalized "conceptual relations" U1 and U2. View V2
//! can always replace the star of R2; but replacing *both* stars (query Q'')
//! is only correct if `K` is a key of `R1` — without it, joining `R1` back
//! to `V1` on `K` may pick up a different row's `F`.
//!
//! ```sh
//! cargo run --example views_with_keys
//! ```

use chase_too_far::core::prelude::*;
use chase_too_far::workloads::Example22;

fn plans_using(result: &OptimizeResult, v1: bool, v2: bool) -> usize {
    result
        .plans
        .iter()
        .filter(|p| {
            let names: Vec<&str> = p.physical_used.iter().map(|s| s.as_str()).collect();
            names.contains(&"V1") == v1 && names.contains(&"V2") == v2
        })
        .count()
}

fn main() {
    for with_key in [false, true] {
        let ex = Example22::new(with_key);
        let optimizer = Optimizer::new(ex.schema.clone());
        let result = optimizer.optimize(&ex.query, &OptimizerConfig::with_strategy(Strategy::Full));
        println!(
            "\n=== KEY(R1.K) declared: {with_key} -> {} plans ===",
            result.plans.len()
        );
        for p in &result.plans {
            let used: Vec<&str> = p.physical_used.iter().map(|s| s.as_str()).collect();
            println!("  plan with views {used:?} ({} bindings)", p.query.arity());
        }
        let both = plans_using(&result, true, true);
        let only_v2 = plans_using(&result, false, true);
        assert!(only_v2 >= 1, "Q' (V2 replaces star 2) is always available");
        if with_key {
            assert!(both >= 1, "Q'' requires the key constraint");
            println!("  => Q'' (both views) found — the key constraint made it sound.");
        } else {
            assert_eq!(both, 0, "Q'' must not appear without the key");
            println!("  => Q'' correctly absent without the key constraint.");
        }
    }
    // Show Q'' itself.
    let ex = Example22::new(true);
    let optimizer = Optimizer::new(ex.schema.clone());
    let result = optimizer.optimize(&ex.query, &OptimizerConfig::with_strategy(Strategy::Full));
    let qpp = result
        .plans
        .iter()
        .find(|p| p.physical_used.len() == 2)
        .expect("double-view plan");
    println!(
        "\nQ'' (paper's rewriting, sound only under KEY(R1.K)):\n{}",
        qpp.query
    );
}
