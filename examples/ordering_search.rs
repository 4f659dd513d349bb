//! Section 2.4.2: BDD performance "depends greatly on the ordering of the
//! variables", and finding the best ordering is NP-complete, so `bddbddb`
//! "automatically explores different alternatives empirically". This
//! example runs that search on a small synthetic benchmark and reports
//! what it found.
//!
//! Run with: `cargo run --release --example ordering_search`

use whale::core::order_search::search_ci_order;
use whale::ir::{synth, Facts};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A down-scaled benchmark: orderings found on small inputs transfer to
    // larger inputs of the same shape, which is how the paper's search was
    // used in practice.
    let config = synth::benchmarks()[0].scaled(1, 16);
    let program = synth::generate(&config);
    let facts = Facts::extract(&program);
    println!(
        "searching variable orderings on {} ({} methods, {} vars)",
        config.name,
        program.methods.len(),
        facts.sizes.v
    );

    let result = search_ci_order(&facts, 12)?;
    println!("\nevaluations (peak reachable BDD nodes, lower is better):");
    for cand in &result.evaluated {
        let marker = if cand.order == result.best.order {
            "  <-- best"
        } else {
            ""
        };
        println!(
            "  {:<24} {:>9} nodes  {:>8.1?}{marker}",
            cand.order, cand.peak_nodes, cand.elapsed
        );
    }
    println!(
        "\nbest ordering: {} ({} peak nodes over {} candidates)",
        result.best.order,
        result.best.peak_nodes,
        result.evaluated.len()
    );
    assert!(result
        .evaluated
        .iter()
        .all(|c| c.peak_nodes >= result.best.peak_nodes));
    Ok(())
}
