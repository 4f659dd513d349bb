//! Section 2.4.2: BDD performance "depends greatly on the ordering of the
//! variables", and finding the best ordering is NP-complete, so `bddbddb`
//! "automatically explores different alternatives empirically". This
//! example runs that search for one analysis on a down-scaled synthetic
//! benchmark and reports every candidate it evaluated.
//!
//! Run with:
//!
//! ```console
//! cargo run --release --example ordering_search -- [ANALYSIS] [NAME] [DEN] [BUDGET]
//! ```
//!
//! `ANALYSIS` is `ci` (Algorithm 2, from `CI_ORDER`), `cs` (Algorithm 5),
//! `cs-type` (Algorithm 6) or `thread` (Algorithm 7); the last three start
//! from [`SHARED_CS_ORDER`]. Defaults: `cs freetts 16 40`. The search is
//! deterministic, so `cs`, `cs-type` and `thread` on `freetts 16` end on
//! the committed `CS_ORDER`, `CS_TYPE_ORDER` and `THREAD_ORDER`.

use whale::core::order_search::search_order;
use whale::ir::{synth, Facts};
use whale::prelude::*;

/// The one order Algorithms 5, 6 and 7 shared before each got its own:
/// where their searches start.
const SHARED_CS_ORDER: &str = "Z_N_F_T_M_I_V_C_H";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize, default: &str| args.get(i).cloned().unwrap_or(default.to_string());
    let analysis = arg(0, "cs");
    let name = arg(1, "freetts");
    let den: usize = arg(2, "16").parse()?;
    let budget: usize = arg(3, "40").parse()?;

    // Orders found on small inputs transfer to larger inputs of the same
    // shape, which is how the paper's search was used in practice.
    let config = synth::benchmarks()
        .into_iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown benchmark `{name}`"))?
        .scaled(1, den);
    let program = synth::generate(&config);
    let facts = Facts::extract(&program);
    let cg = CallGraph::from_cha(&facts)?;
    let numbering = number_contexts(&cg);
    let (start, committed) = match analysis.as_str() {
        "ci" => (CI_ORDER, CI_ORDER),
        "cs" => (SHARED_CS_ORDER, CS_ORDER),
        "cs-type" => (SHARED_CS_ORDER, CS_TYPE_ORDER),
        "thread" => (SHARED_CS_ORDER, THREAD_ORDER),
        other => return Err(format!("unknown analysis `{other}`").into()),
    };
    println!(
        "searching `{analysis}` orders on {name} 1/{den} ({} methods, {} vars), budget {budget}",
        program.methods.len(),
        facts.sizes.v
    );

    let result = search_order(start, budget, |order| {
        let options = Some(default_options(order));
        Ok(match analysis.as_str() {
            "ci" => context_insensitive(&facts, true, CallGraphMode::Cha, options)?.stats,
            "cs" => context_sensitive(&facts, &cg, &numbering, options)?.stats,
            "cs-type" => cs_type_analysis(&facts, &cg, &numbering, options)?.stats,
            _ => thread_escape(&facts, &cg, options)?.stats,
        })
    })?;
    println!(
        "\n  {:<24} {:>12} {:>12} {:>10}",
        "order", "misses", "peak nodes", "time"
    );
    for cand in &result.evaluated {
        let marker = if cand.order == result.best.order {
            "  <-- best"
        } else {
            ""
        };
        println!(
            "  {:<24} {:>12} {:>12} {:>10.1?}{marker}",
            cand.order, cand.misses, cand.peak_nodes, cand.elapsed
        );
    }
    println!(
        "\nbest ordering: {} ({} kernel cache misses, {} peak reachable nodes, {} candidates)",
        result.best.order,
        result.best.misses,
        result.best.peak_nodes,
        result.evaluated.len()
    );
    println!(
        "committed default: {committed}{}",
        if committed == result.best.order {
            " (the same)"
        } else {
            ""
        }
    );
    Ok(())
}
