//! Profiling probe for the spec-driven taint engine.
//!
//! Generates a synthetic workload with `taint` injected source→sink
//! chains (each with a sanitized twin), runs `taint_analysis` against
//! the matching generated spec and emits one JSON line with the seeded
//! and reported counts, the witness-path lengths, the solve time, and
//! the solver's effort counters. Defaults to the tiny config so the CI
//! smoke run stays fast; pass a Figure 3 benchmark name and a scale
//! denominator for real workloads: `taint_probe nfcchat 16 4`.

use std::time::Instant;
use whale_bench::config_or_exit;
use whale_core::{number_contexts, taint_analysis, CallGraph};
use whale_ir::synth;
use whale_ir::{Facts, TaintSpec};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("tiny");
    let den: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);
    let taint: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(3);
    let mut config = config_or_exit(name, 1, den);
    config.taint = taint;

    let program = synth::generate(&config);
    let facts = Facts::extract(&program);
    let cg = CallGraph::from_cha(&facts).unwrap();
    let numbering = number_contexts(&cg);
    let spec = TaintSpec::parse(&synth::injected_taint_spec(&config)).unwrap();
    let t = Instant::now();
    let result = taint_analysis(&facts, &cg, &numbering, &spec, None).unwrap();
    let secs = t.elapsed().as_secs_f64();
    let witness_steps: usize = result.findings.iter().map(|f| f.witness.len()).sum();
    let stats = &result.analysis.stats;
    println!(
        "{{\"bench\":\"taint/{name}\",\"seeded\":{taint},\"findings\":{},\"witness_steps\":{},\
         \"solve_secs\":{secs:.4},\"rounds\":{},\"rule_applications\":{},\"peak_live_nodes\":{}}}",
        result.findings.len(),
        witness_steps,
        stats.rounds,
        stats.rule_applications,
        stats.peak_live_nodes,
    );
}
