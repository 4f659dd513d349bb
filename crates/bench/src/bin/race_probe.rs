//! Profiling probe for the static race detector.
//!
//! Generates a synthetic workload with `races` injected victim/twin
//! pairs, runs `detect_races` and emits one JSON line with the seeded
//! and reported counts, the solve time, and the solver's effort
//! counters. Defaults to the tiny config so the CI smoke run stays
//! fast; pass a Figure 3 benchmark name and a scale denominator for
//! real workloads: `race_probe nfcchat 16 4`.

use std::time::Instant;
use whale_bench::config_or_exit;
use whale_core::{detect_races, CallGraph};
use whale_ir::synth;
use whale_ir::Facts;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("tiny");
    let den: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);
    let races: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(3);
    let mut config = config_or_exit(name, 1, den);
    config.races = races;

    let program = synth::generate(&config);
    let facts = Facts::extract(&program);
    let cg = CallGraph::from_cha(&facts).unwrap();
    let t = Instant::now();
    let analysis = detect_races(&facts, &cg, None).unwrap();
    let secs = t.elapsed().as_secs_f64();
    let stats = &analysis.escape.stats;
    println!(
        "{{\"bench\":\"race/{name}\",\"seeded\":{races},\"pairs\":{},\"raw_tuples\":{},\
         \"solve_secs\":{secs:.4},\"rounds\":{},\"rule_applications\":{},\"peak_live_nodes\":{}}}",
        analysis.report.pairs.len(),
        analysis.report.raw_tuples,
        stats.rounds,
        stats.rule_applications,
        stats.peak_live_nodes,
    );
}
