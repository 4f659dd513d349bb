//! Profiling probe for dynamic variable reordering.
//!
//! Emits two JSON lines:
//!
//! 1. `reorder/kernel` — a pairing function `∧ (x_i ↔ x_{n+i})` built under
//!    the deliberately bad split ordering (exponential), then sifted:
//!    before/after node counts, swap count and sift time. This is the
//!    direct measurement behind the acceptance claim that sifting rescues
//!    a bad ordering.
//! 2. `reorder/<bench>` — the context-insensitive analysis solved with
//!    between-rounds reordering enabled: solve time, reorder passes, time
//!    spent sifting and the net node delta.
//!
//! Defaults to the tiny config so the CI smoke run stays fast; pass a
//! Figure 3 benchmark name and a scale denominator for real workloads:
//! `reorder_probe nfcchat 8`.

use std::time::Instant;
use whale_bdd::BddManager;
use whale_bench::config_or_exit;
use whale_core::{context_insensitive, CallGraphMode, CI_ORDER};
use whale_datalog::EngineOptions;
use whale_ir::synth;
use whale_ir::Facts;

fn kernel_probe() {
    let n = 10u32;
    let m = BddManager::with_vars(2 * n);
    let mut f = m.one();
    for i in 0..n {
        let eq = m.ithvar(i).xor(&m.ithvar(n + i)).not();
        f = f.and(&eq);
    }
    m.gc();
    let t = Instant::now();
    let stats = m.reorder_sift();
    let secs = t.elapsed().as_secs_f64();
    println!(
        "{{\"bench\":\"reorder/kernel\",\"vars\":{},\"nodes_before\":{},\"nodes_after\":{},\
         \"swaps\":{},\"sift_secs\":{secs:.4}}}",
        2 * n,
        stats.nodes_before,
        stats.nodes_after,
        stats.swaps,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("tiny");
    let den: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);
    let config = config_or_exit(name, 1, den);

    kernel_probe();

    let program = synth::generate(&config);
    let facts = Facts::extract(&program);
    let t = Instant::now();
    let analysis = context_insensitive(
        &facts,
        true,
        CallGraphMode::Cha,
        Some(EngineOptions {
            order: Some(CI_ORDER.into()),
            reorder: true,
            ..EngineOptions::default()
        }),
    )
    .unwrap();
    let secs = t.elapsed().as_secs_f64();
    let stats = &analysis.stats;
    println!(
        "{{\"bench\":\"reorder/{name}\",\"solve_secs\":{secs:.4},\"rounds\":{},\
         \"peak_live_nodes\":{},\"reorder_runs\":{},\"reorder_secs\":{:.4},\
         \"reorder_delta_nodes\":{}}}",
        stats.rounds,
        stats.peak_live_nodes,
        stats.reorder_runs,
        stats.reorder_time.as_secs_f64(),
        stats.reorder_delta_nodes,
    );
}
