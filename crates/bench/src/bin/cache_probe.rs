//! Profiling probe for the op caches.
//!
//! Runs the context-sensitive scaling workload at one layer depth under
//! the same fixed kernel-cache sizing — with the relation-level memo cache
//! enabled (record `layers{N}_memo`) and disabled (`layers{N}_nomemo`),
//! both under [`FLOOR_ORDER`], and under Algorithm 5's default
//! configuration and order (`layers{N}_cs_order`) — and emits one JSON
//! line per configuration with the solve time, the per-solve cache
//! counters and the current cache footprint. The paired records are the
//! evidence for DESIGN.md §5g and EXPERIMENTS.md.
//!
//! ```console
//! cache_probe [LAYERS] [--check-floor RATE]
//! ```
//!
//! `--check-floor RATE` exits nonzero when the `memo` record's appex hit
//! rate falls below `RATE` — the CI regression gate for the committed
//! hit-rate floor.

use std::process::ExitCode;
use std::time::Instant;
use whale_bench::sweep_config;
use whale_core::{context_sensitive, default_options, number_contexts, CallGraph, CS_ORDER};
use whale_datalog::EngineOptions;
use whale_ir::Facts;

/// The order the hit-rate floor was measured under. The gated pair stays
/// on it: a better order removes repeated subproblems along with the
/// misses, so it lowers the hit rate of caches that are no less healthy
/// (at layers 9, [`CS_ORDER`] cuts appex misses by 41% and its hit rate
/// from 0.097 to 0.057).
const FLOOR_ORDER: &str = "Z_N_F_T_M_I_V_C_H";

fn main() -> ExitCode {
    let mut layers: usize = 9;
    let mut floor: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check-floor" => {
                let v = args.next().expect("--check-floor needs a rate");
                floor = Some(v.parse().expect("floor must be a number"));
            }
            other => layers = other.parse().expect("layers must be an integer"),
        }
    }

    let config = sweep_config(layers);
    let program = whale_ir::synth::generate(&config);
    let facts = Facts::extract(&program);
    let cg = CallGraph::from_cha(&facts).unwrap();
    let numbering = number_contexts(&cg);

    let mut gated_rate = 1.0f64;
    for (label, order, enabled) in [
        ("memo", FLOOR_ORDER, true),
        ("nomemo", FLOOR_ORDER, false),
        ("cs_order", CS_ORDER, true),
    ] {
        let opts = EngineOptions {
            rel_cache: enabled,
            ..default_options(order)
        };
        let t = Instant::now();
        let a = context_sensitive(&facts, &cg, &numbering, Some(opts)).unwrap();
        let secs = t.elapsed().as_secs_f64();
        let st = &a.stats;
        let bs = a.engine.manager().stats();
        let cache = |c: &whale_bdd::CacheStats| {
            format!(
                "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_rate\":{:.4}}}",
                c.hits,
                c.misses,
                c.evictions,
                c.hit_rate()
            )
        };
        println!(
            "{{\"bench\":\"cache_probe/layers{layers}_{label}\",\"solve_secs\":{secs:.4},\
             \"cache_bytes\":{},\"apply\":{},\"ite\":{},\"appex\":{},\"replace\":{},\"rel\":{}}}",
            bs.cache_bytes,
            cache(&st.apply_cache),
            cache(&st.ite_cache),
            cache(&st.appex_cache),
            cache(&st.replace_cache),
            cache(&st.rel_cache),
        );
        if label == "memo" {
            gated_rate = st.appex_cache.hit_rate();
        }
    }

    if let Some(f) = floor {
        if gated_rate < f {
            eprintln!("cache_probe: appex hit rate {gated_rate:.4} below committed floor {f:.4}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
