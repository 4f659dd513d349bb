//! Section 6.2's scaling claim: context-sensitive analysis time grows
//! roughly with `lg² n` in the number of reduced call paths. This sweep
//! holds program size fixed and multiplies paths by deepening the call
//! graph. JSON-lines output.
//!
//! Each layer depth is solved twice — with the fused `replace_relprod`
//! kernel (the default) and with renames evaluated as a separate pass
//! (`fuse_renames: false`) — so the trajectory files record the
//! before/after delta of kernel fusion end to end.

use whale_core::{context_sensitive, number_contexts, CallGraph, CS_ORDER};
use whale_datalog::EngineOptions;
use whale_ir::synth::SynthConfig;
use whale_ir::Facts;
use whale_testkit::Bench;

fn main() {
    let bench = Bench::from_env(1, 10);
    for layers in [6usize, 9, 12, 15] {
        let config = SynthConfig {
            name: format!("sweep{layers}"),
            seed: 0xdead,
            layers,
            width: 24,
            fan_in: 3,
            classes: 18,
            dispatch_fanout: 2,
            virtual_pct: 50,
            recursion_pct: 10,
            allocs_per_method: 2,
            field_ops_per_method: 2,
            threads: 0,
            shared_pct: 0,
            parallel_sites: 1,
            races: 0,
            taint: 0,
        };
        let program = whale_ir::synth::generate(&config);
        let facts = Facts::extract(&program);
        let cg = CallGraph::from_cha(&facts).unwrap();
        let numbering = number_contexts(&cg);
        let paths = numbering.total_paths();
        bench.bench(
            &format!("scaling_paths/layers{layers}_paths{paths}"),
            || context_sensitive(&facts, &cg, &numbering, None).unwrap(),
        );
        let unfused = EngineOptions {
            seminaive: true,
            order: Some(CS_ORDER.into()),
            fuse_renames: false,
            reorder: false,
            ..EngineOptions::default()
        };
        bench.bench(
            &format!("scaling_paths/layers{layers}_paths{paths}_unfused"),
            || context_sensitive(&facts, &cg, &numbering, Some(unfused.clone())).unwrap(),
        );
        // Op-cache counters of one fused solve, as a JSON line alongside
        // the timings — once with the relation-level memo (the default)
        // and once without it, both under the same fixed kernel-cache
        // sizing, so the trajectory files record the memo's delta per
        // layer depth.
        let cache = |c: whale_bdd::CacheStats| {
            format!(
                "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_rate\":{:.4}}}",
                c.hits,
                c.misses,
                c.evictions,
                c.hit_rate()
            )
        };
        for (tag, memo) in [("cache_stats", true), ("cache_stats_nomemo", false)] {
            let opts = EngineOptions {
                seminaive: true,
                order: Some(CS_ORDER.into()),
                rel_cache: memo,
                ..EngineOptions::default()
            };
            let analysis = context_sensitive(&facts, &cg, &numbering, Some(opts)).unwrap();
            let s = analysis.engine.manager().stats();
            println!(
                "{{\"bench\":\"scaling_paths/layers{layers}_{tag}\",\"cache_bytes\":{},\"apply\":{},\"ite\":{},\"appex\":{},\"replace\":{},\"client\":{}}}",
                s.cache_bytes,
                cache(s.apply_cache),
                cache(s.ite_cache),
                cache(s.appex_cache),
                cache(s.replace_cache),
                cache(s.client_cache),
            );
        }
    }
}
