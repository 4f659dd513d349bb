//! Queries against full analyses: for several synthetic workload seeds,
//! `Engine::solve_query` on the paper's context-sensitive points-to
//! relation and on the taint engine's relations must return exactly what
//! a full solve plus `relation_select` returns — under the default and a
//! permuted variable order. The points-to queries are asked of a loaded but unsolved
//! engine, so the query's own catch-up solve produces the answer.

use whale::core::prepare_context_sensitive;
use whale::ir::synth::{self, SynthConfig};
use whale::prelude::*;

/// `order` with its last two groups swapped: never `order` itself.
fn swap_last_two(order: &str) -> String {
    let mut g: Vec<&str> = order.split('_').collect();
    let n = g.len();
    g.swap(n - 2, n - 1);
    g.join("_")
}

/// [`CS_ORDER`], or, if `permuted`, another order.
fn opts(permuted: bool) -> Option<EngineOptions> {
    let order = if permuted {
        swap_last_two(CS_ORDER)
    } else {
        CS_ORDER.to_string()
    };
    Some(default_options(&order))
}

#[test]
fn cs_points_to_query_matches_full_solve() {
    for seed in [0x5eed_u64, 0xbeef, 0x0dd] {
        let config = SynthConfig::tiny("query", seed);
        let program = synth::generate(&config);
        let facts = Facts::extract(&program);
        let cg = CallGraph::from_cha(&facts).unwrap();
        let numbering = number_contexts(&cg);

        // Ground truth from one full solve (full results are
        // config-independent; tests/order_determinism.rs pins that).
        let full = context_sensitive(&facts, &cg, &numbering, opts(false)).unwrap();
        let mut all = full.engine.relation_tuples("vPC").unwrap();
        all.sort_unstable();
        assert!(!all.is_empty(), "seed {seed:#x}: empty vPC");
        // The paper's demand shape: one variable's points-to set across
        // all contexts — vPC(c, v, h) with v bound, c and h free.
        let v = all[0][1];
        let mut expect = full.engine.relation_select("vPC", &[(1, v)]).unwrap();
        expect.sort_unstable();
        assert!(!expect.is_empty());

        for permuted in [false, true] {
            let mut cold =
                prepare_context_sensitive(&facts, &cg, &numbering, opts(permuted)).unwrap();
            let q = cold.solve_query(&format!("vPC(c, {v}, h)")).unwrap();
            assert_eq!(q.tuples, expect, "seed {seed:#x} permuted={permuted}");
        }
    }
}

#[test]
fn taint_query_matches_full_solve() {
    for seed in [0x5eed_u64, 0xbeef, 0x0dd] {
        let mut config = SynthConfig::tiny("query-taint", seed);
        config.taint = 2;
        let program = synth::generate(&config);
        let facts = Facts::extract(&program);
        let cg = CallGraph::from_cha(&facts).unwrap();
        let numbering = number_contexts(&cg);
        let spec = TaintSpec::parse(&synth::injected_taint_spec(&config)).unwrap();

        let full = taint_analysis(&facts, &cg, &numbering, &spec, opts(false)).unwrap();
        let mut all = full.analysis.engine.relation_tuples("taintedV").unwrap();
        all.sort_unstable();
        assert!(!all.is_empty(), "seed {seed:#x}: nothing tainted");
        let v = all[0][1];
        let mut expect = full
            .analysis
            .engine
            .relation_select("taintedV", &[(1, v)])
            .unwrap();
        expect.sort_unstable();

        for permuted in [false, true] {
            let mut a = taint_analysis(&facts, &cg, &numbering, &spec, opts(permuted)).unwrap();
            let q = a
                .analysis
                .engine
                .solve_query(&format!("taintedV(c, {v})"))
                .unwrap();
            assert_eq!(q.tuples, expect, "seed {seed:#x} permuted={permuted}");
        }
    }
}
