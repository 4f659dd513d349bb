//! A variable order must change no tuple: for several synthetic workload
//! seeds, solving under the default context-sensitive order and under a
//! permuted one must yield identical relation tuple sets (compared as
//! content hashes) and identical taint witness paths, and Algorithms 5, 6
//! and 7 must derive the same tuples under their own orders as under the
//! one order they used to share.
//!
//! This holds by construction — the order changes only the shape of each
//! BDD, not the function it denotes — and these tests pin it.

use whale::ir::synth::{self, SynthConfig};
use whale::prelude::*;

/// FNV-1a over every relation's sorted tuples.
fn result_hash(engine: &Engine) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    let names: Vec<String> = engine
        .program()
        .relations()
        .iter()
        .map(|r| r.name.clone())
        .collect();
    for name in names {
        let mut tuples = engine.relation_tuples(&name).unwrap();
        tuples.sort();
        eat(tuples.len() as u64);
        for t in tuples {
            for v in t {
                eat(v);
            }
        }
    }
    h
}

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
fn cs_solve_is_identical_under_two_orders() {
    for seed in [0x5eed, 0xbeef, 0x0dd] {
        let config = SynthConfig::tiny("det", seed);
        let program = synth::generate(&config);
        let facts = Facts::extract(&program);
        let cg = CallGraph::from_cha(&facts).unwrap();
        let numbering = number_contexts(&cg);
        let plain = context_sensitive(&facts, &cg, &numbering, opts(false)).unwrap();
        let permuted = context_sensitive(&facts, &cg, &numbering, opts(true)).unwrap();
        assert_eq!(
            result_hash(&plain.engine),
            result_hash(&permuted.engine),
            "seed {seed:#x}: the variable order changed the results"
        );
        assert_eq!(plain.stats.rounds, permuted.stats.rounds);
        assert_eq!(
            plain.stats.rule_applications,
            permuted.stats.rule_applications
        );
    }
}

/// A solve under a permuted order is deterministic: two solves of the
/// same program build the same BDDs and give the same results.
#[test]
fn cs_solve_under_a_permuted_order_repeats_exactly() {
    let config = SynthConfig::tiny("det-order", 0x5eed);
    let program = synth::generate(&config);
    let facts = Facts::extract(&program);
    let cg = CallGraph::from_cha(&facts).unwrap();
    let numbering = number_contexts(&cg);
    let first = context_sensitive(&facts, &cg, &numbering, opts(true)).unwrap();
    let second = context_sensitive(&facts, &cg, &numbering, opts(true)).unwrap();
    assert_eq!(result_hash(&first.engine), result_hash(&second.engine));
    assert_eq!(
        first.engine.fact_stream_hash(),
        second.engine.fact_stream_hash()
    );
    assert_eq!(
        first.stats.peak_reachable_nodes,
        second.stats.peak_reachable_nodes
    );
}

#[test]
fn taint_witness_paths_are_identical_under_two_orders() {
    for seed in [0x5eed, 0xbeef, 0x0dd] {
        let mut config = SynthConfig::tiny("det-taint", seed);
        config.taint = 2;
        let program = synth::generate(&config);
        let facts = Facts::extract(&program);
        let cg = CallGraph::from_cha(&facts).unwrap();
        let numbering = number_contexts(&cg);
        let spec = TaintSpec::parse(&synth::injected_taint_spec(&config)).unwrap();
        let render = |permuted: bool| {
            let r = taint_analysis(&facts, &cg, &numbering, &spec, opts(permuted)).unwrap();
            let mut lines: Vec<String> = r
                .findings
                .iter()
                .map(|f| {
                    let steps: Vec<String> = f
                        .witness
                        .iter()
                        .map(|s| format!("{:?}:{}@{}", s.kind, s.var_name, s.context))
                        .collect();
                    format!(
                        "{}/{}/{}/{}: {}",
                        f.sink_method,
                        f.in_method,
                        f.invoke,
                        f.context,
                        steps.join(" -> ")
                    )
                })
                .collect();
            lines.sort();
            lines
        };
        let want = render(false);
        assert!(!want.is_empty(), "seed {seed:#x}: no findings to compare");
        assert_eq!(render(true), want, "seed {seed:#x} permuted order");
    }
}

/// The order Algorithms 5, 6 and 7 all used before each got its own.
const SHARED_CS_ORDER: &str = "Z_N_F_T_M_I_V_C_H";

/// Algorithms 5, 6 and 7 derive the same tuples, in the same rounds and
/// rule applications, under their own default orders as under the order
/// they used to share.
#[test]
fn analyses_are_identical_under_their_orders_and_the_shared_one() {
    assert_ne!(swap_last_two(CS_ORDER), CS_ORDER);
    for (name, order) in [
        ("alg5", CS_ORDER),
        ("alg6", CS_TYPE_ORDER),
        ("alg7", THREAD_ORDER),
    ] {
        assert_ne!(order, SHARED_CS_ORDER, "{name}: nothing to compare");
    }
    for seed in [0x5eed, 0xbeef, 0x0dd] {
        let config = SynthConfig::tiny("det-analyses", seed);
        let program = synth::generate(&config);
        let facts = Facts::extract(&program);
        let cg = CallGraph::from_cha(&facts).unwrap();
        let numbering = number_contexts(&cg);
        let shared = || Some(default_options(SHARED_CS_ORDER));
        let runs = [
            (
                "alg5",
                context_sensitive(&facts, &cg, &numbering, None).map(|a| (a.engine, a.stats)),
                context_sensitive(&facts, &cg, &numbering, shared()).map(|a| (a.engine, a.stats)),
            ),
            (
                "alg6",
                cs_type_analysis(&facts, &cg, &numbering, None).map(|a| (a.engine, a.stats)),
                cs_type_analysis(&facts, &cg, &numbering, shared()).map(|a| (a.engine, a.stats)),
            ),
            (
                "alg7",
                thread_escape(&facts, &cg, None).map(|a| (a.engine, a.stats)),
                thread_escape(&facts, &cg, shared()).map(|a| (a.engine, a.stats)),
            ),
        ];
        for (name, own, old) in runs {
            let ((own, own_stats), (old, old_stats)) = (own.unwrap(), old.unwrap());
            assert_eq!(
                result_hash(&own),
                result_hash(&old),
                "{name} seed {seed:#x}: the variable order changed the results"
            );
            assert_eq!(own_stats.rounds, old_stats.rounds, "{name} seed {seed:#x}");
            assert_eq!(
                own_stats.rule_applications, old_stats.rule_applications,
                "{name} seed {seed:#x}"
            );
        }
    }
}
