//! A variable order must change no tuple: for several synthetic workload
//! seeds, solving under the default context-sensitive order and under a
//! permuted one must yield identical relation tuple sets (compared as
//! content hashes) and identical taint witness paths.
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

/// [`CS_ORDER`] with the context domain moved below the heap domain.
const PERMUTED_CS_ORDER: &str = "Z_N_F_T_M_I_V_H_C";

fn opts(permuted: bool) -> Option<EngineOptions> {
    Some(default_options(if permuted {
        PERMUTED_CS_ORDER
    } else {
        CS_ORDER
    }))
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
