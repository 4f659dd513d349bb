//! Determinism of full analyses under dynamic variable reordering: for
//! several synthetic workload seeds, solving with sifting on and off must
//! yield identical relation tuple sets (compared as content hashes) and
//! identical taint witness paths, although sifting moves the manager to
//! a different variable order mid-solve.
//!
//! This holds by construction — reordering rewrites nodes in place and
//! BDDs are canonical under any order, so the fixpoint is unchanged — and
//! these tests pin it.

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

fn opts(reorder: bool) -> Option<EngineOptions> {
    Some(EngineOptions {
        reorder,
        ..default_options(CS_ORDER)
    })
}

#[test]
fn cs_solve_is_identical_with_and_without_reordering() {
    for seed in [0x5eed, 0xbeef, 0x0dd] {
        let config = SynthConfig::tiny("det", seed);
        let program = synth::generate(&config);
        let facts = Facts::extract(&program);
        let cg = CallGraph::from_cha(&facts).unwrap();
        let numbering = number_contexts(&cg);
        let plain = context_sensitive(&facts, &cg, &numbering, opts(false)).unwrap();
        let sifted = context_sensitive(&facts, &cg, &numbering, opts(true)).unwrap();
        assert_eq!(
            result_hash(&plain.engine),
            result_hash(&sifted.engine),
            "seed {seed:#x}: reordering changed the results"
        );
    }
}

/// Sifting itself is deterministic: two reordering solves of the same
/// program settle on the same variable order and the same results.
#[test]
fn cs_solve_with_reordering_repeats_exactly() {
    let config = SynthConfig::tiny("det-reorder", 0x5eed);
    let program = synth::generate(&config);
    let facts = Facts::extract(&program);
    let cg = CallGraph::from_cha(&facts).unwrap();
    let numbering = number_contexts(&cg);
    let first = context_sensitive(&facts, &cg, &numbering, opts(true)).unwrap();
    let second = context_sensitive(&facts, &cg, &numbering, opts(true)).unwrap();
    assert!(first.stats.reorder_runs > 0, "sifting never fired");
    assert_eq!(first.engine.current_order(), second.engine.current_order());
    assert_eq!(first.stats.reorder_runs, second.stats.reorder_runs);
    assert_eq!(result_hash(&first.engine), result_hash(&second.engine));
}

#[test]
fn taint_witness_paths_are_identical_with_and_without_reordering() {
    for seed in [0x5eed, 0xbeef, 0x0dd] {
        let mut config = SynthConfig::tiny("det-taint", seed);
        config.taint = 2;
        let program = synth::generate(&config);
        let facts = Facts::extract(&program);
        let cg = CallGraph::from_cha(&facts).unwrap();
        let numbering = number_contexts(&cg);
        let spec = TaintSpec::parse(&synth::injected_taint_spec(&config)).unwrap();
        let render = |reorder: bool| {
            let r = taint_analysis(&facts, &cg, &numbering, &spec, opts(reorder)).unwrap();
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
        assert_eq!(render(true), want, "seed {seed:#x} reordering");
    }
}
