//! Profiling probe for demand-driven queries (magic sets).
//!
//! Generates a synthetic workload, runs the full context-sensitive
//! points-to solve, then answers the paper's single-variable demand shape
//! `vPC(c, V, h)` (one variable's points-to set across all contexts)
//! through `Engine::solve_query`, and emits one JSON line comparing the
//! two: solve times, rule applications, magic/pruned rule counts and the
//! answer size. Asserts the two agree tuple-for-tuple, that the query
//! evaluates strictly fewer rule applications than the full solve, that
//! the answer is byte-identical across a repeat run — so the CI smoke run
//! doubles as a determinism check — and that the host engine's `vPC` is
//! the same after both queries as before them (the query solves run on
//! the host's manager and evaluator). Pass a
//! Figure 3 benchmark name and a scale denominator for real workloads:
//! `query_probe nfcchat 16`.

use std::time::Instant;
use whale_bench::config_or_exit;
use whale_core::{context_sensitive, number_contexts, CallGraph};
use whale_ir::synth;
use whale_ir::Facts;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("tiny");
    let den: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);
    let config = config_or_exit(name, 1, den);

    let program = synth::generate(&config);
    let facts = Facts::extract(&program);
    let cg = CallGraph::from_cha(&facts).unwrap();
    let numbering = number_contexts(&cg);

    let t = Instant::now();
    let mut full = context_sensitive(&facts, &cg, &numbering, None).unwrap();
    let full_secs = t.elapsed().as_secs_f64();
    let full_apps = full.stats.rule_applications;

    // The demand shape: the first variable (in sorted tuple order) that
    // points anywhere, bound; context and heap free.
    let mut all = full.engine.relation_tuples("vPC").unwrap();
    all.sort_unstable();
    let host_before = full.engine.relation_bdd("vPC").unwrap();
    let v = all.first().expect("vPC is empty")[1];
    let mut expect = full.engine.relation_select("vPC", &[(1, v)]).unwrap();
    expect.sort_unstable();

    let atom = format!("vPC(c, {v}, h)");
    let t = Instant::now();
    let q = full.engine.solve_query(&atom).unwrap();
    let query_secs = t.elapsed().as_secs_f64();
    assert_eq!(q.tuples, expect, "query answers diverge from full solve");
    assert!(q.used_magic, "magic rewrite unexpectedly fell back");
    assert!(
        q.stats.rule_applications < full_apps,
        "query did {} rule applications, full solve {full_apps}",
        q.stats.rule_applications
    );

    // Determinism: a repeat run returns byte-identical answers.
    let again = full.engine.solve_query(&atom).unwrap();
    assert_eq!(q.tuples, again.tuples, "repeat query diverged");

    // Host untouched: the query solves shared its manager and evaluator.
    assert_eq!(full.engine.relation_bdd("vPC").unwrap(), host_before);
    let mut after = full.engine.relation_tuples("vPC").unwrap();
    after.sort_unstable();
    assert_eq!(after, all, "the queries changed the host's vPC");

    println!(
        "{{\"bench\":\"query/{name}\",\"query\":\"{atom}\",\"answers\":{},\
         \"full_secs\":{full_secs:.4},\"query_secs\":{query_secs:.4},\
         \"full_rule_applications\":{full_apps},\"query_rule_applications\":{},\
         \"magic_rules\":{},\"pruned_rules\":{}}}",
        q.tuples.len(),
        q.stats.rule_applications,
        q.stats.magic_rules,
        q.stats.pruned_rules,
    );
}
