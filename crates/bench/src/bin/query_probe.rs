//! Profiling probe for single-atom queries, which are selects over the
//! solved engine.
//!
//! Generates a synthetic workload and asks `Engine::solve_query` of a
//! loaded but unsolved Algorithm 5 engine: the query pays one full solve,
//! then selects. Asserts that answer equals what a separate full solve
//! (`context_sensitive`) selects for the same atom. Then repeats the query
//! on the now-solved engine and asserts that it applies no rule, returns
//! byte-identical answers and leaves the engine's `vPC` unchanged — so
//! the CI smoke run doubles as a determinism check. Emits one JSON line
//! with both queries' times and rule applications.
//!
//! ```console
//! query_probe [NAME [DEN [ATOM]]]
//! ```
//!
//! NAME is a Figure 3 benchmark (default `tiny`), DEN a scale denominator
//! (default 16) and ATOM a query over the Algorithm 5 relations (default
//! `vPC(c, V, h)` for the first variable V that points anywhere):
//! `query_probe freetts 16 'vPC(c, 315, h)'`.

use std::time::Instant;
use whale_bench::config_or_exit;
use whale_core::{context_sensitive, number_contexts, prepare_context_sensitive, CallGraph};
use whale_datalog::{json_string, parse_query};
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

    // Ground truth: a full solve, then a select of the same atom.
    let full = context_sensitive(&facts, &cg, &numbering, None).unwrap();
    let full_apps = full.stats.rule_applications;
    let atom = match args.get(3) {
        Some(a) => a.clone(),
        None => {
            let mut all = full.engine.relation_tuples("vPC").unwrap();
            all.sort_unstable();
            format!("vPC(c, {}, h)", all.first().expect("vPC is empty")[1])
        }
    };
    let parsed = parse_query(&atom).unwrap_or_else(|e| {
        eprintln!("query_probe: {e}");
        std::process::exit(2)
    });
    let expect = full.engine.select_atom(&parsed).unwrap();

    // Cold engine: the query's catch-up solve is the full solve.
    let mut engine = prepare_context_sensitive(&facts, &cg, &numbering, None).unwrap();
    let t = Instant::now();
    let cold = engine.solve_query(&atom).unwrap();
    let cold_secs = t.elapsed().as_secs_f64();
    assert_eq!(cold.tuples, expect, "query answers diverge from full solve");

    // Solved engine: a select, no rule applied, the host untouched.
    let host_before = engine.relation_bdd("vPC").unwrap();
    let t = Instant::now();
    let again = engine.solve_query(&atom).unwrap();
    let solved_secs = t.elapsed().as_secs_f64();
    assert_eq!(again.tuples, cold.tuples, "repeat query diverged");
    assert_eq!(
        again.stats.rule_applications, 0,
        "query on a solved engine applied rules"
    );
    assert_eq!(
        engine.relation_bdd("vPC").unwrap(),
        host_before,
        "the query changed the host's vPC"
    );

    println!(
        "{{\"bench\":\"query/{name}\",\"query\":{},\"answers\":{},\
         \"full_rule_applications\":{full_apps},\
         \"cold_secs\":{cold_secs:.4},\"cold_rule_applications\":{},\
         \"solved_secs\":{solved_secs:.6},\"solved_rule_applications\":{}}}",
        json_string(&atom),
        cold.tuples.len(),
        cold.stats.rule_applications,
        again.stats.rule_applications,
    );
}
