//! Profiling probe for the resident-engine (`whale serve`) solve paths:
//! cold solve vs io-v2 warm start vs incremental delta re-solve, over the
//! same context-sensitive workload.
//!
//! Emits one JSON line with the three latencies and the rule-application
//! counts, and asserts the properties the daemon relies on: the
//! warm-started engine answers identically to the cold one without
//! solving, and an incremental re-solve after a fact delta applies
//! strictly fewer rules than a from-scratch solve while landing on the
//! byte-identical result. Exact counts are memoized: a second `vPC`
//! count on an unchanged engine must hit the kernel's count memo, and
//! the count after the delta must match the from-scratch engine's. Pass
//! a Figure 3 benchmark name and a scale
//! denominator for real workloads: `serve_probe nfcchat 16`.

use std::time::Instant;
use whale_bdd::io::{read_bdd, write_bdd};
use whale_bench::config_or_exit;
use whale_core::{number_contexts, prepare_context_sensitive, CallGraph};
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
    let prepare = || prepare_context_sensitive(&facts, &cg, &numbering, None).unwrap();

    // Cold: the price a fresh daemon pays on its first request.
    let mut cold = prepare();
    let t = Instant::now();
    let cold_stats = cold.solve().unwrap();
    let cold_secs = t.elapsed().as_secs_f64();
    let vpc = cold.relation_count_exact("vPC").unwrap();
    let memo_hits = cold.manager().stats().count_memo.hits;
    assert_eq!(cold.relation_count_exact("vPC").unwrap(), vpc);
    assert_eq!(
        cold.manager().stats().count_memo.hits,
        memo_hits + 1,
        "a second vPC count on an unchanged engine must hit the count memo"
    );

    // Warm start: dump every relation as io v2 (what the daemon persists
    // on clean shutdown), then restore into a fresh engine and measure
    // decode + install. Reads must then answer without any solve.
    let names: Vec<String> = cold
        .program()
        .relations()
        .iter()
        .map(|r| r.name.clone())
        .collect();
    let dumps: Vec<(String, Vec<u8>)> = names
        .iter()
        .map(|n| {
            let mut buf = Vec::new();
            write_bdd(&cold.relation_bdd(n).unwrap(), &mut buf).unwrap();
            (n.clone(), buf)
        })
        .collect();
    let cache_bytes: usize = dumps.iter().map(|(_, b)| b.len()).sum();
    let mut warm = prepare();
    let t = Instant::now();
    let restored: Vec<(String, whale_bdd::Bdd)> = dumps
        .iter()
        .map(|(n, buf)| (n.clone(), read_bdd(warm.manager(), buf.as_slice()).unwrap()))
        .collect();
    warm.warm_start(restored).unwrap();
    let warm_secs = t.elapsed().as_secs_f64();
    assert!(warm.is_solved(), "warm start must mark the engine solved");
    assert_eq!(
        warm.relation_count_exact("vPC").unwrap(),
        vpc,
        "warm-started engine diverges from the cold solve"
    );

    // Incremental: a resident engine absorbing a fact delta. The delta is
    // a fresh points-to seed (an unused var/heap pair), so new tuples
    // must propagate through the whole clone hierarchy.
    let delta: &[u64] = &[0, facts.sizes.h as u64 - 1];
    assert!(
        cold.relation_select("vP0", &[(0, delta[0]), (1, delta[1])])
            .unwrap()
            .is_empty(),
        "delta fact already present; pick another seed pair"
    );
    let mut inc = prepare();
    inc.solve().unwrap();
    assert_eq!(inc.relation_count_exact("vPC").unwrap(), vpc);
    inc.add_fact("vP0", delta).unwrap();
    let t = Instant::now();
    let inc_stats = inc.solve_incremental().unwrap();
    let inc_secs = t.elapsed().as_secs_f64();
    assert!(inc_stats.incremental && !inc_stats.full_fallback);
    assert!(
        inc_stats.rule_applications < cold_stats.rule_applications,
        "incremental re-solve did {} rule applications, cold solve {}",
        inc_stats.rule_applications,
        cold_stats.rule_applications
    );

    // Oracle: the incremental result is byte-identical to a from-scratch
    // solve over the final fact set.
    let mut scratch = prepare();
    scratch.add_fact("vP0", delta).unwrap();
    scratch.solve().unwrap();
    assert_eq!(
        inc.relation_tuples("vPC").unwrap(),
        scratch.relation_tuples("vPC").unwrap(),
        "incremental vPC diverges from from-scratch solve"
    );
    assert_eq!(
        inc.relation_count_exact("vPC").unwrap(),
        scratch.relation_count_exact("vPC").unwrap(),
        "incremental vPC count diverges from the from-scratch count"
    );

    // Edit: the write the daemon serves most. Retracting the delta on the
    // resident engine re-solves the strata it reaches from their base
    // facts, which the engine's first solve already computed: with the op
    // caches kept warm across solves, that re-solve must mostly hit them,
    // and it must land back on the cold solve's `vPC`.
    inc.retract_fact("vP0", delta).unwrap();
    let t = Instant::now();
    let edit_stats = inc.solve_incremental().unwrap();
    let edit_secs = t.elapsed().as_secs_f64();
    assert!(edit_stats.incremental && !edit_stats.full_fallback);
    assert_eq!(
        inc.relation_tuples("vPC").unwrap(),
        cold.relation_tuples("vPC").unwrap(),
        "vPC after retracting the delta diverges from the cold solve"
    );
    let cold_kernel_misses = cold_stats.kernel_misses();
    let edit_kernel_misses = edit_stats.kernel_misses();
    assert!(
        edit_kernel_misses * 10 < cold_kernel_misses,
        "the edit re-solve missed the kernel caches {edit_kernel_misses} times, \
         the cold solve {cold_kernel_misses}: the caches did not stay warm"
    );

    println!(
        "{{\"bench\":\"serve/{name}\",\"vpc\":{vpc},\
         \"cold_secs\":{cold_secs:.4},\"warm_secs\":{warm_secs:.4},\
         \"incremental_secs\":{inc_secs:.4},\"edit_secs\":{edit_secs:.4},\
         \"cache_bytes\":{cache_bytes},\
         \"cold_rule_applications\":{},\"incremental_rule_applications\":{},\
         \"strata_skipped\":{},\"cold_kernel_misses\":{cold_kernel_misses},\
         \"edit_kernel_misses\":{edit_kernel_misses}}}",
        cold_stats.rule_applications, inc_stats.rule_applications, inc_stats.strata_skipped,
    );
}
