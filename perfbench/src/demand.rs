//! Demand-driven `vPC(c, V, h)` queries through `Engine::solve_query`
//! (adornment plus magic sets), asked of a resident Algorithm 5 solve in
//! the traced run of `serve_rw`. Each answer is checked against
//! `relation_select` on the same solve.
//!
//! Query cost is bimodal: a query whose demand reaches the heap (`load`
//! through `hP`) runs more rounds and more rule applications than the
//! whole solve, the rest finish in a handful. Too few queries fit in a
//! run, and their cost swings too much with the draw, for an end-to-end
//! figure that two runs would agree on, so the queries are a per-layer
//! measurement: a fixed number per counted program, whose counts repeat
//! exactly on one seed.

use std::time::Instant;

use whale_datalog::Engine;
use whale_testkit::rng::Rng;

use crate::trace::Tracer;
use crate::{count_caches, millis, Ops};

/// Queries asked of each counted program.
pub const QUERIES: usize = 4;

/// Queries whose answer would exceed this many tuples are not drawn: the
/// answer is materialized twice (query and check), and a variable of a
/// deep method can have thousands of context clones.
const MAX_ANSWER: f64 = 2_000.0;

/// Variables whose `vPC` tuples number at most `max`, sorted: the
/// variables a query or a `select` may bind.
pub fn bounded_vars(engine: &Engine, max: f64) -> Vec<u64> {
    let (Ok(sig), Ok(vpc)) = (engine.relation_signature("vPC"), engine.relation_bdd("vPC")) else {
        return Vec::new();
    };
    let mgr = engine.manager();
    vpc.exist_domains(&[sig[0], sig[2]])
        .tuples(&[sig[1]])
        .into_iter()
        .map(|t| t[0])
        .filter(|&v| vpc.and(&mgr.domain_const(sig[1], v)).satcount_domains(&sig) <= max)
        .collect()
}

/// Asks [`QUERIES`] seeded queries of a solved engine whose full solve
/// made `full_apps` rule applications, checking each answer and adding
/// its counters: `datalog.query_*` and the kernel caches.
pub fn sample(engine: &mut Engine, full_apps: usize, seed: u64, tr: &mut Tracer, ops: &mut Ops) {
    let vars = bounded_vars(engine, MAX_ANSWER);
    if vars.is_empty() {
        return;
    }
    let mut rng = Rng::seed_from_u64(seed ^ 0xde3a_7d00);
    for _ in 0..QUERIES {
        let v = *rng.choose(&vars);
        let span = tr.begin("datalog.query");
        let t = Instant::now();
        let answer = engine.solve_query(&format!("vPC(c, {v}, h)"));
        let ms = millis(t);
        tr.end(span);
        let Ok(q) = answer else {
            ops.check(false);
            continue;
        };
        let expected = engine.relation_select("vPC", &[(1, v)]).map(|mut e| {
            e.sort_unstable();
            e
        });
        ops.check(expected.is_ok_and(|e| e == q.tuples));
        let heavy = q.stats.rule_applications > full_apps;
        tr.add("query.count", 1.0);
        tr.add("query.ms", ms);
        tr.add("datalog.query_rule_apps", q.stats.rule_applications as f64);
        tr.add("datalog.query_rounds", q.stats.rounds as f64);
        tr.add("datalog.query_apps_base", full_apps as f64);
        tr.add("query.heavy", f64::from(u8::from(heavy)));
        count_caches(tr, &q.stats);
    }
}

/// Per-query figures from the counters [`sample`] added: `(metric, value)`.
pub fn layer_values(tr: &Tracer) -> Vec<(&'static str, f64)> {
    let n = tr.counter("query.count").max(1.0);
    let apps = tr.counter("datalog.query_rule_apps") / n;
    let base = tr.counter("datalog.query_apps_base") / n;
    vec![
        ("datalog.query_ms", tr.counter("query.ms") / n),
        ("datalog.query_rule_apps", apps),
        (
            "datalog.query_rounds",
            tr.counter("datalog.query_rounds") / n,
        ),
        ("datalog.query_apps_base", base),
        ("datalog.query_apps_ratio", apps / base.max(1.0)),
        ("datalog.query_heavy_share", tr.counter("query.heavy") / n),
    ]
}
