//! The benchmark's counters repeat exactly on one seed, and the seed
//! argument reaches the generated programs and draws.
//!
//! Two traced runs on one seed must agree on every `datalog.*` count and
//! every `bdd.*_lookups` count, so a later change may cite them as counts;
//! a second seed must change them. The corpora here are tiny so the test
//! stays quick in a debug build.

use perfbench::{run, Plan, RunConfig, PER_LAYER};

fn tiny(workload: &str, seed: u64) -> RunConfig {
    RunConfig {
        seed,
        // Zero means one round of work; the resident workload needs a few
        // writes to fill its counted prefix.
        seconds: if workload == "serve_rw" { 3.0 } else { 0.0 },
        trace: true,
        plan: Plan {
            den: 32,
            layers: Some(3),
        },
    }
}

/// The exactly repeatable counters of a traced run.
fn counts(workload: &str, seed: u64) -> Vec<(&'static str, f64)> {
    let outcome = run(workload, &tiny(workload, seed)).expect("known workload");
    assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.notes);
    assert_eq!(outcome.metrics.len(), PER_LAYER.len());
    outcome
        .metrics
        .iter()
        .filter(|m| {
            (m.name.starts_with("datalog.") && m.unit != "ms")
                || (m.name.starts_with("bdd.") && m.name.ends_with("_lookups"))
                || m.name.starts_with("ir.") && m.unit == "count"
        })
        .map(|m| (m.name, m.value))
        .collect()
}

fn check(workload: &str) {
    let first = counts(workload, 3);
    assert!(
        first.iter().any(|&(_, v)| v > 0.0),
        "{workload}: no counter was recorded"
    );
    assert_eq!(
        first,
        counts(workload, 3),
        "{workload}: counts differ on one seed"
    );
    assert_ne!(
        first,
        counts(workload, 4),
        "{workload}: the seed changed nothing"
    );
}

#[test]
fn fig4_batch_counts_repeat() {
    check("fig4_batch");
}

#[test]
fn serve_rw_counts_repeat() {
    check("serve_rw");
}
