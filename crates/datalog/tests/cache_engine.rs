//! Engine-level tests for the relation-level memo cache: it must never
//! change a fixpoint and must actually fire on the repeated work it
//! targets, and malformed order specifications must be reported as errors
//! rather than panics.

use whale_datalog::{DatalogError, Engine, EngineOptions, Program};
use whale_testkit::Rng;

const TC: &str = r#"
DOMAINS
V 1024

RELATIONS
input edge (src : V, dst : V)
output path (src : V, dst : V)

RULES
path(x,y) :- edge(x,y).
path(x,z) :- path(x,y), edge(y,z).
"#;

fn tc_engine(options: EngineOptions, seed: u64) -> Engine {
    let program = Program::parse(TC).unwrap();
    let mut e = Engine::with_options(program, options).unwrap();
    let mut rng = Rng::seed_from_u64(seed);
    let edges: Vec<[u64; 2]> = (0..500)
        .map(|_| [rng.gen_range(0..1024u64), rng.gen_range(0..1024u64)])
        .collect();
    e.add_facts("edge", edges.iter()).unwrap();
    e.solve().unwrap();
    e
}

fn sorted_path(e: &Engine) -> Vec<Vec<u64>> {
    let mut t = e.relation_tuples("path").unwrap();
    t.sort();
    t
}

/// Regression test: an order token whose digit suffix overflows `usize`
/// (here 2^64, one past `u64::MAX`) used to panic inside order expansion;
/// it must surface as `UnknownDomain` like any other bogus token.
#[test]
fn overflowing_order_token_is_an_error_not_a_panic() {
    let program = Program::parse(TC).unwrap();
    let err = Engine::with_options(
        program,
        EngineOptions {
            order: Some("V18446744073709551616".into()),
            ..EngineOptions::default()
        },
    )
    .err()
    .expect("overflowing instance index must not resolve to a domain");
    assert!(
        matches!(&err, DatalogError::UnknownDomain { name, .. } if name == "V18446744073709551616"),
        "expected UnknownDomain, got {err:?}"
    );
}

/// The memo cache targets work that recurs identically across fixpoint
/// rounds — here the `edge` atom of the recursive rule, whose relation
/// never changes. It must record hits, and entries must never be
/// invented: hits cannot exceed lookups that could have been seeded.
#[test]
fn rel_cache_fires_on_repeated_atom_evaluation() {
    let e = tc_engine(EngineOptions::default(), 1);
    let rel = e.stats().rel_cache;
    assert!(
        rel.hits > 0,
        "no relation-level hits on a recursive solve: {rel:?}"
    );
    assert!(rel.hits + rel.misses > rel.hits, "misses must be counted");
    assert!(!sorted_path(&e).is_empty());
}

/// Solves with the relation memo on and off, over three fact seeds and
/// under the default and a permuted variable order, must produce
/// bit-identical relations: memoization and the order are pure
/// performance policies.
#[test]
fn cache_policies_leave_relations_unchanged() {
    for seed in [1, 2, 3] {
        let baseline = tc_engine(
            EngineOptions {
                rel_cache: false,
                ..EngineOptions::default()
            },
            seed,
        );
        let expected = sorted_path(&baseline);
        assert!(!expected.is_empty());
        for order in [None, Some("V2_V1_V0")] {
            let e = tc_engine(
                EngineOptions {
                    order: order.map(str::to_string),
                    rel_cache: true,
                    ..EngineOptions::default()
                },
                seed,
            );
            assert_eq!(
                sorted_path(&e),
                expected,
                "rel_cache under order {order:?} changed the fixpoint (seed {seed})"
            );
        }
    }
}

/// Per-solve cache statistics are deltas for that solve, not lifetime
/// counters: a second solve on the same engine must not inherit the
/// first solve's counts.
#[test]
fn solve_stats_cache_counters_are_per_solve() {
    let program = Program::parse(TC).unwrap();
    let mut e = Engine::with_options(program, EngineOptions::default()).unwrap();
    let mut rng = Rng::seed_from_u64(7);
    let edges: Vec<[u64; 2]> = (0..400)
        .map(|_| [rng.gen_range(0..1024u64), rng.gen_range(0..1024u64)])
        .collect();
    e.add_facts("edge", edges.iter()).unwrap();
    e.solve().unwrap();
    let first = e.stats().appex_cache;
    // With no pending deltas the incremental path skips every stratum;
    // lifetime counters would still carry the first solve's work.
    e.solve_incremental().unwrap();
    let second = e.stats().appex_cache;
    assert!(
        second.hits + second.misses < first.hits + first.misses,
        "no-delta incremental solve should do less appex work: first={first:?} second={second:?}"
    );
}
