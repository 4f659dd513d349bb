//! Demand-driven query tests: `Engine::solve_query` must return exactly
//! what a full solve plus `relation_select` returns, across engine
//! configurations, while evaluating a restricted (magic-transformed)
//! program. Also covers the stratification fallback, quoted constants,
//! repeated query variables, query-atom validation, and the rule evaluator
//! a query solve shares with its host engine.

use whale_datalog::{parse_query, DatalogError, Engine, EngineOptions, Program};

const TC: &str = r#"
DOMAINS
V 64

RELATIONS
input edge (src : V, dst : V)
output path (src : V, dst : V)

RULES
path(x,y) :- edge(x,y).
path(x,z) :- path(x,y), edge(y,z).
"#;

const EDGES: &[[u64; 2]] = &[
    [0, 1],
    [1, 2],
    [2, 3],
    [3, 4],
    [10, 11],
    [11, 12],
    [12, 10],
    [5, 6],
];

fn options(reorder: bool) -> EngineOptions {
    EngineOptions {
        reorder,
        ..EngineOptions::default()
    }
}

/// Full solve + select, the ground truth `solve_query` must match.
fn reference(
    src: &str,
    facts: &[[u64; 2]],
    rel: &str,
    fixed: &[(usize, u64)],
    opts: &EngineOptions,
) -> (Vec<Vec<u64>>, usize) {
    let mut e = Engine::with_options(Program::parse(src).unwrap(), opts.clone()).unwrap();
    e.add_facts("edge", facts).unwrap();
    let stats = e.solve().unwrap();
    let mut tuples = e.relation_select(rel, fixed).unwrap();
    tuples.sort_unstable();
    (tuples, stats.rule_applications)
}

#[test]
fn query_matches_full_solve_across_configs() {
    // Node 0's chain is short; a long chain elsewhere forces the *full*
    // fixpoint through many semi-naive rounds the demand-restricted solve
    // never runs (rule applications track rounds, so the win shows up even
    // though the magic program has more rules).
    let mut edges: Vec<[u64; 2]> = EDGES.to_vec();
    for v in 20..60u64 {
        edges.push([v, v + 1]);
    }
    for reorder in [false, true] {
        let opts = options(reorder);
        let (expect, full_apps) = reference(TC, &edges, "path", &[(0, 0)], &opts);
        let mut e = Engine::with_options(Program::parse(TC).unwrap(), opts.clone()).unwrap();
        e.add_facts("edge", &edges).unwrap();
        let q = e.solve_query("path(0, y)").unwrap();
        assert!(q.used_magic);
        assert_eq!(q.relation, "path");
        assert_eq!(q.tuples, expect, "reorder={reorder}");
        assert!(q.stats.magic_rules > 0);
        // Strictly less rule work than the full solve, even counting
        // the magic rules' own applications.
        assert!(
            q.stats.rule_applications < full_apps,
            "query {} >= full {} (reorder={reorder})",
            q.stats.rule_applications,
            full_apps
        );
    }
}

#[test]
fn query_is_deterministic_and_engine_unchanged() {
    let mut e = Engine::new(Program::parse(TC).unwrap()).unwrap();
    e.add_facts("edge", EDGES).unwrap();
    let a = e.solve_query("path(0, y)").unwrap();
    let b = e.solve_query("path(0, y)").unwrap();
    assert_eq!(a.tuples, b.tuples);
    // The host engine's own relations were not populated by the query.
    assert_eq!(e.relation_count("path").unwrap() as u64, 0);
    // And a subsequent full solve still works and agrees.
    e.solve().unwrap();
    let mut sel = e.relation_select("path", &[(0, 0)]).unwrap();
    sel.sort_unstable();
    assert_eq!(a.tuples, sel);
}

#[test]
fn all_bound_and_repeated_variable_queries() {
    let mut e = Engine::new(Program::parse(TC).unwrap()).unwrap();
    e.add_facts("edge", EDGES).unwrap();
    // Fully bound: membership test.
    assert_eq!(
        e.solve_query("path(0, 4)").unwrap().tuples,
        vec![vec![0, 4]]
    );
    assert!(e.solve_query("path(4, 0)").unwrap().tuples.is_empty());
    // Repeated variable: the diagonal — exactly the 10-11-12 cycle.
    let diag = e.solve_query("path(x, x)").unwrap();
    assert_eq!(diag.tuples, vec![vec![10, 10], vec![11, 11], vec![12, 12]]);
}

#[test]
fn negation_program_query_matches_full_solve() {
    // Stratified negation below the queried relation; the magic rewrite
    // must keep the negated relation unrestricted ("full") and still
    // reproduce the full solve's answers.
    let src = r#"
DOMAINS
V 64

RELATIONS
input edge (src : V, dst : V)
sink (v : V)
output deadend (src : V, dst : V)

RULES
sink(y) :- edge(y,_).
deadend(x,y) :- edge(x,y), !sink(y).
"#;
    let mut full = Engine::new(Program::parse(src).unwrap()).unwrap();
    full.add_facts("edge", EDGES).unwrap();
    full.solve().unwrap();
    let mut expect = full.relation_select("deadend", &[(0, 3)]).unwrap();
    expect.sort_unstable();

    let mut e = Engine::new(Program::parse(src).unwrap()).unwrap();
    e.add_facts("edge", EDGES).unwrap();
    let q = e.solve_query("deadend(3, y)").unwrap();
    assert_eq!(q.tuples, expect);
    assert_eq!(q.tuples, vec![vec![3, 4]]);
    assert!(q
        .lints
        .iter()
        .any(|l| matches!(l, DatalogError::NegationBlocksBinding { .. })));
}

#[test]
fn stratification_fallback_still_answers() {
    // Magic would trap !s inside a recursive component (see the unit test
    // in `magic.rs`); solve_query must detect that, fall back to the
    // pruned original program, and still answer correctly.
    let src = r#"
DOMAINS
V 16

RELATIONS
input a (x : V)
input e (s : V, d : V)
r2 (x : V)
w (x : V)
s (s : V, d : V)
y2 (s : V, d : V)
output out2 (x : V)

RULES
y2(x,y) :- e(x,y).
y2(x,z) :- y2(x,y), e(y,z).
s(x,z) :- e(x,y), y2(y,z).
r2(x) :- a(x), !s(x,x).
w(x) :- r2(x).
out2(x) :- w(x), y2(x,_).
"#;
    let build = || {
        let mut e = Engine::new(Program::parse(src).unwrap()).unwrap();
        e.add_facts("e", [[1u64, 2], [2, 1], [3, 4]]).unwrap();
        e.add_facts("a", [[1u64], [3], [5]]).unwrap();
        e
    };
    let mut full = build();
    full.solve().unwrap();
    let mut expect = full.relation_select("out2", &[(0, 3)]).unwrap();
    expect.sort_unstable();

    let q = build().solve_query("out2(3)").unwrap();
    assert!(!q.used_magic);
    assert_eq!(q.stats.magic_rules, 0);
    assert_eq!(q.tuples, expect);
    assert_eq!(q.tuples, vec![vec![3]]);
}

#[test]
fn quoted_constants_resolve_through_name_maps() {
    let mut e = Engine::new(Program::parse(TC).unwrap()).unwrap();
    e.set_name_map("V", &["zero", "one", "two", "three", "four"])
        .unwrap();
    e.add_facts("edge", &EDGES[..4]).unwrap();
    let q = e.solve_query(r#"path("one", y)"#).unwrap();
    assert_eq!(q.tuples, vec![vec![1, 2], vec![1, 3], vec![1, 4]]);
    let err = e.solve_query(r#"path("nine", y)"#).unwrap_err();
    assert!(matches!(err, DatalogError::UnresolvedName { .. }));
}

#[test]
fn query_atom_validation_errors() {
    let mut e = Engine::new(Program::parse(TC).unwrap()).unwrap();
    e.add_facts("edge", &EDGES[..4]).unwrap();
    let err = e.solve_query("pth(0, y)").unwrap_err();
    match err {
        DatalogError::UnknownRelation { name, suggestion } => {
            assert_eq!(name, "pth");
            assert_eq!(suggestion.as_deref(), Some("path"));
        }
        other => panic!("expected UnknownRelation, got {other:?}"),
    }
    assert!(matches!(
        e.solve_query("path(0)").unwrap_err(),
        DatalogError::ArityMismatch { .. }
    ));
    assert!(matches!(
        e.solve_query("path(0, 100)").unwrap_err(),
        DatalogError::ConstantOutOfRange { .. }
    ));
    assert!(matches!(
        e.solve_query("path(0, y) :- edge(0, y)").unwrap_err(),
        DatalogError::Parse { .. }
    ));
}

/// Two rules that project one input onto different columns.
const PROJECTIONS: &str = r#"
DOMAINS
V 8

RELATIONS
input edge (src : V, dst : V)
output a (x : V)
output b (y : V)

RULES
a(x) :- edge(x,_).
b(y) :- edge(_,y).
"#;

#[test]
fn query_solves_share_the_host_evaluator() {
    // A query solves on the host's manager, whose relation memo is keyed
    // by the evaluator's interned operation tags. The two projections of
    // `edge` get different tags; a query engine with its own evaluator
    // would reuse the numbers for other operations and read the host's
    // cached projection of the wrong column.
    let engine = |facts: &[[u64; 2]]| {
        let mut e = Engine::new(Program::parse(PROJECTIONS).unwrap()).unwrap();
        e.add_facts("edge", facts).unwrap();
        e
    };
    let check_queries = |e: &mut Engine| {
        for q in ["a(x)", "b(4)", "b(y)", "a(3)"] {
            let select = e.select_atom(&parse_query(q).unwrap()).unwrap();
            assert_eq!(e.solve_query(q).unwrap().tuples, select, "{q}");
        }
    };
    let mut e = engine(&[[1, 2], [3, 4]]);
    e.solve().unwrap();
    assert_eq!(
        e.select_atom(&parse_query("a(x)").unwrap()).unwrap(),
        [[1], [3]]
    );
    assert_eq!(e.select_atom(&parse_query("b(4)").unwrap()).unwrap(), [[4]]);
    check_queries(&mut e);

    // The query solves leave nothing behind that misleads the host's own
    // incremental solve.
    e.add_facts("edge", [[5, 6]]).unwrap();
    e.solve_incremental().unwrap();
    check_queries(&mut e);
    let mut fresh = engine(&[[1, 2], [3, 4], [5, 6]]);
    fresh.solve().unwrap();
    for rel in ["edge", "a", "b"] {
        let mut mine = e.relation_tuples(rel).unwrap();
        let mut theirs = fresh.relation_tuples(rel).unwrap();
        mine.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(mine, theirs, "{rel}");
    }
}
