//! Query tests: `Engine::solve_query` brings the engine up to date and
//! selects, so it must return exactly what a full solve plus
//! `relation_select` returns, across engine configurations and after fact
//! deltas, and must apply no rule on an engine that is already solved.
//! Also covers negation below the queried relation, quoted constants,
//! repeated query variables and query-atom validation.

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

/// The default order (the three instances of `V` interleaved) or, with
/// `order`, that one.
fn options(order: Option<&str>) -> EngineOptions {
    EngineOptions {
        order: order.map(str::to_string),
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
    let mut edges: Vec<[u64; 2]> = EDGES.to_vec();
    for v in 20..60u64 {
        edges.push([v, v + 1]);
    }
    for order in [None, Some("V2_V1_V0")] {
        let opts = options(order);
        let (expect, full_apps) = reference(TC, &edges, "path", &[(0, 0)], &opts);
        let mut e = Engine::with_options(Program::parse(TC).unwrap(), opts.clone()).unwrap();
        e.add_facts("edge", &edges).unwrap();
        let q = e.solve_query("path(0, y)").unwrap();
        assert_eq!(q.relation, "path");
        assert_eq!(q.tuples, expect, "order={order:?}");
        // A cold engine pays exactly one full solve.
        assert_eq!(q.stats.rule_applications, full_apps, "order={order:?}");
    }
}

#[test]
fn query_is_deterministic_and_solves_the_host() {
    let mut e = Engine::new(Program::parse(TC).unwrap()).unwrap();
    e.add_facts("edge", EDGES).unwrap();
    let a = e.solve_query("path(0, y)").unwrap();
    let b = e.solve_query("path(0, y)").unwrap();
    assert_eq!(a.tuples, b.tuples);
    // The first query solved the host engine in place.
    assert!(e.is_solved());
    let mut sel = e.relation_select("path", &[(0, 0)]).unwrap();
    sel.sort_unstable();
    assert_eq!(a.tuples, sel);
}

#[test]
fn query_on_a_solved_engine_applies_no_rule() {
    let mut e = Engine::new(Program::parse(TC).unwrap()).unwrap();
    e.add_facts("edge", EDGES).unwrap();
    e.solve().unwrap();
    let names: Vec<String> = e
        .program()
        .relations()
        .iter()
        .map(|r| r.name.clone())
        .collect();
    let before: Vec<_> = names.iter().map(|n| e.relation_bdd(n).unwrap()).collect();
    for atom in ["path(0, y)", "path(x, x)", "edge(x, y)"] {
        let q = e.solve_query(atom).unwrap();
        assert_eq!(q.stats.rule_applications, 0, "{atom}");
        assert_eq!(q.stats.rounds, 0, "{atom}");
        assert_eq!(
            q.tuples,
            e.select_atom(&parse_query(atom).unwrap()).unwrap(),
            "{atom}"
        );
    }
    for (name, bdd) in names.iter().zip(&before) {
        assert_eq!(&e.relation_bdd(name).unwrap(), bdd, "{name}");
    }
}

#[test]
fn query_after_fact_deltas_matches_a_fresh_solve() {
    let mut e = Engine::new(Program::parse(TC).unwrap()).unwrap();
    e.add_facts("edge", EDGES).unwrap();
    e.solve().unwrap();
    // One addition, one retraction of an existing edge, then a query: the
    // catch-up solve folds both deltas before the select.
    e.add_facts("edge", [[4u64, 5]]).unwrap();
    e.retract_facts("edge", [[11u64, 12]]).unwrap();
    let mut facts: Vec<[u64; 2]> = EDGES.iter().copied().filter(|&t| t != [11, 12]).collect();
    facts.push([4, 5]);
    for atom in ["path(0, y)", "path(x, x)", "path(10, y)", "path(x, 6)"] {
        let q = e.solve_query(atom).unwrap();
        let mut fresh = Engine::new(Program::parse(TC).unwrap()).unwrap();
        fresh.add_facts("edge", &facts).unwrap();
        fresh.solve().unwrap();
        let expect = fresh.select_atom(&parse_query(atom).unwrap()).unwrap();
        assert_eq!(q.tuples, expect, "{atom}");
    }
    // Only the first query had deltas to fold.
    assert!(!e.has_pending_deltas());
    assert_eq!(
        e.solve_query("path(0, y)").unwrap().stats.rule_applications,
        0
    );
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
    // Stratified negation below the queried relation.
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
