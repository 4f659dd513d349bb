//! End-to-end solver tests: transitive closure, negation/stratification,
//! constraints, constants, semi-naive vs naive equivalence, and the paper's
//! Algorithm 1 (context-insensitive points-to) on a hand-computed example.

use whale_datalog::{DatalogError, Engine, EngineOptions, Program};

fn solve(src: &str, facts: &[(&str, &[u64])]) -> Engine {
    let program = Program::parse(src).unwrap();
    let mut e = Engine::new(program).unwrap();
    for (rel, tuple) in facts {
        e.add_fact(rel, tuple).unwrap();
    }
    e.solve().unwrap();
    e
}

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

#[test]
fn transitive_closure_chain() {
    let e = solve(
        TC,
        &[
            ("edge", &[0, 1]),
            ("edge", &[1, 2]),
            ("edge", &[2, 3]),
            ("edge", &[3, 4]),
        ],
    );
    assert_eq!(e.relation_count("path").unwrap() as u64, 10);
    assert!(e.relation_contains("path", &[0, 4]).unwrap());
    assert!(!e.relation_contains("path", &[4, 0]).unwrap());
}

#[test]
fn relation_select_pins_attributes() {
    let e = solve(
        TC,
        &[
            ("edge", &[0, 1]),
            ("edge", &[1, 2]),
            ("edge", &[2, 3]),
            ("edge", &[3, 4]),
        ],
    );
    // Everything reachable from 1.
    let mut from1 = e.relation_select("path", &[(0, 1)]).unwrap();
    from1.sort();
    assert_eq!(from1, vec![vec![1, 2], vec![1, 3], vec![1, 4]]);
    // Everything that reaches 2.
    let mut to2 = e.relation_select("path", &[(1, 2)]).unwrap();
    to2.sort();
    assert_eq!(to2, vec![vec![0, 2], vec![1, 2]]);
    // Both endpoints pinned: membership test. No match -> empty.
    assert_eq!(
        e.relation_select("path", &[(0, 0), (1, 4)]).unwrap(),
        vec![vec![0, 4]]
    );
    assert!(e
        .relation_select("path", &[(0, 4), (1, 0)])
        .unwrap()
        .is_empty());
    // Empty binding degenerates to relation_tuples.
    let mut all = e.relation_select("path", &[]).unwrap();
    all.sort();
    let mut tuples = e.relation_tuples("path").unwrap();
    tuples.sort();
    assert_eq!(all, tuples);
    // Out-of-arity attribute index and out-of-range value are errors.
    assert!(matches!(
        e.relation_select("path", &[(2, 0)]),
        Err(DatalogError::BadFact(_))
    ));
    assert!(matches!(
        e.relation_select("path", &[(0, 64)]),
        Err(DatalogError::ConstantOutOfRange { .. })
    ));
}

#[test]
fn transitive_closure_cycle() {
    let e = solve(
        TC,
        &[("edge", &[0, 1]), ("edge", &[1, 2]), ("edge", &[2, 0])],
    );
    // Every pair reachable: 3x3.
    assert_eq!(e.relation_count("path").unwrap() as u64, 9);
}

#[test]
fn seminaive_and_naive_agree() {
    let facts: Vec<[u64; 2]> = (0..30).map(|i| [i, (i * 7 + 3) % 40]).collect();
    let mut engines = Vec::new();
    for seminaive in [true, false] {
        let program = Program::parse(TC).unwrap();
        let mut e = Engine::with_options(
            program,
            EngineOptions {
                seminaive,
                order: None,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        e.add_facts("edge", facts.iter()).unwrap();
        e.solve().unwrap();
        engines.push(e);
    }
    let mut a = engines[0].relation_tuples("path").unwrap();
    let mut b = engines[1].relation_tuples("path").unwrap();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert!(!a.is_empty());
}

/// The delta of `t` joins second, where the rule puts it, and its rename
/// is a swap of the two `V` instances: not monotone, so the kernel's
/// rename-join renames the delta first and then joins. Semi-naive must
/// still match naive and the hand-computed fixpoint.
#[test]
fn delta_joining_second_through_the_rename_fallback_matches_naive() {
    const SWAP: &str = r#"
DOMAINS
V 32
RELATIONS
input s (a : V, b : V)
input e (a : V, b : V)
output t (a : V, b : V)
RULES
t(x,y) :- s(x,y).
t(x,y) :- e(x,y), t(y,x).
"#;
    let mut results = Vec::new();
    for seminaive in [true, false] {
        let program = Program::parse(SWAP).unwrap();
        let options = EngineOptions {
            seminaive,
            ..EngineOptions::default()
        };
        let mut e = Engine::with_options(program, options).unwrap();
        e.add_facts("s", [[1, 2], [3, 4], [7, 8]].iter()).unwrap();
        e.add_facts("e", [[2, 1], [4, 3], [1, 2], [5, 6], [8, 9]].iter())
            .unwrap();
        let stats = e.solve().unwrap();
        if seminaive {
            // `s` and `e` need no rename; only the fallback replaces.
            let replaces = stats.replace_cache.hits + stats.replace_cache.misses;
            assert!(replaces > 0, "the swap rename must take the fallback");
        }
        let mut t = e.relation_tuples("t").unwrap();
        t.sort();
        results.push(t);
    }
    assert_eq!(results[0], results[1]);
    let expected: Vec<Vec<u64>> = vec![vec![1, 2], vec![2, 1], vec![3, 4], vec![4, 3], vec![7, 8]];
    assert_eq!(results[0], expected);
}

#[test]
fn mutual_recursion() {
    let src = r#"
DOMAINS
V 32
RELATIONS
input edge (s : V, d : V)
output even (s : V, d : V)
output odd (s : V, d : V)
RULES
odd(x,y) :- edge(x,y).
odd(x,z) :- even(x,y), edge(y,z).
even(x,z) :- odd(x,y), edge(y,z).
"#;
    let e = solve(
        src,
        &[("edge", &[0, 1]), ("edge", &[1, 2]), ("edge", &[2, 3])],
    );
    assert!(e.relation_contains("odd", &[0, 1]).unwrap());
    assert!(e.relation_contains("even", &[0, 2]).unwrap());
    assert!(e.relation_contains("odd", &[0, 3]).unwrap());
    assert!(!e.relation_contains("even", &[0, 1]).unwrap());
}

#[test]
fn negation_set_difference() {
    let src = r#"
DOMAINS
V 16
RELATIONS
input a (x : V)
input b (x : V)
output only_a (x : V)
RULES
only_a(x) :- a(x), !b(x).
"#;
    let e = solve(src, &[("a", &[1]), ("a", &[2]), ("a", &[3]), ("b", &[2])]);
    let mut t = e.relation_tuples("only_a").unwrap();
    t.sort();
    assert_eq!(t, vec![vec![1], vec![3]]);
}

#[test]
fn negation_with_wildcard_projects_first() {
    // unreached(x) :- node(x), !edge(_, x): nodes with no in-edge.
    let src = r#"
DOMAINS
V 16
RELATIONS
input node (x : V)
input edge (s : V, d : V)
output unreached (x : V)
RULES
unreached(x) :- node(x), !edge(_,x).
"#;
    let e = solve(
        src,
        &[
            ("node", &[0]),
            ("node", &[1]),
            ("node", &[2]),
            ("edge", &[0, 1]),
            ("edge", &[1, 2]),
        ],
    );
    assert_eq!(e.relation_tuples("unreached").unwrap(), vec![vec![0]]);
}

#[test]
fn stratified_negation_through_recursion_rejected() {
    let src = r#"
DOMAINS
V 8
RELATIONS
input e (s : V, d : V)
output p (s : V, d : V)
output q (s : V, d : V)
RULES
p(x,y) :- e(x,y), !q(x,y).
q(x,y) :- p(x,y).
"#;
    let program = Program::parse(src).unwrap();
    let mut e = Engine::new(program).unwrap();
    match e.solve() {
        Err(DatalogError::NotStratified {
            relation,
            rule,
            line,
            col,
            cycle,
        }) => {
            assert_eq!(relation, "q");
            assert_eq!(rule, "p(x,y) :- e(x,y), !q(x,y).");
            assert_eq!(line, 9);
            assert_eq!(col, 1);
            // Witness path: p -> q, closed by the negation edge q -> p.
            assert_eq!(cycle, vec!["p".to_string(), "q".to_string()]);
        }
        other => panic!("expected NotStratified, got {other:?}"),
    }
}

#[test]
fn negation_on_lower_stratum_of_recursion() {
    // Complement of reachability: fine because `path` stratum is below.
    let src = r#"
DOMAINS
V 8
RELATIONS
input node (x : V)
input edge (s : V, d : V)
output path (s : V, d : V)
output unreachable (s : V, d : V)
RULES
path(x,y) :- edge(x,y).
path(x,z) :- path(x,y), edge(y,z).
unreachable(x,y) :- node(x), node(y), !path(x,y).
"#;
    let e = solve(
        src,
        &[
            ("node", &[0]),
            ("node", &[1]),
            ("node", &[2]),
            ("edge", &[0, 1]),
        ],
    );
    assert!(e.relation_contains("unreachable", &[1, 0]).unwrap());
    assert!(e.relation_contains("unreachable", &[0, 2]).unwrap());
    assert!(!e.relation_contains("unreachable", &[0, 1]).unwrap());
    // 9 pairs minus path(0,1): 8.
    assert_eq!(e.relation_count("unreachable").unwrap() as u64, 8);
}

#[test]
fn ne_constraint() {
    let src = r#"
DOMAINS
V 16
RELATIONS
input e (s : V, d : V)
output loopless (s : V, d : V)
RULES
loopless(x,y) :- e(x,y), x != y.
"#;
    let e = solve(src, &[("e", &[1, 1]), ("e", &[1, 2]), ("e", &[3, 3])]);
    assert_eq!(e.relation_tuples("loopless").unwrap(), vec![vec![1, 2]]);
}

#[test]
fn eq_constraint_and_const() {
    let src = r#"
DOMAINS
V 16
RELATIONS
input e (s : V, d : V)
output diag (s : V, d : V)
output from3 (d : V)
RULES
diag(x,y) :- e(x,y), x = y.
from3(y) :- e(x,y), x = 3.
"#;
    let e = solve(
        src,
        &[
            ("e", &[1, 1]),
            ("e", &[1, 2]),
            ("e", &[3, 7]),
            ("e", &[3, 9]),
        ],
    );
    assert_eq!(e.relation_tuples("diag").unwrap(), vec![vec![1, 1]]);
    let mut f = e.relation_tuples("from3").unwrap();
    f.sort();
    assert_eq!(f, vec![vec![7], vec![9]]);
}

#[test]
fn constants_in_atoms() {
    let src = r#"
DOMAINS
I 16
Z 8
V 16
RELATIONS
input actual (i : I, z : Z, v : V)
output receiver (i : I, v : V)
RULES
receiver(i,v) :- actual(i,0,v).
"#;
    let e = solve(
        src,
        &[
            ("actual", &[1, 0, 5]),
            ("actual", &[1, 1, 6]),
            ("actual", &[2, 0, 7]),
        ],
    );
    let mut t = e.relation_tuples("receiver").unwrap();
    t.sort();
    assert_eq!(t, vec![vec![1, 5], vec![2, 7]]);
}

#[test]
fn head_constants_and_fact_rules() {
    let src = r#"
DOMAINS
V 16
RELATIONS
input e (s : V, d : V)
output tagged (s : V, d : V)
output seed (x : V)
RULES
seed(3).
tagged(x, 9) :- e(x, _).
"#;
    let e = solve(src, &[("e", &[1, 2]), ("e", &[4, 5])]);
    assert_eq!(e.relation_tuples("seed").unwrap(), vec![vec![3]]);
    let mut t = e.relation_tuples("tagged").unwrap();
    t.sort();
    assert_eq!(t, vec![vec![1, 9], vec![4, 9]]);
}

#[test]
fn duplicate_variable_in_atom() {
    let src = r#"
DOMAINS
V 16
RELATIONS
input e (s : V, d : V)
output selfloop (x : V)
RULES
selfloop(x) :- e(x,x).
"#;
    let e = solve(src, &[("e", &[2, 2]), ("e", &[2, 3]), ("e", &[5, 5])]);
    let mut t = e.relation_tuples("selfloop").unwrap();
    t.sort();
    assert_eq!(t, vec![vec![2], vec![5]]);
}

#[test]
fn duplicate_variable_in_head() {
    let src = r#"
DOMAINS
V 16
RELATIONS
input a (x : V)
output pairup (x : V, y : V)
RULES
pairup(x,x) :- a(x).
"#;
    let e = solve(src, &[("a", &[4]), ("a", &[7])]);
    let mut t = e.relation_tuples("pairup").unwrap();
    t.sort();
    assert_eq!(t, vec![vec![4, 4], vec![7, 7]]);
}

#[test]
fn string_constants_via_name_map() {
    let src = r#"
DOMAINS
H 16
F 8
RELATIONS
input hP (h1 : H, f : F, h2 : H)
output who (h : H, f : F)
RULES
who(h,f) :- hP(h, f, "a.java:57").
"#;
    let program = Program::parse(src).unwrap();
    let mut e = Engine::new(program).unwrap();
    e.set_name_map("H", &["a.java:10", "a.java:57", "b.java:3"])
        .unwrap();
    e.add_fact("hP", &[0, 2, 1]).unwrap();
    e.add_fact("hP", &[2, 3, 0]).unwrap();
    e.solve().unwrap();
    assert_eq!(e.relation_tuples("who").unwrap(), vec![vec![0, 2]]);
    assert_eq!(e.name_of("H", 1), Some("a.java:57"));
}

#[test]
fn unresolved_string_constant_errors() {
    let src = r#"
DOMAINS
H 16
RELATIONS
input a (h : H)
output b (h : H)
RULES
b(h) :- a(h), a("nope").
"#;
    let program = Program::parse(src).unwrap();
    let mut e = Engine::new(program).unwrap();
    assert!(matches!(
        e.solve(),
        Err(DatalogError::UnresolvedName { .. })
    ));
}

#[test]
fn swap_rename_in_rule() {
    // Head reverses the attribute order of the body relation: forces a
    // cyclic rename (a swap of the two `V` instances).
    let src = r#"
DOMAINS
V 16
RELATIONS
input e (s : V, d : V)
output rev (s : V, d : V)
RULES
rev(y,x) :- e(x,y).
"#;
    let e = solve(src, &[("e", &[1, 2]), ("e", &[3, 4])]);
    let mut t = e.relation_tuples("rev").unwrap();
    t.sort();
    assert_eq!(t, vec![vec![2, 1], vec![4, 3]]);
}

#[test]
fn three_way_join_with_intermediate_projection() {
    let src = r#"
DOMAINS
V 32
RELATIONS
input e (s : V, d : V)
output tri (a : V, c : V)
RULES
tri(a,c) :- e(a,b), e(b,bb), e(bb,c).
"#;
    let e = solve(
        src,
        &[
            ("e", &[0, 1]),
            ("e", &[1, 2]),
            ("e", &[2, 3]),
            ("e", &[1, 5]),
            ("e", &[5, 6]),
        ],
    );
    let mut t = e.relation_tuples("tri").unwrap();
    t.sort();
    // Three-edge paths: 0→1→2→3 and 0→1→5→6.
    assert_eq!(t, vec![vec![0, 3], vec![0, 6]]);
}

#[test]
fn custom_order_string() {
    // The TC program needs 3 instances of V (3 distinct rule variables).
    for order in ["V", "V2_V1_V0", "V0xV1xV2", "V1xV0_V2"] {
        let program = Program::parse(TC).unwrap();
        let mut e = Engine::with_options(
            program,
            EngineOptions {
                seminaive: true,
                order: Some(order.into()),
                ..EngineOptions::default()
            },
        )
        .unwrap();
        e.add_fact("edge", &[0, 1]).unwrap();
        e.add_fact("edge", &[1, 2]).unwrap();
        e.solve().unwrap();
        assert_eq!(e.relation_count("path").unwrap() as u64, 3, "order {order}");
    }
}

#[test]
fn bad_order_string_rejected() {
    let program = Program::parse(TC).unwrap();
    assert!(Engine::with_options(
        program,
        EngineOptions {
            seminaive: true,
            order: Some("V_W".into()),
            ..EngineOptions::default()
        },
    )
    .is_err());
}

#[test]
fn add_fact_validation() {
    let program = Program::parse(TC).unwrap();
    let mut e = Engine::new(program).unwrap();
    assert!(matches!(
        e.add_fact("path", &[0, 1]),
        Err(DatalogError::BadFact(_))
    ));
    assert!(matches!(
        e.add_fact("edge", &[0]),
        Err(DatalogError::BadFact(_))
    ));
    assert!(matches!(
        e.add_fact("edge", &[0, 64]),
        Err(DatalogError::ConstantOutOfRange { .. })
    ));
    assert!(matches!(
        e.add_fact("nope", &[0]),
        Err(DatalogError::UnknownRelation { .. })
    ));
}

/// Algorithm 1 of the paper on a worked example:
///
/// ```java
/// o1: p = new O();      // vP0(p, o1)
/// o2: q = new O();      // vP0(q, o2)
///     r = p;            // assign(r, p)
///     p.f = q;          // store(p, f, q)
///     s = r.f;          // load(r, f, s)
/// ```
///
/// Expected: vP = {(p,o1),(q,o2),(r,o1),(s,o2)}, hP = {(o1,f,o2)}.
#[test]
fn algorithm_1_points_to() {
    let src = r#"
DOMAINS
V 16
H 16
F 8

RELATIONS
input vP0 (variable : V, heap : H)
input store (base : V, field : F, source : V)
input load (base : V, field : F, dest : V)
input assign (dest : V, source : V)
output vP (variable : V, heap : H)
output hP (base : H, field : F, target : H)

RULES
vP(v,h) :- vP0(v,h).
vP(v1,h) :- assign(v1,v2), vP(v2,h).
hP(h1,f,h2) :- store(v1,f,v2), vP(v1,h1), vP(v2,h2).
vP(v2,h2) :- load(v1,f,v2), vP(v1,h1), hP(h1,f,h2).
"#;
    // Numbering: p=0, q=1, r=2, s=3; o1=0, o2=1; f=0.
    let e = solve(
        src,
        &[
            ("vP0", &[0, 0]),
            ("vP0", &[1, 1]),
            ("assign", &[2, 0]),
            ("store", &[0, 0, 1]),
            ("load", &[2, 0, 3]),
        ],
    );
    let mut vp = e.relation_tuples("vP").unwrap();
    vp.sort();
    assert_eq!(vp, vec![vec![0, 0], vec![1, 1], vec![2, 0], vec![3, 1]]);
    assert_eq!(e.relation_tuples("hP").unwrap(), vec![vec![0, 0, 1]]);
}

/// The type-filter variant (Algorithm 2) drops ill-typed points-to pairs.
#[test]
fn algorithm_2_type_filter() {
    let src = r#"
DOMAINS
V 16
H 16
F 8
T 8

RELATIONS
input vP0 (variable : V, heap : H)
input assign (dest : V, source : V)
input vT (variable : V, type : T)
input hT (heap : H, type : T)
input aT (supertype : T, subtype : T)
vPfilter (variable : V, heap : H)
output vP (variable : V, heap : H)

RULES
vPfilter(v,h) :- vT(v,tv), hT(h,th), aT(tv,th).
vP(v,h) :- vP0(v,h).
vP(v1,h) :- assign(v1,v2), vP(v2,h), vPfilter(v1,h).
"#;
    // v0: new A (h0:A); v1 = v0 but v1 is declared B (A not assignable to B).
    // Types: A=0, B=1. aT: A<=A, B<=B only.
    let e = solve(
        src,
        &[
            ("vP0", &[0, 0]),
            ("assign", &[1, 0]),
            ("vT", &[0, 0]),
            ("vT", &[1, 1]),
            ("hT", &[0, 0]),
            ("aT", &[0, 0]),
            ("aT", &[1, 1]),
        ],
    );
    let vp = e.relation_tuples("vP").unwrap();
    assert_eq!(vp, vec![vec![0, 0]]); // the ill-typed (v1,h0) is filtered
}

#[test]
fn solve_is_idempotent() {
    let program = Program::parse(TC).unwrap();
    let mut e = Engine::new(program).unwrap();
    e.add_fact("edge", &[0, 1]).unwrap();
    e.add_fact("edge", &[1, 2]).unwrap();
    e.solve().unwrap();
    let first = e.relation_count("path").unwrap();
    e.solve().unwrap();
    assert_eq!(e.relation_count("path").unwrap(), first);
}

#[test]
fn stats_are_populated() {
    let program = Program::parse(TC).unwrap();
    let mut e = Engine::new(program).unwrap();
    for i in 0..20 {
        e.add_fact("edge", &[i, i + 1]).unwrap();
    }
    let stats = e.solve().unwrap();
    assert!(stats.rounds >= 2, "chain of 20 needs multiple rounds");
    assert!(stats.rule_applications > 0);
    assert!(stats.peak_live_nodes > 0);
    assert!(stats.strata >= 1);
}

/// Strata run one after another, so their clocks never add up to more
/// than the solve's own wall time, and every stratum gets an entry.
#[test]
fn stratum_times_sum_within_solve_time() {
    let src = r#"
DOMAINS
V 16

RELATIONS
input edge (src : V, dst : V)
output path (src : V, dst : V)
output unreachable (src : V, dst : V)

RULES
path(x,y) :- edge(x,y).
path(x,z) :- path(x,y), edge(y,z).
unreachable(x,y) :- edge(x,_), edge(_,y), !path(x,y).
"#;
    let program = Program::parse(src).unwrap();
    let mut e = Engine::new(program).unwrap();
    for i in 0..12 {
        e.add_fact("edge", &[i, i + 1]).unwrap();
    }
    e.add_fact("edge", &[11, 2]).unwrap();
    let stats = e.solve().unwrap();
    assert!(!stats.stratum_times.is_empty());
    assert_eq!(stats.stratum_times.len(), stats.strata);
    let total: std::time::Duration = stats.stratum_times.iter().sum();
    assert!(
        total <= stats.solve_time,
        "stratum times {total:?} exceed solve time {:?}",
        stats.solve_time
    );
    let summary = stats.stratum_summary();
    assert!(
        summary.starts_with(&format!("strata: {} solved in ", stats.strata)),
        "{summary}"
    );
}

#[test]
fn exact_count_matches_f64_count() {
    let e = solve(
        TC,
        &[("edge", &[0, 1]), ("edge", &[1, 2]), ("edge", &[2, 3])],
    );
    assert_eq!(
        e.relation_count_exact("path").unwrap(),
        e.relation_count("path").unwrap() as u128
    );
    assert_eq!(e.relation_count_exact("path").unwrap(), 6);
}

#[test]
fn negation_across_three_strata() {
    // Stratum 1: path. Stratum 2: nonpath. Stratum 3: island (nodes with
    // no path to or from anything else).
    let src = r#"
DOMAINS
V 8
RELATIONS
input node (x : V)
input edge (s : V, d : V)
output path (s : V, d : V)
output connected (x : V)
output island (x : V)
RULES
path(x,y) :- edge(x,y).
path(x,z) :- path(x,y), edge(y,z).
connected(x) :- path(x,_).
connected(x) :- path(_,x).
island(x) :- node(x), !connected(x).
"#;
    let e = solve(
        src,
        &[
            ("node", &[0]),
            ("node", &[1]),
            ("node", &[2]),
            ("node", &[3]),
            ("edge", &[0, 1]),
            ("edge", &[1, 2]),
        ],
    );
    assert_eq!(e.relation_tuples("island").unwrap(), vec![vec![3]]);
    let stats = e.stats();
    assert!(stats.strata >= 3, "three semantic strata: {}", stats.strata);
}

#[test]
fn naive_mode_handles_negation_equally() {
    let src = r#"
DOMAINS
V 8
RELATIONS
input node (x : V)
input edge (s : V, d : V)
output reach (x : V)
output unreached (x : V)
RULES
reach(y) :- edge(0,y).
reach(z) :- reach(y), edge(y,z).
unreached(x) :- node(x), !reach(x).
"#;
    let mut results = Vec::new();
    for seminaive in [true, false] {
        let program = Program::parse(src).unwrap();
        let mut e = Engine::with_options(
            program,
            EngineOptions {
                seminaive,
                order: None,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        for i in 0..5 {
            e.add_fact("node", &[i]).unwrap();
        }
        e.add_fact("edge", &[0, 1]).unwrap();
        e.add_fact("edge", &[1, 2]).unwrap();
        e.add_fact("edge", &[3, 4]).unwrap();
        e.solve().unwrap();
        let mut u = e.relation_tuples("unreached").unwrap();
        u.sort();
        results.push(u);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], vec![vec![0], vec![3], vec![4]]);
}

#[test]
fn bad_tuple_mid_list_leaves_the_engine_unchanged() {
    let mut e = solve(TC, &[("edge", &[0, 1]), ("edge", &[1, 2])]);
    let hash = e.fact_stream_hash();
    let edges = e.relation_tuples("edge").unwrap();
    let paths = e.relation_tuples("path").unwrap();

    // The first offender is reported, whether it comes before or after
    // other kinds of bad tuple, and nothing of the list is applied.
    let err = e
        .add_facts("edge", [vec![2u64, 3], vec![3], vec![70, 5]])
        .unwrap_err();
    assert!(matches!(err, DatalogError::BadFact(_)), "{err}");
    let err = e
        .add_facts("edge", [vec![2u64, 3], vec![64, 1], vec![4]])
        .unwrap_err();
    assert!(
        matches!(&err, DatalogError::ConstantOutOfRange { domain, value: 64 } if domain == "V"),
        "{err}"
    );
    let err = e
        .retract_facts("edge", [vec![0u64, 1], vec![1, 99], vec![1, 200]])
        .unwrap_err();
    assert!(
        matches!(err, DatalogError::ConstantOutOfRange { value: 99, .. }),
        "{err}"
    );
    let err = e
        .retract_facts("edge", [vec![0u64, 1], vec![1, 2, 3]])
        .unwrap_err();
    assert!(matches!(err, DatalogError::BadFact(_)), "{err}");

    assert_eq!(e.fact_stream_hash(), hash, "base facts unchanged");
    assert!(!e.has_pending_deltas(), "no pending deltas");
    assert_eq!(e.relation_tuples("edge").unwrap(), edges);
    assert_eq!(e.relation_tuples("path").unwrap(), paths);

    // The engine still takes good deltas and solves.
    e.add_facts("edge", [[2u64, 3]]).unwrap();
    e.retract_facts("edge", [[0u64, 1]]).unwrap();
    e.solve_incremental().unwrap();
    let mut got = e.relation_tuples("path").unwrap();
    got.sort_unstable();
    assert_eq!(got, vec![vec![1, 2], vec![1, 3], vec![2, 3]]);
}

#[test]
fn fact_stream_hash_ignores_fact_order_and_batching() {
    let edges: Vec<[u64; 2]> = vec![[0, 1], [1, 2], [2, 3], [7, 5], [3, 0]];
    let fresh = || Engine::new(Program::parse(TC).unwrap()).unwrap();
    let mut one_batch = fresh();
    one_batch.add_facts("edge", &edges).unwrap();
    let mut reversed = fresh();
    for e in edges.iter().rev() {
        reversed.add_fact("edge", e).unwrap();
    }
    // Two batches, one tuple twice, and a tuple added then retracted.
    let mut batched = fresh();
    batched.add_facts("edge", &edges[3..]).unwrap();
    batched.add_facts("edge", [[9u64, 9], [2, 3]]).unwrap();
    batched.retract_fact("edge", &[9, 9]).unwrap();
    batched.add_facts("edge", &edges[..3]).unwrap();
    let hash = one_batch.fact_stream_hash();
    assert_eq!(reversed.fact_stream_hash(), hash);
    assert_eq!(batched.fact_stream_hash(), hash);
    batched.add_fact("edge", &[9, 9]).unwrap();
    assert_ne!(batched.fact_stream_hash(), hash, "different facts");
}

#[test]
fn exact_count_after_incremental_deltas_matches_from_scratch() {
    let mut e = solve(
        TC,
        &[("edge", &[0, 1]), ("edge", &[1, 2]), ("edge", &[2, 3])],
    );
    assert_eq!(e.relation_count_exact("path").unwrap(), 6);
    assert_eq!(e.relation_count_exact("path").unwrap(), 6, "memoized");
    let deltas: [(bool, &[[u64; 2]]); 3] = [
        (true, &[[3, 4], [4, 5]]),
        (false, &[[1, 2]]),
        (true, &[[1, 2], [5, 0]]),
    ];
    let mut facts: Vec<[u64; 2]> = vec![[0, 1], [1, 2], [2, 3]];
    for (add, delta) in deltas {
        if add {
            e.add_facts("edge", delta).unwrap();
            facts.extend_from_slice(delta);
        } else {
            e.retract_facts("edge", delta).unwrap();
            facts.retain(|f| !delta.contains(f));
        }
        e.solve_incremental().unwrap();
        let fact_refs: Vec<(&str, &[u64])> = facts.iter().map(|f| ("edge", &f[..])).collect();
        let scratch = solve(TC, &fact_refs);
        for rel in ["edge", "path"] {
            assert_eq!(
                e.relation_count_exact(rel).unwrap(),
                scratch.relation_count_exact(rel).unwrap(),
                "{rel} after delta {delta:?}"
            );
        }
    }
}

const TC_1024: &str = r#"
DOMAINS
V 1024

RELATIONS
input edge (src : V, dst : V)
output path (src : V, dst : V)

RULES
path(x,y) :- edge(x,y).
path(x,z) :- path(x,y), edge(y,z).
"#;

#[test]
fn peak_live_nodes_resets_between_solves() {
    let program = Program::parse(TC_1024).unwrap();
    let mut e = Engine::new(program).unwrap();
    e.add_fact("edge", &[1, 2]).unwrap();
    e.add_fact("edge", &[2, 3]).unwrap();
    e.solve().unwrap();

    // Inflate the peak far beyond anything this tiny program touches:
    // a pairing function across distant variables is exponential in the
    // number of pairs under the fixed order.
    let m = e.manager().clone();
    {
        let mut f = m.one();
        for i in 0..11u32 {
            let eq = m.ithvar(i).xor(&m.ithvar(16 + i)).not();
            f = f.and(&eq);
        }
        assert!(m.stats().peak_live_nodes > 2048);
        drop(f);
    }

    // The stale high-water mark must not leak into the next solve's
    // report.
    let stats = e.solve().unwrap();
    assert!(
        stats.peak_live_nodes < 2048,
        "peak_live_nodes carried over from outside the solve: {}",
        stats.peak_live_nodes
    );
}
