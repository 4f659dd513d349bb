//! The incremental-solve oracle: random `add_facts`/`retract_facts`
//! delta sequences applied through [`Engine::solve_incremental`] must be
//! byte-identical to a from-scratch solve over the final fact set, with
//! dynamic reordering off and on, and with semi-naive and naive rounds.
//!
//! The program is built to exercise every incremental tier: a recursive
//! transitive closure (semi-naive resume), a stratified negation over it
//! (retraction fallback), and an island relation untouched by edge
//! deltas (stratum skipping).

use std::collections::BTreeSet;
use whale_datalog::{DatalogError, Engine, EngineOptions, Program, SolveStats};
use whale_testkit::Rng;

const PROGRAM: &str = "\
DOMAINS
V 64

RELATIONS
input edge (s : V, d : V)
input color (c : V)
output path (s : V, d : V)
output reach (d : V)
output node (n : V)
output unreached (n : V)
output colored (c : V)

RULES
path(x,y) :- edge(x,y).
path(x,z) :- path(x,y), edge(y,z).
reach(y) :- path(0,y).
node(x) :- edge(x,_).
node(y) :- edge(_,y).
unreached(x) :- node(x), !reach(x).
colored(x) :- color(x).
";

const OUTPUTS: [&str; 5] = ["path", "reach", "node", "unreached", "colored"];

fn make_engine(reorder: bool, seminaive: bool) -> Engine {
    let program = Program::parse(PROGRAM).unwrap();
    let options = EngineOptions {
        reorder,
        seminaive,
        ..EngineOptions::default()
    };
    Engine::with_options(program, options).unwrap()
}

/// Loads `edges`/`colors` into a fresh engine and solves from scratch —
/// the ground truth every incremental run is compared against.
fn reference_solve(
    edges: &BTreeSet<(u64, u64)>,
    colors: &BTreeSet<u64>,
    reorder: bool,
) -> (Vec<Vec<Vec<u64>>>, SolveStats) {
    let mut e = make_engine(reorder, true);
    e.add_facts("edge", edges.iter().map(|&(s, d)| vec![s, d]))
        .unwrap();
    e.add_facts("color", colors.iter().map(|&c| vec![c]))
        .unwrap();
    let stats = e.solve().unwrap();
    (snapshot(&e), stats)
}

fn snapshot(e: &Engine) -> Vec<Vec<Vec<u64>>> {
    OUTPUTS
        .iter()
        .map(|r| e.relation_tuples(r).unwrap())
        .collect()
}

#[test]
fn random_delta_sequences_match_from_scratch() {
    for seed in [11, 12, 13] {
        for reorder in [false, true] {
            for seminaive in [true, false] {
                check_one(seed, reorder, seminaive);
            }
        }
    }
}

fn check_one(seed: u64, reorder: bool, seminaive: bool) {
    let tag = format!("seed={seed} reorder={reorder} seminaive={seminaive}");
    let mut rng = Rng::seed_from_u64(seed);
    let mut edges: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut colors: BTreeSet<u64> = BTreeSet::new();

    let mut e = make_engine(reorder, seminaive);
    for _ in 0..12 {
        let t = (rng.below(16), rng.below(16));
        if edges.insert(t) {
            e.add_fact("edge", &[t.0, t.1]).unwrap();
        }
    }
    e.solve().unwrap();

    for step in 0..8 {
        // Mix adds and retracts; roughly a third of the steps touch the
        // island relation so stratum skipping gets exercised too.
        let n_add = rng.gen_range(1usize..4);
        for _ in 0..n_add {
            let t = (rng.below(16), rng.below(16));
            edges.insert(t);
            e.add_fact("edge", &[t.0, t.1]).unwrap();
        }
        if rng.gen_bool(0.6) && !edges.is_empty() {
            let victims: Vec<(u64, u64)> = {
                let all: Vec<_> = edges.iter().copied().collect();
                (0..rng.gen_range(1usize..3))
                    .map(|_| *rng.choose(&all))
                    .collect()
            };
            for v in victims {
                edges.remove(&v);
                e.retract_fact("edge", &[v.0, v.1]).unwrap();
            }
        }
        if rng.gen_bool(0.35) {
            let c = rng.below(16);
            colors.insert(c);
            e.add_fact("color", &[c]).unwrap();
        }

        let stats = e.solve_incremental().unwrap();
        assert!(stats.incremental, "{tag} step {step}");
        let (expected, _) = reference_solve(&edges, &colors, reorder);
        assert_eq!(snapshot(&e), expected, "{tag} step {step}");
    }
}

/// Additions that stay clear of negation resume the semi-naive fixpoint
/// directly: no fallback, untouched strata skipped, and strictly less
/// rule work than the from-scratch solve the oracle compares against.
#[test]
fn monotone_additions_resume_without_fallback() {
    for seed in [21, 22, 23] {
        let mut rng = Rng::seed_from_u64(seed);
        let mut edges: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut colors: BTreeSet<u64> = BTreeSet::new();
        let mut e = make_engine(false, true);
        for _ in 0..10 {
            let t = (rng.below(12), rng.below(12));
            if edges.insert(t) {
                e.add_fact("edge", &[t.0, t.1]).unwrap();
            }
        }
        e.solve().unwrap();

        // Island-only additions: the edge/path/negation strata are all
        // unaffected, so the resume tier applies and skips them.
        let c = rng.below(16);
        colors.insert(c);
        e.add_fact("color", &[c]).unwrap();
        let stats = e.solve_incremental().unwrap();
        assert!(stats.incremental && !stats.full_fallback, "seed {seed}");
        assert!(stats.strata_skipped > 0, "seed {seed}: {stats:?}");

        let (expected, cold) = reference_solve(&edges, &colors, false);
        assert_eq!(snapshot(&e), expected, "seed {seed}");
        assert!(
            stats.rule_applications < cold.rule_applications,
            "seed {seed}: incremental {} vs cold {}",
            stats.rule_applications,
            cold.rule_applications
        );
    }
}

/// Retracting a fact whose downstream slice contains a negation cannot
/// be repaired in place: the engine must fall back to a full re-solve —
/// and still land on exactly the from-scratch result.
#[test]
fn retraction_through_negation_falls_back_and_stays_correct() {
    let mut e = make_engine(false, true);
    let mut edges: BTreeSet<(u64, u64)> = [(0, 1), (1, 2), (2, 3), (5, 6)].into();
    for &(s, d) in &edges {
        e.add_fact("edge", &[s, d]).unwrap();
    }
    e.solve().unwrap();

    edges.remove(&(1, 2));
    e.retract_fact("edge", &[1, 2]).unwrap();
    let stats = e.solve_incremental().unwrap();
    assert!(stats.incremental && stats.full_fallback, "{stats:?}");
    let (expected, _) = reference_solve(&edges, &BTreeSet::new(), false);
    assert_eq!(snapshot(&e), expected);
    // 2 is no longer reachable from 0, so it reappears in `unreached`.
    assert!(e.relation_tuples("unreached").unwrap().contains(&vec![2]));
}

/// The full fallback is a fresh solve in all but name: after it, the
/// round and rule-application counts equal those of a new engine solving
/// the same facts.
#[test]
fn full_fallback_does_the_work_of_a_fresh_solve() {
    let mut e = make_engine(false, true);
    let mut edges: BTreeSet<(u64, u64)> = [(0, 1), (1, 2), (2, 3), (3, 1), (5, 6)].into();
    // The island stratum no edge reaches must be re-solved too.
    let colors: BTreeSet<u64> = [4].into();
    for &(s, d) in &edges {
        e.add_fact("edge", &[s, d]).unwrap();
    }
    e.add_fact("color", &[4]).unwrap();
    e.solve().unwrap();

    for victim in [(2, 3), (0, 1)] {
        edges.remove(&victim);
        e.retract_fact("edge", &[victim.0, victim.1]).unwrap();
        let stats = e.solve_incremental().unwrap();
        assert!(stats.full_fallback, "{victim:?}: {stats:?}");
        let (expected, fresh) = reference_solve(&edges, &colors, false);
        assert_eq!(snapshot(&e), expected, "{victim:?}");
        assert_eq!(stats.rounds, fresh.rounds, "{victim:?}");
        assert_eq!(
            stats.rule_applications, fresh.rule_applications,
            "{victim:?}"
        );
    }
}

/// A no-op `solve_incremental` (no pending deltas) does zero stratum
/// work: everything is skipped and the result is untouched.
#[test]
fn empty_delta_skips_every_stratum() {
    let mut e = make_engine(false, true);
    e.add_fact("edge", &[0, 1]).unwrap();
    e.add_fact("edge", &[1, 2]).unwrap();
    e.solve().unwrap();
    let before = snapshot(&e);
    let stats = e.solve_incremental().unwrap();
    assert!(stats.incremental);
    assert_eq!(stats.strata_resolved, 0, "{stats:?}");
    assert!(stats.strata_skipped > 0);
    assert_eq!(stats.rule_applications, 0);
    assert_eq!(snapshot(&e), before);
}

/// The daemon solves the same resident engine over and over; each solve
/// must start from the externally-supplied base facts, so N sequential
/// solves are bit-identical to N fresh engines — tuples and work counts.
#[test]
fn sequential_solves_match_fresh_engines() {
    for seed in [31, 32, 33] {
        let mut rng = Rng::seed_from_u64(seed);
        let edges: BTreeSet<(u64, u64)> = (0..14).map(|_| (rng.below(16), rng.below(16))).collect();
        let colors: BTreeSet<u64> = (0..3).map(|_| rng.below(16)).collect();

        let mut resident = make_engine(false, true);
        resident
            .add_facts("edge", edges.iter().map(|&(s, d)| vec![s, d]))
            .unwrap();
        resident
            .add_facts("color", colors.iter().map(|&c| vec![c]))
            .unwrap();

        for round in 0..3 {
            let stats = resident.solve().unwrap();
            let (expected, fresh_stats) = reference_solve(&edges, &colors, false);
            assert_eq!(snapshot(&resident), expected, "seed {seed} round {round}");
            assert_eq!(
                stats.rounds, fresh_stats.rounds,
                "seed {seed} round {round}"
            );
            assert_eq!(
                stats.rule_applications, fresh_stats.rule_applications,
                "seed {seed} round {round}"
            );
        }
    }
}

/// A BDD over variables outside a relation's attribute domains (here the
/// two-column `edge` offered as the one-column `color`) is refused with
/// `BadFact` by `set_relation_bdd` and by `warm_start`, before or after a
/// solve, and leaves every relation and the solved flag as they were.
#[test]
fn out_of_signature_bdds_are_refused_and_change_nothing() {
    const ALL: [&str; 7] = [
        "edge",
        "color",
        "path",
        "reach",
        "node",
        "unreached",
        "colored",
    ];
    let mut e = make_engine(false, true);
    e.add_facts("edge", [vec![0, 1], vec![1, 2], vec![2, 5]])
        .unwrap();
    e.add_facts("color", [vec![3]]).unwrap();
    let wide = e.relation_bdd("edge").unwrap();
    let snapshot =
        |e: &Engine| -> Vec<_> { ALL.iter().map(|r| e.relation_bdd(r).unwrap()).collect() };
    let is_bad_fact = |r: Result<(), DatalogError>| matches!(r, Err(DatalogError::BadFact(_)));

    for solved in [false, true] {
        if solved {
            e.solve().unwrap();
        }
        let before = snapshot(&e);
        assert!(is_bad_fact(e.set_relation_bdd("color", wide.clone())));
        // The first entry alone would be accepted; the second spoils the
        // batch, so neither is folded in.
        let batch = vec![
            ("path".to_string(), wide.clone()),
            ("color".to_string(), wide.clone()),
        ];
        assert!(is_bad_fact(e.warm_start(batch)));
        assert_eq!(snapshot(&e), before, "solved = {solved}");
        assert_eq!(e.is_solved(), solved);
        assert!(!e.has_pending_deltas());
    }
}
