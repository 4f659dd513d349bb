//! Differential testing: the BDD engine against a naive tuple-based
//! reference evaluator on randomly generated positive Datalog programs.
//!
//! Runs on the in-tree `whale-testkit` harness: 64 cases, failing seeds
//! are printed and replayable with `TESTKIT_SEED=<n>`.

use std::collections::BTreeSet;
use whale_datalog::{Engine, EngineOptions, Program};
use whale_testkit::{check, Gen, Rng};

const DOM: u64 = 8;
const CASES: u32 = 64;

/// A random rule over a fixed schema of three binary relations
/// `r0, r1, r2` (r0 is input; r1, r2 are outputs), built to be safe by
/// construction: head vars come from the body's variable pool.
#[derive(Debug, Clone)]
struct RRule {
    head_rel: usize,              // 1 or 2
    head_args: [usize; 2],        // indices into the var pool 0..4
    body: Vec<(usize, [Arg; 2])>, // (relation, args)
}

#[derive(Debug, Clone, Copy)]
enum Arg {
    Var(usize),
    Const(u64),
}

/// One whole test case: a rule set, input facts for `r0`, and the
/// engine's evaluation mode.
#[derive(Debug, Clone)]
struct Case {
    rules: Vec<RRule>,
    facts: BTreeSet<(u64, u64)>,
    seminaive: bool,
}

fn gen_arg(rng: &mut Rng) -> Arg {
    if rng.gen_bool(0.5) {
        Arg::Var(rng.gen_range(0..4usize))
    } else {
        Arg::Const(rng.gen_range(0..DOM))
    }
}

/// Head vars must appear in the body (safety); re-draw until they do.
fn head_bound(r: &RRule) -> bool {
    let bound: Vec<usize> = r
        .body
        .iter()
        .flat_map(|(_, args)| args.iter())
        .filter_map(|a| match a {
            Arg::Var(v) => Some(*v),
            _ => None,
        })
        .collect();
    r.head_args.iter().all(|v| bound.contains(v))
}

fn gen_rule(rng: &mut Rng) -> RRule {
    loop {
        let r = RRule {
            head_rel: rng.gen_range(1..3usize),
            head_args: [rng.gen_range(0..4usize), rng.gen_range(0..4usize)],
            body: (0..rng.gen_range(1..4usize))
                .map(|_| (rng.gen_range(0..3usize), [gen_arg(rng), gen_arg(rng)]))
                .collect(),
        };
        if head_bound(&r) {
            return r;
        }
    }
}

fn arb_case() -> Gen<Case> {
    Gen::new(|rng| {
        let rules = (0..rng.gen_range(1..5usize))
            .map(|_| gen_rule(rng))
            .collect();
        let nfacts = rng.gen_range(0..12usize);
        let facts = (0..nfacts)
            .map(|_| (rng.gen_range(0..DOM), rng.gen_range(0..DOM)))
            .collect();
        Case {
            rules,
            facts,
            seminaive: rng.gen_bool(0.5),
        }
    })
    .with_shrink(|c: &Case| {
        let mut out = Vec::new();
        // Drop one rule at a time (rule bodies stay safe).
        for i in 0..c.rules.len() {
            if c.rules.len() > 1 {
                let mut s = c.clone();
                s.rules.remove(i);
                out.push(s);
            }
        }
        // Drop one fact at a time.
        for f in &c.facts {
            let mut s = c.clone();
            s.facts.remove(f);
            out.push(s);
        }
        // Drop one body atom at a time where the rule stays safe.
        for (i, r) in c.rules.iter().enumerate() {
            for j in 0..r.body.len() {
                if r.body.len() > 1 {
                    let mut nr = r.clone();
                    nr.body.remove(j);
                    if head_bound(&nr) {
                        let mut s = c.clone();
                        s.rules[i] = nr;
                        out.push(s);
                    }
                }
            }
        }
        out
    })
}

fn program_text(rules: &[RRule]) -> String {
    let mut s = String::from(
        "DOMAINS\nD 8\nRELATIONS\ninput r0 (a : D, b : D)\noutput r1 (a : D, b : D)\noutput r2 (a : D, b : D)\nRULES\n",
    );
    for r in rules {
        let arg = |a: &Arg| match a {
            Arg::Var(v) => format!("v{v}"),
            Arg::Const(c) => format!("{c}"),
        };
        s.push_str(&format!(
            "r{}(v{},v{}) :- ",
            r.head_rel, r.head_args[0], r.head_args[1]
        ));
        let body: Vec<String> = r
            .body
            .iter()
            .map(|(rel, args)| format!("r{rel}({},{})", arg(&args[0]), arg(&args[1])))
            .collect();
        s.push_str(&body.join(", "));
        s.push_str(".\n");
    }
    s
}

/// Naive reference: iterate all rules over all substitutions to fixpoint.
fn reference_solve(rules: &[RRule], r0: &BTreeSet<(u64, u64)>) -> [BTreeSet<(u64, u64)>; 3] {
    let mut rels: [BTreeSet<(u64, u64)>; 3] = [r0.clone(), BTreeSet::new(), BTreeSet::new()];
    loop {
        let mut changed = false;
        for rule in rules {
            // Enumerate substitutions for the (at most 4) variables.
            let mut derived: Vec<(u64, u64)> = Vec::new();
            let mut assign = [0u64; 4];
            enumerate(rule, &rels, 0, &mut assign, &mut derived);
            for t in derived {
                if rels[rule.head_rel].insert(t) {
                    changed = true;
                }
            }
        }
        if !changed {
            return rels;
        }
    }
}

fn enumerate(
    rule: &RRule,
    rels: &[BTreeSet<(u64, u64)>; 3],
    var: usize,
    assign: &mut [u64; 4],
    out: &mut Vec<(u64, u64)>,
) {
    if var == 4 {
        let sat = rule.body.iter().all(|(rel, args)| {
            let val = |a: &Arg| match a {
                Arg::Var(v) => assign[*v],
                Arg::Const(c) => *c,
            };
            rels[*rel].contains(&(val(&args[0]), val(&args[1])))
        });
        if sat {
            out.push((assign[rule.head_args[0]], assign[rule.head_args[1]]));
        }
        return;
    }
    for v in 0..DOM {
        assign[var] = v;
        enumerate(rule, rels, var + 1, assign, out);
    }
}

#[test]
fn bdd_engine_matches_reference() {
    check("bdd_engine_matches_reference", CASES, &arb_case(), |case| {
        let src = program_text(&case.rules);
        let program = Program::parse(&src).unwrap();
        let mut engine = Engine::with_options(
            program,
            EngineOptions {
                seminaive: case.seminaive,
                order: None,
                reorder: false,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        for &(a, b) in &case.facts {
            engine.add_fact("r0", &[a, b]).unwrap();
        }
        engine.solve().unwrap();
        let expected = reference_solve(&case.rules, &case.facts);
        for rel in [1usize, 2] {
            let mut got: Vec<(u64, u64)> = engine
                .relation_tuples(&format!("r{rel}"))
                .unwrap()
                .into_iter()
                .map(|t| (t[0], t[1]))
                .collect();
            got.sort_unstable();
            let want: Vec<(u64, u64)> = expected[rel].iter().copied().collect();
            if got != want {
                return Err(format!(
                    "relation r{rel} mismatch: got {got:?}, want {want:?} for program:\n{src}"
                ));
            }
        }
        Ok(())
    });
}
