//! Adornment (binding-pattern) analysis for demand-driven queries.
//!
//! Given a validated [`Program`] and a query atom, this pass propagates
//! *bound*/*free* binding patterns from the query through rule bodies with
//! a deterministic sideways-information-passing strategy (SIPS), producing
//! per-relation binding signatures and, per rule, the adorned variants the
//! magic-set transformation (`crate::magic`) turns into guarded rules.
//!
//! A binding pattern is one flag per argument position: `true` (rendered
//! `b`) when the position's value is known at call time — a constant in
//! the query, or a variable already bound by the head or an earlier body
//! atom — and `false` (`f`) otherwise. The SIPS is total and
//! deterministic: among the not-yet-selected positive body atoms, pick the
//! one with the most bound argument terms, breaking ties by body order;
//! after selection all of the atom's variables are bound. Determinism
//! matters because the magic rewrite and its rule counts must be
//! reproducible across runs and job counts.
//!
//! Relations that cannot usefully be restricted are *full* — solved
//! unrestricted, exactly as in the original program. A relation is full
//! when some use derives the all-free pattern (a magic predicate with no
//! bound column carries no information) or when it occurs under negation
//! (restricting a negated relation to a subset would change the complement
//! and is unsound); the latter is reported as a
//! [`DatalogError::NegationBlocksBinding`] lint. Full-ness is handled
//! inside the same worklist: the all-free pattern is just another adorned
//! predicate, and its rule variants are the original rules verbatim.
//!
//! The pass also doubles as the static safety/lint layer the query path
//! reports through: rules whose head cannot contribute to the query are
//! [`DatalogError::UnreachableRule`] lints, and a defensive
//! range-restriction re-check flags head variables left unbound after the
//! SIPS walk (impossible for programs that passed validation, but this
//! pass is also exercised on programmatically derived rules).

use crate::ast::{Literal, Term};
use crate::program::Program;
use crate::DatalogError;
use std::collections::{BTreeSet, HashSet, VecDeque};

/// One flag per argument position; `true` = bound.
pub(crate) type Pattern = Vec<bool>;

/// Renders a pattern in the classic `b`/`f` notation (`bf`, `bbf`, ...).
pub(crate) fn pattern_str(p: &[bool]) -> String {
    p.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
}

/// One adorned variant of one rule: the head's binding pattern plus the
/// SIPS order over the rule's positive body atoms.
#[derive(Debug, Clone)]
pub(crate) struct AdornedRule {
    /// Index of the source rule in the program.
    pub rule_ix: usize,
    /// The head relation's binding pattern for this variant.
    pub head_pattern: Pattern,
    /// Positive body occurrences in SIPS order: the literal's index in
    /// `rule.body` and the occurrence's derived binding pattern at
    /// selection time.
    pub sips: Vec<(usize, Pattern)>,
}

/// Everything the magic-set transformation needs from the adornment pass.
#[derive(Debug)]
pub(crate) struct AdornResult {
    /// Adorned rule variants, in deterministic worklist order.
    pub adorned: Vec<AdornedRule>,
    /// Per relation: every binding pattern it is used with. Non-empty only
    /// for IDB relations reachable from the query.
    pub signatures: Vec<BTreeSet<Pattern>>,
    /// Per relation: reachable from the query atom (EDB and IDB alike).
    pub reachable: Vec<bool>,
    /// Per relation: must be solved unrestricted. True iff the all-free
    /// pattern is in the relation's signature.
    pub full: Vec<bool>,
    /// Lints: unreachable rules, negation-blocked bindings, and (defensive)
    /// range-restriction violations.
    pub lints: Vec<DatalogError>,
}

/// Runs the adornment analysis for `query` over `program`.
///
/// # Errors
///
/// [`DatalogError::UnknownRelation`] (with a nearest-name suggestion),
/// [`DatalogError::ArityMismatch`] or [`DatalogError::ConstantOutOfRange`]
/// when the query atom itself is malformed.
pub(crate) fn adorn(
    program: &Program,
    query: &crate::ast::Atom,
) -> Result<AdornResult, DatalogError> {
    let q_rel = program.check_atom(query)?;

    let nrel = program.relations.len();
    let mut rules_of: Vec<Vec<usize>> = vec![Vec::new(); nrel];
    for (i, rule) in program.rules.iter().enumerate() {
        rules_of[program.relation_ix[&rule.head.relation]].push(i);
    }
    let is_idb = |r: usize| !rules_of[r].is_empty();

    let q_pattern: Pattern = query
        .args
        .iter()
        .map(|t| matches!(t, Term::Const(_) | Term::Str(_)))
        .collect();

    let mut signatures: Vec<BTreeSet<Pattern>> = vec![BTreeSet::new(); nrel];
    let mut reachable = vec![false; nrel];
    let mut lints = Vec::new();
    let mut adorned = Vec::new();
    let mut queue: VecDeque<(usize, Pattern)> = VecDeque::new();

    reachable[q_rel] = true;
    if is_idb(q_rel) && signatures[q_rel].insert(q_pattern.clone()) {
        queue.push_back((q_rel, q_pattern));
    }

    // Lint dedup: (rule_ix, relation) pairs already reported for
    // negation-blocked bindings — variants of one rule would repeat them.
    let mut neg_reported: HashSet<(usize, usize)> = HashSet::new();

    while let Some((rel, pattern)) = queue.pop_front() {
        for &ri in &rules_of[rel] {
            let rule = &program.rules[ri];
            // Head variables at bound positions are bound at rule entry
            // (the guard atom will supply them).
            let mut bound: HashSet<&str> = HashSet::new();
            for (term, &b) in rule.head.args.iter().zip(&pattern) {
                if b {
                    if let Term::Var(v) = term {
                        bound.insert(v.as_str());
                    }
                }
            }

            let positives: Vec<(usize, &crate::ast::Atom)> = rule
                .body
                .iter()
                .enumerate()
                .filter_map(|(i, lit)| match lit {
                    Literal::Atom {
                        atom,
                        negated: false,
                    } => Some((i, atom)),
                    _ => None,
                })
                .collect();

            let bound_args = |atom: &crate::ast::Atom, bound: &HashSet<&str>| {
                atom.args
                    .iter()
                    .filter(|t| match t {
                        Term::Const(_) | Term::Str(_) => true,
                        Term::Var(v) => bound.contains(v.as_str()),
                        Term::Wildcard => false,
                    })
                    .count()
            };

            let mut remaining: Vec<usize> = (0..positives.len()).collect();
            let mut sips = Vec::with_capacity(positives.len());
            while !remaining.is_empty() {
                // Most bound argument terms wins; body order breaks ties
                // (strict `>` keeps the earliest).
                let mut best = 0;
                for k in 1..remaining.len() {
                    if bound_args(positives[remaining[k]].1, &bound)
                        > bound_args(positives[remaining[best]].1, &bound)
                    {
                        best = k;
                    }
                }
                let pick = remaining.remove(best);
                let (body_ix, atom) = positives[pick];
                let apat: Pattern = atom
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Const(_) | Term::Str(_) => true,
                        Term::Var(v) => bound.contains(v.as_str()),
                        Term::Wildcard => false,
                    })
                    .collect();
                let arel = program.relation_ix[&atom.relation];
                reachable[arel] = true;
                if is_idb(arel) && signatures[arel].insert(apat.clone()) {
                    queue.push_back((arel, apat.clone()));
                }
                for t in &atom.args {
                    if let Term::Var(v) = t {
                        bound.insert(v.as_str());
                    }
                }
                sips.push((body_ix, apat));
            }

            // Negated occurrences: bindings cannot pass through — a magic
            // guard would shrink the complement. The relation is solved
            // unrestricted (all-free adornment).
            for lit in &rule.body {
                if let Literal::Atom {
                    atom,
                    negated: true,
                } = lit
                {
                    let arel = program.relation_ix[&atom.relation];
                    reachable[arel] = true;
                    if is_idb(arel) {
                        if neg_reported.insert((ri, arel)) {
                            lints.push(DatalogError::NegationBlocksBinding {
                                relation: atom.relation.clone(),
                                rule: rule.to_string(),
                                line: rule.line,
                                col: rule.col,
                            });
                        }
                        let all_free = vec![false; atom.args.len()];
                        if signatures[arel].insert(all_free.clone()) {
                            queue.push_back((arel, all_free));
                        }
                    }
                }
            }

            // Defensive range-restriction re-check: after the full SIPS
            // walk every head variable must be bound (guaranteed for
            // validated programs, re-asserted for derived ones).
            for term in &rule.head.args {
                if let Term::Var(v) = term {
                    if !bound.contains(v.as_str()) {
                        lints.push(DatalogError::UnsafeHeadVar {
                            var: v.clone(),
                            rule: rule.to_string(),
                            line: rule.line,
                            col: rule.col,
                        });
                    }
                }
            }

            adorned.push(AdornedRule {
                rule_ix: ri,
                head_pattern: pattern.clone(),
                sips,
            });
        }
    }

    let full: Vec<bool> = signatures
        .iter()
        .enumerate()
        .map(|(r, sigs)| {
            let arity = program.relations[r].attrs.len();
            sigs.contains(&vec![false; arity])
        })
        .collect();

    // Rules whose head the query can never observe.
    for rule in &program.rules {
        if !reachable[program.relation_ix[&rule.head.relation]] {
            lints.push(DatalogError::UnreachableRule {
                rule: rule.to_string(),
                line: rule.line,
                col: rule.col,
            });
        }
    }

    Ok(AdornResult {
        adorned,
        signatures,
        reachable,
        full,
        lints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Atom;
    use crate::parser;

    fn atom(src: &str) -> Atom {
        parser::parse_query(src).unwrap()
    }

    /// Algorithm 1 of the paper: querying the points-to set of one
    /// variable adorns `vP` bound-free and drives `hP` through the load
    /// rule.
    const ALG1: &str = "\
DOMAINS
V 16
H 16
F 4

RELATIONS
input vP0 (v : V, h : H)
input store (b : V, f : F, s : V)
input load (b : V, f : F, d : V)
input assign (d : V, s : V)
output vP (v : V, h : H)
output hP (b : H, f : F, t : H)

RULES
vP(v,h) :- vP0(v,h).
vP(v1,h) :- assign(v1,v2), vP(v2,h).
hP(h1,f,h2) :- store(v1,f,v2), vP(v1,h1), vP(v2,h2).
vP(v2,h2) :- load(v1,f,v2), vP(v1,h1), hP(h1,f,h2).
";

    #[test]
    fn adornment_fixpoint_on_algorithm_1() {
        let p = Program::parse(ALG1).unwrap();
        let ad = adorn(&p, &atom("vP(3, h)")).unwrap();
        let rel = |n: &str| p.relation_ix[n];
        // The query adorns vP with `bf`. In the assign rule the SIPS
        // selects `assign(v1,v2)` first (its v1 is bound), which binds v2,
        // so the recursive vP occurrence stays `bf` — vP never goes full
        // and the whole fixpoint is demand-restricted. The store rule
        // (reached through hP^bbf) re-adorns vP with `bb`.
        let vp_sigs: Vec<String> = ad.signatures[rel("vP")]
            .iter()
            .map(|s| pattern_str(s))
            .collect();
        assert!(vp_sigs.contains(&"bf".to_string()), "{vp_sigs:?}");
        assert!(vp_sigs.contains(&"bb".to_string()), "{vp_sigs:?}");
        assert!(!ad.full[rel("vP")]);
        assert!(ad.signatures[rel("hP")]
            .iter()
            .any(|s| pattern_str(s) == "bbf"));
        // Everything is reachable from the vP query: hP feeds the load
        // rule and all EDB relations appear in some body.
        assert!(ad.reachable.iter().all(|&r| r), "{:?}", ad.reachable);
        // Deterministic: running again yields the same variants.
        let ad2 = adorn(&p, &atom("vP(3, h)")).unwrap();
        let key = |a: &AdornedRule| (a.rule_ix, a.head_pattern.clone(), a.sips.clone());
        let mut k1: Vec<_> = ad.adorned.iter().map(key).collect();
        let mut k2: Vec<_> = ad2.adorned.iter().map(key).collect();
        k1.sort();
        k2.sort();
        assert_eq!(k1, k2);
    }

    #[test]
    fn sips_prefers_most_bound_atom() {
        let src = "\
DOMAINS
V 16

RELATIONS
input a (x : V, y : V)
input b (x : V, y : V)
output out (x : V, y : V)

RULES
out(x,y) :- a(y,z), b(x,z).
";
        let p = Program::parse(src).unwrap();
        // Query binds x only: b(x,z) has one bound arg, a(y,z) none — the
        // SIPS must pick b first even though a comes first in the body.
        let ad = adorn(&p, &atom("out(0, y)")).unwrap();
        let v = &ad.adorned[0];
        assert_eq!(pattern_str(&v.head_pattern), "bf");
        let order: Vec<usize> = v.sips.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, vec![1, 0], "b first, then a");
        assert_eq!(pattern_str(&v.sips[0].1), "bf"); // b(x,z): x bound
        assert_eq!(pattern_str(&v.sips[1].1), "fb"); // a(y,z): z now bound
    }

    #[test]
    fn negation_blocks_binding_and_lints() {
        let src = "\
DOMAINS
V 16

RELATIONS
input a (x : V)
input e (x : V, y : V)
blocked (x : V)
output out (x : V)

RULES
blocked(x) :- e(x,_).
out(x) :- a(x), !blocked(x).
";
        let p = Program::parse(src).unwrap();
        let ad = adorn(&p, &atom("out(3)")).unwrap();
        let blocked = p.relation_ix["blocked"];
        assert!(ad.full[blocked]);
        assert!(
            ad.lints.iter().any(
                |l| matches!(l, DatalogError::NegationBlocksBinding { relation, .. }
                    if relation == "blocked")
            ),
            "{:?}",
            ad.lints
        );
    }

    #[test]
    fn unreachable_rules_linted() {
        let src = "\
DOMAINS
V 16

RELATIONS
input e (x : V, y : V)
output path (x : V, y : V)
output island (x : V)

RULES
path(x,y) :- e(x,y).
path(x,z) :- path(x,y), e(y,z).
island(x) :- e(x,x).
";
        let p = Program::parse(src).unwrap();
        let ad = adorn(&p, &atom("path(0, y)")).unwrap();
        assert!(!ad.reachable[p.relation_ix["island"]]);
        let unreachable: Vec<&str> = ad
            .lints
            .iter()
            .filter_map(|l| match l {
                DatalogError::UnreachableRule { rule, .. } => Some(rule.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(unreachable, vec!["island(x) :- e(x,x)."]);
    }

    #[test]
    fn query_atom_validated() {
        let p = Program::parse(ALG1).unwrap();
        let e = adorn(&p, &atom("vPx(0, h)")).unwrap_err();
        match e {
            DatalogError::UnknownRelation { name, suggestion } => {
                assert_eq!(name, "vPx");
                assert_eq!(suggestion.as_deref(), Some("vP"));
            }
            other => panic!("expected UnknownRelation, got {other:?}"),
        }
        assert!(matches!(
            adorn(&p, &atom("vP(0)")).unwrap_err(),
            DatalogError::ArityMismatch { .. }
        ));
        assert!(matches!(
            adorn(&p, &atom("vP(99, h)")).unwrap_err(),
            DatalogError::ConstantOutOfRange { .. }
        ));
    }
}
