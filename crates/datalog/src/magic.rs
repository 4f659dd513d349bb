//! The magic-set transformation: from a validated program plus a query
//! atom to a derived [`Program`] whose fixpoint computes only the
//! query-reachable slice.
//!
//! The rewrite consumes the adornment analysis (`crate::adorn`) and keeps
//! the *original relation names* rather than splitting a relation into one
//! copy per adornment ("merged" magic sets): for every restricted IDB
//! relation `R` used with pattern `p`, a magic predicate `magic$R$p` holds
//! the bound-column values `R` is demanded at, and each of `R`'s rules
//! gains one *guarded* variant per pattern with the magic atom prepended:
//!
//! ```text
//! magic$path$bf(0).                            # seed: the query's constants
//! path(x,y) :- magic$path$bf(x), e(x,y).       # guarded variants
//! path(x,z) :- magic$path$bf(x), path(x,y), e(y,z).
//! magic$path$bf(x) :- magic$path$bf(x).        # per-occurrence magic rules
//! ```
//!
//! Magic *definition* rules follow the SIPS order: the occurrence's bound
//! columns, derived from the guard plus the SIPS prefix of positive atoms
//! before it. Negated atoms and constraints never enter magic bodies —
//! dropping filters only enlarges the demanded set, which is sound.
//!
//! Only relations in *recursive components* of the dependency graph are
//! restricted. Demand pays for itself where a fixpoint iterates — a
//! restricted recursive relation converges in fewer semi-naive rounds —
//! while a non-recursive rule is applied once either way, so a guard
//! would only add rules and an extra join per application. Non-recursive
//! relations (and relations the adornment marked *full*, e.g. negated
//! ones) keep their original rules verbatim and receive no guard and no
//! magic predicate; the demanded slice still reaches the recursive core
//! through those rules' SIPS prefixes. Since guarded variants derive a
//! subset of the original rule and positive atoms read supersets of the
//! demanded tuples, the union over variants is exactly the original
//! fixpoint restricted to the demanded slice, and the query's answers
//! coincide with the full solve's.
//!
//! Magic predicates can re-route data flow (a magic body reads a prefix of
//! another relation's rule), which can push a negation inside a recursive
//! component even when the source program stratifies. The transformation
//! detects this on the derived program and falls back to
//! *reachability pruning only*: the original rules restricted to the
//! query-reachable slice, with no magic predicates at all.

use crate::adorn::{adorn, pattern_str, Pattern};
use crate::ast::{Atom, Literal, RelationDecl, RelationKind, Rule, Term};
use crate::graph::scc_topo_order;
use crate::program::Program;
use crate::DatalogError;
use std::collections::{HashMap, HashSet};

/// Result of [`transform`]: the derived program plus the counters
/// [`crate::SolveStats`] reports for the query solve.
pub(crate) struct MagicOutput {
    /// The program to solve in place of the original.
    pub program: Program,
    /// Seed plus magic-definition rules added by the rewrite.
    pub magic_rules: usize,
    /// Original rules dropped as unreachable from the query.
    pub pruned_rules: usize,
    /// False when the rewrite would break stratification and the program
    /// is only the reachability-pruned slice of the original.
    pub used_magic: bool,
    /// Lints from the adornment pass (unreachable rules, negation-blocked
    /// bindings).
    pub lints: Vec<DatalogError>,
}

/// Compiles `query` against `program` into a demand-restricted program.
///
/// # Errors
///
/// Query-atom validation errors from the adornment pass; any validation
/// error re-raised while building the derived program (indicates a bug in
/// the rewrite, since the source program already validated).
pub(crate) fn transform(program: &Program, query: &Atom) -> Result<MagicOutput, DatalogError> {
    let ad = adorn(program, query)?;
    let nrel = program.relations.len();
    let mut rules_of_head = vec![false; nrel];
    for rule in &program.rules {
        rules_of_head[program.relation_ix[&rule.head.relation]] = true;
    }
    let is_idb = |r: usize| rules_of_head[r];

    // Relations in recursive components of the (positive + negative)
    // dependency graph: only these are worth restricting — see the module
    // docs. Singleton components count when the relation reads itself.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nrel];
    let mut self_loop = vec![false; nrel];
    for rule in &program.rules {
        let h = program.relation_ix[&rule.head.relation];
        for lit in &rule.body {
            if let Literal::Atom { atom, .. } = lit {
                let b = program.relation_ix[&atom.relation];
                adj[b].push(h);
                self_loop[h] |= b == h;
            }
        }
    }
    let (comp_of, comps) = scc_topo_order(&adj);
    let recursive = |r: usize| comps[comp_of[r]].len() > 1 || self_loop[r];
    let demandable = |r: usize| is_idb(r) && !ad.full[r] && recursive(r);

    let q_rel = program.relation_ix[&query.relation];
    let q_pattern: Pattern = query
        .args
        .iter()
        .map(|t| matches!(t, Term::Const(_) | Term::Str(_)))
        .collect();

    // --- magic predicate names, deterministically assigned --------------
    let mut taken: HashSet<String> = program.relations.iter().map(|r| r.name.clone()).collect();
    let mut magic_name: HashMap<(usize, Pattern), String> = HashMap::new();
    let mut magic_decls: Vec<RelationDecl> = Vec::new();
    for (r, sigs) in ad.signatures.iter().enumerate() {
        for pattern in sigs {
            if !demandable(r) || !pattern.iter().any(|&b| b) {
                continue;
            }
            let mut name = format!(
                "magic${}${}",
                program.relations[r].name,
                pattern_str(pattern)
            );
            // `$` is a legal identifier character, so a user relation could
            // shadow the conventional name; uniquify defensively.
            while !taken.insert(name.clone()) {
                name.push('$');
            }
            magic_decls.push(RelationDecl {
                name: name.clone(),
                kind: RelationKind::Intermediate,
                attrs: program.relations[r]
                    .attrs
                    .iter()
                    .zip(pattern)
                    .filter(|(_, &b)| b)
                    .map(|(a, _)| a.clone())
                    .collect(),
                line: 0,
                col: 0,
            });
            magic_name.insert((r, pattern.clone()), name);
        }
    }

    // --- rules ----------------------------------------------------------
    let bound_args = |args: &[Term], pattern: &[bool]| -> Vec<Term> {
        args.iter()
            .zip(pattern)
            .filter(|(_, &b)| b)
            .map(|(t, _)| t.clone())
            .collect()
    };

    let mut rules: Vec<Rule> = Vec::new();
    let mut magic_rules = 0usize;
    let mut seen_magic: HashSet<String> = HashSet::new();
    let mut kept_original: HashSet<usize> = HashSet::new();
    let mut verbatim: HashSet<usize> = HashSet::new();

    // Seed: the query's constants, as a fact rule for the query pattern's
    // magic predicate. A non-recursive (or all-free, or EDB) query
    // relation has nothing to seed — its own rules stay verbatim and only
    // deeper recursive relations are restricted.
    if demandable(q_rel) {
        rules.push(Rule {
            head: Atom {
                relation: magic_name[&(q_rel, q_pattern.clone())].clone(),
                args: bound_args(&query.args, &q_pattern),
            },
            body: Vec::new(),
            line: 0,
            col: 0,
        });
        magic_rules += 1;
    }

    for variant in &ad.adorned {
        let rule = &program.rules[variant.rule_ix];
        let r = program.relation_ix[&rule.head.relation];
        let restricted = demandable(r);
        let guard = restricted.then(|| Literal::Atom {
            atom: Atom {
                relation: magic_name[&(r, variant.head_pattern.clone())].clone(),
                args: bound_args(&rule.head.args, &variant.head_pattern),
            },
            negated: false,
        });
        if restricted {
            // One guarded variant per demanded pattern. Variants whose
            // magic predicate receives no demand at runtime stay empty and
            // cost nothing: the solver skips applications with an empty
            // positive source.
            kept_original.insert(variant.rule_ix);
            let mut body = Vec::with_capacity(rule.body.len() + 1);
            body.extend(guard.clone());
            body.extend(rule.body.iter().cloned());
            rules.push(Rule {
                head: rule.head.clone(),
                body,
                line: rule.line,
                col: rule.col,
            });
        } else if verbatim.insert(variant.rule_ix) {
            // An unrestricted rule is emitted once, however many patterns
            // the adornment explored; every variant's SIPS below still
            // contributes demand to the restricted relations it reads.
            kept_original.insert(variant.rule_ix);
            rules.push(rule.clone());
        }

        // Magic definition rules: one per demandable occurrence, body
        // = guard (when the head itself is restricted) + the SIPS prefix
        // of positive atoms before it.
        for (k, (body_ix, apat)) in variant.sips.iter().enumerate() {
            let Literal::Atom { atom, .. } = &rule.body[*body_ix] else {
                unreachable!("sips indexes positive atoms");
            };
            let s = program.relation_ix[&atom.relation];
            if !demandable(s) || !apat.iter().any(|&b| b) {
                continue;
            }
            let mut mbody = Vec::with_capacity(k + 1);
            mbody.extend(guard.clone());
            for &(prefix_ix, _) in &variant.sips[..k] {
                mbody.push(rule.body[prefix_ix].clone());
            }
            let mrule = Rule {
                head: Atom {
                    relation: magic_name[&(s, apat.clone())].clone(),
                    args: bound_args(&atom.args, apat),
                },
                body: mbody,
                line: rule.line,
                col: rule.col,
            };
            // Distinct variants of one relation can demand the same
            // sub-atom identically; keep one copy.
            if seen_magic.insert(mrule.to_string()) {
                magic_rules += 1;
                rules.push(mrule);
            }
        }
    }

    let pruned_rules = program.rules.len() - kept_original.len();

    let mut decls: Vec<RelationDecl> = program
        .relations
        .iter()
        .enumerate()
        .filter(|&(r, _)| ad.reachable[r])
        .map(|(_, d)| d.clone())
        .collect();
    decls.extend(magic_decls);

    // All domains are kept, reachable or not: the derived engine runs on
    // the host engine's manager and physical domains, which are indexed
    // by logical domain (see `Engine::solve_query`).
    let derived = Program::from_parts(program.domains.clone(), decls, rules)?;

    if is_stratified(&derived) {
        return Ok(MagicOutput {
            program: derived,
            magic_rules,
            pruned_rules,
            used_magic: true,
            lints: ad.lints,
        });
    }

    // Fallback: reachability pruning only. A subprogram of a stratified
    // program is stratified, so this always solves.
    let decls: Vec<RelationDecl> = program
        .relations
        .iter()
        .enumerate()
        .filter(|&(r, _)| ad.reachable[r])
        .map(|(_, d)| d.clone())
        .collect();
    let rules: Vec<Rule> = program
        .rules
        .iter()
        .filter(|rule| ad.reachable[program.relation_ix[&rule.head.relation]])
        .cloned()
        .collect();
    let pruned_rules = program.rules.len() - rules.len();
    let fallback = Program::from_parts(program.domains.clone(), decls, rules)?;
    Ok(MagicOutput {
        program: fallback,
        magic_rules: 0,
        pruned_rules,
        used_magic: false,
        lints: ad.lints,
    })
}

/// Whether `p` stratifies: no negated dependency inside a recursive
/// component of the predicate dependency graph. Mirrors the check
/// [`crate::Engine::solve`] performs, but on the AST so the transformation
/// can fall back before an engine is built.
fn is_stratified(p: &Program) -> bool {
    let nrel = p.relations.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nrel];
    for rule in &p.rules {
        let h = p.relation_ix[&rule.head.relation];
        for lit in &rule.body {
            if let Literal::Atom { atom, .. } = lit {
                adj[p.relation_ix[&atom.relation]].push(h);
            }
        }
    }
    let (comp_of, _) = scc_topo_order(&adj);
    for rule in &p.rules {
        let h = p.relation_ix[&rule.head.relation];
        for lit in &rule.body {
            if let Literal::Atom {
                atom,
                negated: true,
            } = lit
            {
                if comp_of[p.relation_ix[&atom.relation]] == comp_of[h] {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;

    fn query(src: &str) -> Atom {
        parser::parse_query(src).unwrap()
    }

    const TC: &str = "\
DOMAINS
V 32

RELATIONS
input e (s : V, d : V)
output path (s : V, d : V)

RULES
path(x,y) :- e(x,y).
path(x,z) :- path(x,y), e(y,z).
";

    #[test]
    fn magic_rules_on_transitive_closure() {
        let p = Program::parse(TC).unwrap();
        let mt = transform(&p, &query("path(0, y)")).unwrap();
        assert!(mt.used_magic);
        assert_eq!(mt.pruned_rules, 0);
        // Seed plus the magic rule from the recursive occurrence.
        assert_eq!(mt.magic_rules, 2);
        let texts: Vec<String> = mt.program.rules().iter().map(|r| r.to_string()).collect();
        assert!(
            texts.contains(&"magic$path$bf(0).".to_string()),
            "{texts:?}"
        );
        assert!(
            texts.contains(&"path(x,y) :- magic$path$bf(x), e(x,y).".to_string()),
            "{texts:?}"
        );
        assert!(
            texts.contains(&"path(x,z) :- magic$path$bf(x), path(x,y), e(y,z).".to_string()),
            "{texts:?}"
        );
        assert!(
            texts.contains(&"magic$path$bf(x) :- magic$path$bf(x).".to_string()),
            "{texts:?}"
        );
        // The magic predicate is declared over the bound column only.
        let decl = mt
            .program
            .relations()
            .iter()
            .find(|r| r.name == "magic$path$bf")
            .unwrap();
        assert_eq!(decl.attrs, vec![("s".to_string(), "V".to_string())]);
        assert_eq!(decl.kind, RelationKind::Intermediate);
    }

    #[test]
    fn unreachable_rules_pruned() {
        let src = "\
DOMAINS
V 32

RELATIONS
input e (s : V, d : V)
output path (s : V, d : V)
output island (s : V)

RULES
path(x,y) :- e(x,y).
island(x) :- e(x,x).
";
        let p = Program::parse(src).unwrap();
        let mt = transform(&p, &query("path(0, y)")).unwrap();
        assert_eq!(mt.pruned_rules, 1);
        assert!(mt.program.relations().iter().all(|r| r.name != "island"));
        assert!(mt
            .lints
            .iter()
            .any(|l| matches!(l, DatalogError::UnreachableRule { .. })));
    }

    #[test]
    fn all_free_query_degrades_to_pruning() {
        let p = Program::parse(TC).unwrap();
        let mt = transform(&p, &query("path(x, y)")).unwrap();
        // No bound column anywhere: path is full, nothing magic to do.
        assert_eq!(mt.magic_rules, 0);
        assert!(mt
            .program
            .relations()
            .iter()
            .all(|r| !r.name.starts_with("magic$")));
    }

    #[test]
    fn stratification_break_falls_back_to_pruning() {
        // Original strata are acyclic: y2 < s < r2 < w < out2 (y2 is
        // recursive on its own, so it is demandable). The rewrite leaves
        // the negated `s` full, but `y2` stays restricted at pattern `bf`
        // (all its uses bind the first column), and its demand in out2's
        // rule arrives through the prefix atom `w`:
        //
        //     magic$y2$bf(x) :- w(x).
        //
        // That adds the edge w -> magic$y2$bf, closing the cycle
        // r2 -> w -> magic$y2$bf -> y2 -> s -!-> r2, which traps the
        // negation !s inside a recursive component — unstratifiable, so
        // the transformation must fall back to pure reachability pruning.
        let src = "\
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
";
        let p = Program::parse(src).unwrap();
        let mt = transform(&p, &query("out2(3)")).unwrap();
        assert!(!mt.used_magic);
        assert_eq!(mt.magic_rules, 0);
        assert_eq!(mt.pruned_rules, 0);
        assert!(mt
            .program
            .relations()
            .iter()
            .all(|r| !r.name.starts_with("magic$")));
        // The fallback slice still solves (it is the original program).
        assert_eq!(mt.program.rules().len(), 6);
    }

    #[test]
    fn magic_name_collision_uniquified() {
        let src = "\
DOMAINS
V 16

RELATIONS
input e (s : V, d : V)
magic$path$bf (s : V)
output path (s : V, d : V)

RULES
path(x,y) :- e(x,y), magic$path$bf(x).
path(x,z) :- path(x,y), e(y,z).
";
        let p = Program::parse(src).unwrap();
        let mt = transform(&p, &query("path(0, y)")).unwrap();
        assert!(mt.used_magic);
        // The generated predicate dodged the user's name.
        assert!(mt
            .program
            .relations()
            .iter()
            .any(|r| r.name == "magic$path$bf$"));
    }
}
