//! Static program analyzer behind `bddbddb --check` / `whale --lint`.
//!
//! Runs compiler-grade passes over a validated [`Program`] and reports
//! structured [`Diagnostic`]s:
//!
//! * every validation/lint warning the program already carries
//!   (`W001`-`W005`), re-expressed with spans and stable codes;
//! * **cross-product detection** (`W006`): positive body atoms that share
//!   no variables force a cartesian product;
//! * a **static cost model** (`W007`): the join search space estimated as
//!   the product of domain sizes over a rule's distinct variables, with
//!   the full cost-sorted rule list reported for `--check` output;
//! * **duplicate** (`W008`) and **subsumed** (`W009`) rule detection up
//!   to variable renaming and body-literal order;
//! * a **static stratification check** (`E010`) with a precise
//!   negation-cycle witness path, caught before any engine is built.

use crate::ast::{Literal, Term};
use crate::diag::{Diagnostic, Severity};
use crate::engine::negation_cycle;
use crate::graph::scc_topo_order;
use crate::json::json_string;
use crate::{DatalogError, Program};
use std::collections::HashMap;

/// Joins above `2^EXPENSIVE_LOG2` estimated assignments get a `W007`.
const EXPENSIVE_LOG2: f64 = 40.0;

/// One entry of the estimated-cost-sorted rule list.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleCost {
    /// The rule, pretty-printed.
    pub rule: String,
    /// 1-based source line (0 for programmatic rules).
    pub line: usize,
    /// 1-based source column (0 for programmatic rules).
    pub col: usize,
    /// log2 of the estimated join search space: the product of domain
    /// sizes over the rule's distinct named variables plus one factor per
    /// wildcard position.
    pub cost_log2: f64,
}

/// Result of [`analyze`]: structured diagnostics plus the cost model's
/// rule list, sorted most-expensive-first.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// All findings, sorted by source position then code.
    pub diagnostics: Vec<Diagnostic>,
    /// Every rule's static cost estimate, most expensive first.
    pub rule_costs: Vec<RuleCost>,
}

impl Analysis {
    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Renders every diagnostic with carets plus a summary line and the
    /// cost-sorted rule list.
    pub fn render_text(&self, file: &str, src: Option<&str>) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(file, src));
            out.push_str("\n\n");
        }
        out.push_str(&format!(
            "{file}: {} error(s), {} warning(s)\n",
            self.error_count(),
            self.warning_count()
        ));
        if !self.rule_costs.is_empty() {
            out.push_str("rule cost estimates (log2 of join search space, descending):\n");
            for c in &self.rule_costs {
                out.push_str(&format!(
                    "  2^{:<5.1} line {:<4} {}\n",
                    c.cost_log2, c.line, c.rule
                ));
            }
        }
        out
    }

    /// Renders the whole analysis as one JSON document (stable shape, no
    /// external dependencies).
    pub fn to_json(&self, file: &str) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"file\":{}", json_string(file)));
        s.push_str(&format!(",\"errors\":{}", self.error_count()));
        s.push_str(&format!(",\"warnings\":{}", self.warning_count()));
        s.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&d.to_json(file));
        }
        s.push_str("],\"rule_costs\":[");
        for (i, c) in self.rule_costs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rule\":{},\"line\":{},\"col\":{},\"cost_log2\":{:.1}}}",
                json_string(&c.rule),
                c.line,
                c.col,
                c.cost_log2
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Parses and analyzes `src`, folding parse/validation errors into the
/// diagnostic list instead of returning early — the CLI `--check` entry
/// point.
pub fn check_source(src: &str) -> Analysis {
    match Program::parse(src) {
        Ok(p) => analyze(&p),
        Err(e) => Analysis {
            diagnostics: vec![Diagnostic::from_error(&e)],
            rule_costs: Vec::new(),
        },
    }
}

/// Runs every analyzer pass over a validated program.
pub fn analyze(program: &Program) -> Analysis {
    let mut diags: Vec<Diagnostic> = program
        .warnings()
        .iter()
        .map(Diagnostic::from_error)
        .collect();
    let costs = cost_model(program, &mut diags);
    cross_products(program, &mut diags);
    duplicates_and_subsumption(program, &mut diags);
    stratification(program, &mut diags);
    // Deterministic order: by position, then code, then message.
    diags.sort_by(|a, b| {
        (a.span.line, a.span.col, a.code, &a.message).cmp(&(
            b.span.line,
            b.span.col,
            b.code,
            &b.message,
        ))
    });
    Analysis {
        diagnostics: diags,
        rule_costs: costs,
    }
}

/// Static cost model: the join search space of a rule is bounded by the
/// product of domain sizes over its distinct named variables, plus one
/// factor per wildcard position (each ranges over its column's domain
/// before projection). Returns the sorted list and pushes `W007` for
/// blow-up-prone rules.
fn cost_model(program: &Program, diags: &mut Vec<Diagnostic>) -> Vec<RuleCost> {
    let mut costs = Vec::with_capacity(program.rules.len());
    for (ri, rule) in program.rules.iter().enumerate() {
        let mut log2 = 0.0f64;
        for &dom in program.rule_var_domains[ri].values() {
            log2 += (program.domains[dom].size.max(1) as f64).log2();
        }
        // Wildcard positions: scan all atoms of the rule.
        let mut visit_atom = |atom: &crate::ast::Atom| {
            if let Some(&rel) = program.relation_ix.get(&atom.relation) {
                for ((_, dom_name), term) in program.relations[rel].attrs.iter().zip(&atom.args) {
                    if matches!(term, Term::Wildcard) {
                        let dom = program.domain_ix[dom_name];
                        log2 += (program.domains[dom].size.max(1) as f64).log2();
                    }
                }
            }
        };
        visit_atom(&rule.head);
        for lit in &rule.body {
            if let Literal::Atom { atom, .. } = lit {
                visit_atom(atom);
            }
        }
        costs.push(RuleCost {
            rule: rule.to_string(),
            line: rule.line,
            col: rule.col,
            cost_log2: log2,
        });
        if log2 >= EXPENSIVE_LOG2 {
            diags.push(Diagnostic::from_error(&DatalogError::ExpensiveRule {
                rule: rule.to_string(),
                line: rule.line,
                col: rule.col,
                cost_log2: log2.round() as u32,
            }));
        }
    }
    costs.sort_by(|a, b| {
        b.cost_log2
            .partial_cmp(&a.cost_log2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.line.cmp(&b.line))
    });
    costs
}

/// Cross-product detection: group a rule's positive body atoms by shared
/// variables (constraints also link the variables they compare). Two or
/// more groups mean the join degenerates into a cartesian product.
fn cross_products(program: &Program, diags: &mut Vec<Diagnostic>) {
    for rule in &program.rules {
        let atoms: Vec<&crate::ast::Atom> = rule
            .body
            .iter()
            .filter_map(|l| match l {
                Literal::Atom {
                    atom,
                    negated: false,
                } => Some(atom),
                _ => None,
            })
            .collect();
        if atoms.len() < 2 {
            continue;
        }
        // Union-find over atom indices; variables map to the first atom
        // that bound them. Constraint literals union their operands'
        // groups.
        let mut parent: Vec<usize> = (0..atoms.len()).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let r = find(parent, parent[i]);
                parent[i] = r;
            }
            parent[i]
        }
        let mut var_home: HashMap<&str, usize> = HashMap::new();
        for (i, atom) in atoms.iter().enumerate() {
            for term in &atom.args {
                if let Term::Var(v) = term {
                    match var_home.get(v.as_str()) {
                        Some(&j) => {
                            let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                            parent[a] = b;
                        }
                        None => {
                            var_home.insert(v, i);
                        }
                    }
                }
            }
        }
        for lit in &rule.body {
            if let Literal::Constraint { left, right, .. } = lit {
                if let (Term::Var(l), Term::Var(r)) = (left, right) {
                    if let (Some(&i), Some(&j)) =
                        (var_home.get(l.as_str()), var_home.get(r.as_str()))
                    {
                        let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                        parent[a] = b;
                    }
                }
            }
        }
        let mut roots: Vec<usize> = (0..atoms.len()).map(|i| find(&mut parent, i)).collect();
        roots.sort_unstable();
        roots.dedup();
        if roots.len() > 1 {
            diags.push(Diagnostic::from_error(&DatalogError::CrossProduct {
                rule: rule.to_string(),
                line: rule.line,
                col: rule.col,
                groups: roots.len(),
            }));
        }
    }
}

/// Canonical form of a rule for duplicate/subsumption checks: body
/// literals are sorted by their variable-masked rendering, then variables
/// are renamed `v0, v1, ...` in traversal order (head first). Two rules
/// with the same canonical form are duplicates; a rule whose canonical
/// body is a strict superset of a same-head rule's body is subsumed.
fn canonical(rule: &crate::ast::Rule) -> (String, Vec<String>) {
    let mask = |lit: &Literal| -> String {
        let mut s = lit.to_string();
        // Replace variable names with `?` while keeping constants and
        // structure: re-render term by term instead of string surgery.
        s.clear();
        let mask_term = |t: &Term| -> String {
            match t {
                Term::Var(_) => "?".into(),
                other => other.to_string(),
            }
        };
        match lit {
            Literal::Atom { atom, negated } => {
                if *negated {
                    s.push('!');
                }
                s.push_str(&atom.relation);
                s.push('(');
                for (i, t) in atom.args.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&mask_term(t));
                }
                s.push(')');
            }
            Literal::Constraint { left, op, right } => {
                let op = Literal::Constraint {
                    left: Term::Wildcard,
                    op: *op,
                    right: Term::Wildcard,
                }
                .to_string();
                // `_ op _` -> extract the operator token in the middle.
                let op = op.trim_matches(|c| c == '_' || c == ' ').to_string();
                s.push_str(&format!("{} {} {}", mask_term(left), op, mask_term(right)));
            }
        }
        s
    };
    let mut body: Vec<&Literal> = rule.body.iter().collect();
    body.sort_by_key(|l| mask(l));

    // Rename variables in traversal order: head, then sorted body.
    let mut names: HashMap<String, String> = HashMap::new();
    let mut rename_term = |t: &Term| -> Term {
        match t {
            Term::Var(v) => {
                let n = names.len();
                Term::Var(
                    names
                        .entry(v.clone())
                        .or_insert_with(|| format!("v{n}"))
                        .clone(),
                )
            }
            other => other.clone(),
        }
    };
    let head = crate::ast::Atom {
        relation: rule.head.relation.clone(),
        args: rule.head.args.iter().map(&mut rename_term).collect(),
    };
    let body: Vec<String> = body
        .into_iter()
        .map(|lit| match lit {
            Literal::Atom { atom, negated } => Literal::Atom {
                atom: crate::ast::Atom {
                    relation: atom.relation.clone(),
                    args: atom.args.iter().map(&mut rename_term).collect(),
                },
                negated: *negated,
            }
            .to_string(),
            Literal::Constraint { left, op, right } => Literal::Constraint {
                left: rename_term(left),
                op: *op,
                right: rename_term(right),
            }
            .to_string(),
        })
        .collect();
    (head.to_string(), body)
}

/// Duplicate (`W008`) and subsumed (`W009`) rule detection over canonical
/// forms. Both checks are syntactic: they catch copy-paste redundancy, not
/// semantic equivalence in general.
fn duplicates_and_subsumption(program: &Program, diags: &mut Vec<Diagnostic>) {
    let canon: Vec<(String, Vec<String>)> = program.rules.iter().map(canonical).collect();
    let mut first_seen: HashMap<String, usize> = HashMap::new();
    let mut duplicate = vec![false; canon.len()];
    for (i, (head, body)) in canon.iter().enumerate() {
        let mut sorted = body.clone();
        sorted.sort();
        let key = format!("{head} :- {}", sorted.join(", "));
        match first_seen.get(&key) {
            Some(&j) => {
                duplicate[i] = true;
                diags.push(Diagnostic::from_error(&DatalogError::DuplicateRule {
                    rule: program.rules[i].to_string(),
                    line: program.rules[i].line,
                    col: program.rules[i].col,
                    first_line: program.rules[j].line,
                }));
            }
            None => {
                first_seen.insert(key, i);
            }
        }
    }
    // Subsumption: i subsumes j when same canonical head and i's body is
    // a strict sub-multiset of j's. Extra conjuncts only restrict, so
    // everything j derives, i already derives.
    for i in 0..canon.len() {
        if duplicate[i] {
            continue;
        }
        for j in 0..canon.len() {
            if i == j || duplicate[j] || canon[i].0 != canon[j].0 {
                continue;
            }
            let (ib, jb) = (&canon[i].1, &canon[j].1);
            if ib.len() >= jb.len() {
                continue;
            }
            let mut remaining = jb.clone();
            let strict_subset = ib.iter().all(|lit| {
                if let Some(pos) = remaining.iter().position(|r| r == lit) {
                    remaining.remove(pos);
                    true
                } else {
                    false
                }
            });
            if strict_subset {
                diags.push(Diagnostic::from_error(&DatalogError::SubsumedRule {
                    rule: program.rules[j].to_string(),
                    line: program.rules[j].line,
                    col: program.rules[j].col,
                    by_line: program.rules[i].line,
                }));
            }
        }
    }
}

/// Static stratification check with negation-cycle witnesses, mirroring
/// the solve-time check but runnable without building an engine.
fn stratification(program: &Program, diags: &mut Vec<Diagnostic>) {
    let nrel = program.relations.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nrel];
    for rule in &program.rules {
        let head = program.relation_ix[&rule.head.relation];
        for lit in &rule.body {
            if let Literal::Atom { atom, .. } = lit {
                adj[program.relation_ix[&atom.relation]].push(head);
            }
        }
    }
    let (comp_of, _) = scc_topo_order(&adj);
    for rule in &program.rules {
        let head = program.relation_ix[&rule.head.relation];
        for lit in &rule.body {
            if let Literal::Atom {
                atom,
                negated: true,
            } = lit
            {
                let neg = program.relation_ix[&atom.relation];
                if comp_of[neg] == comp_of[head] {
                    let cycle = negation_cycle(&adj, &comp_of, head, neg)
                        .into_iter()
                        .map(|r| program.relations[r].name.clone())
                        .collect();
                    diags.push(Diagnostic::from_error(&DatalogError::NotStratified {
                        relation: atom.relation.clone(),
                        rule: rule.to_string(),
                        line: rule.line,
                        col: rule.col,
                        cycle,
                    }));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Span;

    #[test]
    fn cross_product_detected_and_constraint_links() {
        let src = "DOMAINS\nV 16\nRELATIONS\ninput a (x : V)\ninput b (x : V)\noutput out (x : V, y : V)\nRULES\nout(x,y) :- a(x), b(y).\n";
        let a = check_source(src);
        let w6: Vec<&Diagnostic> = a.diagnostics.iter().filter(|d| d.code == "W006").collect();
        assert_eq!(w6.len(), 1, "{:?}", a.diagnostics);
        assert_eq!(w6[0].span, Span::new(8, 1));

        // A constraint linking the two variables removes the warning.
        let src2 = "DOMAINS\nV 16\nRELATIONS\ninput a (x : V)\ninput b (x : V)\noutput out (x : V, y : V)\nRULES\nout(x,y) :- a(x), b(y), x != y.\n";
        let a2 = check_source(src2);
        assert!(
            a2.diagnostics.iter().all(|d| d.code != "W006"),
            "{:?}",
            a2.diagnostics
        );
    }

    #[test]
    fn cost_model_sorts_and_flags_blowups() {
        // Three distinct 2^16 variables in the recursive rule (line 8):
        // 2^48 flags W007; the base rule (line 7) only sees 2^32.
        let src = "DOMAINS\nV 65536\nRELATIONS\ninput e (x : V, y : V)\noutput p (x : V, y : V)\nRULES\np(x,y) :- e(x,y).\np(x,z) :- p(x,y), e(y,z).\n";
        let a = check_source(src);
        assert_eq!(a.rule_costs.len(), 2);
        assert!(a.rule_costs[0].cost_log2 > a.rule_costs[1].cost_log2);
        assert_eq!(a.rule_costs[0].line, 8);
        assert!((a.rule_costs[0].cost_log2 - 48.0).abs() < 1e-9);
        let w7: Vec<_> = a.diagnostics.iter().filter(|d| d.code == "W007").collect();
        assert_eq!(w7.len(), 1, "{:?}", a.diagnostics);
        assert_eq!(w7[0].span.line, 8);
    }

    #[test]
    fn duplicates_up_to_renaming_and_order() {
        let src = "DOMAINS\nV 16\nRELATIONS\ninput e (x : V, y : V)\noutput p (x : V, y : V)\nRULES\np(x,z) :- e(x,y), e(y,z).\np(a,c) :- e(b,c), e(a,b).\n";
        let a = check_source(src);
        let w8: Vec<_> = a.diagnostics.iter().filter(|d| d.code == "W008").collect();
        assert_eq!(w8.len(), 1, "{:?}", a.diagnostics);
        assert_eq!(w8[0].span.line, 8);
        assert!(w8[0].notes[0].contains("line 7"), "{:?}", w8[0].notes);
    }

    #[test]
    fn subsumption_flags_stricter_rule() {
        let src = "DOMAINS\nV 16\nRELATIONS\ninput e (x : V, y : V)\ninput g (x : V)\noutput p (x : V)\nRULES\np(x) :- e(x,x).\np(x) :- e(x,x), g(x).\n";
        let a = check_source(src);
        let w9: Vec<_> = a.diagnostics.iter().filter(|d| d.code == "W009").collect();
        assert_eq!(w9.len(), 1, "{:?}", a.diagnostics);
        assert_eq!(w9[0].span.line, 9);
        assert!(w9[0].notes[0].contains("line 8"), "{:?}", w9[0].notes);
    }

    #[test]
    fn stratification_cycle_witness() {
        let src = "DOMAINS\nV 16\nRELATIONS\ninput e (x : V, y : V)\nq (x : V)\noutput p (x : V)\nRULES\np(x) :- e(x,_), !q(x).\nq(x) :- p(x).\n";
        let a = check_source(src);
        let e10: Vec<_> = a.diagnostics.iter().filter(|d| d.code == "E010").collect();
        assert_eq!(e10.len(), 1, "{:?}", a.diagnostics);
        assert_eq!(e10[0].severity, Severity::Error);
        assert_eq!(e10[0].span, Span::new(8, 1));
        assert!(
            e10[0].notes.iter().any(|n| n.contains("p -> q -> p")),
            "{:?}",
            e10[0].notes
        );
        assert_eq!(a.error_count(), 1);
    }

    #[test]
    fn parse_error_becomes_coded_diagnostic() {
        let a = check_source("DOMAINS\nV 16\nRULES\np(x) :- q(x)");
        assert_eq!(a.diagnostics.len(), 1);
        assert_eq!(a.diagnostics[0].code, "E001");
        assert_eq!(a.diagnostics[0].severity, Severity::Error);
        assert!(a.diagnostics[0].span.is_known());
    }

    #[test]
    fn clean_program_is_clean() {
        let src = "DOMAINS\nV 16\nRELATIONS\ninput e (x : V, y : V)\noutput p (x : V, y : V)\nRULES\np(x,y) :- e(x,y).\np(x,z) :- p(x,y), e(y,z).\n";
        let a = check_source(src);
        assert_eq!(
            a.error_count() + a.warning_count(),
            0,
            "{:?}",
            a.diagnostics
        );
        assert_eq!(a.rule_costs.len(), 2);
    }

    #[test]
    fn json_document_is_stable() {
        let a = check_source("DOMAINS\nV 16\nRELATIONS\ninput a (x : V)\noutput out (x : V)\nRULES\nout(x) :- a(x).\n");
        let j = a.to_json("p.dl");
        assert!(
            j.starts_with("{\"file\":\"p.dl\",\"errors\":0,\"warnings\":0,"),
            "{j}"
        );
        assert!(j.contains("\"rule_costs\":[{\"rule\":\"out(x) :- a(x).\",\"line\":7,\"col\":1,\"cost_log2\":4.0}]"), "{j}");
    }
}
