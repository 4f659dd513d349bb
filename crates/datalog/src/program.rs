//! Validated Datalog programs: name resolution, safety checks, typing of
//! rule variables, and the physical-domain instance analysis.

use crate::ast::*;
use crate::parser;
use crate::DatalogError;
use std::collections::HashMap;

/// A parsed and validated Datalog program.
///
/// Validation enforces the subclass the paper's `bddbddb` accepts:
/// well-typed safe rules (every head/negated/constraint variable bound by a
/// positive body atom) over declared relations; stratification is checked
/// at solve time.
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) domains: Vec<DomainDecl>,
    pub(crate) relations: Vec<RelationDecl>,
    pub(crate) rules: Vec<Rule>,
    pub(crate) domain_ix: HashMap<String, usize>,
    pub(crate) relation_ix: HashMap<String, usize>,
    /// Per rule: variable name -> logical domain index.
    pub(crate) rule_var_domains: Vec<HashMap<String, usize>>,
    /// Per logical domain: number of physical instances required.
    pub(crate) instances: Vec<usize>,
    /// Non-fatal lints found during validation (unused relations, dead
    /// rules), as displayable [`DatalogError`] values.
    pub(crate) warnings: Vec<DatalogError>,
}

impl Program {
    /// Parses and validates a program in the paper's Datalog dialect.
    ///
    /// # Errors
    ///
    /// Any [`DatalogError`] variant describing a syntax, naming, arity,
    /// typing or safety violation.
    pub fn parse(src: &str) -> Result<Self, DatalogError> {
        let (domains, relations, rules) = parser::parse(src)?;
        Self::from_parts(domains, relations, rules)
    }

    /// Builds a program from already-constructed declarations and rules.
    ///
    /// # Errors
    ///
    /// Same validation as [`Program::parse`].
    pub fn from_parts(
        domains: Vec<DomainDecl>,
        relations: Vec<RelationDecl>,
        rules: Vec<Rule>,
    ) -> Result<Self, DatalogError> {
        let mut domain_ix = HashMap::new();
        for (i, d) in domains.iter().enumerate() {
            if domain_ix.insert(d.name.clone(), i).is_some() {
                return Err(DatalogError::DuplicateDomain(d.name.clone()));
            }
        }
        let mut relation_ix = HashMap::new();
        for (i, r) in relations.iter().enumerate() {
            if relation_ix.insert(r.name.clone(), i).is_some() {
                return Err(DatalogError::DuplicateRelation(r.name.clone()));
            }
            for (_, dom) in &r.attrs {
                if !domain_ix.contains_key(dom) {
                    return Err(DatalogError::unknown_domain(
                        dom,
                        domains.iter().map(|d| d.name.as_str()),
                        r.line,
                        r.col,
                    ));
                }
            }
        }
        let mut prog = Program {
            domains,
            relations,
            rules,
            domain_ix,
            relation_ix,
            rule_var_domains: Vec::new(),
            instances: Vec::new(),
            warnings: Vec::new(),
        };
        prog.validate()?;
        Ok(prog)
    }

    /// The domain declarations.
    pub fn domains(&self) -> &[DomainDecl] {
        &self.domains
    }

    /// The relation declarations.
    pub fn relations(&self) -> &[RelationDecl] {
        &self.relations
    }

    /// The rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Non-fatal lints found during validation: declared relations no rule
    /// mentions ([`DatalogError::UnusedRelation`]), rules whose head is
    /// never read and not an `output` ([`DatalogError::DeadRule`]), rules
    /// whose head cannot reach any `output` relation even transitively
    /// ([`DatalogError::UnreachableRule`]), and named variables occurring
    /// exactly once in a rule ([`DatalogError::SingletonVariable`]). The
    /// program still solves; callers decide whether to surface these.
    pub fn warnings(&self) -> &[DatalogError] {
        &self.warnings
    }

    pub(crate) fn relation(&self, name: &str) -> Result<&RelationDecl, DatalogError> {
        self.relation_ix
            .get(name)
            .map(|&i| &self.relations[i])
            .ok_or_else(|| {
                DatalogError::unknown_relation(name, self.relations.iter().map(|r| r.name.as_str()))
            })
    }

    /// Checks a query atom against the declarations: the relation
    /// exists, the arity matches, and every numeric constant is inside its
    /// attribute's domain. Returns the relation's index. Quoted names are
    /// resolved later, against an engine's name maps.
    pub(crate) fn check_atom(&self, atom: &Atom) -> Result<usize, DatalogError> {
        let decl = self.relation(&atom.relation)?;
        if decl.attrs.len() != atom.args.len() {
            return Err(DatalogError::ArityMismatch {
                relation: atom.relation.clone(),
                expected: decl.attrs.len(),
                found: atom.args.len(),
                line: 0,
                col: 0,
            });
        }
        for ((_, dom_name), term) in decl.attrs.iter().zip(&atom.args) {
            if let Term::Const(c) = term {
                if *c >= self.domains[self.domain_ix[dom_name]].size {
                    return Err(DatalogError::ConstantOutOfRange {
                        domain: dom_name.clone(),
                        value: *c,
                    });
                }
            }
        }
        Ok(self.relation_ix[&atom.relation])
    }

    fn validate(&mut self) -> Result<(), DatalogError> {
        // Per-rule: arity, typing, safety.
        let mut rule_var_domains = Vec::with_capacity(self.rules.len());
        for rule in &self.rules {
            let mut var_dom: HashMap<String, usize> = HashMap::new();
            let mut positive_vars: Vec<String> = Vec::new();

            let visit_atom = |atom: &Atom,
                              positive: bool,
                              var_dom: &mut HashMap<String, usize>,
                              positive_vars: &mut Vec<String>|
             -> Result<(), DatalogError> {
                let decl = self.relation(&atom.relation)?;
                if decl.attrs.len() != atom.args.len() {
                    return Err(DatalogError::ArityMismatch {
                        relation: atom.relation.clone(),
                        expected: decl.attrs.len(),
                        found: atom.args.len(),
                        line: rule.line,
                        col: rule.col,
                    });
                }
                for ((_, dom_name), term) in decl.attrs.iter().zip(&atom.args) {
                    let dom = self.domain_ix[dom_name];
                    match term {
                        Term::Var(v) => {
                            if let Some(&prev) = var_dom.get(v) {
                                if prev != dom {
                                    return Err(DatalogError::TypeConflict {
                                        var: v.clone(),
                                        first: self.domains[prev].name.clone(),
                                        second: dom_name.clone(),
                                        line: rule.line,
                                        col: rule.col,
                                    });
                                }
                            } else {
                                var_dom.insert(v.clone(), dom);
                            }
                            if positive {
                                positive_vars.push(v.clone());
                            }
                        }
                        Term::Wildcard => {}
                        Term::Const(c) => {
                            if *c >= self.domains[dom].size {
                                return Err(DatalogError::ConstantOutOfRange {
                                    domain: dom_name.clone(),
                                    value: *c,
                                });
                            }
                        }
                        Term::Str(_) => {
                            // Resolved against name maps at engine build.
                        }
                    }
                }
                Ok(())
            };

            // Body first (positive atoms bind variables), then negated atoms
            // and constraints, then the head.
            for lit in &rule.body {
                if let Literal::Atom {
                    atom,
                    negated: false,
                } = lit
                {
                    visit_atom(atom, true, &mut var_dom, &mut positive_vars)?;
                }
            }
            for lit in &rule.body {
                if let Literal::Atom {
                    atom,
                    negated: true,
                } = lit
                {
                    visit_atom(atom, false, &mut var_dom, &mut positive_vars)?;
                }
            }
            visit_atom(&rule.head, false, &mut var_dom, &mut positive_vars)?;

            // Safety: head vars bound positively.
            for term in &rule.head.args {
                if let Term::Var(v) = term {
                    if !positive_vars.contains(v) {
                        return Err(DatalogError::UnsafeHeadVar {
                            var: v.clone(),
                            rule: rule.to_string(),
                            line: rule.line,
                            col: rule.col,
                        });
                    }
                }
            }
            // Safety: negated-atom vars and constraint vars bound positively.
            for lit in &rule.body {
                match lit {
                    Literal::Atom {
                        atom,
                        negated: true,
                    } => {
                        for term in &atom.args {
                            if let Term::Var(v) = term {
                                if !positive_vars.contains(v) {
                                    return Err(DatalogError::UnsafeNegatedVar {
                                        var: v.clone(),
                                        rule: rule.to_string(),
                                        line: rule.line,
                                        col: rule.col,
                                    });
                                }
                            }
                        }
                    }
                    Literal::Constraint { left, right, .. } => {
                        let mut doms = Vec::new();
                        for term in [left, right] {
                            match term {
                                Term::Var(v) => {
                                    let Some(&d) = var_dom.get(v) else {
                                        return Err(DatalogError::UnsafeNegatedVar {
                                            var: v.clone(),
                                            rule: rule.to_string(),
                                            line: rule.line,
                                            col: rule.col,
                                        });
                                    };
                                    if !positive_vars.contains(v) {
                                        return Err(DatalogError::UnsafeNegatedVar {
                                            var: v.clone(),
                                            rule: rule.to_string(),
                                            line: rule.line,
                                            col: rule.col,
                                        });
                                    }
                                    doms.push(Some(d));
                                }
                                Term::Wildcard => {
                                    return Err(DatalogError::UnsafeNegatedVar {
                                        var: "_".into(),
                                        rule: rule.to_string(),
                                        line: rule.line,
                                        col: rule.col,
                                    })
                                }
                                _ => doms.push(None),
                            }
                        }
                        if let (Some(Some(a)), Some(Some(b))) = (doms.first(), doms.get(1)) {
                            if a != b {
                                return Err(DatalogError::ConstraintDomainMismatch {
                                    rule: rule.to_string(),
                                    line: rule.line,
                                    col: rule.col,
                                });
                            }
                        }
                    }
                    _ => {}
                }
            }
            rule_var_domains.push(var_dom);
        }
        self.rule_var_domains = rule_var_domains;

        // Physical-instance analysis: a logical domain needs as many
        // instances as the widest use — attributes within one relation, or
        // distinct variables within one rule.
        let mut instances = vec![1usize; self.domains.len()];
        for rel in &self.relations {
            let mut per_dom: HashMap<usize, usize> = HashMap::new();
            for (_, dom_name) in &rel.attrs {
                *per_dom.entry(self.domain_ix[dom_name]).or_insert(0) += 1;
            }
            for (dom, count) in per_dom {
                instances[dom] = instances[dom].max(count);
            }
        }
        for var_dom in &self.rule_var_domains {
            let mut per_dom: HashMap<usize, usize> = HashMap::new();
            for &dom in var_dom.values() {
                *per_dom.entry(dom).or_insert(0) += 1;
            }
            for (dom, count) in per_dom {
                instances[dom] = instances[dom].max(count);
            }
        }
        self.instances = instances;
        self.lint();
        Ok(())
    }

    /// Collects non-fatal lints: unused relations, dead rules, rules
    /// unreachable from any output, and singleton variables.
    fn lint(&mut self) {
        let mut in_head = vec![false; self.relations.len()];
        let mut in_body = vec![false; self.relations.len()];
        for rule in &self.rules {
            in_head[self.relation_ix[&rule.head.relation]] = true;
            for lit in &rule.body {
                if let Literal::Atom { atom, .. } = lit {
                    in_body[self.relation_ix[&atom.relation]] = true;
                }
            }
        }
        let mut warnings = Vec::new();
        for (i, rel) in self.relations.iter().enumerate() {
            if !in_head[i] && !in_body[i] {
                warnings.push(DatalogError::UnusedRelation {
                    relation: rel.name.clone(),
                    line: rel.line,
                    col: rel.col,
                });
            }
        }
        for rule in &self.rules {
            let head = &self.relations[self.relation_ix[&rule.head.relation]];
            if head.kind != RelationKind::Output && !in_body[self.relation_ix[&head.name]] {
                warnings.push(DatalogError::DeadRule {
                    rule: rule.to_string(),
                    line: rule.line,
                    col: rule.col,
                });
            }
        }
        // Unreachable rules: backward reachability from the output
        // relations over rule dependencies. A rule whose head feeds no
        // output (directly or transitively) can never influence an
        // advertised result — it is wasted work even when some other rule
        // does read the head (which is what distinguishes this from
        // `DeadRule`, reported above and skipped here).
        let mut useful: Vec<bool> = self
            .relations
            .iter()
            .map(|r| r.kind == RelationKind::Output)
            .collect();
        loop {
            let mut changed = false;
            for rule in &self.rules {
                if !useful[self.relation_ix[&rule.head.relation]] {
                    continue;
                }
                for lit in &rule.body {
                    if let Literal::Atom { atom, .. } = lit {
                        let b = self.relation_ix[&atom.relation];
                        if !useful[b] {
                            useful[b] = true;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for rule in &self.rules {
            let h = self.relation_ix[&rule.head.relation];
            let dead = self.relations[h].kind != RelationKind::Output && !in_body[h];
            if !useful[h] && !dead {
                warnings.push(DatalogError::UnreachableRule {
                    rule: rule.to_string(),
                    line: rule.line,
                    col: rule.col,
                });
            }
        }
        // Singleton variables: a named variable occurring exactly once in a
        // rule (head, body atoms and constraints all count) joins nothing
        // and constrains nothing — the author either misspelled a join
        // variable or meant the wildcard `_`.
        for rule in &self.rules {
            // First-occurrence order keeps the warning list deterministic.
            let mut occurrences: Vec<(String, usize)> = Vec::new();
            let visit = |term: &Term, occurrences: &mut Vec<(String, usize)>| {
                if let Term::Var(v) = term {
                    match occurrences.iter_mut().find(|(n, _)| n == v) {
                        Some((_, c)) => *c += 1,
                        None => occurrences.push((v.clone(), 1)),
                    }
                }
            };
            for term in &rule.head.args {
                visit(term, &mut occurrences);
            }
            for lit in &rule.body {
                match lit {
                    Literal::Atom { atom, .. } => {
                        for term in &atom.args {
                            visit(term, &mut occurrences);
                        }
                    }
                    Literal::Constraint { left, right, .. } => {
                        visit(left, &mut occurrences);
                        visit(right, &mut occurrences);
                    }
                }
            }
            for (var, count) in occurrences {
                if count == 1 {
                    warnings.push(DatalogError::SingletonVariable {
                        var,
                        rule: rule.to_string(),
                        line: rule.line,
                        col: rule.col,
                    });
                }
            }
        }
        self.warnings = warnings;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(src: &str) -> Result<Program, DatalogError> {
        Program::parse(src)
    }

    const HEADER: &str = "DOMAINS\nV 16\nH 8\n\nRELATIONS\ninput a (x : V, y : V)\ninput b (x : V, h : H)\noutput out (x : V, y : V)\noutput oh (h : H)\n\nRULES\n";

    #[test]
    fn accepts_valid() {
        let p = prog(&format!("{HEADER}out(x,y) :- a(x,y), b(y,_).")).unwrap();
        assert_eq!(p.rules().len(), 1);
    }

    #[test]
    fn rejects_unknown_relation() {
        let e = prog(&format!("{HEADER}out(x,y) :- nope(x,y).")).unwrap_err();
        assert!(matches!(e, DatalogError::UnknownRelation { .. }));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let e = prog(&format!("{HEADER}out(x,y) :- a(x,y,y).")).unwrap_err();
        assert!(matches!(e, DatalogError::ArityMismatch { .. }));
    }

    #[test]
    fn rejects_type_conflict() {
        let e = prog(&format!("{HEADER}oh(h) :- a(h,_), b(_,h).")).unwrap_err();
        assert!(matches!(e, DatalogError::TypeConflict { .. }));
    }

    #[test]
    fn rejects_unsafe_head_var() {
        let e = prog(&format!("{HEADER}out(x,z) :- a(x,_).")).unwrap_err();
        assert!(matches!(e, DatalogError::UnsafeHeadVar { .. }));
    }

    #[test]
    fn rejects_unsafe_negated_var() {
        let e = prog(&format!("{HEADER}out(x,x) :- a(x,_), !a(x,z).")).unwrap_err();
        assert!(matches!(e, DatalogError::UnsafeNegatedVar { .. }));
    }

    #[test]
    fn rejects_constant_out_of_range() {
        let e = prog(&format!("{HEADER}oh(h) :- b(_,h), a(17,_).")).unwrap_err();
        assert!(matches!(e, DatalogError::ConstantOutOfRange { .. }));
    }

    #[test]
    fn rejects_mismatched_constraint() {
        let e = prog(&format!("{HEADER}out(x,x) :- a(x,_), b(_,h), x != h.")).unwrap_err();
        assert!(matches!(e, DatalogError::ConstraintDomainMismatch { .. }));
    }

    #[test]
    fn instance_analysis_counts_rule_variables() {
        // Rule with three distinct V variables forces 3 instances of V.
        let p = prog(&format!("{HEADER}out(x,z) :- a(x,y), a(y,z).")).unwrap();
        let v = p.domain_ix["V"];
        assert_eq!(p.instances[v], 3);
        let h = p.domain_ix["H"];
        assert_eq!(p.instances[h], 1);
    }

    #[test]
    fn unsafe_negated_var_names_rule_and_line() {
        let e = prog(&format!("{HEADER}out(x,x) :- a(x,_), !a(x,z).")).unwrap_err();
        match e {
            DatalogError::UnsafeNegatedVar {
                var,
                rule,
                line,
                col,
            } => {
                assert_eq!(var, "z");
                assert_eq!(rule, "out(x,x) :- a(x,_), !a(x,z).");
                assert_eq!(line, 12); // HEADER spans 11 lines
                assert_eq!(col, 1);
            }
            other => panic!("expected UnsafeNegatedVar, got {other:?}"),
        }
    }

    #[test]
    fn warns_on_unused_relation() {
        // `b` is declared but no rule mentions it.
        let p = prog(&format!("{HEADER}out(x,y) :- a(x,y).\noh(h) :- oh(h).")).unwrap();
        let unused: Vec<String> = p
            .warnings()
            .iter()
            .filter_map(|w| match w {
                DatalogError::UnusedRelation { relation, .. } => Some(relation.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(unused, vec!["b".to_string()]);
    }

    #[test]
    fn warns_on_dead_rule() {
        let src = "DOMAINS\nV 16\nRELATIONS\ninput a (x : V)\ndead (x : V)\noutput out (x : V)\nRULES\ndead(x) :- a(x).\nout(x) :- a(x).\n";
        let p = prog(src).unwrap();
        let dead: Vec<(&str, usize)> = p
            .warnings()
            .iter()
            .filter_map(|w| match w {
                DatalogError::DeadRule { rule, line, .. } => Some((rule.as_str(), *line)),
                _ => None,
            })
            .collect();
        assert_eq!(dead, vec![("dead(x) :- a(x).", 8)]);
    }

    #[test]
    fn warns_on_singleton_variable() {
        // `y` is bound by `a` but used nowhere else: a singleton.
        let p = prog(&format!("{HEADER}out(x,x) :- a(x,y), b(x,_).")).unwrap();
        let singles: Vec<(&str, &str, usize)> = p
            .warnings()
            .iter()
            .filter_map(|w| match w {
                DatalogError::SingletonVariable {
                    var, rule, line, ..
                } => Some((var.as_str(), rule.as_str(), *line)),
                _ => None,
            })
            .collect();
        assert_eq!(
            singles,
            vec![("y", "out(x,x) :- a(x,y), b(x,_).", 12)],
            "{:?}",
            p.warnings()
        );
    }

    #[test]
    fn wildcards_and_joined_variables_are_not_singletons() {
        // Every named variable occurs at least twice; `_` never warns.
        let p = prog(&format!("{HEADER}out(x,y) :- a(x,y), b(y,_).")).unwrap();
        assert!(
            !p.warnings()
                .iter()
                .any(|w| matches!(w, DatalogError::SingletonVariable { .. })),
            "{:?}",
            p.warnings()
        );
    }

    #[test]
    fn constraint_use_counts_against_singleton() {
        // `h` occurs in `b` and in the constraint: two uses, no warning.
        let p = prog(&format!("{HEADER}out(x,x) :- a(x,_), b(x,h), h != 3.")).unwrap();
        assert!(
            !p.warnings()
                .iter()
                .any(|w| matches!(w, DatalogError::SingletonVariable { .. })),
            "{:?}",
            p.warnings()
        );
    }

    #[test]
    fn no_warnings_for_read_intermediates() {
        // `mid` is intermediate but read by the output rule: not dead.
        let src = "DOMAINS\nV 16\nRELATIONS\ninput a (x : V)\nmid (x : V)\noutput out (x : V)\nRULES\nmid(x) :- a(x).\nout(x) :- mid(x).\n";
        let p = prog(src).unwrap();
        assert!(p.warnings().is_empty(), "{:?}", p.warnings());
    }

    #[test]
    fn duplicate_relation_rejected() {
        let e =
            prog("DOMAINS\nV 4\nRELATIONS\ninput a (x : V)\ninput a (x : V)\nRULES\n").unwrap_err();
        assert!(matches!(e, DatalogError::DuplicateRelation(_)));
    }
}
