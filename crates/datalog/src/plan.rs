//! Rule compilation: from validated AST rules to evaluation plans over
//! physical BDD domains.
//!
//! This performs the paper's "attributes naming" optimization (Section
//! 2.4.1): rule variables are pinned to physical domains so that the head
//! needs no final rename, and body renames are minimized.

use crate::ast::*;
use crate::program::Program;
use crate::DatalogError;
use std::collections::{HashMap, HashSet};
use whale_bdd::DomainId;

/// One side of a compiled constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operand {
    /// A rule variable pinned to this physical domain.
    Phys(DomainId),
    /// A constant value.
    Value(u64),
}

/// A compiled constraint literal.
#[derive(Debug, Clone)]
pub(crate) struct ConstraintPlan {
    pub left: Operand,
    pub op: ConstraintOp,
    pub right: Operand,
}

/// A compiled (positive or negative) body atom.
#[derive(Debug, Clone)]
pub(crate) struct AtomPlan {
    /// Relation index in the program.
    pub rel: usize,
    /// Constant selections: conjoin `attr == value`.
    pub consts: Vec<(DomainId, u64)>,
    /// Same-variable duplicate attributes: conjoin equality.
    pub eqs: Vec<(DomainId, DomainId)>,
    /// Attributes to project away (wildcards, constants, duplicates).
    pub project: Vec<DomainId>,
    /// Renames from attribute physical domains to variable targets.
    pub renames: Vec<(DomainId, DomainId)>,
    /// Distinct variables bound (positive) or constrained (negative).
    pub vars: Vec<String>,
}

/// Compiled head: the body result already sits on the head physicals.
#[derive(Debug, Clone)]
pub(crate) struct HeadPlan {
    pub rel: usize,
    /// Duplicate head variables: conjoin equality to fan the value out.
    pub eqs: Vec<(DomainId, DomainId)>,
    /// Constant head attributes.
    pub consts: Vec<(DomainId, u64)>,
}

/// One step of a rule's join order: positive atom `atom` joins the
/// prefix, and `quant` is quantified in that join.
#[derive(Debug, Clone)]
pub(crate) struct JoinStep {
    /// Index into [`RulePlan::positive`].
    pub atom: usize,
    /// Physical domains of the variables that die at this join (sorted,
    /// so the client-cache key is canonical). Empty for the first step,
    /// which joins nothing.
    pub quant: Vec<DomainId>,
}

/// A fully compiled rule.
#[derive(Debug, Clone)]
pub(crate) struct RulePlan {
    pub head: HeadPlan,
    pub positive: Vec<AtomPlan>,
    pub negative: Vec<AtomPlan>,
    pub constraints: Vec<ConstraintPlan>,
    /// The rule's one join order over `positive` (see [`join_order`]),
    /// used by every application. A semi-naive delta replaces its atom
    /// where the order puts it.
    pub joins: Vec<JoinStep>,
    /// Physical domains of the variables still bound after the last join
    /// that the head does not need (sorted): projected after the
    /// constraints and negated atoms have read them.
    pub project: Vec<DomainId>,
}

/// The value the quoted constant `name` stands for in logical domain
/// `dom`, through the engine's name maps.
pub(crate) fn resolve_name(
    program: &Program,
    name_maps: &HashMap<usize, HashMap<String, u64>>,
    dom: usize,
    name: &str,
) -> Result<u64, DatalogError> {
    name_maps
        .get(&dom)
        .and_then(|m| m.get(name))
        .copied()
        .ok_or_else(|| DatalogError::UnresolvedName {
            domain: program.domains[dom].name.clone(),
            name: name.to_string(),
        })
}

/// Everything plan construction needs from the engine.
pub(crate) struct PlanContext<'a> {
    pub program: &'a Program,
    /// Physical instances per logical domain.
    pub phys: &'a [Vec<DomainId>],
    /// Physical domain of each attribute, per relation.
    pub rel_attr_phys: &'a [Vec<DomainId>],
    /// Name maps for resolving quoted constants, per logical domain.
    pub name_maps: &'a HashMap<usize, HashMap<String, u64>>,
}

impl<'a> PlanContext<'a> {
    fn resolve_const(&self, term: &Term, dom: usize) -> Result<Option<u64>, DatalogError> {
        match term {
            Term::Const(c) => Ok(Some(*c)),
            Term::Str(s) => resolve_name(self.program, self.name_maps, dom, s).map(Some),
            _ => Ok(None),
        }
    }

    pub(crate) fn build(&self, rule_ix: usize) -> Result<RulePlan, DatalogError> {
        let rule = &self.program.rules[rule_ix];
        let var_dom = &self.program.rule_var_domains[rule_ix];

        // --- variable-to-physical assignment -----------------------------
        // Head variables take the physical domain of their first head
        // attribute; remaining variables take the first free instance.
        let mut var_phys: HashMap<String, DomainId> = HashMap::new();
        let mut taken: HashMap<usize, HashSet<DomainId>> = HashMap::new();
        let head_rel_ix = self.program.relation_ix[&rule.head.relation];
        for (a, term) in rule.head.args.iter().enumerate() {
            if let Term::Var(v) = term {
                if var_phys.contains_key(v) {
                    continue;
                }
                let dom = var_dom[v];
                let cand = self.rel_attr_phys[head_rel_ix][a];
                let slots = taken.entry(dom).or_default();
                debug_assert!(!slots.contains(&cand), "head attrs are injective");
                slots.insert(cand);
                var_phys.insert(v.clone(), cand);
            }
        }
        // Deterministic order for the rest: positives, then negatives.
        let mut rest: Vec<&str> = Vec::new();
        for lit in &rule.body {
            if let Literal::Atom { atom, .. } = lit {
                for t in &atom.args {
                    if let Term::Var(v) = t {
                        if !var_phys.contains_key(v.as_str()) && !rest.contains(&v.as_str()) {
                            rest.push(v);
                        }
                    }
                }
            }
        }
        for v in rest {
            let dom = var_dom[v];
            let slots = taken.entry(dom).or_default();
            let free = self.phys[dom]
                .iter()
                .find(|p| !slots.contains(p))
                .copied()
                .expect("instance analysis guarantees a free physical domain");
            slots.insert(free);
            var_phys.insert(v.to_string(), free);
        }

        // --- body atoms ----------------------------------------------------
        let mut positive = Vec::new();
        let mut negative = Vec::new();
        let mut constraints = Vec::new();
        let mut guard_vars: HashSet<String> = HashSet::new();
        for lit in &rule.body {
            match lit {
                Literal::Atom { atom, negated } => {
                    let plan = self.build_atom(atom, var_dom, &var_phys)?;
                    if *negated {
                        guard_vars.extend(plan.vars.iter().cloned());
                        negative.push(plan);
                    } else {
                        positive.push(plan);
                    }
                }
                Literal::Constraint { left, op, right } => {
                    let dom_of = |t: &Term| match t {
                        Term::Var(v) => Some(var_dom[v]),
                        _ => None,
                    };
                    let dom = dom_of(left).or_else(|| dom_of(right));
                    if dom.is_none() {
                        // Constant-only constraints are untypable.
                        return Err(DatalogError::ConstraintDomainMismatch {
                            rule: rule.to_string(),
                            line: rule.line,
                            col: rule.col,
                        });
                    }
                    let mut make = |t: &Term| -> Result<Operand, DatalogError> {
                        match t {
                            Term::Var(v) => {
                                guard_vars.insert(v.clone());
                                Ok(Operand::Phys(var_phys[v]))
                            }
                            other => {
                                let dom = dom.expect("validated: constraint has a typed side");
                                Ok(Operand::Value(
                                    self.resolve_const(other, dom)?
                                        .expect("constraint side is var or const"),
                                ))
                            }
                        }
                    };
                    constraints.push(ConstraintPlan {
                        left: make(left)?,
                        op: *op,
                        right: make(right)?,
                    });
                }
            }
        }

        // --- head ----------------------------------------------------------
        let mut head_eqs = Vec::new();
        let mut head_consts = Vec::new();
        let mut head_vars = HashSet::new();
        let mut seen: HashSet<&str> = HashSet::new();
        for (a, term) in rule.head.args.iter().enumerate() {
            let attr_phys = self.rel_attr_phys[head_rel_ix][a];
            match term {
                Term::Var(v) => {
                    head_vars.insert(v.clone());
                    if seen.insert(v) {
                        debug_assert_eq!(var_phys[v], attr_phys);
                    } else {
                        head_eqs.push((var_phys[v], attr_phys));
                    }
                }
                Term::Wildcard => {
                    return Err(DatalogError::UnsafeHeadVar {
                        var: "_".into(),
                        rule: rule.to_string(),
                        line: rule.line,
                        col: rule.col,
                    })
                }
                t => {
                    let dom =
                        self.program.domain_ix[&self.program.relations[head_rel_ix].attrs[a].1];
                    let c = self.resolve_const(t, dom)?.expect("const term");
                    head_consts.push((attr_phys, c));
                }
            }
        }

        // --- join order -----------------------------------------------------
        // Quantify every variable at the join where it dies — including the
        // join variables themselves when no later atom, no guard and the
        // head need them: keeping a join variable alive one step longer
        // inflates the intermediate (the classic relprod win).
        let order = join_order(&positive);
        let mut joins = Vec::with_capacity(order.len());
        let mut bound: Vec<&str> = Vec::new();
        for (k, &ai) in order.iter().enumerate() {
            let needed = |v: &str| {
                head_vars.contains(v)
                    || guard_vars.contains(v)
                    || order[k + 1..]
                        .iter()
                        .any(|&j| positive[j].vars.iter().any(|w| w == v))
            };
            for v in &positive[ai].vars {
                if !bound.contains(&v.as_str()) {
                    bound.push(v);
                }
            }
            // The first atom joins nothing, so nothing dies there.
            let mut quant: Vec<DomainId> = Vec::new();
            if k > 0 {
                quant = bound
                    .iter()
                    .filter(|v| !needed(v))
                    .map(|v| var_phys[*v])
                    .collect();
                quant.sort_unstable();
                bound.retain(|v| needed(v));
            }
            joins.push(JoinStep { atom: ai, quant });
        }
        let mut project: Vec<DomainId> = bound
            .iter()
            .filter(|v| !head_vars.contains(**v))
            .map(|v| var_phys[*v])
            .collect();
        project.sort_unstable();

        Ok(RulePlan {
            head: HeadPlan {
                rel: head_rel_ix,
                eqs: head_eqs,
                consts: head_consts,
            },
            positive,
            negative,
            constraints,
            joins,
            project,
        })
    }

    fn build_atom(
        &self,
        atom: &Atom,
        var_dom: &HashMap<String, usize>,
        var_phys: &HashMap<String, DomainId>,
    ) -> Result<AtomPlan, DatalogError> {
        let rel_ix = self.program.relation_ix[&atom.relation];
        let attr_phys = &self.rel_attr_phys[rel_ix];
        let mut consts = Vec::new();
        let mut eqs = Vec::new();
        let mut project = Vec::new();
        let mut renames = Vec::new();
        let mut vars = Vec::new();
        let mut first_occurrence: HashMap<&str, DomainId> = HashMap::new();
        for (a, term) in atom.args.iter().enumerate() {
            let p = attr_phys[a];
            match term {
                Term::Var(v) => {
                    if let Some(&first) = first_occurrence.get(v.as_str()) {
                        // Duplicate within one atom: constrain equal, keep
                        // only the first occurrence.
                        eqs.push((first, p));
                        project.push(p);
                    } else {
                        first_occurrence.insert(v, p);
                        renames.push((p, var_phys[v]));
                        vars.push(v.clone());
                    }
                }
                Term::Wildcard => project.push(p),
                t => {
                    let dom = self.program.domain_ix[&self.program.relations[rel_ix].attrs[a].1];
                    let c = self.resolve_const(t, dom)?.expect("const term");
                    if c >= self.program.domains[dom].size {
                        return Err(DatalogError::ConstantOutOfRange {
                            domain: self.program.domains[dom].name.clone(),
                            value: c,
                        });
                    }
                    consts.push((p, c));
                    project.push(p);
                }
            }
        }
        let _ = var_dom; // typing already validated
        Ok(AtomPlan {
            rel: rel_ix,
            consts,
            eqs,
            project,
            renames: renames.into_iter().filter(|&(f, t)| f != t).collect(),
            vars,
        })
    }
}

/// The greedy connected join order: start at the first body atom, then
/// repeatedly take the remaining atom sharing the most variables with
/// what is already joined (ties: fewer new variables, then body order).
/// Avoids cross-product intermediates like joining a filter relation
/// before any of its variables are bound (DESIGN.md §5a). Computed once
/// per rule; a semi-naive delta joins where this order puts its atom.
pub(crate) fn join_order(positive: &[AtomPlan]) -> Vec<usize> {
    let n = positive.len();
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut bound: HashSet<&str> = HashSet::new();
    if n > 0 {
        order.push(0);
        used[0] = true;
        bound.extend(positive[0].vars.iter().map(String::as_str));
    }
    while order.len() < n {
        let mut best: Option<(usize, usize, usize)> = None; // (shared, new, ix)
        for (i, in_use) in used.iter().enumerate() {
            if *in_use {
                continue;
            }
            let shared = positive[i]
                .vars
                .iter()
                .filter(|v| bound.contains(v.as_str()))
                .count();
            let new = positive[i].vars.len() - shared;
            let better = match best {
                None => true,
                Some((bs, bn, _)) => shared > bs || (shared == bs && new < bn),
            };
            if better {
                best = Some((shared, new, i));
            }
        }
        let (_, _, ix) = best.expect("atom remaining");
        used[ix] = true;
        bound.extend(positive[ix].vars.iter().map(String::as_str));
        order.push(ix);
    }
    order
}
