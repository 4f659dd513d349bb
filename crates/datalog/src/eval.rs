//! Rule evaluation against one BDD manager.
//!
//! [`RuleEval`] holds exactly the state a rule application touches — the
//! manager, the scratch-instance map for rename cycles, the memoize flag,
//! and the interned memo-tag table — and none of the global solve
//! state (relation values, strata bookkeeping, statistics), which stays
//! with the `Engine` that orchestrates the fixpoint.
//!
//! All sources are passed in explicitly: positive atoms through `srcs`
//! (parallel to the plan's join order machinery) and negative atoms through
//! `neg_srcs` (parallel to `plan.negative`). Results are pure functions of
//! the sources.

use crate::ast::ConstraintOp;
use crate::plan::{AtomPlan, ConstraintPlan, Operand, RulePlan};
use crate::relation::move_attrs;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use whale_bdd::{Bdd, BddManager, DomainId};

/// Canonical content key of one relation-level operation, interned to a
/// stable `u32` tag for the kernel's client cache. Operand BDD roots are
/// *not* part of this key — they go into the cache key directly — so the
/// tag captures exactly the transformation applied to them. All vectors
/// are sorted before interning: the same semantic operation reaches the
/// same tag no matter what order the planner emitted it in.
#[derive(Clone, PartialEq, Eq, Hash)]
enum MemoOp {
    /// [`RuleEval::eval_atom`]: constant/equality filters, projection, then
    /// attribute renames.
    Atom {
        consts: Vec<(DomainId, u64)>,
        eqs: Vec<(DomainId, DomainId)>,
        project: Vec<DomainId>,
        renames: Vec<(DomainId, DomainId)>,
    },
    /// One join step of [`RuleEval::eval_rule`]:
    /// `∃ quant. (rename(joined) ∧ atom)` (renames empty when no rename
    /// was held back for fusing).
    Join {
        renames: Vec<(DomainId, DomainId)>,
        quant: Vec<DomainId>,
    },
}

/// Evaluates rule plans against one BDD manager. See the module docs.
pub(crate) struct RuleEval {
    mgr: BddManager,
    /// Scratch instance for every physical instance's logical domain.
    scratch_map: HashMap<DomainId, DomainId>,
    rel_cache: bool,
    /// Interned tags of relation-level memo operations (see [`MemoOp`]).
    /// Content-keyed and evaluator-lived, so a tag means the same operation
    /// across rounds *and* across solves — a stale client-cache entry from
    /// an earlier solve can therefore only ever resolve to the correct
    /// result. The client cache is manager-wide, so every engine on one
    /// manager must share one evaluator.
    memo_tags: RefCell<HashMap<MemoOp, u32>>,
}

impl RuleEval {
    pub(crate) fn new(
        mgr: BddManager,
        scratch_map: HashMap<DomainId, DomainId>,
        rel_cache: bool,
    ) -> Self {
        RuleEval {
            mgr,
            scratch_map,
            rel_cache,
            memo_tags: RefCell::new(HashMap::new()),
        }
    }

    /// Interns `op` to its stable client-cache tag.
    fn memo_tag(&self, op: MemoOp) -> u32 {
        let mut tags = self.memo_tags.borrow_mut();
        let next = tags.len() as u32;
        *tags.entry(op).or_insert(next)
    }

    /// Applies an atom's constant/equality filters and projections but *not*
    /// its renames — the join loop tries to fold those into the following
    /// `relprod` as one fused kernel call.
    fn eval_atom_prerename(&self, ap: &AtomPlan, src: &Bdd) -> Bdd {
        let mut b = src.clone();
        if b.is_zero() {
            return b;
        }
        for &(d, c) in &ap.consts {
            b = b.and(&self.mgr.domain_const(d, c));
        }
        for &(p, q) in &ap.eqs {
            b = b.and(&self.mgr.domain_eq(p, q));
        }
        if !ap.project.is_empty() {
            b = b.exist_domains(&ap.project);
        }
        b
    }

    fn eval_atom(&self, ap: &AtomPlan, src: &Bdd) -> Bdd {
        // A plan with no filters, projection or renames is the identity;
        // memoizing a clone would only pollute the client cache.
        let identity = ap.consts.is_empty()
            && ap.eqs.is_empty()
            && ap.project.is_empty()
            && ap.renames.is_empty();
        let tag = if self.rel_cache && !identity && !src.is_zero() {
            let mut consts = ap.consts.clone();
            consts.sort_unstable();
            let mut eqs = ap.eqs.clone();
            eqs.sort_unstable();
            let mut project = ap.project.clone();
            project.sort_unstable();
            let mut renames = ap.renames.clone();
            renames.sort_unstable();
            let tag = self.memo_tag(MemoOp::Atom {
                consts,
                eqs,
                project,
                renames,
            });
            if let Some(r) = self.mgr.memo_get(src, None, tag) {
                return r;
            }
            Some(tag)
        } else {
            None
        };
        let mut b = self.eval_atom_prerename(ap, src);
        if !b.is_zero() && !ap.renames.is_empty() {
            b = move_attrs(&b, &ap.renames, &ap.occupied, &self.scratch_map);
        }
        if let Some(tag) = tag {
            self.mgr.memo_put(src, None, tag, &b);
        }
        b
    }

    /// One join step: `∃ quant. (rename(joined) ∧ atom)`, with `renames`
    /// those of a held-back first atom (empty when none was held back).
    /// The whole step is memoized in the kernel's client cache when
    /// `rel_cache` is on: semi-naive variants re-derive identical steps
    /// whenever the operands did not change that round.
    fn join_step(
        &self,
        joined: &Bdd,
        atom_bdd: &Bdd,
        pending: Option<&AtomPlan>,
        quant: &[DomainId],
    ) -> Bdd {
        let tag = if self.rel_cache {
            let mut renames = pending.map(|a| a.renames.clone()).unwrap_or_default();
            renames.sort_unstable();
            let mut quant_key = quant.to_vec();
            quant_key.sort_unstable();
            let tag = self.memo_tag(MemoOp::Join {
                renames,
                quant: quant_key,
            });
            if let Some(r) = self.mgr.memo_get(joined, Some(atom_bdd), tag) {
                return r;
            }
            Some(tag)
        } else {
            None
        };
        let res = match pending {
            Some(a0) => {
                // The kernel renames the held-back operand on the fly when
                // the level map is monotone; otherwise fall back to the
                // two-pass rename-then-join (`move_attrs` also handles
                // rename cycles through the scratch instance).
                match joined.fused_replace_relprod_domains(atom_bdd, &a0.renames, quant) {
                    Some(j) => j,
                    None => {
                        let renamed =
                            move_attrs(joined, &a0.renames, &a0.occupied, &self.scratch_map);
                        renamed.relprod_domains(atom_bdd, quant)
                    }
                }
            }
            None => joined.relprod_domains(atom_bdd, quant),
        };
        if let Some(tag) = tag {
            self.mgr.memo_put(joined, Some(atom_bdd), tag, &res);
        }
        res
    }

    fn constraint_guard(&self, joined: &Bdd, c: &ConstraintPlan) -> Bdd {
        // Orders reduce to `<`: a <= b  <=>  !(b < a), applied with `diff`
        // so encodings above the domain size never enter the result.
        let lt = |p, q| self.mgr.domain_lt(p, q);
        let dom_size = |p: DomainId| self.mgr.domain_size(p);
        // Ranges for var-vs-const comparisons; an empty range is `zero`.
        let below = |p, v: u64| {
            if v == 0 {
                self.mgr.zero()
            } else {
                self.mgr.domain_range(p, 0, v - 1)
            }
        };
        let at_most = |p, v: u64| self.mgr.domain_range(p, 0, v);
        let above = |p, v: u64| self.mgr.domain_range(p, v + 1, dom_size(p) - 1);
        let at_least = |p, v: u64| self.mgr.domain_range(p, v, dom_size(p) - 1);
        match (c.left, c.right) {
            (Operand::Phys(p), Operand::Phys(q)) => match c.op {
                ConstraintOp::Eq => joined.and(&self.mgr.domain_eq(p, q)),
                ConstraintOp::Ne => joined.diff(&self.mgr.domain_eq(p, q)),
                ConstraintOp::Lt => joined.and(&lt(p, q)),
                ConstraintOp::Gt => joined.and(&lt(q, p)),
                ConstraintOp::Le => joined.diff(&lt(q, p)),
                ConstraintOp::Ge => joined.diff(&lt(p, q)),
            },
            (Operand::Phys(p), Operand::Value(v)) => match c.op {
                ConstraintOp::Eq => joined.and(&self.mgr.domain_const(p, v)),
                ConstraintOp::Ne => joined.diff(&self.mgr.domain_const(p, v)),
                ConstraintOp::Lt => joined.and(&below(p, v)),
                ConstraintOp::Le => joined.and(&at_most(p, v)),
                ConstraintOp::Gt => joined.and(&above(p, v)),
                ConstraintOp::Ge => joined.and(&at_least(p, v)),
            },
            (Operand::Value(v), Operand::Phys(p)) => match c.op {
                ConstraintOp::Eq => joined.and(&self.mgr.domain_const(p, v)),
                ConstraintOp::Ne => joined.diff(&self.mgr.domain_const(p, v)),
                // v < p  <=>  p > v, and so on mirrored.
                ConstraintOp::Lt => joined.and(&above(p, v)),
                ConstraintOp::Le => joined.and(&at_least(p, v)),
                ConstraintOp::Gt => joined.and(&below(p, v)),
                ConstraintOp::Ge => joined.and(&at_most(p, v)),
            },
            (Operand::Value(a), Operand::Value(b)) => {
                let holds = match c.op {
                    ConstraintOp::Eq => a == b,
                    ConstraintOp::Ne => a != b,
                    ConstraintOp::Lt => a < b,
                    ConstraintOp::Le => a <= b,
                    ConstraintOp::Gt => a > b,
                    ConstraintOp::Ge => a >= b,
                };
                if holds {
                    joined.clone()
                } else {
                    self.mgr.zero()
                }
            }
        }
    }

    /// Applies one rule plan. `srcs` holds every positive atom's source BDD
    /// (plan order), `neg_srcs` every negative atom's (parallel to
    /// `plan.negative`), `order` the join order over positive-atom indices.
    pub(crate) fn eval_rule(
        &self,
        plan: &RulePlan,
        srcs: &[Bdd],
        neg_srcs: &[Bdd],
        order: &[usize],
    ) -> Bdd {
        let n = plan.positive.len();
        let mut joined;
        let mut bound: HashSet<&str> = HashSet::new();
        // The first atom's renames are held back and fused into its first
        // join when possible. In semi-naive rounds the first atom is the
        // delta — fresh every round, so unlike the stable later atoms its
        // rename can never be amortized by the replace cache, and folding
        // it into the join saves a full traversal per round.
        let mut pending: Option<&AtomPlan> = None;
        if n == 0 {
            joined = self.mgr.one();
        } else {
            let a0 = &plan.positive[order[0]];
            if n > 1 && !a0.renames.is_empty() {
                joined = self.eval_atom_prerename(a0, &srcs[order[0]]);
                pending = Some(a0);
            } else {
                joined = self.eval_atom(a0, &srcs[order[0]]);
            }
            bound.extend(a0.vars.iter().map(String::as_str));
        }
        for k in 1..n {
            if joined.is_zero() {
                return joined;
            }
            let ai = order[k];
            let ap = &plan.positive[ai];
            // Quantify every variable that dies at this join — including
            // the join variables themselves when no later atom, no guard
            // and the head do not need them: keeping a join variable alive
            // one step longer inflates the intermediate (the classic
            // relprod win).
            let mut later: HashSet<&str> = HashSet::new();
            for &j in &order[k + 1..] {
                later.extend(plan.positive[j].vars.iter().map(String::as_str));
            }
            let needed = |v: &str| {
                plan.head_vars.contains(v) || plan.guard_vars.contains(v) || later.contains(v)
            };
            let mut quant: Vec<DomainId> = bound
                .iter()
                .copied()
                .chain(ap.vars.iter().map(String::as_str))
                .filter(|v| !needed(v))
                .collect::<HashSet<&str>>()
                .into_iter()
                .map(|v| plan.var_phys[v])
                .collect();
            // Canonical order: the set comes out of a HashSet, and the
            // client-cache key must not depend on iteration order.
            quant.sort_unstable();
            let atom_bdd = self.eval_atom(ap, &srcs[ai]);
            joined = self.join_step(&joined, &atom_bdd, pending.take(), &quant);
            bound.extend(plan.positive[ai].vars.iter().map(String::as_str));
            bound.retain(|v| needed(v));
        }
        if joined.is_zero() {
            return joined;
        }
        for c in &plan.constraints {
            joined = self.constraint_guard(&joined, c);
        }
        for (i, neg) in plan.negative.iter().enumerate() {
            let nb = self.eval_atom(neg, &neg_srcs[i]);
            joined = joined.diff(&nb);
        }
        // Project remaining non-head variables.
        let extra: Vec<DomainId> = bound
            .iter()
            .filter(|v| !plan.head_vars.contains(**v))
            .map(|v| plan.var_phys[*v])
            .collect();
        if !extra.is_empty() {
            joined = joined.exist_domains(&extra);
        }
        for &(p, q) in &plan.head.eqs {
            joined = joined.and(&self.mgr.domain_eq(p, q));
        }
        for &(d, c) in &plan.head.consts {
            joined = joined.and(&self.mgr.domain_const(d, c));
        }
        joined
    }

    /// Greedy join order: start at `start` (the delta atom in semi-naive
    /// variants), then repeatedly take the remaining atom sharing the most
    /// variables with what is already joined (ties: fewer new variables,
    /// then plan order). Avoids cross-product intermediates like joining a
    /// filter relation before any of its variables are bound.
    pub(crate) fn join_order(plan: &RulePlan, start: usize) -> Vec<usize> {
        let n = plan.positive.len();
        let mut order = Vec::with_capacity(n);
        let mut used = vec![false; n];
        let mut bound: HashSet<&str> = HashSet::new();
        order.push(start);
        used[start] = true;
        bound.extend(plan.positive[start].vars.iter().map(String::as_str));
        while order.len() < n {
            let mut best: Option<(usize, usize, usize)> = None; // (shared, new, ix)
            for (i, in_use) in used.iter().enumerate() {
                if *in_use {
                    continue;
                }
                let shared = plan.positive[i]
                    .vars
                    .iter()
                    .filter(|v| bound.contains(v.as_str()))
                    .count();
                let new = plan.positive[i].vars.len() - shared;
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
            bound.extend(plan.positive[ix].vars.iter().map(String::as_str));
            order.push(ix);
        }
        order
    }
}
