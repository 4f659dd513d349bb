//! Rule evaluation against one BDD manager.
//!
//! [`RuleEval`] holds exactly the state a rule application touches — the
//! manager, the memoize flag and the interned memo-tag table — and none
//! of the global solve state (relation values, strata bookkeeping,
//! statistics), which stays with the `Engine` that orchestrates the
//! fixpoint.
//!
//! All sources are passed in explicitly: positive atoms through `srcs`
//! (parallel to `plan.positive`; the plan fixes the join order) and
//! negative atoms through `neg_srcs` (parallel to `plan.negative`). Results
//! are pure functions of the sources.

use crate::ast::ConstraintOp;
use crate::plan::{AtomPlan, ConstraintPlan, Operand, RulePlan};
use std::cell::RefCell;
use std::collections::HashMap;
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
    /// `∃ quant. (rename(lhs) ∧ rhs)` (renames empty when no rename
    /// was held back for fusing).
    Join {
        renames: Vec<(DomainId, DomainId)>,
        quant: Vec<DomainId>,
    },
}

/// Evaluates rule plans against one BDD manager. See the module docs.
pub(crate) struct RuleEval {
    mgr: BddManager,
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
    pub(crate) fn new(mgr: BddManager, rel_cache: bool) -> Self {
        RuleEval {
            mgr,
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
            b = b.replace(&ap.renames);
        }
        if let Some(tag) = tag {
            self.mgr.memo_put(src, None, tag, &b);
        }
        b
    }

    /// One join step: `∃ quant. (rename(joined) ∧ atom)`, with `pending`
    /// the atom whose renames were held back for `joined` (the first atom,
    /// or a delta joining the prefix passed as `atom_bdd`; `None` when no
    /// rename was held back).
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
            Some(a0) => joined.replace_relprod_domains(atom_bdd, &a0.renames, quant),
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

    /// Applies one rule plan in its planned join order
    /// ([`RulePlan::joins`]). `srcs` holds every positive atom's source
    /// BDD (plan order), `neg_srcs` every negative atom's (parallel to
    /// `plan.negative`). `delta` names the positive occurrence whose source
    /// is a semi-naive delta; `None` is a full application.
    ///
    /// One atom's renames are held back and fused into the join where it
    /// enters: the delta's in a narrowed application — fresh every round,
    /// so unlike the stable atoms its rename can never be amortized by
    /// the memo, and folding it into the join saves a full traversal per
    /// application — and the first atom's in a full one. Every other atom
    /// goes through the memoized [`RuleEval::eval_atom`].
    pub(crate) fn eval_rule(
        &self,
        plan: &RulePlan,
        srcs: &[Bdd],
        neg_srcs: &[Bdd],
        delta: Option<usize>,
    ) -> Bdd {
        let fused = match plan.joins.first() {
            Some(first) if plan.joins.len() > 1 => Some(delta.unwrap_or(first.atom)),
            _ => None,
        }
        .filter(|&i| !plan.positive[i].renames.is_empty());
        // The first atom's renames while they wait for the first join.
        let mut pending: Option<&AtomPlan> = None;
        let mut steps = plan.joins.iter();
        let mut joined = match steps.next() {
            None => self.mgr.one(),
            Some(first) => {
                let (ap, src) = (&plan.positive[first.atom], &srcs[first.atom]);
                if fused == Some(first.atom) {
                    pending = Some(ap);
                    self.eval_atom_prerename(ap, src)
                } else {
                    self.eval_atom(ap, src)
                }
            }
        };
        for step in steps {
            if joined.is_zero() {
                return joined;
            }
            let (ap, src) = (&plan.positive[step.atom], &srcs[step.atom]);
            joined = if fused == Some(step.atom) {
                // The delta enters here: it is the renamed operand and the
                // joined prefix the other.
                let d = self.eval_atom_prerename(ap, src);
                self.join_step(&d, &joined, Some(ap), &step.quant)
            } else {
                let atom_bdd = self.eval_atom(ap, src);
                self.join_step(&joined, &atom_bdd, pending.take(), &step.quant)
            };
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
        if !plan.project.is_empty() {
            joined = joined.exist_domains(&plan.project);
        }
        for &(p, q) in &plan.head.eqs {
            joined = joined.and(&self.mgr.domain_eq(p, q));
        }
        for &(d, c) in &plan.head.consts {
            joined = joined.and(&self.mgr.domain_const(d, c));
        }
        joined
    }
}
