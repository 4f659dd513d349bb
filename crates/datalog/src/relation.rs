//! BDD-backed relations.
//!
//! Every relation stores its tuples as a BDD over one *physical domain*
//! per attribute (the paper's `V1`, `V2`, `H1`, ... instances). Rule
//! evaluation moves attributes between physical domains with one BDD
//! `replace` per atom; the kernel's rename is correct for every pairing,
//! permutation cycles included, so no domain is set aside to break them.

use whale_bdd::{Bdd, DomainId};

/// Runtime state of one declared relation.
#[derive(Clone)]
pub(crate) struct RelationState {
    /// Physical domain of each attribute.
    pub attr_phys: Vec<DomainId>,
    /// Current tuples: the externally supplied base plus everything the
    /// rules have derived so far.
    pub bdd: Bdd,
    /// Externally supplied tuples only (facts added through
    /// `add_fact`/`add_facts`, BDDs injected with `set_relation_bdd`).
    /// This is what a solve starts from when it resets a relation — the
    /// derived part is recomputed, the base survives retraction-driven
    /// invalidation of downstream strata.
    pub base: Bdd,
}
