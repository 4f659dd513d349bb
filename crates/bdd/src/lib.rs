//! An ordered binary decision diagram (OBDD) kernel with a finite-domain
//! relation layer, built for BDD-based program analysis.
//!
//! This crate is the substrate of a reproduction of Whaley & Lam,
//! *Cloning-Based Context-Sensitive Pointer Alias Analysis Using Binary
//! Decision Diagrams* (PLDI 2004). It plays the role BuDDy/JavaBDD played for
//! the paper's `bddbddb` system and therefore provides exactly the operations
//! that system needs:
//!
//! - the classic apply family ([`Bdd::and`], [`Bdd::or`], [`Bdd::xor`],
//!   [`Bdd::diff`], [`Bdd::not`], [`Bdd::ite`]); the four binary
//!   operators share one recursion, as BuDDy's `bdd_apply` does,
//!   instantiated per operator and keyed in the apply cache by the
//!   operator's tag,
//! - quantification and the combined *relational product*
//!   ([`Bdd::exist`], [`Bdd::relprod`]) used to implement Datalog joins,
//! - variable renaming ([`Bdd::replace`]) used to implement attribute
//!   renaming, and the fused rename-then-join kernel
//!   ([`Bdd::replace_relprod_domains`]) that performs a monotone rename *on
//!   the fly* inside the AND-∃ recursion — the dominant `rename ∘ join`
//!   sequence of compiled Datalog rules in one traversal with no
//!   intermediate BDD,
//! - model counting and enumeration ([`Bdd::satcount`],
//!   [`Bdd::for_each_tuple`]),
//! - a finite-domain ("fdd") layer assigning blocks of boolean variables to
//!   integer domains, with the O(bits) **range** construction the paper
//!   describes in Section 4.1 and an O(bits) **adder** relation
//!   (`y = x + c`) used to shift context numbers by a constant.
//!
//! # Example
//!
//! ```
//! use whale_bdd::{BddManager, DomainSpec, OrderSpec};
//!
//! # fn main() -> Result<(), whale_bdd::BddError> {
//! let mgr = BddManager::with_domains(
//!     &[DomainSpec::new("V", 64), DomainSpec::new("H", 64)],
//!     &OrderSpec::parse("VxH")?,
//! )?;
//! let v = mgr.domain("V").unwrap();
//! let h = mgr.domain("H").unwrap();
//! // the set of pairs {(x, x) | 10 <= x <= 20}
//! let diag = mgr.domain_eq(v, h).and(&mgr.domain_range(v, 10, 20));
//! assert_eq!(diag.satcount_domains(&[v, h]) as u64, 11);
//! # Ok(())
//! # }
//! ```
//!
//! # Design notes
//!
//! The manager is deliberately single-threaded (`!Send`), like the default
//! builds of the BDD packages the paper used. Handles ([`Bdd`]) are
//! reference-counted RAII values; garbage collection is a mark-and-sweep over
//! externally referenced nodes plus the kernel's internal recursion stack and
//! runs only under allocation pressure. Every public operation enters the
//! kernel through one place, which checks that the operands share a
//! manager, samples the sanitizer and runs a pending automatic reorder.
//!
//! The operation caches are 4-way set-associative with one 64-byte cache
//! line per set, so a lookup reads one line; a full set evicts its oldest
//! insertion. They have fixed, table-proportional sizes, like BuDDy's: each
//! starts at a fixed size and grows only when the node table grows. A GC
//! that frees nodes *revalidates* the caches, dropping only entries that
//! name a freed node instead of discarding warm memoization state (a sweep
//! that frees nothing leaves the caches untouched). Per-cache
//! hit/miss/eviction counters are exposed as the [`CacheStats`]-typed
//! fields `apply_cache`, `ite_cache`, `appex_cache`, `replace_cache` and
//! `client_cache` of [`BddStats`]. Exact counts are memoized per root in a
//! fixed 256-entry table under the same GC rule, counted in `count_memo`.
//!
//! A *client operation cache* with the same GC-safe lifecycle lets callers
//! memoize whole derived operations —
//! [`BddManager::memo_get`]/[`BddManager::memo_put`] — which the Datalog
//! engine uses to skip entire relation-level joins across fixpoint rounds.
//!
//! The manager supports **in-place dynamic variable reordering**
//! ([`BddManager::reorder_sift`], plus an opt-in automatic trigger via
//! [`BddManager::set_auto_reorder`]): Rudell-style sifting over
//! adjacent-level swaps that rewrite affected nodes in place, so node
//! indices — and therefore every live [`Bdd`] handle — stay valid while the
//! order changes under them. Sifting moves each ordering group as one
//! block, keeping interleaved domains interleaved.

mod adder;
mod cache;
mod domain;
mod error;
pub mod io;
mod manager;
mod order;
mod sat;
mod store;

pub use cache::CacheStats;
pub use domain::{DomainId, DomainSpec};
pub use error::BddError;
pub use manager::{Bdd, BddManager, BddStats};
pub use order::{OrderSpec, ReorderStats};
pub use store::NODE_BYTES;

/// A boolean variable, identified by the position it held in the *initial*
/// order (0 = topmost at construction). Variable numbers are stable: all
/// API parameters — domain bit lists, quantification sets, rename pairs —
/// keep meaning the same variable after dynamic reordering moves it to a
/// different position ([`BddManager::level_of_var`] gives the current one).
pub type Level = u32;
