//! The BDD-backed Datalog solver.
//!
//! Mirrors the structure of the paper's `bddbddb` (Section 2.4): relations
//! live in BDDs over physical domains, each rule is applied as a sequence of
//! relational `join`/`project`/`rename` operations (BDD `relprod`, `exist`,
//! `replace`), rules are grouped by the predicate dependency graph and
//! solved stratum by stratum, and recursive components run a semi-naive
//! (*incrementalized*) fixpoint.
//!
//! One stratum driver runs every solve. It takes the strata to run and
//! where each starts: from its base facts, or resumed from the current
//! solution with the tuples that changed since. A full solve runs every
//! stratum from its base facts; the three tiers of
//! [`Engine::solve_incremental`] run the strata a fact delta can reach,
//! resumed (additions) or from base (retractions, negation); naive
//! evaluation is the same loop with one full application per rule and
//! round. Every round and rule application happens in the driver.

use crate::ast::{Atom, RelationKind, Term};
use crate::eval::RuleEval;
use crate::graph::scc_topo_order;
use crate::plan::{resolve_name, PlanContext, RulePlan};
use crate::program::Program;
use crate::relation::RelationState;
use crate::DatalogError;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use whale_bdd::{Bdd, BddManager, CacheStats, DomainId, DomainSpec, OrderSpec};

/// Tuning knobs for [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Use semi-naive (incrementalized) evaluation for recursive components.
    /// Disable only for the ablation benchmark; naive evaluation computes
    /// the same fixpoint more slowly. Record: `figures --fig ablations`
    /// (EXPERIMENTS.md "Ablations") — parity on shallow fixpoints, 7.3 s
    /// semi-naive against 13.4 s naive on sshterm 1/8.
    pub seminaive: bool,
    /// Variable-ordering string over *logical* domain names (e.g.
    /// `"N_F_I_M_VxH"`), or physical instances (`"V1_V0"`). `None` lays the
    /// domains out in declaration order, instances interleaved.
    pub order: Option<String>,
    /// Memoize whole relation-level operations (atom filters/renames and
    /// rename-join-project steps) in the kernel's GC-safe client cache,
    /// keyed by operand BDD roots plus an interned operation tag.
    /// Semi-naive rounds re-derive many joins whose operand relations did
    /// not change that round; this skips them outright. Hit counters are
    /// reported in [`SolveStats::rel_cache`]. Disable only for the
    /// ablation benchmark; results are bit-identical either way. Record:
    /// `cache_probe 9` (`cache_probe/layers9_memo` against `_nomemo`,
    /// EXPERIMENTS.md "Op caches that fit") — the memo cuts replace
    /// lookups by 11% at layers 9 and 17% at layers 12, and the layers-9
    /// solve falls from 0.71 to 0.56 s.
    pub rel_cache: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            seminaive: true,
            order: None,
            rel_cache: true,
        }
    }
}

/// Statistics from a [`Engine::solve`] run.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Number of strata (condensation components) evaluated.
    pub strata: usize,
    /// Total fixpoint rounds across all recursive components.
    pub rounds: usize,
    /// Total rule (variant) applications.
    pub rule_applications: usize,
    /// Peak live BDD nodes observed ([`whale_bdd::BddStats::peak_live_nodes`]:
    /// sampled before a collection marks, so garbage made during the solve
    /// counts too; garbage left from before it does not).
    pub peak_live_nodes: usize,
    /// Most BDD nodes any collection during the solve, or the marking
    /// pass at its end, found reachable
    /// ([`whale_bdd::BddStats::peak_reachable_nodes`]).
    pub peak_reachable_nodes: usize,
    /// Binary-apply cache activity during this solve (deltas, not
    /// lifetime totals — a second solve starts from zero again).
    pub apply_cache: CacheStats,
    /// If-then-else cache activity during this solve.
    pub ite_cache: CacheStats,
    /// Exist/relprod/fused-kernel cache activity during this solve — the
    /// hot path of Algorithm 5's joins.
    pub appex_cache: CacheStats,
    /// Replace cache activity during this solve.
    pub replace_cache: CacheStats,
    /// Relation-level operation cache activity during this solve (see
    /// [`EngineOptions::rel_cache`]); every hit skipped an entire
    /// atom-eval or rename-join-project step.
    pub rel_cache: CacheStats,
    /// Wall-clock time spent solving each stratum, indexed like the
    /// condensation's topological order ([`SolveStats::strata`] entries;
    /// strata with no rules record ~zero). Strata run one after another,
    /// so the sum never exceeds [`SolveStats::solve_time`].
    pub stratum_times: Vec<Duration>,
    /// Wall-clock time of the whole solve.
    pub solve_time: Duration,
    /// `true` when this record came from [`Engine::solve_incremental`]
    /// resuming an existing solution rather than solving from scratch.
    pub incremental: bool,
    /// Strata the incremental path re-evaluated (either resumed
    /// semi-naively or invalidated and re-solved). Zero for full solves.
    pub strata_resolved: usize,
    /// Strata the incremental path skipped because no fact delta could
    /// reach them through the condensation DAG. Zero for full solves —
    /// the gap between this and [`SolveStats::strata`] is the incremental
    /// win.
    pub strata_skipped: usize,
    /// `true` when a retraction interacting with negation forced the
    /// incremental path to discard the whole solution and re-solve.
    pub full_fallback: bool,
}

impl SolveStats {
    /// Deterministic kernel work of the solve: its apply, ite, appex and
    /// replace op-cache misses. Every miss is one recursion step that did
    /// real work.
    pub fn kernel_misses(&self) -> u64 {
        [
            &self.apply_cache,
            &self.ite_cache,
            &self.appex_cache,
            &self.replace_cache,
        ]
        .iter()
        .map(|c| c.misses)
        .sum()
    }

    /// The stratum-level timing summary the CLIs print under `--stats`:
    /// a `strata:` line with the count and summed time, then the five
    /// slowest strata that took measurable time, one line each.
    pub fn stratum_summary(&self) -> String {
        let total: Duration = self.stratum_times.iter().sum();
        let mut out = format!(
            "strata: {} solved in {total:?} total\n",
            self.stratum_times.len()
        );
        let mut by_time: Vec<(usize, Duration)> =
            self.stratum_times.iter().copied().enumerate().collect();
        by_time.sort_by_key(|e| std::cmp::Reverse(e.1));
        for (ix, t) in by_time.iter().take(5) {
            if t.is_zero() {
                break;
            }
            out.push_str(&format!("  stratum {ix:<4} {t:?}\n"));
        }
        out
    }
}

/// Counter deltas `now - base`, pairing two snapshots of one cache.
fn cache_delta(now: CacheStats, base: CacheStats) -> CacheStats {
    CacheStats {
        hits: now.hits - base.hits,
        misses: now.misses - base.misses,
        evictions: now.evictions - base.evictions,
    }
}

/// The answer to a single-atom query, from [`Engine::solve_query`].
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The queried relation's name.
    pub relation: String,
    /// Matching tuples at the relation's full arity, decoded in attribute
    /// order and sorted (BDD enumeration follows the variable order;
    /// sorting makes answers independent of it).
    pub tuples: Vec<Vec<u64>>,
    /// Statistics of the solve that brought the engine up to date before
    /// the select (see [`Engine::ensure_solved`]); all zeros when the
    /// engine was already solved with nothing pending.
    pub stats: SolveStats,
}

/// A Datalog program loaded into a BDD manager and ready to solve.
///
/// See the crate-level example for end-to-end use.
pub struct Engine {
    program: Program,
    options: EngineOptions,
    mgr: BddManager,
    /// Physical instances per logical domain.
    phys: Vec<Vec<DomainId>>,
    rel: Vec<RelationState>,
    name_maps: HashMap<usize, HashMap<String, u64>>,
    name_lists: HashMap<usize, Vec<String>>,
    stats: SolveStats,
    /// Rule evaluation against the engine's manager.
    eval: RuleEval,
    /// Whether a fixpoint has been computed (by [`Engine::solve`] or
    /// restored via [`Engine::warm_start`]); gates delta tracking and the
    /// incremental path.
    solved: bool,
    /// Per-relation tuples added since the last solve (only tracked once
    /// solved): the seed deltas a resumed semi-naive fixpoint starts from.
    pending_adds: HashMap<usize, Bdd>,
    /// Per-relation tuples retracted from the base since the last solve
    /// (only tracked once solved).
    pending_retracts: HashMap<usize, Bdd>,
}

/// Plans plus the predicate-dependency condensation, shared by the full
/// and incremental solve paths.
struct PreparedSolve {
    plans: Vec<RulePlan>,
    comp_of: Vec<usize>,
    comps: Vec<Vec<usize>>,
}

/// Where [`Engine::run_strata`] starts each stratum it runs.
enum Start {
    /// From the base facts: the strata are reset, their non-recursive
    /// rules run once, then rounds run seeded with everything they hold
    /// (naive rounds when [`EngineOptions::seminaive`] is off).
    Base,
    /// From the current solution: per-relation tuples that are new since
    /// the last fixpoint (the pending adds; each resumed stratum adds its
    /// growth) are injected, then semi-naive rounds run seeded with what
    /// the injection derived plus the stratum's own changed tuples.
    Resume(HashMap<usize, Bdd>),
}

impl Engine {
    /// Builds an engine with default options.
    ///
    /// # Errors
    ///
    /// Propagates BDD-layer errors (e.g. a malformed ordering).
    pub fn new(program: Program) -> Result<Self, DatalogError> {
        Self::with_options(program, EngineOptions::default())
    }

    /// Builds an engine with explicit options.
    ///
    /// # Errors
    ///
    /// [`DatalogError::Bdd`] if the ordering string references unknown
    /// domains or omits declared ones.
    pub fn with_options(program: Program, options: EngineOptions) -> Result<Self, DatalogError> {
        // Physical domain specs: N instances per logical domain, all of
        // the logical domain's size.
        let mut specs = Vec::new();
        for (d, decl) in program.domains.iter().enumerate() {
            for i in 0..program.instances[d] {
                specs.push(DomainSpec::new(format!("{}{}", decl.name, i), decl.size));
            }
        }
        let order = OrderSpec::from_groups(expand_order(&program, options.order.as_deref())?);
        // Analyses routinely reach hundreds of thousands of live nodes;
        // starting large avoids early grow-and-collect cycles that clear
        // the operation caches mid-fixpoint.
        let mgr = BddManager::with_domains_and_capacity(&specs, &order, 1 << 20)?;

        let phys: Vec<Vec<DomainId>> = program
            .domains
            .iter()
            .enumerate()
            .map(|(d, decl)| {
                (0..program.instances[d])
                    .map(|i| {
                        mgr.domain(&format!("{}{}", decl.name, i))
                            .expect("instance declared")
                    })
                    .collect()
            })
            .collect();

        let rel = relation_states(&program, &phys, &mgr);
        let eval = RuleEval::new(mgr.clone(), options.rel_cache);
        Ok(Engine {
            program,
            options,
            mgr,
            phys,
            rel,
            name_maps: HashMap::new(),
            name_lists: HashMap::new(),
            stats: SolveStats::default(),
            eval,
            solved: false,
            pending_adds: HashMap::new(),
            pending_retracts: HashMap::new(),
        })
    }

    /// The underlying BDD manager (for building relation BDDs directly).
    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    /// The program being solved.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Statistics from the last [`Engine::solve`].
    pub fn stats(&self) -> SolveStats {
        self.stats.clone()
    }

    fn rel_ix(&self, name: &str) -> Result<usize, DatalogError> {
        self.program.relation_ix.get(name).copied().ok_or_else(|| {
            DatalogError::unknown_relation(
                name,
                self.program.relations.iter().map(|r| r.name.as_str()),
            )
        })
    }

    /// [`Engine::rel_ix`] for installing `bdd` as relation `name`: the BDD
    /// must depend only on the variables of the relation's attribute
    /// domains, or decoding it as the relation could not succeed.
    fn rel_ix_for(&self, name: &str, bdd: &Bdd) -> Result<usize, DatalogError> {
        let ix = self.rel_ix(name)?;
        let vars: Vec<u32> = self.rel[ix]
            .attr_phys
            .iter()
            .flat_map(|&d| self.mgr.domain_levels(d))
            .collect();
        if let Some(v) = bdd.support().into_iter().find(|v| !vars.contains(v)) {
            return Err(DatalogError::BadFact(format!(
                "BDD for `{name}` depends on variable {v}, outside the relation's attribute domains"
            )));
        }
        Ok(ix)
    }

    /// The physical domain of each attribute of `name`, in attribute order.
    ///
    /// # Errors
    ///
    /// [`DatalogError::UnknownRelation`].
    pub fn relation_signature(&self, name: &str) -> Result<Vec<DomainId>, DatalogError> {
        Ok(self.rel[self.rel_ix(name)?].attr_phys.clone())
    }

    /// Registers a name map for a domain so quoted constants (and
    /// [`Engine::name_of`]) resolve.
    ///
    /// # Errors
    ///
    /// [`DatalogError::UnknownDomain`].
    pub fn set_name_map<S: AsRef<str>>(
        &mut self,
        domain: &str,
        names: &[S],
    ) -> Result<(), DatalogError> {
        let d = *self.program.domain_ix.get(domain).ok_or_else(|| {
            DatalogError::unknown_domain(
                domain,
                self.program.domains.iter().map(|d| d.name.as_str()),
                0,
                0,
            )
        })?;
        let map = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_ref().to_string(), i as u64))
            .collect();
        self.name_maps.insert(d, map);
        self.name_lists
            .insert(d, names.iter().map(|n| n.as_ref().to_string()).collect());
        Ok(())
    }

    /// The name of `value` in `domain`'s name map, if registered.
    pub fn name_of(&self, domain: &str, value: u64) -> Option<&str> {
        let d = *self.program.domain_ix.get(domain)?;
        self.name_lists
            .get(&d)?
            .get(value as usize)
            .map(String::as_str)
    }

    /// Adds one tuple to an `input` relation.
    ///
    /// After a solve, additions are tracked as pending deltas:
    /// [`Engine::solve_incremental`] resumes the fixpoint from them
    /// instead of re-solving from scratch.
    ///
    /// # Errors
    ///
    /// [`DatalogError::BadFact`] for non-input relations or arity mismatch;
    /// [`DatalogError::ConstantOutOfRange`] for out-of-domain values.
    pub fn add_fact(&mut self, name: &str, tuple: &[u64]) -> Result<(), DatalogError> {
        let ix = self.input_ix(name)?;
        let m = self.tuple_set(ix, [tuple])?;
        self.apply_add(ix, &m);
        Ok(())
    }

    /// Resolves `name` to an index, requiring `input` kind.
    fn input_ix(&self, name: &str) -> Result<usize, DatalogError> {
        let ix = self.rel_ix(name)?;
        if self.program.relations[ix].kind != RelationKind::Input {
            return Err(DatalogError::BadFact(format!(
                "relation `{name}` is not an input relation"
            )));
        }
        Ok(ix)
    }

    /// Folds newly supplied tuples into a relation's base and current
    /// value, recording the genuinely new part as a pending add delta
    /// once a solution exists.
    fn apply_add(&mut self, ix: usize, tuples: &Bdd) {
        self.rel[ix].base = self.rel[ix].base.or(tuples);
        let fresh = tuples.diff(&self.rel[ix].bdd);
        if fresh.is_zero() {
            return;
        }
        self.rel[ix].bdd = self.rel[ix].bdd.or(&fresh);
        if self.solved {
            let zero = self.mgr.zero();
            let slot = self.pending_adds.entry(ix).or_insert(zero);
            *slot = slot.or(&fresh);
        }
    }

    /// Adds many tuples to an `input` relation.
    ///
    /// # Example
    ///
    /// ```
    /// # use whale_datalog::{Engine, Program};
    /// # fn main() -> Result<(), whale_datalog::DatalogError> {
    /// # let program = Program::parse(
    /// #     "DOMAINS\nV 8\nRELATIONS\ninput e (s : V, d : V)\noutput t (s : V, d : V)\nRULES\nt(x,y) :- e(x,y).")?;
    /// let mut engine = Engine::new(program)?;
    /// engine.add_facts("e", [[0u64, 1], [1, 2], [2, 3]])?;
    /// engine.solve()?;
    /// assert_eq!(engine.relation_count("t")? as u64, 3);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// As [`Engine::add_fact`], for the first bad tuple in the list; the
    /// engine is then left unchanged.
    pub fn add_facts<I, T>(&mut self, name: &str, tuples: I) -> Result<(), DatalogError>
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[u64]>,
    {
        let ix = self.input_ix(name)?;
        let b = self.tuple_set(ix, tuples)?;
        self.apply_add(ix, &b);
        Ok(())
    }

    /// Validates a tuple list against relation `ix` — arity, then each
    /// value's domain, reporting the first offender — and builds its BDD
    /// with [`BddManager::tuple_set`].
    fn tuple_set<I, T>(&self, ix: usize, tuples: I) -> Result<Bdd, DatalogError>
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[u64]>,
    {
        let decl = &self.program.relations[ix];
        let tuples: Vec<T> = tuples.into_iter().collect();
        for t in &tuples {
            let t = t.as_ref();
            if t.len() != decl.attrs.len() {
                return Err(DatalogError::BadFact(format!(
                    "relation `{}` expects {} values, got {}",
                    decl.name,
                    decl.attrs.len(),
                    t.len()
                )));
            }
            for (&v, (_, dom)) in t.iter().zip(&decl.attrs) {
                if v >= self.program.domains[self.program.domain_ix[dom]].size {
                    return Err(DatalogError::ConstantOutOfRange {
                        domain: dom.clone(),
                        value: v,
                    });
                }
            }
        }
        Ok(self.mgr.tuple_set(&self.rel[ix].attr_phys, &tuples))
    }

    /// Removes tuples from an `input` relation's base facts. Tuples not
    /// currently in the base are ignored.
    ///
    /// Retractions do not take effect on derived relations until the next
    /// [`Engine::solve`] or [`Engine::solve_incremental`]: a retracted
    /// tuple may be independently re-derivable by rules, so the affected
    /// downstream strata must be re-solved to find out what survives.
    ///
    /// # Errors
    ///
    /// As [`Engine::add_facts`].
    pub fn retract_facts<I, T>(&mut self, name: &str, tuples: I) -> Result<(), DatalogError>
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[u64]>,
    {
        let ix = self.input_ix(name)?;
        let victims = self.tuple_set(ix, tuples)?;
        let present = victims.and(&self.rel[ix].base);
        if present.is_zero() {
            return Ok(());
        }
        self.rel[ix].base = self.rel[ix].base.diff(&present);
        if self.solved {
            // A tuple added and retracted within the same delta epoch
            // cancels out of the pending adds.
            if let Some(a) = self.pending_adds.get_mut(&ix) {
                *a = a.diff(&present);
            }
            let zero = self.mgr.zero();
            let slot = self.pending_retracts.entry(ix).or_insert(zero);
            *slot = slot.or(&present);
        } else {
            // No solution yet: the current value is just the loaded base.
            self.rel[ix].bdd = self.rel[ix].bdd.diff(&present);
        }
        Ok(())
    }

    /// Removes one tuple from an `input` relation (see
    /// [`Engine::retract_facts`]).
    ///
    /// # Errors
    ///
    /// As [`Engine::add_fact`].
    pub fn retract_fact(&mut self, name: &str, tuple: &[u64]) -> Result<(), DatalogError> {
        self.retract_facts(name, [tuple])
    }

    /// A deterministic digest of everything a solve's outcome depends on:
    /// the program shape (domains, relations, rules), the variable order,
    /// and the canonical node structure of every relation's base facts
    /// ([`Bdd::canonical_nodes`]), hashed in O(nodes) rather than
    /// O(tuples). Two engines with equal hashes compute identical
    /// fixpoints, which is what keys the serve daemon's warm-start dump
    /// cache. The structure depends on the variable order, so engines over
    /// the same facts under two orders hash differently: a cache miss,
    /// never a wrong warm start.
    #[must_use]
    pub fn fact_stream_hash(&self) -> u64 {
        // FNV-1a, 64-bit — stable across runs and platforms, no external
        // hasher dependency, and insensitive to HashMap iteration order
        // because everything mixed in is sorted or declaration-ordered.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mix_bytes = |h: &mut u64, bytes: &[u8]| {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mix_str = |h: &mut u64, s: &str| {
            for &b in s.as_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            *h ^= 0xff;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        if let Some(order) = &self.options.order {
            mix_str(&mut h, order);
        }
        for d in &self.program.domains {
            mix_str(&mut h, &d.name);
            mix_bytes(&mut h, &d.size.to_le_bytes());
        }
        for r in &self.program.relations {
            mix_str(&mut h, &r.name);
            for (a, dom) in &r.attrs {
                mix_str(&mut h, a);
                mix_str(&mut h, dom);
            }
        }
        for rule in &self.program.rules {
            mix_str(&mut h, &rule.to_string());
        }
        for (ix, r) in self.rel.iter().enumerate() {
            let nodes = r.base.canonical_nodes();
            mix_bytes(&mut h, &(ix as u64).to_le_bytes());
            mix_bytes(&mut h, &[u8::from(r.base.is_one())]);
            mix_bytes(&mut h, &(nodes.len() as u64).to_le_bytes());
            for (var, low, high) in nodes {
                for x in [var, low, high] {
                    mix_bytes(&mut h, &x.to_le_bytes());
                }
            }
        }
        h
    }

    /// Replaces a relation's contents with a directly constructed BDD.
    ///
    /// The BDD must be built with this engine's [`Engine::manager`] over the
    /// physical domains of [`Engine::relation_signature`]. Used to inject
    /// relations computed outside Datalog, such as the context-sensitive
    /// invocation edges `IEC` produced by the paper's Algorithm 4.
    ///
    /// # Errors
    ///
    /// [`DatalogError::UnknownRelation`]; [`DatalogError::BadFact`] if
    /// the BDD depends on a variable outside the relation's attribute
    /// domains (the engine is left unchanged).
    pub fn set_relation_bdd(&mut self, name: &str, bdd: Bdd) -> Result<(), DatalogError> {
        let ix = self.rel_ix_for(name, &bdd)?;
        if self.solved {
            // Replacing an injected relation after a solve is an add plus
            // a retract relative to the previous base.
            let added = bdd.diff(&self.rel[ix].bdd);
            let removed = self.rel[ix].base.diff(&bdd);
            let zero = self.mgr.zero();
            if !added.is_zero() {
                let slot = self.pending_adds.entry(ix).or_insert(zero.clone());
                *slot = slot.or(&added);
            }
            if !removed.is_zero() {
                let slot = self.pending_retracts.entry(ix).or_insert(zero);
                *slot = slot.or(&removed);
            }
            self.rel[ix].bdd = self.rel[ix].bdd.or(&added);
        } else {
            self.rel[ix].bdd = bdd.clone();
        }
        self.rel[ix].base = bdd;
        Ok(())
    }

    /// The current BDD of a relation.
    ///
    /// # Errors
    ///
    /// [`DatalogError::UnknownRelation`].
    pub fn relation_bdd(&self, name: &str) -> Result<Bdd, DatalogError> {
        Ok(self.rel[self.rel_ix(name)?].bdd.clone())
    }

    /// Number of tuples currently in a relation.
    ///
    /// # Errors
    ///
    /// [`DatalogError::UnknownRelation`].
    pub fn relation_count(&self, name: &str) -> Result<f64, DatalogError> {
        let ix = self.rel_ix(name)?;
        Ok(self.rel[ix].bdd.satcount_domains(&self.rel[ix].attr_phys))
    }

    /// Exact tuple count (u128, saturating) — immune to the
    /// floating-point rounding of [`Engine::relation_count`] at the huge
    /// counts context-sensitive analyses produce.
    ///
    /// # Errors
    ///
    /// [`DatalogError::UnknownRelation`].
    pub fn relation_count_exact(&self, name: &str) -> Result<u128, DatalogError> {
        let ix = self.rel_ix(name)?;
        Ok(self.rel[ix]
            .bdd
            .satcount_domains_exact(&self.rel[ix].attr_phys))
    }

    /// All tuples of a relation, decoded (attribute order).
    ///
    /// # Errors
    ///
    /// [`DatalogError::UnknownRelation`].
    pub fn relation_tuples(&self, name: &str) -> Result<Vec<Vec<u64>>, DatalogError> {
        let ix = self.rel_ix(name)?;
        let doms = self.rel[ix].attr_phys.clone();
        Ok(self.rel[ix].bdd.tuples(&doms))
    }

    /// Tuples of a relation matching a partial binding, decoded.
    ///
    /// `fixed` pins attribute positions (0-based, attribute order) to
    /// constants; every tuple whose pinned attributes match is returned in
    /// full. With an empty `fixed` this is [`Engine::relation_tuples`].
    /// The selection happens symbolically — the constants are conjoined
    /// onto the relation BDD before decoding — so the cost tracks the size
    /// of the *answer*, not of the whole relation. Witness reconstruction
    /// (whale-core's taint engine) uses this to walk per-step flow
    /// relations backwards one endpoint at a time.
    ///
    /// # Errors
    ///
    /// [`DatalogError::UnknownRelation`]; [`DatalogError::BadFact`] for an
    /// attribute index at or past the relation's arity;
    /// [`DatalogError::ConstantOutOfRange`] for a value outside the pinned
    /// attribute's domain.
    pub fn relation_select(
        &self,
        name: &str,
        fixed: &[(usize, u64)],
    ) -> Result<Vec<Vec<u64>>, DatalogError> {
        let ix = self.rel_ix(name)?;
        let decl = &self.program.relations[ix];
        let mut b = self.rel[ix].bdd.clone();
        for &(attr, v) in fixed {
            if attr >= decl.attrs.len() {
                return Err(DatalogError::BadFact(format!(
                    "relation `{}` has arity {}, no attribute {}",
                    decl.name,
                    decl.attrs.len(),
                    attr
                )));
            }
            let dom = self.program.domain_ix[&decl.attrs[attr].1];
            if v >= self.program.domains[dom].size {
                return Err(DatalogError::ConstantOutOfRange {
                    domain: decl.attrs[attr].1.clone(),
                    value: v,
                });
            }
            b = b.and(&self.mgr.domain_const(self.rel[ix].attr_phys[attr], v));
        }
        Ok(b.tuples(&self.rel[ix].attr_phys))
    }

    /// Whether a relation currently contains `tuple`.
    ///
    /// # Errors
    ///
    /// As [`Engine::add_fact`] minus the input-kind restriction.
    pub fn relation_contains(&self, name: &str, tuple: &[u64]) -> Result<bool, DatalogError> {
        let ix = self.rel_ix(name)?;
        let m = self.tuple_set(ix, [tuple])?;
        Ok(!self.rel[ix].bdd.and(&m).is_zero())
    }

    // ------------------------------------------------------------------
    // Solving
    // ------------------------------------------------------------------

    /// Runs the program to its (stratified) fixpoint.
    ///
    /// Every relation restarts from its base facts (derived tuples are
    /// recomputed), so solving is idempotent — a second call recomputes
    /// the same fixpoint — and pending retractions take effect.
    ///
    /// # Errors
    ///
    /// [`DatalogError::NotStratified`] for negation through recursion;
    /// [`DatalogError::UnresolvedName`] for unresolvable quoted constants.
    pub fn solve(&mut self) -> Result<SolveStats, DatalogError> {
        self.run_solve(false)
    }

    /// Builds the rule plans and the predicate-dependency condensation,
    /// and checks stratification — the front half of every solve.
    fn prepare_solve(&self) -> Result<PreparedSolve, DatalogError> {
        let plans: Vec<RulePlan> = {
            let ctx = PlanContext {
                program: &self.program,
                phys: &self.phys,
                rel_attr_phys: &self
                    .rel
                    .iter()
                    .map(|r| r.attr_phys.clone())
                    .collect::<Vec<_>>(),
                name_maps: &self.name_maps,
            };
            (0..self.program.rules.len())
                .map(|i| ctx.build(i))
                .collect::<Result<_, _>>()?
        };

        // Predicate dependency graph.
        let nrel = self.program.relations.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nrel];
        for plan in &plans {
            for atom in plan.positive.iter().chain(&plan.negative) {
                adj[atom.rel].push(plan.head.rel);
            }
        }
        let (comp_of, comps) = scc_topo_order(&adj);

        // Stratification check. Plans are built per rule index, so plan i
        // describes rules[i] and its source text/line can name the
        // offending negation.
        for (i, plan) in plans.iter().enumerate() {
            for neg in &plan.negative {
                if comp_of[neg.rel] == comp_of[plan.head.rel] {
                    let rule = &self.program.rules[i];
                    let cycle = negation_cycle(&adj, &comp_of, plan.head.rel, neg.rel)
                        .into_iter()
                        .map(|r| self.program.relations[r].name.clone())
                        .collect();
                    return Err(DatalogError::NotStratified {
                        relation: self.program.relations[neg.rel].name.clone(),
                        rule: rule.to_string(),
                        line: rule.line,
                        col: rule.col,
                        cycle,
                    });
                }
            }
        }
        Ok(PreparedSolve {
            plans,
            comp_of,
            comps,
        })
    }

    /// The body of [`Engine::solve`] and [`Engine::solve_incremental`]:
    /// one preamble, one call into the stratum driver per solve, one
    /// epilogue. A full solve runs every stratum from its base facts; the
    /// incremental path picks the affected strata and their start in
    /// [`Engine::fold_deltas`].
    fn run_solve(&mut self, incremental: bool) -> Result<SolveStats, DatalogError> {
        let solve_t0 = Instant::now();
        // Peak-node reporting is per solve, not per engine lifetime: a
        // second solve must not inherit the first one's high-water mark,
        // nor count garbage left behind by earlier solves or by BDDs the
        // caller built and dropped. No collection runs here: the reset
        // marks without sweeping, so that garbage and its op-cache entries
        // stay until the node table fills, and a re-solve hits them.
        self.mgr.reset_peak();
        // Per-solve cache reporting: deltas against this snapshot.
        let cache_base = self.mgr.stats();
        let prep = self.prepare_solve()?;
        let mut stats = SolveStats {
            strata: prep.comps.len(),
            incremental,
            ..Default::default()
        };
        if incremental {
            self.fold_deltas(&prep, &mut stats);
        } else {
            self.pending_adds.clear();
            self.pending_retracts.clear();
            let all = vec![true; prep.comps.len()];
            self.run_strata(&prep, &all, Start::Base, &mut stats);
        }

        // A solve that never collects would otherwise report only the
        // nodes the opening reset found in use.
        self.mgr.sample_reachable();
        let bdd_stats = self.mgr.stats();
        stats.peak_live_nodes = bdd_stats.peak_live_nodes;
        stats.peak_reachable_nodes = bdd_stats.peak_reachable_nodes;
        stats.apply_cache = cache_delta(bdd_stats.apply_cache, cache_base.apply_cache);
        stats.ite_cache = cache_delta(bdd_stats.ite_cache, cache_base.ite_cache);
        stats.appex_cache = cache_delta(bdd_stats.appex_cache, cache_base.appex_cache);
        stats.replace_cache = cache_delta(bdd_stats.replace_cache, cache_base.replace_cache);
        stats.rel_cache = cache_delta(bdd_stats.client_cache, cache_base.client_cache);
        stats.solve_time = solve_t0.elapsed();
        self.solved = true;
        self.stats = stats.clone();
        Ok(stats)
    }

    /// Whether a fixpoint is resident (computed by [`Engine::solve`] or
    /// restored via [`Engine::warm_start`]).
    pub fn is_solved(&self) -> bool {
        self.solved
    }

    /// Whether fact deltas ([`Engine::add_fact`]/[`Engine::retract_facts`]
    /// since the last solve) are waiting to be folded in by
    /// [`Engine::solve_incremental`].
    pub fn has_pending_deltas(&self) -> bool {
        self.pending_adds.values().any(|b| !b.is_zero())
            || self.pending_retracts.values().any(|b| !b.is_zero())
    }

    /// Installs an externally restored solution (e.g. a warm-start cache
    /// of io v2 BDD dumps) without solving: each `(relation, bdd)` pair is
    /// OR-folded onto the relation's current value, and the engine is
    /// marked solved so subsequent fact deltas go through
    /// [`Engine::solve_incremental`].
    ///
    /// The caller asserts the restored values *are* the fixpoint of the
    /// current base facts (in practice: the cache is keyed by a hash of
    /// the fact stream). Restoring something else silently yields wrong
    /// query answers — exactly like loading a stale `.bdd` cache in the
    /// original bddbddb.
    ///
    /// # Errors
    ///
    /// As [`Engine::set_relation_bdd`]. Every entry is checked before any
    /// is folded in, so on an error the engine is unchanged, its solved
    /// flag included.
    pub fn warm_start<I>(&mut self, relations: I) -> Result<(), DatalogError>
    where
        I: IntoIterator<Item = (String, Bdd)>,
    {
        let checked = relations
            .into_iter()
            .map(|(name, bdd)| Ok((self.rel_ix_for(&name, &bdd)?, bdd)))
            .collect::<Result<Vec<_>, DatalogError>>()?;
        for (ix, bdd) in checked {
            self.rel[ix].bdd = self.rel[ix].bdd.or(&bdd);
        }
        self.solved = true;
        Ok(())
    }

    /// Folds pending fact deltas into the existing solution, re-running
    /// only what they can reach.
    ///
    /// Three tiers, cheapest first:
    ///
    /// 1. **Semi-naive resume** (additions only, no negation over anything
    ///    that changed): the pending adds seed the delta of each affected
    ///    stratum's fixpoint; unaffected strata are skipped outright.
    /// 2. **Downstream invalidation** (retractions, or an addition feeding
    ///    a negated relation): every stratum reachable from a dirty
    ///    relation in the condensation DAG is reset to its base facts and
    ///    re-solved in topological order; everything else is kept.
    /// 3. **Full fallback** (a retraction whose affected slice contains
    ///    negation): the whole solution is discarded and recomputed, as
    ///    [`Engine::solve`] would ([`SolveStats::full_fallback`] is set).
    ///
    /// With no prior solve this is exactly [`Engine::solve`]. Answers
    /// after this call are byte-identical to a from-scratch
    /// [`Engine::solve`] on the same base facts.
    ///
    /// # Errors
    ///
    /// As [`Engine::solve`].
    pub fn solve_incremental(&mut self) -> Result<SolveStats, DatalogError> {
        self.run_solve(self.solved)
    }

    /// The incremental tiers as driver calls: picks the strata the pending
    /// deltas can reach and where they start from, then runs them.
    fn fold_deltas(&mut self, prep: &PreparedSolve, stats: &mut SolveStats) {
        let adds: HashMap<usize, Bdd> = std::mem::take(&mut self.pending_adds)
            .into_iter()
            .filter(|(_, b)| !b.is_zero())
            .collect();
        let retracts: HashMap<usize, Bdd> = std::mem::take(&mut self.pending_retracts)
            .into_iter()
            .filter(|(_, b)| !b.is_zero())
            .collect();

        // Forward closure over the condensation DAG: the strata a delta
        // can reach. Comp indices are topological, so one ascending sweep
        // over comp-level edges settles the closure.
        let ncomps = prep.comps.len();
        let mut affected = vec![false; ncomps];
        for r in adds.keys().chain(retracts.keys()) {
            affected[prep.comp_of[*r]] = true;
        }
        let mut comp_succs: Vec<Vec<usize>> = vec![Vec::new(); ncomps];
        for plan in &prep.plans {
            let hc = prep.comp_of[plan.head.rel];
            for atom in plan.positive.iter().chain(&plan.negative) {
                let bc = prep.comp_of[atom.rel];
                if bc != hc {
                    comp_succs[bc].push(hc);
                }
            }
        }
        for c in 0..ncomps {
            if affected[c] {
                for &s in &comp_succs[c] {
                    affected[s] = true;
                }
            }
        }

        // Negation interference: a rule in an affected stratum negating a
        // relation whose value may change (it is dirty or sits in an
        // affected stratum) breaks the monotone-resume argument.
        let interferes = |rel: usize| {
            affected[prep.comp_of[rel]] || adds.contains_key(&rel) || retracts.contains_key(&rel)
        };
        let negation_interferes = prep.plans.iter().any(|p| {
            affected[prep.comp_of[p.head.rel]] && p.negative.iter().any(|a| interferes(a.rel))
        });

        let start = if !retracts.is_empty() && negation_interferes {
            // Tier 3: retraction touching a negating slice — recompute
            // everything from base facts.
            stats.full_fallback = true;
            affected.fill(true);
            Start::Base
        } else if !retracts.is_empty() || negation_interferes {
            // Tier 2: reset the affected slice to base facts and re-solve
            // it; upstream strata keep their solution.
            Start::Base
        } else {
            // Tier 1: monotone additions resume the semi-naive fixpoint
            // (no delta at all skips every stratum).
            Start::Resume(adds)
        };
        self.run_strata(prep, &affected, start, stats);
        stats.strata_resolved = affected.iter().filter(|&&a| a).count();
        stats.strata_skipped = ncomps - stats.strata_resolved;
    }

    /// Brings the solution up to date with the base facts: runs
    /// [`Engine::solve_incremental`] when the engine is unsolved or has
    /// pending fact deltas, and nothing otherwise. Returns that solve's
    /// statistics, or all zeros when nothing was pending.
    ///
    /// # Errors
    ///
    /// As [`Engine::solve`].
    pub fn ensure_solved(&mut self) -> Result<SolveStats, DatalogError> {
        if self.solved && !self.has_pending_deltas() {
            return Ok(SolveStats::default());
        }
        self.solve_incremental()
    }

    /// Answers a single-atom query: `vP(3, h)` asks for the points-to set
    /// of variable 3. The engine is brought up to date
    /// ([`Engine::ensure_solved`]) and the answer is
    /// [`Engine::select_atom`] over the solved relations, so on a solved
    /// engine with nothing pending a query applies no rule at all.
    ///
    /// # Errors
    ///
    /// [`DatalogError::Parse`] for a malformed query atom; any
    /// [`Engine::solve`] error from the catch-up solve; the atom checks of
    /// [`Engine::select_atom`].
    pub fn solve_query(&mut self, query: &str) -> Result<QueryResult, DatalogError> {
        let atom = crate::parser::parse_query(query)?;
        let stats = self.ensure_solved()?;
        Ok(QueryResult {
            tuples: self.select_atom(&atom)?,
            relation: atom.relation,
            stats,
        })
    }

    /// The tuples of a relation that match a query atom, read from the
    /// relations as they stand: constants and quoted names are bound, a
    /// repeated variable keeps only the tuples that agree on its positions
    /// (`path(x, x)` keeps the diagonal), and the answer is sorted (BDD
    /// enumeration follows the variable order). Nothing
    /// is derived, so the caller solves first ([`Engine::ensure_solved`]).
    ///
    /// # Errors
    ///
    /// [`DatalogError::UnknownRelation`], [`DatalogError::ArityMismatch`],
    /// [`DatalogError::ConstantOutOfRange`] or
    /// [`DatalogError::UnresolvedName`] for an atom that does not fit the
    /// program.
    pub fn select_atom(&self, query: &Atom) -> Result<Vec<Vec<u64>>, DatalogError> {
        let decl = &self.program.relations[self.program.check_atom(query)?];
        let mut fixed: Vec<(usize, u64)> = Vec::new();
        let mut first_pos: HashMap<&str, usize> = HashMap::new();
        let mut eqs: Vec<(usize, usize)> = Vec::new();
        for (i, t) in query.args.iter().enumerate() {
            match t {
                Term::Const(c) => fixed.push((i, *c)),
                Term::Str(s) => {
                    let dom = self.program.domain_ix[&decl.attrs[i].1];
                    fixed.push((i, resolve_name(&self.program, &self.name_maps, dom, s)?));
                }
                Term::Var(v) => {
                    let j = *first_pos.entry(v.as_str()).or_insert(i);
                    if j != i {
                        eqs.push((j, i));
                    }
                }
                Term::Wildcard => {}
            }
        }
        let mut tuples = self.relation_select(&query.relation, &fixed)?;
        tuples.retain(|t| eqs.iter().all(|&(a, b)| t[a] == t[b]));
        tuples.sort_unstable();
        Ok(tuples)
    }

    /// The stratum driver: runs the `affected` strata in topological order
    /// from `start`, each to its fixpoint, and skips the rest. Every solve
    /// path is one call: a full solve runs every stratum from
    /// [`Start::Base`]; the incremental tiers run the affected slice from
    /// [`Start::Base`] (tiers 2 and 3) or [`Start::Resume`] (tier 1).
    /// `stratum_times` gets one entry per stratum (zero for skipped ones).
    fn run_strata(
        &mut self,
        prep: &PreparedSolve,
        affected: &[bool],
        mut start: Start,
        stats: &mut SolveStats,
    ) {
        if let Start::Base = start {
            for (comp, _) in prep.comps.iter().zip(affected).filter(|(_, &a)| a) {
                for &r in comp {
                    self.rel[r].bdd = self.rel[r].base.clone();
                }
            }
        }
        for (c, comp) in prep.comps.iter().enumerate() {
            if !affected[c] {
                stats.stratum_times.push(Duration::ZERO);
                continue;
            }
            let t0 = Instant::now();
            let is_recursive = |p: &RulePlan| p.positive.iter().any(|a| prep.comp_of[a.rel] == c);
            let plans: Vec<&RulePlan> = prep
                .plans
                .iter()
                .filter(|p| prep.comp_of[p.head.rel] == c)
                .collect();
            let rec: Vec<&RulePlan> = plans.iter().copied().filter(|p| is_recursive(p)).collect();
            match &mut start {
                Start::Base => {
                    // Non-recursive rules once, then rounds seeded with
                    // everything the stratum holds.
                    for plan in plans.iter().filter(|p| !is_recursive(p)) {
                        if let Some(contrib) = self.apply(plan, None, stats) {
                            let head = plan.head.rel;
                            self.rel[head].bdd = self.rel[head].bdd.or(&contrib);
                        }
                    }
                    if !rec.is_empty() {
                        let seed = self
                            .options
                            .seminaive
                            .then(|| comp.iter().map(|&r| (r, self.rel[r].bdd.clone())).collect());
                        self.fixpoint(comp, &rec, seed, stats);
                    }
                }
                Start::Resume(changed) => {
                    let before: Vec<Bdd> = comp.iter().map(|&r| self.rel[r].bdd.clone()).collect();
                    // Injection: every rule application that can see a
                    // changed tuple runs once with that occurrence narrowed
                    // to the delta. Each genuinely new derivation uses at
                    // least one new body tuple, so this pass plus the
                    // rounds below cover the resumed fixpoint.
                    let acc = self.pass(&plans, Some(changed), comp, stats);
                    let mut seed = HashMap::new();
                    for &r in comp {
                        let fresh = self.absorb(r, &acc[&r]);
                        // Facts added directly to a comp member ride along
                        // (they are already in rel.bdd, recorded at add time).
                        let d = match changed.get(&r) {
                            Some(d) => fresh.or(d),
                            None => fresh,
                        };
                        seed.insert(r, d);
                    }
                    if !rec.is_empty() && seed.values().any(|d| !d.is_zero()) {
                        self.fixpoint(comp, &rec, Some(seed), stats);
                    }
                    // Record the stratum's growth so downstream strata
                    // inject it in turn.
                    for (&r, old) in comp.iter().zip(&before) {
                        let grown = self.rel[r].bdd.diff(old);
                        if grown.is_zero() {
                            continue;
                        }
                        let slot = changed.entry(r).or_insert_with(|| self.mgr.zero());
                        *slot = slot.or(&grown);
                    }
                }
            }
            stats.stratum_times.push(t0.elapsed());
        }
    }

    /// Rounds over a stratum's recursive rules until nothing new is
    /// derived. `seed` holds the first round's per-relation deltas and
    /// makes the rounds semi-naive; `None` makes them naive, every rule
    /// over the full relations each round. This is where every round is
    /// counted.
    fn fixpoint(
        &mut self,
        comp: &[usize],
        rec: &[&RulePlan],
        seed: Option<HashMap<usize, Bdd>>,
        stats: &mut SolveStats,
    ) {
        // `seed` stays referenced until the fixpoint returns, so collections
        // triggered mid-round keep its nodes; the kernel counters
        // (lookups, evictions, GC runs, peak nodes) depend on that.
        let mut delta = seed.clone();
        loop {
            stats.rounds += 1;
            let acc = self.pass(rec, delta.as_ref(), comp, stats);
            let mut grew = false;
            for &r in comp {
                let fresh = self.absorb(r, &acc[&r]);
                grew |= !fresh.is_zero();
                if let Some(delta) = &mut delta {
                    delta.insert(r, fresh);
                }
            }
            if !grew {
                return;
            }
        }
    }

    /// One pass over `plans`, OR-ing each application's result into its
    /// head's slot of a per-relation accumulator over `comp`. With
    /// `deltas`, each positive occurrence of a relation with a non-empty
    /// delta is applied once, narrowed to that delta (the semi-naive
    /// transformation); without, each plan is applied once over the full
    /// relations.
    fn pass(
        &self,
        plans: &[&RulePlan],
        deltas: Option<&HashMap<usize, Bdd>>,
        comp: &[usize],
        stats: &mut SolveStats,
    ) -> HashMap<usize, Bdd> {
        let mut acc: HashMap<usize, Bdd> = comp.iter().map(|&r| (r, self.mgr.zero())).collect();
        for plan in plans {
            let narrowings: Vec<Option<(usize, &Bdd)>> = match deltas {
                None => vec![None],
                Some(deltas) => plan
                    .positive
                    .iter()
                    .enumerate()
                    .filter_map(|(occ, a)| {
                        let d = deltas.get(&a.rel).filter(|d| !d.is_zero());
                        d.map(|d| Some((occ, d)))
                    })
                    .collect(),
            };
            for narrowed in narrowings {
                if let Some(contrib) = self.apply(plan, narrowed, stats) {
                    if let Some(a) = acc.get_mut(&plan.head.rel) {
                        *a = a.or(&contrib);
                    }
                }
            }
        }
        acc
    }

    /// Folds `derived` into relation `r` and returns the genuinely new
    /// part.
    fn absorb(&mut self, r: usize, derived: &Bdd) -> Bdd {
        let fresh = derived.diff(&self.rel[r].bdd);
        if !fresh.is_zero() {
            self.rel[r].bdd = self.rel[r].bdd.or(&fresh);
        }
        fresh
    }

    /// Applies one rule plan: the single place a rule application happens
    /// and is counted. `narrowed` swaps one positive occurrence's source
    /// for a delta, which joins where the rule's one planned order puts
    /// that occurrence; `None` joins the full relations. Negated atoms
    /// read the full relations.
    ///
    /// Returns `None`, uncounted, when a positive source is empty, making
    /// the result trivially empty. Skipping such applications keeps the
    /// counted rule work proportional to the data actually flowing: a rule
    /// over a relation that holds nothing yet costs nothing. Fact rules
    /// (no positive atoms) always run, and an empty negated source is the
    /// universal complement.
    fn apply(
        &self,
        plan: &RulePlan,
        narrowed: Option<(usize, &Bdd)>,
        stats: &mut SolveStats,
    ) -> Option<Bdd> {
        let srcs: Vec<Bdd> = plan
            .positive
            .iter()
            .enumerate()
            .map(|(i, a)| match narrowed {
                Some((occ, d)) if occ == i => d.clone(),
                _ => self.rel[a.rel].bdd.clone(),
            })
            .collect();
        if srcs.iter().any(Bdd::is_zero) {
            return None;
        }
        let neg_srcs: Vec<Bdd> = plan
            .negative
            .iter()
            .map(|a| self.rel[a.rel].bdd.clone())
            .collect();
        stats.rule_applications += 1;
        Some(
            self.eval
                .eval_rule(plan, &srcs, &neg_srcs, narrowed.map(|(occ, _)| occ)),
        )
    }
}

/// Finds a shortest dependency path `from -> ... -> to` staying inside
/// `from`'s strongly connected component; the negation edge `to -> from`
/// then closes the witness cycle reported by
/// [`DatalogError::NotStratified`]. Both endpoints are in the same SCC,
/// so a path always exists; `[from]` is returned when `from == to`.
pub(crate) fn negation_cycle(
    adj: &[Vec<usize>],
    comp_of: &[usize],
    from: usize,
    to: usize,
) -> Vec<usize> {
    if from == to {
        return vec![from];
    }
    let comp = comp_of[from];
    let mut prev: Vec<Option<usize>> = vec![None; adj.len()];
    let mut queue = std::collections::VecDeque::from([from]);
    prev[from] = Some(from);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if comp_of[v] == comp && prev[v].is_none() {
                prev[v] = Some(u);
                if v == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while cur != from {
                        cur = prev[cur].unwrap();
                        path.push(cur);
                    }
                    path.reverse();
                    return path;
                }
                queue.push_back(v);
            }
        }
    }
    // Unreachable for same-SCC endpoints; degrade to the two endpoints.
    vec![from, to]
}

/// Empty relation states for `program`, each attribute on the next unused
/// physical instance of its domain.
fn relation_states(
    program: &Program,
    phys: &[Vec<DomainId>],
    mgr: &BddManager,
) -> Vec<RelationState> {
    let mut rel = Vec::with_capacity(program.relations.len());
    for decl in &program.relations {
        let mut counts: HashMap<usize, usize> = HashMap::new();
        let mut attr_phys = Vec::with_capacity(decl.attrs.len());
        for (_, dom_name) in &decl.attrs {
            let dom = program.domain_ix[dom_name];
            let ix = counts.entry(dom).or_insert(0);
            attr_phys.push(phys[dom][*ix]);
            *ix += 1;
        }
        rel.push(RelationState {
            attr_phys,
            bdd: mgr.zero(),
            base: mgr.zero(),
        });
    }
    rel
}

/// Expands a logical-domain ordering string into groups of physical names.
fn expand_order(program: &Program, order: Option<&str>) -> Result<Vec<Vec<String>>, DatalogError> {
    let expand_logical = |d: usize| -> Vec<String> {
        let name = &program.domains[d].name;
        (0..program.instances[d])
            .map(|i| format!("{name}{i}"))
            .collect()
    };
    let Some(order) = order else {
        return Ok((0..program.domains.len()).map(expand_logical).collect());
    };
    let spec = OrderSpec::parse(order)?;
    let mut groups = Vec::new();
    for group in spec.groups() {
        let mut members = Vec::new();
        for token in group {
            if let Some(&d) = program.domain_ix.get(token) {
                members.extend(expand_logical(d));
            } else {
                // Physical instance: logical name + index.
                let split = token
                    .char_indices()
                    .rev()
                    .take_while(|(_, c)| c.is_ascii_digit())
                    .map(|(i, _)| i)
                    .last();
                // The digit suffix is user input (`--order` or an order file):
                // a value that overflows usize is just an unknown domain,
                // not a panic.
                let unknown = || {
                    DatalogError::unknown_domain(
                        token,
                        program.domains.iter().map(|d| d.name.as_str()),
                        0,
                        0,
                    )
                };
                let (base, ix) = match split {
                    Some(i) if i > 0 => match token[i..].parse::<usize>() {
                        Ok(ix) => (&token[..i], ix),
                        Err(_) => return Err(unknown()),
                    },
                    _ => return Err(unknown()),
                };
                let &d = program.domain_ix.get(base).ok_or_else(unknown)?;
                if ix >= program.instances[d] {
                    return Err(unknown());
                }
                members.push(token.clone());
            }
        }
        groups.push(members);
    }
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's load rule (Algorithms 1, 2 and 7) over a few facts.
    const LOAD: &str = "\
DOMAINS
V 16
H 16
F 4
RELATIONS
input load (v1 : V, f : F, v2 : V)
input vP0 (v : V, h : H)
input hP (h1 : H, f : F, h2 : H)
input vPfilter (v : V, h : H)
output vP (v : V, h : H)
RULES
vP(v,h) :- vP0(v,h).
vP(v2,h2) :- load(v1,f,v2), vP(v1,h1), hP(h1,f,h2), vPfilter(v2,h2).
";

    fn load_engine() -> Engine {
        let mut e = Engine::new(Program::parse(LOAD).unwrap()).unwrap();
        e.add_facts("load", [[0, 1, 2], [2, 0, 3]].iter()).unwrap();
        e.add_facts("vP0", [[0, 5], [2, 6]].iter()).unwrap();
        e.add_facts("hP", [[5, 1, 7], [6, 0, 8], [7, 0, 9]].iter())
            .unwrap();
        e.add_facts("vPfilter", [[2, 7], [3, 8], [3, 9]].iter())
            .unwrap();
        e
    }

    fn load_plan(e: &Engine) -> RulePlan {
        e.prepare_solve().unwrap().plans.swap_remove(1)
    }

    fn rel_names<'a>(e: &'a Engine, plan: &RulePlan) -> Vec<&'a str> {
        plan.joins
            .iter()
            .map(|s| e.program.relations[plan.positive[s.atom].rel].name.as_str())
            .collect()
    }

    #[test]
    fn load_rule_joins_in_rule_order_whichever_occurrence_is_narrowed() {
        let mut e = load_engine();
        e.solve().unwrap();
        let plan = load_plan(&e);
        assert_eq!(rel_names(&e, &plan), ["load", "vP", "hP", "vPfilter"]);
        // Narrowing any occurrence to its full relation reads the same
        // order and derives what the full application derives.
        let srcs: Vec<Bdd> = plan
            .positive
            .iter()
            .map(|a| e.rel[a.rel].bdd.clone())
            .collect();
        let full = e.eval.eval_rule(&plan, &srcs, &[], None);
        assert!(!full.is_zero());
        for occ in 0..plan.positive.len() {
            let narrowed = e.eval.eval_rule(&plan, &srcs, &[], Some(occ));
            assert_eq!(narrowed, full, "delta on occurrence {occ}");
        }
    }

    #[test]
    fn filter_relation_never_joins_as_half_a_cross_product() {
        let e = load_engine();
        let plan = load_plan(&e);
        let mut bound: Vec<&str> = Vec::new();
        for (k, step) in plan.joins.iter().enumerate() {
            let vars = &plan.positive[step.atom].vars;
            if k > 0 {
                assert!(
                    vars.iter().any(|v| bound.contains(&v.as_str())),
                    "step {k} shares no variable with the prefix"
                );
            }
            bound.extend(vars.iter().map(String::as_str));
        }
        // `vPfilter` joins once `load` bound v2 and `hP` bound h2: a pure
        // filter, never `hP ⋈ vPfilter` with v2 still free (DESIGN.md §5a).
        let names = rel_names(&e, &plan);
        let at = |n: &str| names.iter().position(|&m| m == n).unwrap();
        assert!(at("vPfilter") > at("load") && at("vPfilter") > at("hP"));
        // A disconnected atom waits for a connecting one.
        let src = "\
DOMAINS
V 8
RELATIONS
input a (x : V, y : V)
input b (x : V, y : V)
input c (x : V, y : V)
output r (x : V, y : V)
RULES
r(p,s) :- a(p,q), b(s,t), c(q,s).
";
        let e = Engine::new(Program::parse(src).unwrap()).unwrap();
        let plan = e.prepare_solve().unwrap().plans.swap_remove(0);
        assert_eq!(rel_names(&e, &plan), ["a", "c", "b"]);
    }
}
