//! The BDD-backed Datalog solver.
//!
//! Mirrors the structure of the paper's `bddbddb` (Section 2.4): relations
//! live in BDDs over physical domains, each rule is applied as a sequence of
//! relational `join`/`project`/`rename` operations (BDD `relprod`, `exist`,
//! `replace`), rules are grouped by the predicate dependency graph and
//! solved stratum by stratum, and recursive components run a semi-naive
//! (*incrementalized*) fixpoint.

use crate::ast::{Atom, RelationKind, Term};
use crate::eval::RuleEval;
use crate::graph::scc_topo_order;
use crate::magic;
use crate::plan::{PlanContext, RulePlan};
use crate::program::Program;
use crate::relation::RelationState;
use crate::schedule;
use crate::DatalogError;
use std::collections::HashMap;
use std::time::Duration;
use whale_bdd::io::BddSnapshot;
use whale_bdd::{Bdd, BddManager, BddManagerOptions, CacheStats, DomainId, DomainSpec, OrderSpec};

/// Tuning knobs for [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Use semi-naive (incrementalized) evaluation for recursive components.
    /// Disable only for the ablation benchmark; naive evaluation computes
    /// the same fixpoint more slowly.
    pub seminaive: bool,
    /// Variable-ordering string over *logical* domain names (e.g.
    /// `"N_F_I_M_VxH"`), or physical instances (`"V1_V0"`). `None` lays the
    /// domains out in declaration order, instances interleaved.
    pub order: Option<String>,
    /// Fold each atom's attribute renames into the subsequent join as one
    /// fused `replace_relprod` kernel call when the rename is monotone
    /// (falling back to rename-then-join otherwise). Disable only for the
    /// ablation benchmark; the result is bit-identical either way.
    pub fuse_renames: bool,
    /// Run dynamic variable reordering (sifting) between fixpoint rounds
    /// once the node table outgrows an adaptive threshold. The fixpoint is
    /// unchanged — only BDD sizes move; reorder effort is reported in
    /// [`SolveStats::reorder_runs`], [`SolveStats::reorder_time`] and
    /// [`SolveStats::reorder_delta_nodes`].
    pub reorder: bool,
    /// Memoize whole relation-level operations (atom filters/renames and
    /// rename-join-project steps) in the kernel's GC-safe client cache,
    /// keyed by operand BDD roots plus an interned operation tag.
    /// Semi-naive rounds re-derive many joins whose operand relations did
    /// not change that round; this skips them outright. Hit counters are
    /// reported in [`SolveStats::rel_cache`]. Disable only for the
    /// ablation benchmark; results are bit-identical either way.
    pub rel_cache: bool,
    /// Worker threads for the parallel solver. `1` (the default) runs the
    /// sequential path unchanged; `N > 1` walks the SCC condensation with
    /// a pool of `N` workers, each owning a private BDD manager — ready
    /// strata run concurrently and a recursive stratum's per-round rule
    /// variants fan out across the pool. Results are identical for every
    /// value (contributions are OR-combined, which commutes, and BDDs are
    /// canonical); speedup is bounded by the condensation's critical path,
    /// observable via [`SolveStats::critical_path_time`].
    pub jobs: usize,
}

/// Reordering never fires below this live-node count: tiny tables gain
/// nothing and the pass would only churn the operation caches.
pub(crate) const REORDER_MIN_NODES: usize = 2048;

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            seminaive: true,
            order: None,
            fuse_renames: true,
            reorder: false,
            rel_cache: true,
            jobs: 1,
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
    /// Peak live BDD nodes observed.
    pub peak_live_nodes: usize,
    /// Dynamic reordering passes run during this solve (see
    /// [`EngineOptions::reorder`]).
    pub reorder_runs: usize,
    /// Wall-clock time spent in those reordering passes.
    pub reorder_time: std::time::Duration,
    /// Net live nodes eliminated by those passes (positive means the
    /// table shrank).
    pub reorder_delta_nodes: i64,
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
    /// strata with no rules record ~zero). Under the parallel solver a
    /// stratum's clock runs from dispatch to rendezvous, so concurrent
    /// strata overlap and the sum can exceed the solve's wall time.
    pub stratum_times: Vec<Duration>,
    /// Length of the weighted critical path through the stratum dependency
    /// DAG — the Amdahl floor no worker count can beat. The gap between
    /// this and the stratum-time sum is the available DAG-level
    /// parallelism.
    pub critical_path_time: Duration,
    /// Total BDD nodes shipped between managers (worker deliveries plus
    /// results shipped back). Zero when `jobs` ≤ 1.
    pub transferred_nodes: u64,
    /// Wall-clock time of the whole solve.
    pub solve_time: Duration,
    /// Magic-set rules (the query seed plus magic-definition rules) in the
    /// solved program. Zero outside [`Engine::solve_query`], and zero when
    /// the transformation fell back to reachability pruning.
    pub magic_rules: usize,
    /// Rules of the original program dropped as unreachable from the
    /// query. Zero outside [`Engine::solve_query`].
    pub pruned_rules: usize,
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

/// Counter deltas `now - base`, pairing two snapshots of one cache.
pub(crate) fn cache_delta(now: CacheStats, base: CacheStats) -> CacheStats {
    CacheStats {
        hits: now.hits - base.hits,
        misses: now.misses - base.misses,
        evictions: now.evictions - base.evictions,
    }
}

/// Counter sum, for folding worker-manager cache activity into the solve's
/// totals.
pub(crate) fn cache_add(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        evictions: a.evictions + b.evictions,
    }
}

/// The answer to a single-atom query, from [`Engine::solve_query`].
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The queried relation's name.
    pub relation: String,
    /// Matching tuples at the relation's full arity, decoded in attribute
    /// order and sorted (BDD enumeration order is not stable under
    /// dynamic reordering; sorting makes answers deterministic).
    pub tuples: Vec<Vec<u64>>,
    /// Statistics of the demand-restricted solve, with
    /// [`SolveStats::magic_rules`] and [`SolveStats::pruned_rules`] set.
    pub stats: SolveStats,
    /// Static lints from the adornment pass: unreachable rules and
    /// binding patterns blocked by negation.
    pub lints: Vec<DatalogError>,
    /// False when the magic rewrite would have broken stratification and
    /// the engine fell back to solving the reachability-pruned slice.
    pub used_magic: bool,
}

/// A Datalog program loaded into a BDD manager and ready to solve.
///
/// See the crate-level example for end-to-end use.
pub struct Engine {
    pub(crate) program: Program,
    pub(crate) options: EngineOptions,
    pub(crate) mgr: BddManager,
    /// Physical instances per logical domain (scratch excluded).
    phys: Vec<Vec<DomainId>>,
    pub(crate) rel: Vec<RelationState>,
    name_maps: HashMap<usize, HashMap<String, u64>>,
    name_lists: HashMap<usize, Vec<String>>,
    /// Construction-time ordering groups as the user's tokens (logical or
    /// physical names) and as expanded physical names, index-parallel.
    /// [`Engine::current_order`] renders the sifted group permutation.
    order_tokens: Vec<Vec<String>>,
    order_phys: Vec<Vec<String>>,
    /// Construction inputs retained so the parallel scheduler can build
    /// worker managers with the identical domain layout (same specs, same
    /// order ⇒ same variable numbering ⇒ snapshots transfer one-to-one).
    pub(crate) specs: Vec<DomainSpec>,
    pub(crate) order_spec: OrderSpec,
    pub(crate) bdd_opts: BddManagerOptions,
    stats: SolveStats,
    /// Rule evaluation against the engine's own manager (the sequential
    /// path; workers build their own — see [`crate::schedule`]).
    pub(crate) eval: RuleEval,
    /// Per-rule cumulative (time, applications), rebuilt by each solve.
    pub(crate) rule_profile: std::cell::RefCell<Vec<(std::time::Duration, usize)>>,
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
        // Physical domain specs: N instances plus one scratch per logical
        // domain, all of the logical domain's size.
        let mut specs = Vec::new();
        for (d, decl) in program.domains.iter().enumerate() {
            for i in 0..program.instances[d] {
                specs.push(DomainSpec::new(format!("{}{}", decl.name, i), decl.size));
            }
            specs.push(DomainSpec::new(format!("{}__s", decl.name), decl.size));
        }
        let order_tokens: Vec<Vec<String>> = match options.order.as_deref() {
            None => program
                .domains
                .iter()
                .map(|d| vec![d.name.clone()])
                .collect(),
            Some(o) => OrderSpec::parse(o)?.groups().to_vec(),
        };
        let groups = expand_order(&program, options.order.as_deref())?;
        let order_phys = groups.clone();
        let order = OrderSpec::from_groups(groups);
        // Analyses routinely reach hundreds of thousands of live nodes;
        // starting large avoids early grow-and-collect cycles that clear
        // the operation caches mid-fixpoint.
        let bdd_opts = BddManagerOptions {
            initial_capacity: 1 << 20,
        };
        let mgr = BddManager::with_domains_and_options(&specs, &order, &bdd_opts)?;

        let mut phys = Vec::with_capacity(program.domains.len());
        let mut scratch_map = HashMap::new();
        for (d, decl) in program.domains.iter().enumerate() {
            let scratch = mgr
                .domain(&format!("{}__s", decl.name))
                .expect("scratch domain declared");
            let mut instances = Vec::new();
            for i in 0..program.instances[d] {
                let id = mgr
                    .domain(&format!("{}{}", decl.name, i))
                    .expect("instance declared");
                instances.push(id);
                scratch_map.insert(id, scratch);
            }
            phys.push(instances);
        }

        // Attribute physicals: occurrence index among same-domain attrs.
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

        let eval = RuleEval::new(
            mgr.clone(),
            scratch_map,
            options.fuse_renames,
            options.rel_cache,
        );
        Ok(Engine {
            program,
            options,
            mgr,
            phys,
            rel,
            name_maps: HashMap::new(),
            name_lists: HashMap::new(),
            order_tokens,
            order_phys,
            specs,
            order_spec: order,
            bdd_opts,
            stats: SolveStats::default(),
            eval,
            rule_profile: std::cell::RefCell::new(Vec::new()),
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

    /// The variable ordering as it stands now, rendered in the same
    /// group syntax [`EngineOptions::order`] accepts (tokens of a group
    /// joined by `x`, groups by `_`). With reordering off this is the
    /// construction-time ordering; after sifting passes it reflects the
    /// group permutation they settled on, so it can seed a subsequent
    /// empirical ordering search.
    pub fn current_order(&self) -> String {
        let mut keyed: Vec<(u32, String)> = self
            .order_tokens
            .iter()
            .zip(&self.order_phys)
            .map(|(tokens, phys)| {
                let top = phys
                    .iter()
                    .filter_map(|name| self.mgr.domain(name))
                    .flat_map(|d| self.mgr.domain_levels(d))
                    .map(|v| self.mgr.level_of_var(v))
                    .min()
                    .unwrap_or(u32::MAX);
                (top, tokens.join("x"))
            })
            .collect();
        keyed.sort();
        let groups: Vec<String> = keyed.into_iter().map(|(_, g)| g).collect();
        groups.join("_")
    }

    fn rel_ix(&self, name: &str) -> Result<usize, DatalogError> {
        self.program.relation_ix.get(name).copied().ok_or_else(|| {
            DatalogError::unknown_relation(
                name,
                self.program.relations.iter().map(|r| r.name.as_str()),
            )
        })
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
    /// cache. The structure depends on the current variable order, so a
    /// sifted engine may hash differently from an unsifted one over the
    /// same facts: a cache miss, never a wrong warm start.
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
    /// [`DatalogError::UnknownRelation`].
    pub fn set_relation_bdd(&mut self, name: &str, bdd: Bdd) -> Result<(), DatalogError> {
        let ix = self.rel_ix(name)?;
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
        let solve_t0 = std::time::Instant::now();
        // Peak-node reporting is per solve, not per engine lifetime: a
        // second solve must not inherit the first one's high-water mark,
        // nor count garbage left behind by earlier solves or by BDDs the
        // caller built and dropped (dead nodes linger until a sweep).
        self.mgr.gc();
        self.mgr.reset_peak();
        // Per-solve cache reporting: deltas against this snapshot.
        let cache_base = self.mgr.stats();
        let prep = self.prepare_solve()?;
        for r in &mut self.rel {
            r.bdd = r.base.clone();
        }
        self.pending_adds.clear();
        self.pending_retracts.clear();

        let mut stats = SolveStats {
            strata: prep.comps.len(),
            ..Default::default()
        };
        *self.rule_profile.borrow_mut() =
            vec![(std::time::Duration::ZERO, 0usize); self.program.rules.len()];
        if self.options.jobs > 1 {
            schedule::solve_parallel(self, &prep.plans, &prep.comp_of, &prep.comps, &mut stats)?;
        } else {
            self.solve_sequential(&prep.plans, &prep.comp_of, &prep.comps, &mut stats);
        }
        self.finish_stats(&prep, &mut stats, &cache_base, solve_t0);
        self.solved = true;
        self.stats = stats.clone();
        Ok(stats)
    }

    /// Builds the rule plans and the predicate-dependency condensation,
    /// and checks stratification — the shared front half of
    /// [`Engine::solve`] and [`Engine::solve_incremental`].
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

    /// Shared back half of the solve paths: critical path, peak nodes,
    /// per-solve cache deltas, optional rule-timing dump, wall time.
    fn finish_stats(
        &self,
        prep: &PreparedSolve,
        stats: &mut SolveStats,
        cache_base: &whale_bdd::BddStats,
        solve_t0: std::time::Instant,
    ) {
        stats.critical_path_time = schedule::critical_path(
            &stats.stratum_times,
            &schedule::comp_preds(&prep.plans, &prep.comp_of, prep.comps.len()),
        );
        let bdd_stats = self.mgr.stats();
        stats.peak_live_nodes = stats.peak_live_nodes.max(bdd_stats.peak_live_nodes);
        // The main manager's deltas; worker-manager activity (parallel path)
        // is already accumulated in `stats` by the scheduler.
        stats.apply_cache = cache_add(
            stats.apply_cache,
            cache_delta(bdd_stats.apply_cache, cache_base.apply_cache),
        );
        stats.ite_cache = cache_add(
            stats.ite_cache,
            cache_delta(bdd_stats.ite_cache, cache_base.ite_cache),
        );
        stats.appex_cache = cache_add(
            stats.appex_cache,
            cache_delta(bdd_stats.appex_cache, cache_base.appex_cache),
        );
        stats.replace_cache = cache_add(
            stats.replace_cache,
            cache_delta(bdd_stats.replace_cache, cache_base.replace_cache),
        );
        stats.rel_cache = cache_add(
            stats.rel_cache,
            cache_delta(bdd_stats.client_cache, cache_base.client_cache),
        );
        if std::env::var_os("WHALE_RULE_TIMING").is_some() {
            let prof = self.rule_profile.borrow();
            let mut rows: Vec<(usize, std::time::Duration, usize)> = prof
                .iter()
                .enumerate()
                .map(|(i, &(d, n))| (i, d, n))
                .collect();
            rows.sort_by_key(|r| std::cmp::Reverse(r.1));
            eprintln!("-- rule timing (cumulative) --");
            for (i, d, n) in rows.iter().take(12) {
                eprintln!("  {d:>10.2?} x{n:<5} {}", self.program.rules[*i]);
            }
        }
        stats.solve_time = solve_t0.elapsed();
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
    /// [`DatalogError::UnknownRelation`].
    pub fn warm_start<I>(&mut self, relations: I) -> Result<(), DatalogError>
    where
        I: IntoIterator<Item = (String, Bdd)>,
    {
        for (name, bdd) in relations {
            let ix = self.rel_ix(&name)?;
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
    /// With no prior solve this is exactly [`Engine::solve`]. The
    /// incremental tiers always run on the sequential path — deltas are
    /// small, and the parallel scheduler's per-worker manager setup costs
    /// more than it wins (results are byte-identical either way). Answers
    /// after this call are byte-identical to a from-scratch
    /// [`Engine::solve`] on the same base facts.
    ///
    /// # Errors
    ///
    /// As [`Engine::solve`].
    pub fn solve_incremental(&mut self) -> Result<SolveStats, DatalogError> {
        if !self.solved {
            return self.solve();
        }
        let solve_t0 = std::time::Instant::now();
        self.mgr.gc();
        self.mgr.reset_peak();
        let cache_base = self.mgr.stats();
        let prep = self.prepare_solve()?;
        let adds: HashMap<usize, Bdd> = std::mem::take(&mut self.pending_adds)
            .into_iter()
            .filter(|(_, b)| !b.is_zero())
            .collect();
        let retracts: HashMap<usize, Bdd> = std::mem::take(&mut self.pending_retracts)
            .into_iter()
            .filter(|(_, b)| !b.is_zero())
            .collect();

        let mut stats = SolveStats {
            strata: prep.comps.len(),
            incremental: true,
            ..Default::default()
        };
        *self.rule_profile.borrow_mut() =
            vec![(std::time::Duration::ZERO, 0usize); self.program.rules.len()];

        let ncomps = prep.comps.len();
        let dirty: Vec<usize> = adds
            .keys()
            .chain(retracts.keys())
            .map(|&r| prep.comp_of[r])
            .collect();
        if dirty.is_empty() {
            // No effective delta: the solution stands as-is.
            stats.strata_skipped = ncomps;
            stats.stratum_times = vec![Duration::ZERO; ncomps];
            self.finish_stats(&prep, &mut stats, &cache_base, solve_t0);
            self.stats = stats.clone();
            return Ok(stats);
        }

        // Forward closure over the condensation DAG: the strata a delta
        // can reach. Comp indices are topological, so one ascending sweep
        // over comp-level edges settles the closure.
        let mut affected = vec![false; ncomps];
        for c in dirty {
            affected[c] = true;
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

        if !retracts.is_empty() && negation_interferes {
            // Tier 3: retraction touching a negating slice — recompute
            // everything from base facts.
            stats.full_fallback = true;
            stats.strata_resolved = ncomps;
            for r in &mut self.rel {
                r.bdd = r.base.clone();
            }
            self.solve_sequential(&prep.plans, &prep.comp_of, &prep.comps, &mut stats);
        } else if !retracts.is_empty() || negation_interferes {
            // Tier 2: reset the affected slice to base facts and re-solve
            // it stratum by stratum; upstream strata keep their solution.
            self.invalidate_and_resolve(&prep, &affected, &mut stats);
        } else {
            // Tier 1: monotone additions resume the semi-naive fixpoint.
            self.resume_additions(&prep, &affected, adds, &mut stats);
        }
        self.finish_stats(&prep, &mut stats, &cache_base, solve_t0);
        self.stats = stats.clone();
        Ok(stats)
    }

    /// Tier 2 of [`Engine::solve_incremental`]: relations in affected
    /// strata restart from their base facts and are re-derived in
    /// topological order; unaffected strata (and the upstream solution
    /// they feed on) are untouched.
    fn invalidate_and_resolve(
        &mut self,
        prep: &PreparedSolve,
        affected: &[bool],
        stats: &mut SolveStats,
    ) {
        for (c, comp) in prep.comps.iter().enumerate() {
            if affected[c] {
                for &r in comp {
                    self.rel[r].bdd = self.rel[r].base.clone();
                }
            }
        }
        let mut reorder_at = REORDER_MIN_NODES;
        for (c, comp) in prep.comps.iter().enumerate() {
            if !affected[c] {
                stats.strata_skipped += 1;
                stats.stratum_times.push(Duration::ZERO);
                continue;
            }
            let t0 = std::time::Instant::now();
            stats.strata_resolved += 1;
            self.solve_comp(c, comp, &prep.plans, &prep.comp_of, stats, &mut reorder_at);
            stats.stratum_times.push(t0.elapsed());
        }
    }

    /// Tier 1 of [`Engine::solve_incremental`]: pending adds seed the
    /// deltas of each affected stratum, which resumes its semi-naive
    /// fixpoint from the existing solution. `changed` accumulates each
    /// stratum's total growth so downstream strata can inject it.
    fn resume_additions(
        &mut self,
        prep: &PreparedSolve,
        affected: &[bool],
        adds: HashMap<usize, Bdd>,
        stats: &mut SolveStats,
    ) {
        let mut changed = adds;
        let mut reorder_at = REORDER_MIN_NODES;
        for (c, comp) in prep.comps.iter().enumerate() {
            if !affected[c] {
                stats.strata_skipped += 1;
                stats.stratum_times.push(Duration::ZERO);
                continue;
            }
            let t0 = std::time::Instant::now();
            stats.strata_resolved += 1;
            let before: HashMap<usize, Bdd> =
                comp.iter().map(|&r| (r, self.rel[r].bdd.clone())).collect();
            let comp_plans: Vec<&RulePlan> = prep
                .plans
                .iter()
                .filter(|p| prep.comp_of[p.head.rel] == c)
                .collect();

            // Injection: every rule application that can see a changed
            // tuple runs once with that occurrence narrowed to the delta.
            // Each genuinely new derivation uses at least one new body
            // tuple, so these applications (plus the comp-internal
            // propagation below) cover the resumed fixpoint.
            let mut acc: HashMap<usize, Bdd> = comp.iter().map(|&r| (r, self.mgr.zero())).collect();
            for plan in &comp_plans {
                for occ in 0..plan.positive.len() {
                    let rel_r = plan.positive[occ].rel;
                    let Some(d) = changed.get(&rel_r) else {
                        continue;
                    };
                    if d.is_zero() {
                        continue;
                    }
                    let srcs: Vec<Bdd> = plan
                        .positive
                        .iter()
                        .enumerate()
                        .map(|(i, a)| {
                            if i == occ {
                                d.clone()
                            } else {
                                self.rel[a.rel].bdd.clone()
                            }
                        })
                        .collect();
                    if srcs.iter().any(Bdd::is_zero) {
                        continue;
                    }
                    let order = RuleEval::join_order(plan, occ);
                    let contrib = self.eval_rule(plan, &srcs, &order);
                    stats.rule_applications += 1;
                    if let Some(a) = acc.get_mut(&plan.head.rel) {
                        *a = a.or(&contrib);
                    }
                }
            }
            let mut delta: HashMap<usize, Bdd> = HashMap::new();
            for &r in comp {
                let fresh = acc[&r].diff(&self.rel[r].bdd);
                if !fresh.is_zero() {
                    self.rel[r].bdd = self.rel[r].bdd.or(&fresh);
                }
                // Facts added directly to a comp member ride along in the
                // seed (they are already in rel.bdd, recorded at add time).
                let seed = match changed.get(&r) {
                    Some(d) => fresh.or(d),
                    None => fresh,
                };
                delta.insert(r, seed);
            }
            let is_recursive = |p: &RulePlan| p.positive.iter().any(|a| prep.comp_of[a.rel] == c);
            let rec_plans: Vec<&RulePlan> = comp_plans
                .iter()
                .filter(|p| is_recursive(p))
                .copied()
                .collect();
            if !rec_plans.is_empty() && delta.values().any(|d| !d.is_zero()) {
                self.seminaive_fixpoint(
                    c,
                    &prep.comp_of,
                    comp,
                    &rec_plans,
                    stats,
                    &mut reorder_at,
                    delta,
                );
            }
            for &r in comp {
                let grown = self.rel[r].bdd.diff(&before[&r]);
                if grown.is_zero() {
                    continue;
                }
                let slot = changed.entry(r).or_insert_with(|| self.mgr.zero());
                *slot = slot.or(&grown);
            }
            stats.stratum_times.push(t0.elapsed());
        }
    }

    /// Answers a single-atom query demand-driven: `vP(3, h)` asks for the
    /// points-to set of variable 3 only.
    ///
    /// The query is compiled by adornment analysis plus the magic-set
    /// transformation (see `crate::magic`) into a derived program whose
    /// fixpoint touches only the query-reachable slice, that program is
    /// solved in a private engine under this engine's options (ordering,
    /// semi-naive, reordering, relation cache, `jobs`), and the matching
    /// tuples are read back. Input relations are copied across by BDD
    /// snapshot, so facts loaded here — including relations injected with
    /// [`Engine::set_relation_bdd`] — feed the query solve unchanged.
    /// Answers are exactly [`Engine::solve`] + [`Engine::relation_select`]
    /// on the query's constants, sorted.
    ///
    /// This engine's own relations and stats are untouched.
    ///
    /// # Errors
    ///
    /// [`DatalogError::Parse`] for a malformed query atom; the adornment
    /// pass's validation errors ([`DatalogError::UnknownRelation`],
    /// [`DatalogError::ArityMismatch`],
    /// [`DatalogError::ConstantOutOfRange`],
    /// [`DatalogError::UnresolvedName`]); any [`Engine::solve`] error on
    /// the derived program.
    pub fn solve_query(&mut self, query: &str) -> Result<QueryResult, DatalogError> {
        let atom = crate::parser::parse_query(query)?;
        self.solve_query_atom(&atom)
    }

    /// [`Engine::solve_query`] for an already-parsed atom (see
    /// [`crate::parse_query`]).
    ///
    /// # Errors
    ///
    /// As [`Engine::solve_query`], minus the parse errors.
    pub fn solve_query_atom(&mut self, query: &Atom) -> Result<QueryResult, DatalogError> {
        let mt = magic::transform(&self.program, query)?;
        let mut qprog = mt.program;
        // Force the derived program onto this engine's physical-domain
        // layout. The rewrite only ever needs fewer instances (magic
        // relations and rule bodies are built from subsets of the original
        // attributes and variables), and identical `DomainSpec`/`OrderSpec`
        // inputs give identical variable numbering, which is what lets
        // relation BDDs transfer across managers one-to-one below.
        for (d, inst) in qprog.instances.iter_mut().enumerate() {
            *inst = (*inst).max(self.program.instances[d]);
        }
        let mut qe = Engine::with_options(qprog, self.options.clone())?;
        qe.name_maps = self.name_maps.clone();
        qe.name_lists = self.name_lists.clone();
        // Every externally-supplied relation is `input`-kind (facts via
        // add_fact/add_facts, injected BDDs via set_relation_bdd), so
        // copying those is enough; IDB contents are recomputed on demand.
        for (ix, decl) in self.program.relations.iter().enumerate() {
            if decl.kind != RelationKind::Input || self.rel[ix].bdd.is_zero() {
                continue;
            }
            let Some(&qix) = qe.program.relation_ix.get(&decl.name) else {
                // Pruned as unreachable from the query.
                continue;
            };
            // Both slots: solve() resets every relation to its base, so
            // the transferred tuples must count as base facts over there.
            let transferred = BddSnapshot::of(&self.rel[ix].bdd).restore(&qe.mgr)?;
            qe.rel[qix].bdd = transferred.clone();
            qe.rel[qix].base = transferred;
        }
        let mut stats = qe.solve()?;
        stats.magic_rules = mt.magic_rules;
        stats.pruned_rules = mt.pruned_rules;

        // Read back: pin the query's constants, then filter repeated
        // variables for equality (`path(x, x)` keeps the diagonal only).
        let decl = &self.program.relations[self.rel_ix(&query.relation)?];
        let mut fixed: Vec<(usize, u64)> = Vec::new();
        for (i, t) in query.args.iter().enumerate() {
            match t {
                Term::Const(c) => fixed.push((i, *c)),
                Term::Str(s) => {
                    let dom_name = &decl.attrs[i].1;
                    let d = self.program.domain_ix[dom_name];
                    let v = self
                        .name_maps
                        .get(&d)
                        .and_then(|m| m.get(s))
                        .copied()
                        .ok_or_else(|| DatalogError::UnresolvedName {
                            domain: dom_name.clone(),
                            name: s.clone(),
                        })?;
                    fixed.push((i, v));
                }
                Term::Var(_) | Term::Wildcard => {}
            }
        }
        let mut tuples = qe.relation_select(&query.relation, &fixed)?;
        let mut first_pos: HashMap<&str, usize> = HashMap::new();
        let mut eqs: Vec<(usize, usize)> = Vec::new();
        for (i, t) in query.args.iter().enumerate() {
            if let Term::Var(v) = t {
                match first_pos.get(v.as_str()) {
                    Some(&j) => eqs.push((j, i)),
                    None => {
                        first_pos.insert(v.as_str(), i);
                    }
                }
            }
        }
        if !eqs.is_empty() {
            tuples.retain(|t| eqs.iter().all(|&(a, b)| t[a] == t[b]));
        }
        tuples.sort_unstable();
        Ok(QueryResult {
            relation: query.relation.clone(),
            tuples,
            stats,
            lints: mt.lints,
            used_magic: mt.used_magic,
        })
    }

    /// The sequential solve loop — exactly the pre-parallel engine, plus
    /// per-stratum wall-clock capture (strata with no rules record their
    /// ~zero bookkeeping time so `stratum_times` stays index-parallel with
    /// the condensation).
    fn solve_sequential(
        &mut self,
        plans: &[RulePlan],
        comp_of: &[usize],
        comps: &[Vec<usize>],
        stats: &mut SolveStats,
    ) {
        let mut reorder_at = REORDER_MIN_NODES;
        for (c, comp) in comps.iter().enumerate() {
            let t0 = std::time::Instant::now();
            self.solve_comp(c, comp, plans, comp_of, stats, &mut reorder_at);
            stats.stratum_times.push(t0.elapsed());
        }
    }

    /// Solves one stratum from whatever its relations currently hold:
    /// non-recursive rules once, then the recursive fixpoint. Shared by
    /// the full sequential solve and the incremental invalidation path.
    fn solve_comp(
        &mut self,
        c: usize,
        comp: &[usize],
        plans: &[RulePlan],
        comp_of: &[usize],
        stats: &mut SolveStats,
        reorder_at: &mut usize,
    ) {
        let comp_plans: Vec<&RulePlan> =
            plans.iter().filter(|p| comp_of[p.head.rel] == c).collect();
        if comp_plans.is_empty() {
            return;
        }
        let is_recursive = |p: &RulePlan| p.positive.iter().any(|a| comp_of[a.rel] == c);
        // Non-recursive rules first, once.
        for plan in comp_plans.iter().filter(|p| !is_recursive(p)) {
            if self.empty_positive_source(plan) {
                continue;
            }
            let srcs: Vec<Bdd> = plan
                .positive
                .iter()
                .map(|a| self.rel[a.rel].bdd.clone())
                .collect();
            let order = if plan.positive.is_empty() {
                Vec::new()
            } else {
                RuleEval::join_order(plan, 0)
            };
            let contrib = self.eval_rule(plan, &srcs, &order);
            stats.rule_applications += 1;
            let head = plan.head.rel;
            self.rel[head].bdd = self.rel[head].bdd.or(&contrib);
        }
        let rec_plans: Vec<&RulePlan> = comp_plans
            .iter()
            .filter(|p| is_recursive(p))
            .copied()
            .collect();
        if !rec_plans.is_empty() {
            if self.options.seminaive {
                let init: HashMap<usize, Bdd> =
                    comp.iter().map(|&r| (r, self.rel[r].bdd.clone())).collect();
                self.seminaive_fixpoint(c, comp_of, comp, &rec_plans, stats, reorder_at, init);
            } else {
                self.naive_fixpoint(c, comp_of, comp, &rec_plans, stats, reorder_at);
            }
        }
    }

    /// Runs one sifting pass if reordering is enabled and the table has
    /// outgrown the adaptive threshold. Called between fixpoint rounds,
    /// where no kernel operation is in flight (live handles — relation and
    /// delta BDDs — stay valid; the pass rewrites nodes in place). After a
    /// pass the threshold doubles over the sifted size so a table that has
    /// settled stops paying for reordering.
    pub(crate) fn maybe_reorder(&self, stats: &mut SolveStats, reorder_at: &mut usize) {
        if !self.options.reorder || self.mgr.stats().live_nodes < *reorder_at {
            return;
        }
        let t0 = std::time::Instant::now();
        let rs = self.mgr.reorder_sift();
        stats.reorder_runs += 1;
        stats.reorder_time += t0.elapsed();
        stats.reorder_delta_nodes += rs.delta_nodes();
        *reorder_at = (rs.nodes_after * 2).max(REORDER_MIN_NODES);
    }

    /// Semi-naive rounds seeded by `init_delta`: a full solve seeds each
    /// relation's current value, an incremental resume seeds only what
    /// changed since the last fixpoint (the tuples already folded into
    /// `rel.bdd` — the loop derives their consequences).
    #[allow(clippy::too_many_arguments)]
    fn seminaive_fixpoint(
        &mut self,
        c: usize,
        comp_of: &[usize],
        comp: &[usize],
        rec_plans: &[&RulePlan],
        stats: &mut SolveStats,
        reorder_at: &mut usize,
        init_delta: HashMap<usize, Bdd>,
    ) {
        let zero = self.mgr.zero();
        let mut delta: HashMap<usize, Bdd> = comp
            .iter()
            .map(|&r| (r, init_delta.get(&r).unwrap_or(&zero).clone()))
            .collect();
        loop {
            stats.rounds += 1;
            let mut acc: HashMap<usize, Bdd> = comp.iter().map(|&r| (r, self.mgr.zero())).collect();
            for plan in rec_plans {
                for occ in 0..plan.positive.len() {
                    let rel_r = plan.positive[occ].rel;
                    if comp_of[rel_r] != c {
                        continue;
                    }
                    if delta[&rel_r].is_zero() || self.empty_positive_source(plan) {
                        continue;
                    }
                    let srcs: Vec<Bdd> = plan
                        .positive
                        .iter()
                        .enumerate()
                        .map(|(i, a)| {
                            if i == occ {
                                delta[&rel_r].clone()
                            } else {
                                self.rel[a.rel].bdd.clone()
                            }
                        })
                        .collect();
                    // The delta joins first; the rest follow greedily.
                    let order = RuleEval::join_order(plan, occ);
                    let contrib = self.eval_rule(plan, &srcs, &order);
                    stats.rule_applications += 1;
                    let head = plan.head.rel;
                    if let Some(a) = acc.get_mut(&head) {
                        *a = a.or(&contrib);
                    }
                }
            }
            let mut changed = false;
            for &r in comp {
                let fresh = acc[&r].diff(&self.rel[r].bdd);
                if !fresh.is_zero() {
                    self.rel[r].bdd = self.rel[r].bdd.or(&fresh);
                    changed = true;
                }
                delta.insert(r, fresh);
            }
            if !changed {
                return;
            }
            self.maybe_reorder(stats, reorder_at);
        }
    }

    fn naive_fixpoint(
        &mut self,
        _c: usize,
        _comp_of: &[usize],
        comp: &[usize],
        rec_plans: &[&RulePlan],
        stats: &mut SolveStats,
        reorder_at: &mut usize,
    ) {
        loop {
            stats.rounds += 1;
            let mut changed = false;
            let mut acc: HashMap<usize, Bdd> = comp.iter().map(|&r| (r, self.mgr.zero())).collect();
            for plan in rec_plans {
                if self.empty_positive_source(plan) {
                    continue;
                }
                let srcs: Vec<Bdd> = plan
                    .positive
                    .iter()
                    .map(|a| self.rel[a.rel].bdd.clone())
                    .collect();
                let order = if plan.positive.is_empty() {
                    Vec::new()
                } else {
                    RuleEval::join_order(plan, 0)
                };
                let contrib = self.eval_rule(plan, &srcs, &order);
                stats.rule_applications += 1;
                let head = plan.head.rel;
                if let Some(a) = acc.get_mut(&head) {
                    *a = a.or(&contrib);
                }
            }
            for &r in comp {
                let fresh = acc[&r].diff(&self.rel[r].bdd);
                if !fresh.is_zero() {
                    self.rel[r].bdd = self.rel[r].bdd.or(&fresh);
                    changed = true;
                }
            }
            if !changed {
                return;
            }
            self.maybe_reorder(stats, reorder_at);
        }
    }

    /// Whether any positive source relation of `plan` is currently empty,
    /// making the rule's contribution trivially empty. Skipping such
    /// applications keeps the counted rule work proportional to the data
    /// actually flowing — in a magic-transformed program most adorned
    /// variants guard on a magic predicate that never receives demand at
    /// runtime, and this check is what lets them cost nothing. Fact rules
    /// (no positive atoms) are never skipped, and negated atoms don't
    /// count: an empty negated source is the universal complement.
    pub(crate) fn empty_positive_source(&self, plan: &RulePlan) -> bool {
        plan.positive.iter().any(|a| self.rel[a.rel].bdd.is_zero())
    }

    /// Applies one rule plan against the engine's own relation table
    /// (negative-atom sources come from `self.rel`) with per-rule
    /// profiling. Workers bypass this wrapper and call
    /// [`RuleEval::eval_rule`] with mirrored sources directly.
    pub(crate) fn eval_rule(&self, plan: &RulePlan, srcs: &[Bdd], order: &[usize]) -> Bdd {
        let neg_srcs: Vec<Bdd> = plan
            .negative
            .iter()
            .map(|a| self.rel[a.rel].bdd.clone())
            .collect();
        let t0 = std::time::Instant::now();
        let result = self.eval.eval_rule(plan, srcs, &neg_srcs, order);
        {
            let mut prof = self.rule_profile.borrow_mut();
            if let Some(slot) = prof.get_mut(plan.rule_ix) {
                slot.0 += t0.elapsed();
                slot.1 += 1;
            }
        }
        result
    }
}

/// Expands a logical-domain ordering string into groups of physical names.
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

fn expand_order(program: &Program, order: Option<&str>) -> Result<Vec<Vec<String>>, DatalogError> {
    let expand_logical = |d: usize| -> Vec<String> {
        let name = &program.domains[d].name;
        let mut v: Vec<String> = (0..program.instances[d])
            .map(|i| format!("{name}{i}"))
            .collect();
        v.push(format!("{name}__s"));
        v
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
                // The digit suffix is user input (`-o` / `.bddvarorder`):
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
                if ix == 0 {
                    // The scratch instance rides with instance 0.
                    members.push(format!("{base}__s"));
                }
            }
        }
        groups.push(members);
    }
    Ok(groups)
}
