//! The public BDD manager and RAII node handles.

use crate::adder::add_const_rec;
use crate::cache::{CacheStats, NIL};
use crate::domain::{
    bits_for, const_rec, eq_rec, range_rec, tuple_set_rec, DomainData, DomainId, DomainSpec,
};
use crate::order::{assign_levels_grouped, OrderSpec};
use crate::sat::{decode_tuple, for_each_sat};
use crate::store::{Store, AND, DIFF, NODE_BYTES, ONE, OR, XOR, ZERO};
use crate::{BddError, Level};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A shared, single-threaded BDD manager.
///
/// All [`Bdd`] handles created from one manager share its node table;
/// operations between handles of different managers panic. Cloning the
/// manager is cheap (it is a shared reference).
///
/// # Example
///
/// ```
/// use whale_bdd::BddManager;
/// let mgr = BddManager::with_vars(4);
/// let x0 = mgr.ithvar(0);
/// let x1 = mgr.ithvar(1);
/// let f = x0.or(&x1);
/// assert_eq!(f.satcount() as u64, 12); // 3 of 4 combos, times 2^2 free vars
/// ```
#[derive(Clone)]
pub struct BddManager {
    store: Rc<RefCell<Store>>,
}

/// Aggregate statistics about a manager's node table and operation caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddStats {
    /// Number of boolean variables.
    pub varcount: u32,
    /// Live (reachable) nodes right now.
    pub live_nodes: usize,
    /// Peak live nodes observed (sampled at GC points and stat queries).
    /// Taken before a collection marks, so it counts garbage too and
    /// mostly tracks table fill. Garbage already in the table at the last
    /// [`BddManager::reset_peak`] is left out until a collection frees it.
    pub peak_live_nodes: usize,
    /// Most nodes any garbage collection or
    /// [`BddManager::sample_reachable`] marked reachable: the peak of the
    /// nodes actually in use, sampled only at those points. Never above
    /// [`BddStats::peak_live_nodes`].
    pub peak_reachable_nodes: usize,
    /// Total allocated node slots.
    pub allocated_nodes: usize,
    /// Number of garbage collections run.
    pub gc_runs: usize,
    /// Counters of the binary-apply cache (and/or/xor/diff/not).
    pub apply_cache: CacheStats,
    /// Counters of the if-then-else cache.
    pub ite_cache: CacheStats,
    /// Counters of the exist/relprod/fused-replace-relprod cache.
    pub appex_cache: CacheStats,
    /// Counters of the replace cache.
    pub replace_cache: CacheStats,
    /// Counters of the client operation cache
    /// ([`BddManager::memo_get`]/[`BddManager::memo_put`]).
    pub client_cache: CacheStats,
    /// Counters of the exact-count memo behind
    /// [`Bdd::satcount_domains_exact`].
    pub count_memo: CacheStats,
    /// Bytes currently held by all operation caches. The caches grow only
    /// with the node table, so this never falls.
    pub cache_bytes: usize,
    /// Bytes of the unique table in use: the used node prefix (every slot
    /// ever handed out, at [`NODE_BYTES`] each) plus the bucket array.
    /// Both only grow, so this never falls.
    pub table_bytes: usize,
}

impl BddStats {
    /// Approximate peak memory of the node table in bytes, derived from the
    /// actual node layout (matching the paper's reporting of "peak number
    /// of live BDD nodes").
    pub fn peak_bytes(&self) -> usize {
        self.peak_live_nodes * NODE_BYTES
    }

    /// The op-cache table the CLIs print under `--stats`: one line with
    /// the cache and unique-table sizes, then one line per `(name,
    /// counters)` row with hits, misses, evictions and hit rate. Callers
    /// pick the rows (lifetime or per-solve counters).
    pub fn cache_table(&self, rows: &[(&str, &CacheStats)]) -> String {
        const MIB: f64 = 1024.0 * 1024.0;
        let mut out = format!(
            "op caches: {:.1} MiB, unique table: {:.1} MiB\n",
            self.cache_bytes as f64 / MIB,
            self.table_bytes as f64 / MIB
        );
        for (name, c) in rows {
            out.push_str(&format!(
                "  {name:<8} hits={:<10} misses={:<10} evictions={:<10} hit rate {:.1}%\n",
                c.hits,
                c.misses,
                c.evictions,
                c.hit_rate() * 100.0
            ));
        }
        out
    }
}

impl BddManager {
    /// Creates a manager over `varcount` raw boolean variables (no domains).
    pub fn with_vars(varcount: u32) -> Self {
        BddManager {
            store: Rc::new(RefCell::new(Store::new(varcount, 1 << 14))),
        }
    }

    /// Creates a manager from finite-domain declarations and a variable
    /// ordering.
    ///
    /// Every declared domain must appear exactly once in `order`, and vice
    /// versa.
    ///
    /// # Errors
    ///
    /// [`BddError::EmptyDomain`], [`BddError::DuplicateDomain`],
    /// [`BddError::UnknownDomainInOrder`] or
    /// [`BddError::DomainMissingFromOrder`] on inconsistent declarations.
    pub fn with_domains(specs: &[DomainSpec], order: &OrderSpec) -> Result<Self, BddError> {
        Self::with_domains_and_capacity(specs, order, 1 << 14)
    }

    /// [`BddManager::with_domains`] with an initial node-table capacity
    /// hint (rounded up to a power of two, at least 2^12). Sizing the
    /// table for the expected workload avoids early grow-and-collect
    /// cycles.
    ///
    /// # Errors
    ///
    /// As [`BddManager::with_domains`].
    pub fn with_domains_and_capacity(
        specs: &[DomainSpec],
        order: &OrderSpec,
        capacity: usize,
    ) -> Result<Self, BddError> {
        let mut by_name: HashMap<&str, usize> = HashMap::new();
        for (i, spec) in specs.iter().enumerate() {
            if spec.size == 0 {
                return Err(BddError::EmptyDomain(spec.name.clone()));
            }
            if by_name.insert(&spec.name, i).is_some() {
                return Err(BddError::DuplicateDomain(spec.name.clone()));
            }
        }
        // Validate the order spec against the declarations.
        let mut seen = vec![false; specs.len()];
        let mut groups: Vec<Vec<u32>> = Vec::new();
        let mut placement: Vec<(usize, usize)> = Vec::new(); // spec idx -> (group, member)
        let mut spec_of_placement: Vec<usize> = Vec::new();
        for (g, group) in order.groups().iter().enumerate() {
            let mut widths = Vec::new();
            for (m, name) in group.iter().enumerate() {
                let &ix = by_name
                    .get(name.as_str())
                    .ok_or_else(|| BddError::UnknownDomainInOrder(name.clone()))?;
                if seen[ix] {
                    return Err(BddError::DuplicateDomain(name.clone()));
                }
                seen[ix] = true;
                widths.push(bits_for(specs[ix].size));
                placement.push((g, m));
                spec_of_placement.push(ix);
            }
            groups.push(widths);
        }
        if let Some(ix) = seen.iter().position(|&s| !s) {
            return Err(BddError::DomainMissingFromOrder(specs[ix].name.clone()));
        }
        let levels = assign_levels_grouped(&groups);
        let varcount: u32 = groups.iter().flatten().sum();
        let mut store = Store::new(varcount, capacity);
        let mut domains: Vec<Option<DomainData>> = vec![None; specs.len()];
        for (p, &(g, m)) in placement.iter().enumerate() {
            let ix = spec_of_placement[p];
            domains[ix] = Some(DomainData {
                name: specs[ix].name.clone(),
                size: specs[ix].size,
                bits: levels[g][m].clone(),
            });
        }
        store.domains = domains.into_iter().map(Option::unwrap).collect();
        store.domain_names = specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), i))
            .collect();
        Ok(BddManager {
            store: Rc::new(RefCell::new(store)),
        })
    }

    fn wrap(&self, s: &mut Store, idx: u32) -> Bdd {
        s.inc_ref(idx);
        Bdd {
            store: self.store.clone(),
            idx,
        }
    }

    /// The constant `false` (the empty relation).
    pub fn zero(&self) -> Bdd {
        let mut s = self.store.borrow_mut();
        self.wrap(&mut s, ZERO)
    }

    /// The constant `true` (the universal relation).
    pub fn one(&self) -> Bdd {
        let mut s = self.store.borrow_mut();
        self.wrap(&mut s, ONE)
    }

    /// The positive literal for variable `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= varcount`.
    pub fn ithvar(&self, level: Level) -> Bdd {
        let mut s = self.store.borrow_mut();
        let idx = s.ithvar(level);
        self.wrap(&mut s, idx)
    }

    /// The BDD whose internal nodes are `nodes`, encoded as
    /// [`Bdd::canonical_nodes`] lists them (children before parents, a
    /// child `0`/`1` for a terminal and `2 + i` for the `i`th triple), with
    /// `root` encoded the same way. A node whose variable lies above both
    /// children goes straight into the unique table; any other node is
    /// placed by `ite` on its variable. Every node built stays protected
    /// until the last one is, so a collection in between frees none.
    ///
    /// # Panics
    ///
    /// Panics if a child or `root` refers to a triple at or after its own
    /// position, or a variable is out of range.
    pub(crate) fn build_nodes(&self, nodes: &[(Level, u32, u32)], root: u32) -> Bdd {
        let mut s = self.store.borrow_mut();
        let mut built: Vec<u32> = Vec::with_capacity(nodes.len() + 2);
        built.extend([ZERO, ONE]);
        for &(var, low, high) in nodes {
            let (low, high) = (built[low as usize], built[high as usize]);
            let f = if var < s.level(low) && var < s.level(high) {
                s.mk(var, low, high)
            } else {
                let x = s.ithvar(var);
                s.protect(x);
                let f = s.ite_rec(x, high, low);
                s.unprotect(1);
                f
            };
            s.protect(f);
            built.push(f);
        }
        let root = self.wrap(&mut s, built[root as usize]);
        s.unprotect(nodes.len());
        root
    }

    /// The negative literal for variable `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= varcount`.
    pub fn nithvar(&self, level: Level) -> Bdd {
        let mut s = self.store.borrow_mut();
        let idx = s.nithvar(level);
        self.wrap(&mut s, idx)
    }

    /// Number of boolean variables in this manager.
    pub fn varcount(&self) -> u32 {
        self.store.borrow().varcount
    }

    /// Looks up a domain by name.
    pub fn domain(&self, name: &str) -> Option<DomainId> {
        self.store
            .borrow()
            .domain_names
            .get(name)
            .copied()
            .map(DomainId)
    }

    /// All declared domains, in declaration order.
    pub fn domains(&self) -> Vec<DomainId> {
        (0..self.store.borrow().domains.len())
            .map(DomainId)
            .collect()
    }

    /// The name of a domain.
    pub fn domain_name(&self, d: DomainId) -> String {
        self.store.borrow().domains[d.0].name.clone()
    }

    /// The declared size of a domain.
    pub fn domain_size(&self, d: DomainId) -> u64 {
        self.store.borrow().domains[d.0].size
    }

    /// The variables of a domain's bits, least-significant first. A
    /// variable's number is its level: its position in the order, fixed
    /// when the manager is built.
    pub fn domain_levels(&self, d: DomainId) -> Vec<Level> {
        self.store.borrow().domains[d.0].bits.clone()
    }

    /// BDD encoding the single value `value` in domain `d`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the domain.
    pub fn domain_const(&self, d: DomainId, value: u64) -> Bdd {
        let mut s = self.store.borrow_mut();
        assert!(
            value < s.domains[d.0].size,
            "value {} out of range for domain `{}` of size {}",
            value,
            s.domains[d.0].name,
            s.domains[d.0].size
        );
        let bits = s.domains[d.0].bits.clone();
        let idx = const_rec(&mut s, &bits, value);
        self.wrap(&mut s, idx)
    }

    /// The relation holding exactly `tuples` over the domains `doms`: value
    /// `i` of each tuple lies in domain `doms[i]`. Duplicates are allowed
    /// and an empty list gives the empty relation.
    ///
    /// Fact loading's bulk constructor: it packs every tuple into a key
    /// whose bits follow the variable order, sorts the keys and builds the
    /// BDD straight from them, with no per-tuple minterms and no apply
    /// operations.
    ///
    /// # Panics
    ///
    /// Panics if a domain appears twice in `doms`, a tuple's length differs
    /// from `doms.len()`, or a value is outside its domain.
    pub fn tuple_set<I, T>(&self, doms: &[DomainId], tuples: I) -> Bdd
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[u64]>,
    {
        let mut s = self.store.borrow_mut();
        s.enter_public_op();
        // One column per domain bit, sorted top of the order first; column
        // `j` becomes bit `j` of a key, most significant first, so sorted
        // keys follow the order.
        let mut cols: Vec<(u32, usize, usize)> = Vec::new();
        for (attr, d) in doms.iter().enumerate() {
            assert!(
                !doms[..attr].contains(d),
                "tuple_set: domain `{}` appears twice",
                s.domains[d.0].name
            );
            let bits = &s.domains[d.0].bits;
            cols.extend(bits.iter().enumerate().map(|(sig, &var)| (var, attr, sig)));
        }
        cols.sort_unstable();
        let words = cols.len().div_ceil(64);
        let mut keys: Vec<Vec<u64>> = Vec::new();
        for t in tuples {
            let t = t.as_ref();
            assert_eq!(
                t.len(),
                doms.len(),
                "tuple_set: tuple of {} values for {} domains",
                t.len(),
                doms.len()
            );
            for (&v, d) in t.iter().zip(doms) {
                let dom = &s.domains[d.0];
                assert!(
                    v < dom.size,
                    "value {v} out of range for domain `{}` of size {}",
                    dom.name,
                    dom.size
                );
            }
            let mut key = vec![0u64; words];
            for (j, &(_, attr, sig)) in cols.iter().enumerate() {
                if (t[attr] >> sig) & 1 == 1 {
                    key[j / 64] |= 1 << (63 - j % 64);
                }
            }
            keys.push(key);
        }
        keys.sort_unstable();
        keys.dedup();
        let levels: Vec<u32> = cols.iter().map(|c| c.0).collect();
        let idx = tuple_set_rec(&mut s, &levels, &keys);
        self.wrap(&mut s, idx)
    }

    /// BDD encoding `lo <= x <= hi` in domain `d` — the O(bits) *range*
    /// primitive of Section 4.1 of the paper.
    ///
    /// An empty range (`lo > hi`) yields the empty set.
    ///
    /// # Panics
    ///
    /// Panics if `hi` is outside the domain.
    pub fn domain_range(&self, d: DomainId, lo: u64, hi: u64) -> Bdd {
        let mut s = self.store.borrow_mut();
        assert!(
            lo > hi || hi < s.domains[d.0].size,
            "range upper bound {} out of range for domain `{}` of size {}",
            hi,
            s.domains[d.0].name,
            s.domains[d.0].size
        );
        let bits = s.domains[d.0].bits.clone();
        let idx = range_rec(&mut s, &bits, lo, hi);
        self.wrap(&mut s, idx)
    }

    /// BDD encoding pointwise equality of two domains of equal bit width.
    ///
    /// # Panics
    ///
    /// Panics if the domains have different bit widths.
    pub fn domain_eq(&self, a: DomainId, b: DomainId) -> Bdd {
        let mut s = self.store.borrow_mut();
        let (ab, bb) = (s.domains[a.0].bits.clone(), s.domains[b.0].bits.clone());
        assert_eq!(
            ab.len(),
            bb.len(),
            "domain_eq requires equal bit widths ({} vs {})",
            s.domains[a.0].name,
            s.domains[b.0].name
        );
        let idx = eq_rec(&mut s, &ab, &bb);
        self.wrap(&mut s, idx)
    }

    /// BDD encoding the strict order `x < y` between two domains of equal
    /// bit width.
    ///
    /// # Panics
    ///
    /// Panics if the domains have different bit widths.
    pub fn domain_lt(&self, a: DomainId, b: DomainId) -> Bdd {
        let mut s = self.store.borrow_mut();
        let (ab, bb) = (s.domains[a.0].bits.clone(), s.domains[b.0].bits.clone());
        assert_eq!(
            ab.len(),
            bb.len(),
            "domain_lt requires equal bit widths ({} vs {})",
            s.domains[a.0].name,
            s.domains[b.0].name
        );
        let idx = crate::domain::lt_rec(&mut s, &ab, &bb);
        self.wrap(&mut s, idx)
    }

    /// BDD encoding the relation `{(x, y) | y = x + c}` between domains
    /// `from` (holding `x`) and `to` (holding `y`), with no wrap-around.
    ///
    /// This is the O(bits) shift used by the context numbering scheme
    /// (Algorithm 4): the contexts of a callee are the contexts of the
    /// caller plus a constant.
    ///
    /// # Panics
    ///
    /// Panics if the domains have different bit widths.
    pub fn domain_add_const(&self, from: DomainId, to: DomainId, c: u64) -> Bdd {
        let mut s = self.store.borrow_mut();
        let (fb, tb) = (s.domains[from.0].bits.clone(), s.domains[to.0].bits.clone());
        assert_eq!(
            fb.len(),
            tb.len(),
            "domain_add_const requires equal bit widths ({} vs {})",
            s.domains[from.0].name,
            s.domains[to.0].name
        );
        let idx = add_const_rec(&mut s, &fb, &tb, c);
        self.wrap(&mut s, idx)
    }

    /// Forces a garbage collection.
    pub fn gc(&self) {
        self.store.borrow_mut().gc();
    }

    /// Counts the nodes reachable from live handles without collecting,
    /// and folds the count into [`BddStats::peak_reachable_nodes`]. Lets a
    /// caller sample the peak at a point of its choosing, such as the end
    /// of a solve that never had to collect.
    pub fn sample_reachable(&self) -> usize {
        self.store.borrow_mut().sample_reachable()
    }

    /// Audits every structural invariant of the node store and the
    /// operation caches: unique-table canonicity (no duplicate
    /// `(level, low, high)` triples, no unreduced `low == high` nodes,
    /// every live node on its hash chain), level ordering along every
    /// edge, free-list integrity, and cache-entry validity. Returns a
    /// description of the first violation found.
    ///
    /// This is the kernel sanitizer's core check. It runs automatically —
    /// sampled at public-operation entry, always after GC —
    /// when the `sanitize` cargo feature is enabled or `WHALE_SANITIZE=1`
    /// is set (either source can be overridden per manager with
    /// [`BddManager::set_sanitize`]); the automatic runs panic instead of
    /// returning, so corrupt state cannot propagate.
    ///
    /// # Errors
    ///
    /// The first invariant violation, as a human-readable description.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.store.borrow().check_invariants()
    }

    /// Enables or disables the automatic sanitizer checks for this manager
    /// only, overriding the `sanitize` feature / `WHALE_SANITIZE` default.
    pub fn set_sanitize(&self, on: bool) {
        self.store.borrow_mut().sanitize = on;
    }

    /// Whether automatic sanitizer checks are active for this manager.
    pub fn sanitize_enabled(&self) -> bool {
        self.store.borrow().sanitize
    }

    /// Current node-table statistics.
    pub fn stats(&self) -> BddStats {
        let mut s = self.store.borrow_mut();
        let live = s.live_count();
        s.peak_live = s.peak_live.max(s.live_since_reset());
        let (apply_cache, ite_cache, appex_cache, replace_cache, client_cache) = s.cache_stats();
        BddStats {
            varcount: s.varcount,
            live_nodes: live,
            peak_live_nodes: s.peak_live,
            peak_reachable_nodes: s.peak_reachable,
            allocated_nodes: s.capacity,
            gc_runs: s.gc_runs,
            apply_cache,
            ite_cache,
            appex_cache,
            replace_cache,
            client_cache,
            count_memo: s.count_memo.stats,
            cache_bytes: s.cache_bytes(),
            table_bytes: s.table_bytes(),
        }
    }

    /// Looks up a result memoized with [`BddManager::memo_put`] under the
    /// same `(a, b, tag)` key. Hits and misses are counted in
    /// [`BddStats::client_cache`].
    ///
    /// # Panics
    ///
    /// Panics if an operand belongs to a different manager.
    pub fn memo_get(&self, a: &Bdd, b: Option<&Bdd>, tag: u32) -> Option<Bdd> {
        assert!(
            Rc::ptr_eq(&self.store, &a.store)
                && b.is_none_or(|b| Rc::ptr_eq(&self.store, &b.store)),
            "memo operands belong to a different manager"
        );
        let mut s = self.store.borrow_mut();
        let idx = s.client_get(a.idx, b.map_or(NIL, |b| b.idx), tag)?;
        Some(self.wrap(&mut s, idx))
    }

    /// Memoizes `result` as the outcome of a client-defined operation `tag`
    /// applied to `a` (and optionally `b`) in the *client operation cache*
    /// — a whole-operation memo table sharing the kernel caches' lifecycle:
    /// entries naming a node freed by GC are dropped before the slot can
    /// be reused. A hit therefore always returns a live handle denoting
    /// the exact function that was stored.
    ///
    /// `tag` is an opaque key the caller must keep stable for as long as it
    /// wants hits (e.g. an interned id of the operation's parameters).
    ///
    /// # Panics
    ///
    /// Panics if an operand belongs to a different manager.
    pub fn memo_put(&self, a: &Bdd, b: Option<&Bdd>, tag: u32, result: &Bdd) {
        assert!(
            Rc::ptr_eq(&self.store, &a.store)
                && Rc::ptr_eq(&self.store, &result.store)
                && b.is_none_or(|b| Rc::ptr_eq(&self.store, &b.store)),
            "memo operands belong to a different manager"
        );
        let mut s = self.store.borrow_mut();
        s.client_put(a.idx, b.map_or(NIL, |b| b.idx), tag, result.idx);
    }

    /// Drops every memoized operation result. This writes every cache
    /// entry, so its cost is proportional to the cache sizes
    /// ([`BddStats::cache_bytes`]). Useful for cold-cache benchmarking;
    /// never required for correctness.
    pub fn clear_op_caches(&self) {
        self.store.borrow_mut().clear_caches();
    }

    /// Resets both peak statistics to the nodes reachable from live
    /// handles, counted by a mark phase without a sweep: no collection
    /// runs, so [`BddStats::gc_runs`], [`BddStats::live_nodes`] and every
    /// op-cache entry are left as they are. Garbage still in the table is
    /// left out of [`BddStats::peak_live_nodes`] from here on; only nodes
    /// made afterwards raise it, until a collection frees that garbage.
    pub fn reset_peak(&self) {
        self.store.borrow_mut().reset_peak();
    }

    /// Whether two managers are the same underlying instance.
    pub fn same_as(&self, other: &BddManager) -> bool {
        Rc::ptr_eq(&self.store, &other.store)
    }
}

impl std::fmt::Debug for BddManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.stats();
        f.debug_struct("BddManager")
            .field("varcount", &st.varcount)
            .field("live_nodes", &st.live_nodes)
            .finish()
    }
}

/// A reference-counted handle to a BDD node.
///
/// Handles keep their nodes (and the whole manager) alive; dropping the
/// handle releases the node for a future garbage collection. Two handles
/// compare equal iff they denote the same function of the same manager
/// (BDDs are canonical).
pub struct Bdd {
    store: Rc<RefCell<Store>>,
    idx: u32,
}

impl Bdd {
    fn mgr(&self) -> BddManager {
        BddManager {
            store: self.store.clone(),
        }
    }

    #[inline]
    fn same_store(&self, other: &Bdd) {
        assert!(
            Rc::ptr_eq(&self.store, &other.store),
            "operation between BDDs of different managers"
        );
    }

    fn wrap(&self, s: &mut Store, idx: u32) -> Bdd {
        s.inc_ref(idx);
        Bdd {
            store: self.store.clone(),
            idx,
        }
    }

    /// The manager this handle belongs to.
    pub fn manager(&self) -> BddManager {
        self.mgr()
    }

    /// Whether this is the constant `false`.
    pub fn is_zero(&self) -> bool {
        self.idx == ZERO
    }

    /// Whether this is the constant `true`.
    pub fn is_one(&self) -> bool {
        self.idx == ONE
    }

    /// One public operation: checks that every operand in `others`
    /// belongs to this manager, enters the kernel (sanitizer sample), runs
    /// `op` on the store and `self`'s node, and wraps the node it returns.
    fn public_op(&self, others: &[&Bdd], op: impl FnOnce(&mut Store, u32) -> u32) -> Bdd {
        for other in others {
            self.same_store(other);
        }
        let mut s = self.store.borrow_mut();
        s.enter_public_op();
        let idx = op(&mut s, self.idx);
        self.wrap(&mut s, idx)
    }

    /// Conjunction.
    pub fn and(&self, other: &Bdd) -> Bdd {
        self.public_op(&[other], |s, f| s.apply_rec::<AND>(f, other.idx))
    }

    /// Disjunction.
    pub fn or(&self, other: &Bdd) -> Bdd {
        self.public_op(&[other], |s, f| s.apply_rec::<OR>(f, other.idx))
    }

    /// Exclusive or.
    pub fn xor(&self, other: &Bdd) -> Bdd {
        self.public_op(&[other], |s, f| s.apply_rec::<XOR>(f, other.idx))
    }

    /// Set difference `self ∧ ¬other`.
    pub fn diff(&self, other: &Bdd) -> Bdd {
        self.public_op(&[other], |s, f| s.apply_rec::<DIFF>(f, other.idx))
    }

    /// Negation.
    pub fn not(&self) -> Bdd {
        self.public_op(&[], |s, f| s.not_rec(f))
    }

    /// If-then-else: `(self ∧ then_) ∨ (¬self ∧ else_)`.
    pub fn ite(&self, then_: &Bdd, else_: &Bdd) -> Bdd {
        self.public_op(&[then_, else_], |s, f| s.ite_rec(f, then_.idx, else_.idx))
    }

    /// Existential quantification over the given variables.
    pub fn exist(&self, vars: &[Level]) -> Bdd {
        self.public_op(&[], |s, f| s.exist(f, vars))
    }

    /// Existential quantification over whole domains.
    pub fn exist_domains(&self, doms: &[DomainId]) -> Bdd {
        self.public_op(&[], |s, f| s.exist(f, &s.vars_of(doms)))
    }

    /// Universal quantification over the given variable levels
    /// (`∀x. f  =  ¬∃x. ¬f`).
    pub fn forall(&self, vars: &[Level]) -> Bdd {
        self.not().exist(vars).not()
    }

    /// Restricts variables to constants: the generalized cofactor
    /// `f[x := v, ...]` for the given `(level, value)` assignments.
    pub fn restrict(&self, assignment: &[(Level, bool)]) -> Bdd {
        let mgr = self.mgr();
        let mut cube = mgr.one();
        for &(level, value) in assignment {
            let lit = if value {
                mgr.ithvar(level)
            } else {
                mgr.nithvar(level)
            };
            cube = cube.and(&lit);
        }
        let levels: Vec<Level> = assignment.iter().map(|&(l, _)| l).collect();
        self.relprod(&cube, &levels)
    }

    /// The relational product `∃ vars. (self ∧ other)` in a single pass —
    /// the workhorse of Datalog joins (BDD `relprod`).
    ///
    /// # Example
    ///
    /// Composing two edge relations into a two-step reachability relation:
    ///
    /// ```
    /// use whale_bdd::{BddManager, DomainSpec, OrderSpec};
    /// # fn main() -> Result<(), whale_bdd::BddError> {
    /// let mgr = BddManager::with_domains(
    ///     &[DomainSpec::new("A", 64), DomainSpec::new("B", 64), DomainSpec::new("C", 64)],
    ///     &OrderSpec::parse("AxBxC")?,
    /// )?;
    /// let (a, b, c) = (mgr.domain("A").unwrap(), mgr.domain("B").unwrap(), mgr.domain("C").unwrap());
    /// let ab = mgr.domain_add_const(a, b, 1); // b = a + 1
    /// let bc = mgr.domain_add_const(b, c, 2); // c = b + 2
    /// let ac = ab.relprod_domains(&bc, &[b]); // ∃b: c = a + 3
    /// assert_eq!(ac, mgr.domain_add_const(a, c, 3));
    /// # Ok(())
    /// # }
    /// ```
    pub fn relprod(&self, other: &Bdd, vars: &[Level]) -> Bdd {
        self.public_op(&[other], |s, f| s.relprod(f, other.idx, vars))
    }

    /// [`Bdd::relprod`] quantifying whole domains.
    pub fn relprod_domains(&self, other: &Bdd, doms: &[DomainId]) -> Bdd {
        self.public_op(&[other], |s, f| s.relprod(f, other.idx, &s.vars_of(doms)))
    }

    /// Renames whole domains: each `(from, to)` pair moves the function's
    /// dependence on `from`'s variables onto `to`'s variables (BDD
    /// `replace`). The pairs act simultaneously, so swaps, cycles and
    /// targets already in the support are all renamed correctly.
    ///
    /// # Example
    ///
    /// ```
    /// use whale_bdd::{BddManager, DomainSpec, OrderSpec};
    /// # fn main() -> Result<(), whale_bdd::BddError> {
    /// let mgr = BddManager::with_domains(
    ///     &[DomainSpec::new("V0", 32), DomainSpec::new("V1", 32)],
    ///     &OrderSpec::parse("V0xV1")?,
    /// )?;
    /// let (v0, v1) = (mgr.domain("V0").unwrap(), mgr.domain("V1").unwrap());
    /// let f = mgr.domain_range(v0, 5, 9);
    /// assert_eq!(f.replace(&[(v0, v1)]), mgr.domain_range(v1, 5, 9));
    /// // A swap: (v0 = 1, v1 = 2) becomes (v0 = 2, v1 = 1).
    /// let t = mgr.domain_const(v0, 1).and(&mgr.domain_const(v1, 2));
    /// let swapped = mgr.domain_const(v0, 2).and(&mgr.domain_const(v1, 1));
    /// assert_eq!(t.replace(&[(v0, v1), (v1, v0)]), swapped);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a pair's domains have different bit widths (see
    /// [`Bdd::try_replace`]).
    pub fn replace(&self, pairs: &[(DomainId, DomainId)]) -> Bdd {
        self.try_replace(pairs)
            .unwrap_or_else(|e| panic!("replace: {e}"))
    }

    /// Fallible version of [`Bdd::replace`].
    ///
    /// # Errors
    ///
    /// [`BddError::BitWidthMismatch`] if a pair has different widths.
    pub fn try_replace(&self, pairs: &[(DomainId, DomainId)]) -> Result<Bdd, BddError> {
        let pairs = self.level_pairs(pairs)?;
        Ok(self.replace_levels(&pairs))
    }

    /// Renames individual variables: [`Bdd::replace`] over `(from, to)`
    /// variable pairs.
    ///
    /// # Panics
    ///
    /// Panics if a variable is out of range.
    pub fn replace_levels(&self, pairs: &[(Level, Level)]) -> Bdd {
        self.public_op(&[], |s, f| s.replace(f, pairs))
    }

    /// The variable pairs of whole-domain rename `pairs`, each domain's
    /// bits matched least-significant first.
    fn level_pairs(&self, pairs: &[(DomainId, DomainId)]) -> Result<Vec<(Level, Level)>, BddError> {
        let s = self.store.borrow();
        let mut lp = Vec::new();
        for &(from, to) in pairs {
            let (fb, tb) = (&s.domains[from.0].bits, &s.domains[to.0].bits);
            if fb.len() != tb.len() {
                return Err(BddError::BitWidthMismatch {
                    left: s.domains[from.0].name.clone(),
                    right: s.domains[to.0].name.clone(),
                });
            }
            lp.extend(fb.iter().copied().zip(tb.iter().copied()));
        }
        Ok(lp)
    }

    /// Rename-then-join over variables: `∃ vars. (replace(self, pairs) ∧
    /// other)`. A rename that keeps the order of `self`'s support runs as
    /// one fused kernel traversal with no intermediate BDD for the renamed
    /// operand; any other is renamed first and then joined.
    pub fn replace_relprod(&self, other: &Bdd, pairs: &[(Level, Level)], vars: &[Level]) -> Bdd {
        self.public_op(&[other], |s, f| {
            s.replace_relprod(f, other.idx, pairs, vars)
        })
    }

    /// [`Bdd::replace_relprod`] over whole domains: renames each
    /// `(from, to)` domain pair of `self` while joining with `other` and
    /// quantifying `doms`.
    ///
    /// # Panics
    ///
    /// As [`Bdd::replace`].
    pub fn replace_relprod_domains(
        &self,
        other: &Bdd,
        pairs: &[(DomainId, DomainId)],
        doms: &[DomainId],
    ) -> Bdd {
        let pairs = self
            .level_pairs(pairs)
            .unwrap_or_else(|e| panic!("replace_relprod_domains: {e}"));
        self.public_op(&[other], |s, f| {
            let vars = s.vars_of(doms);
            s.replace_relprod(f, other.idx, &pairs, &vars)
        })
    }

    /// Number of satisfying assignments over all manager variables.
    pub fn satcount(&self) -> f64 {
        self.store.borrow_mut().satcount(self.idx)
    }

    /// Number of tuples when `self` is read as a relation over the given
    /// domains (don't-care bits outside those domains are not counted).
    ///
    /// The support must be a subset of the domains' variables.
    pub fn satcount_domains(&self, doms: &[DomainId]) -> f64 {
        let mut s = self.store.borrow_mut();
        let dom_bits: u32 = doms.iter().map(|d| s.domains[d.0].bits.len() as u32).sum();
        let total = s.satcount(self.idx);
        total / 2f64.powi((s.varcount - dom_bits) as i32)
    }

    /// Exact tuple count over the given domains (saturating at
    /// `u128::MAX`) — unlike [`Bdd::satcount_domains`], no floating-point
    /// rounding at the astronomical counts this analysis produces. The
    /// count is memoized per root and variable set until a collection
    /// frees the root, so recounting an unchanged relation is a table
    /// lookup.
    ///
    /// The support must be a subset of the domains' variables.
    pub fn satcount_domains_exact(&self, doms: &[DomainId]) -> u128 {
        let mut s = self.store.borrow_mut();
        let vars = s.vars_of(doms);
        s.satcount_exact_memo(self.idx, &vars)
    }

    /// Number of distinct internal nodes (the paper's measure of BDD size).
    pub fn node_count(&self) -> usize {
        self.store.borrow_mut().node_count(self.idx)
    }

    /// The support: variables the function depends on, numerically
    /// ascending (top of the order first).
    pub fn support(&self) -> Vec<Level> {
        self.store.borrow_mut().support(self.idx)
    }

    /// Internal node list with children before parents (ordered BDDs have
    /// strictly increasing levels toward the leaves, so sorting by level
    /// descending suffices): `(id, variable, low_id, high_id)`.
    pub(crate) fn dump_nodes(&self) -> Vec<(u64, u32, u64, u64)> {
        let mut s = self.store.borrow_mut();
        let mut out: Vec<_> = s
            .reachable(self.idx)
            .into_iter()
            .map(|u| (u as u64, s.level(u), s.low(u) as u64, s.high(u) as u64))
            .collect();
        out.sort_by_key(|n| std::cmp::Reverse(n.1));
        out
    }

    /// The canonical node structure: one `(variable, low, high)` triple
    /// per internal node, children before parents and the root last. A
    /// child is `0`/`1` for the terminals and `2 + i` for the `i`th
    /// triple. Equal functions under the same variable order give equal
    /// lists whatever their node ids; an empty list is a terminal root.
    pub fn canonical_nodes(&self) -> Vec<(u32, u32, u32)> {
        let mut s = self.store.borrow_mut();
        let order = s.postorder(self.idx);
        let pos = |c: u32| {
            if c <= ONE {
                c
            } else {
                s.walk_pos[c as usize] + 2
            }
        };
        order
            .iter()
            .map(|&u| (s.level(u), pos(s.low(u)), pos(s.high(u))))
            .collect()
    }

    /// The root's raw id (`0`/`1` for terminals), paired with
    /// [`Bdd::dump_nodes`] by the serializer.
    pub(crate) fn root_token(&self) -> u64 {
        self.idx as u64
    }

    /// Decodes the relation into concrete tuples over the given domains.
    ///
    /// Intended for inspecting results (queries, tests); counting should use
    /// [`Bdd::satcount_domains`]. Tuples are produced in lexicographic
    /// variable-level order.
    ///
    /// # Panics
    ///
    /// Panics if the support is not covered by the domains' variables.
    pub fn tuples(&self, doms: &[DomainId]) -> Vec<Vec<u64>> {
        let s = self.store.borrow();
        // Union of the domains' variables, sorted — the cube enumeration
        // walks the order top-down — with decode positions mapping each
        // domain bit back into that list.
        let mut levels: Vec<Level> = Vec::new();
        for d in doms {
            levels.extend_from_slice(&s.domains[d.0].bits);
        }
        levels.sort_unstable();
        levels.dedup();
        let positions: Vec<Vec<(usize, u32)>> = doms
            .iter()
            .map(|d| {
                s.domains[d.0]
                    .bits
                    .iter()
                    .enumerate()
                    .map(|(sig, &var)| {
                        let ix = levels.binary_search(&var).expect("level present");
                        (ix, sig as u32)
                    })
                    .collect()
            })
            .collect();
        let mut out = Vec::new();
        for_each_sat(&s, self.idx, &levels, &mut |assignment| {
            out.push(decode_tuple(assignment, &positions));
        });
        out
    }

    /// Calls `cb` for every tuple of the relation (see [`Bdd::tuples`]).
    pub fn for_each_tuple(&self, doms: &[DomainId], mut cb: impl FnMut(&[u64])) {
        // Collected first so the callback runs without the store borrowed
        // (it may drop other handles).
        for t in self.tuples(doms) {
            cb(&t);
        }
    }
}

impl Clone for Bdd {
    fn clone(&self) -> Self {
        self.store.borrow_mut().inc_ref(self.idx);
        Bdd {
            store: self.store.clone(),
            idx: self.idx,
        }
    }
}

impl Drop for Bdd {
    fn drop(&mut self) {
        // The store is never borrowed across a user callback, so this
        // normally succeeds; if it ever fails the reference is leaked, which
        // is safe (the node merely survives future collections).
        if let Ok(mut s) = self.store.try_borrow_mut() {
            s.dec_ref(self.idx);
        }
    }
}

impl PartialEq for Bdd {
    fn eq(&self, other: &Self) -> bool {
        self.idx == other.idx && Rc::ptr_eq(&self.store, &other.store)
    }
}

impl Eq for Bdd {}

impl std::hash::Hash for Bdd {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.idx.hash(state);
    }
}

impl std::fmt::Debug for Bdd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            write!(f, "Bdd(false)")
        } else if self.is_one() {
            write!(f, "Bdd(true)")
        } else {
            write!(f, "Bdd(node {}, {} nodes)", self.idx, self.node_count())
        }
    }
}
