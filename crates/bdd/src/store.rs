//! The node store: unique table, reference counting, garbage collection and
//! the recursive implementations of every BDD operation.
//!
//! The design follows BuDDy: nodes live in one flat array, the unique table
//! is a bucket array with intrusive hash chains (`Node::next`), external
//! references are per-node refcounts maintained by the RAII [`crate::Bdd`]
//! handles, and the kernel protects its own intermediate results on an
//! explicit `refstack` so that garbage collection can run in the middle of an
//! operation when the node table fills up.
//!
//! The bucket array is sized to the nodes in use, not to the table's
//! capacity: it starts at [`MIN_BUCKETS`] and doubles, rehashing the used
//! prefix, whenever that prefix outgrows it. A manager that reserves 2^20
//! slots but uses 2^17 therefore never writes, collects into or probes a
//! 2^20-entry bucket array.

use crate::cache::{Cache, CacheStats, NIL};
use crate::domain::{DomainData, DomainId};
use crate::sat::CountMemo;
use crate::Level;
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// Index of the constant `false` node.
pub(crate) const ZERO: u32 = 0;
/// Index of the constant `true` node.
pub(crate) const ONE: u32 = 1;
/// Level assigned to the two terminal nodes; orders below every variable.
pub(crate) const TERM_LEVEL: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub(crate) struct Node {
    pub(crate) level: u32,
    pub(crate) low: u32,
    pub(crate) high: u32,
    pub(crate) refcount: u32,
    pub(crate) next: u32,
}

const FREE_NODE: Node = Node {
    level: TERM_LEVEL,
    low: NIL,
    high: NIL,
    refcount: 0,
    next: NIL,
};

/// Bytes per node slot — the basis of `BddStats::peak_bytes`.
pub const NODE_BYTES: usize = std::mem::size_of::<Node>();

/// Bucket count of a new unique table. The array doubles whenever the used
/// node prefix outgrows it, so the load factor over the used prefix stays
/// at most one, whatever capacity the manager reserved.
pub(crate) const MIN_BUCKETS: usize = 1 << 12;

/// Binary apply operators, named by their apply-cache tag: the const
/// parameter of [`Store::apply_rec`].
pub(crate) const AND: u32 = 1;
pub(crate) const OR: u32 = 2;
pub(crate) const XOR: u32 = 3;
/// `f ∧ ¬g` (set difference).
pub(crate) const DIFF: u32 = 4;

const NOT_TAG: u32 = 5;

/// Cap on any op cache's log2 entry count under table-proportional growth.
const CACHE_MAX_LOG2: u32 = 23;

/// Sequence-tag space of the `appex_cache`: `exist` uses `varset_id * 2`,
/// `relprod` uses `varset_id * 2 + 1`, and the fused replace+relprod kernel
/// uses `FUSED_SEQ_BASE | fused_id` — the high bit keeps the three tag
/// families disjoint so entries of different operations can never collide.
const FUSED_SEQ_BASE: u32 = 0x8000_0000;

pub(crate) struct Store {
    /// The used prefix of the node table: every slot ever handed out, live
    /// or freed. Slots past it up to `capacity` are reserved but never
    /// written, so their memory is only touched once `mk` reaches them.
    pub(crate) nodes: Vec<Node>,
    /// Logical node-table size: the number of slots `mk` may use before it
    /// has to collect.
    pub(crate) capacity: usize,
    /// Visited flags of the GC mark phase and of the [`Store::reachable`]
    /// and [`Store::postorder`] walks; all clear between them.
    marks: Vec<bool>,
    /// Each node's index in the last [`Store::postorder`] walk that
    /// visited it; entries of nodes outside that walk are stale.
    pub(crate) walk_pos: Vec<u32>,
    /// Exact counts of whole roots, kept across calls.
    pub(crate) count_memo: CountMemo,
    /// Heads of the unique table's hash chains: a power of two, at least
    /// [`MIN_BUCKETS`] and at least the used prefix `nodes.len()`.
    buckets: Vec<u32>,
    bucket_mask: usize,
    /// Freed slots inside the used prefix (never-used slots are not chained).
    free_head: u32,
    free_count: usize,
    pub(crate) varcount: u32,
    refstack: Vec<u32>,
    apply_cache: Cache,
    ite_cache: Cache,
    appex_cache: Cache,
    replace_cache: Cache,
    /// Client operation cache: memoizes whole-operation results for the
    /// library's caller (the Datalog engine's relation-level joins), keyed
    /// by `(root a, root b | NIL, client tag)`. It shares the kernel
    /// caches' lifecycle — revalidated after GC — so a warm entry always
    /// names live nodes.
    client_cache: Cache,
    /// Registered quantification variable sets: stable ids let the
    /// exist/relprod caches persist across calls (BuDDy's varset scheme).
    varset_ids: HashMap<Vec<Level>, u32>,
    /// Registered replace permutations, likewise.
    perm_ids: HashMap<Vec<(Level, Level)>, u32>,
    /// Registered (varset id, perm id) pairs of fused replace+relprod
    /// calls, so fused results stay cached across calls too.
    fused_ids: HashMap<(u32, u32), u32>,
    /// Membership bitmap for the variable set of the current quantification.
    quant_set: Vec<bool>,
    /// Largest quantified level in the current quantification.
    quant_last: u32,
    /// Level permutation for the current replace call.
    perm: Vec<u32>,
    /// Smallest level at and below which `perm` is the identity — the fused
    /// kernel's license to fall back to the plain AND recursion.
    perm_tail: u32,
    pub(crate) gc_runs: usize,
    pub(crate) peak_live: usize,
    /// Unreachable nodes the last [`Store::reset_peak`] found still in the
    /// table: garbage no collection has swept yet. `peak_live` leaves them
    /// out, and the next collection frees them and clears the count.
    pub(crate) stale: usize,
    /// Most nodes any collection marked reachable (see
    /// [`crate::BddStats::peak_reachable_nodes`]).
    pub(crate) peak_reachable: usize,
    pub(crate) domains: Vec<DomainData>,
    pub(crate) domain_names: HashMap<String, usize>,
    /// Kernel sanitizer switch: run [`Store::check_invariants`] at public
    /// operation entry (sampled) and after every GC. Defaults from the
    /// `sanitize` cargo feature, overridable either way by
    /// `WHALE_SANITIZE=1`/`WHALE_SANITIZE=0`.
    pub(crate) sanitize: bool,
    /// Public-op counter driving the sampled entry-point checks.
    sanitize_ops: u32,
}

/// How often the sampled entry-point check fires: a full table + cache
/// audit is O(nodes + cache entries), too heavy for literally every public
/// operation, so entry points check every `SANITIZE_STRIDE`th call (GC, the
/// event that actually moves nodes, always checks).
const SANITIZE_STRIDE: u32 = 256;

/// Process-wide sanitizer default, resolved once: `WHALE_SANITIZE=1`
/// forces checks on, `WHALE_SANITIZE=0` forces them off, and with the
/// variable unset the `sanitize` cargo feature decides.
pub(crate) fn sanitize_default() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var_os("WHALE_SANITIZE") {
        Some(v) => v == "1",
        None => cfg!(feature = "sanitize"),
    })
}

/// Has glibc serve every allocation of 1 MiB and up — node tables, large
/// bucket arrays, op caches — with its own `mmap`. Untouched reservations then
/// cost no resident memory, and dropping a manager returns its arrays to
/// the OS at once. By default glibc raises this threshold after the first
/// large free, so later tables come from the heap, where freed memory can
/// stay resident for the rest of the process.
fn release_large_allocations_to_os() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            extern "C" {
                fn mallopt(param: i32, value: i32) -> i32;
            }
            /// `M_MMAP_THRESHOLD` from glibc's `<malloc.h>`.
            const M_MMAP_THRESHOLD: i32 = -3;
            // SAFETY: `mallopt` is glibc's documented tuning entry point
            // with this C signature; it only changes allocator parameters,
            // takes no pointers, and is safe to call at any time.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, 1 << 20);
            }
        });
    }
}

#[inline]
fn hash3(a: u32, b: u32, c: u32) -> usize {
    let mut h = (a as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h = h.wrapping_add((b as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
    h = h.wrapping_add((c as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
    h ^= h >> 31;
    h as usize
}

impl Store {
    pub(crate) fn new(varcount: u32, initial_capacity: usize) -> Self {
        let capacity = initial_capacity.next_power_of_two().max(1 << 12);
        release_large_allocations_to_os();
        // Reserve the whole table but write only the terminals: the rest
        // of the reservation stays untouched until `mk` first uses it.
        let mut nodes = Vec::with_capacity(capacity);
        for t in [ZERO, ONE] {
            nodes.push(Node {
                level: TERM_LEVEL,
                low: t,
                high: t,
                refcount: 1,
                next: NIL,
            });
        }
        Store {
            nodes,
            capacity,
            marks: Vec::new(),
            walk_pos: Vec::new(),
            count_memo: CountMemo::new(),
            buckets: vec![NIL; MIN_BUCKETS],
            bucket_mask: MIN_BUCKETS - 1,
            free_head: NIL,
            free_count: 0,
            varcount,
            refstack: Vec::with_capacity(1024),
            apply_cache: Cache::new(16),
            ite_cache: Cache::new(14),
            appex_cache: Cache::new(16),
            replace_cache: Cache::new(15),
            client_cache: Cache::new(12),
            varset_ids: HashMap::new(),
            perm_ids: HashMap::new(),
            fused_ids: HashMap::new(),
            quant_set: vec![false; varcount as usize],
            quant_last: 0,
            perm: (0..varcount).collect(),
            perm_tail: 0,
            gc_runs: 0,
            peak_live: 0,
            stale: 0,
            peak_reachable: 0,
            domains: Vec::new(),
            domain_names: HashMap::new(),
            sanitize: sanitize_default(),
            sanitize_ops: 0,
        }
    }

    // ----- basic accessors -------------------------------------------------

    #[inline]
    pub(crate) fn level(&self, f: u32) -> u32 {
        self.nodes[f as usize].level
    }

    #[inline]
    pub(crate) fn low(&self, f: u32) -> u32 {
        self.nodes[f as usize].low
    }

    #[inline]
    pub(crate) fn high(&self, f: u32) -> u32 {
        self.nodes[f as usize].high
    }

    #[inline]
    fn is_term(&self, f: u32) -> bool {
        f <= ONE
    }

    pub(crate) fn live_count(&self) -> usize {
        self.nodes.len() - 2 - self.free_count
    }

    /// The live count without the garbage [`Store::reset_peak`] left in
    /// the table: the sample `peak_live` folds in.
    pub(crate) fn live_since_reset(&self) -> usize {
        self.live_count() - self.stale
    }

    // ----- external reference counting ------------------------------------

    pub(crate) fn inc_ref(&mut self, f: u32) {
        let rc = &mut self.nodes[f as usize].refcount;
        *rc = rc.saturating_add(1);
    }

    pub(crate) fn dec_ref(&mut self, f: u32) {
        let rc = &mut self.nodes[f as usize].refcount;
        debug_assert!(*rc > 0, "refcount underflow on node {f}");
        if *rc != u32::MAX {
            *rc -= 1;
        }
    }

    #[inline]
    fn push_ref(&mut self, f: u32) -> u32 {
        self.refstack.push(f);
        f
    }

    #[inline]
    fn pop_ref(&mut self, n: usize) {
        let len = self.refstack.len();
        self.refstack.truncate(len - n);
    }

    /// Protects `f` from garbage collection until the matching
    /// [`Store::unprotect`]. Used by multi-step constructions outside this
    /// module (domain encodings, the adder) whose intermediates are not yet
    /// externally referenced.
    #[inline]
    pub(crate) fn protect(&mut self, f: u32) {
        self.push_ref(f);
    }

    /// Releases the last `n` protections.
    #[inline]
    pub(crate) fn unprotect(&mut self, n: usize) {
        self.pop_ref(n);
    }

    // ----- unique table ----------------------------------------------------

    /// Finds or creates the node `(level, low, high)`.
    ///
    /// `low` and `high` must be protected (externally referenced, on the
    /// refstack, or reachable from such a node): this call may garbage
    /// collect.
    pub(crate) fn mk(&mut self, level: u32, low: u32, high: u32) -> u32 {
        if low == high {
            return low;
        }
        debug_assert!(level < self.varcount);
        debug_assert!(
            level < self.level(low) && level < self.level(high),
            "mk: ordering violated (level {level} vs children {}/{})",
            self.level(low),
            self.level(high)
        );
        let mut slot = hash3(level, low, high) & self.bucket_mask;
        let mut cur = self.buckets[slot];
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            if n.level == level && n.low == low && n.high == high {
                return cur;
            }
            cur = n.next;
        }
        if self.free_slots() == 0 {
            self.push_ref(low);
            self.push_ref(high);
            self.reclaim();
            self.pop_ref(2);
            // GC rebuilt the chains; the node cannot have appeared, since
            // GC only removes nodes.
            slot = hash3(level, low, high) & self.bucket_mask;
        }
        let idx = self.alloc_slot(Node {
            level,
            low,
            high,
            refcount: 0,
            next: self.buckets[slot],
        });
        self.buckets[slot] = idx;
        // An allocation that extends the used prefix past the bucket count
        // doubles the bucket array and rehashes the prefix into it.
        if self.nodes.len() > self.buckets.len() {
            self.rehash(self.buckets.len() * 2);
        }
        idx
    }

    /// Replaces the bucket array by one of `len` (a power of two) empty
    /// buckets and chains every live node of the used prefix into it, lowest
    /// index first in each chain. Free slots keep their free-list links.
    fn rehash(&mut self, len: usize) {
        debug_assert!(len.is_power_of_two() && len >= self.nodes.len());
        self.buckets.clear();
        self.buckets.resize(len, NIL);
        self.bucket_mask = len - 1;
        for i in (2..self.nodes.len()).rev() {
            let n = self.nodes[i];
            if n.low != NIL {
                let slot = hash3(n.level, n.low, n.high) & self.bucket_mask;
                self.nodes[i].next = self.buckets[slot];
                self.buckets[slot] = i as u32;
            }
        }
    }

    /// Slots `mk` can still hand out without collecting: freed slots in the
    /// used prefix plus the never-used rest of the capacity.
    fn free_slots(&self) -> usize {
        self.free_count + (self.capacity - self.nodes.len())
    }

    /// Stores `node` in a free slot — the head of the free list, else the
    /// first never-used slot — and returns its index. The caller has made
    /// sure a slot is free ([`Store::free_slots`]).
    fn alloc_slot(&mut self, node: Node) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.nodes[idx as usize].next;
            self.free_count -= 1;
            self.nodes[idx as usize] = node;
            idx
        } else {
            debug_assert!(self.nodes.len() < self.capacity, "node table full");
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    /// Runs a garbage collection and grows the table if it is still mostly
    /// full afterwards.
    fn reclaim(&mut self) {
        self.gc();
        if self.free_slots() < self.capacity / 4 {
            self.grow();
        }
    }

    pub(crate) fn gc(&mut self) {
        self.peak_live = self.peak_live.max(self.live_since_reset());
        self.mark_roots();
        // Sweep phase: rebuild the unique table and the free list. The used
        // prefix never shrinks, so the bucket array keeps its size.
        let live_before = self.live_count();
        self.buckets.fill(NIL);
        self.free_head = NIL;
        self.free_count = 0;
        for i in (2..self.nodes.len()).rev() {
            if self.marks[i] {
                self.marks[i] = false;
                let n = self.nodes[i];
                let slot = hash3(n.level, n.low, n.high) & self.bucket_mask;
                self.nodes[i].next = self.buckets[slot];
                self.buckets[slot] = i as u32;
            } else {
                self.nodes[i] = FREE_NODE;
                self.nodes[i].next = self.free_head;
                self.free_head = i as u32;
                self.free_count += 1;
            }
        }
        // Every surviving node was marked: the live count is now exactly
        // what this collection found reachable.
        self.fold_reachable(self.live_count());
        self.stale = 0;
        let freed = live_before - self.live_count();
        if freed > 0 {
            // Entries whose operands and result all survived stay warm;
            // everything else is dropped before its node slots can be
            // reallocated. A sweep that freed nothing leaves the caches
            // untouched — every memoized result is still valid.
            self.revalidate_caches();
        }
        self.gc_runs += 1;
        if self.sanitize {
            // Collection is the riskiest structural event: it rebuilds the
            // unique table, the free list and every cache's validity.
            self.sanitize_check("after GC");
        }
    }

    /// The mark phase of a collection: flags every node reachable from an
    /// external reference or the kernel refstack. Only the used prefix is
    /// scanned: slots past it were never written.
    fn mark_roots(&mut self) {
        self.marks.resize(self.nodes.len(), false);
        for i in 2..self.nodes.len() {
            if self.nodes[i].refcount > 0 && self.nodes[i].low != NIL {
                self.mark(i as u32);
            }
        }
        let roots: Vec<u32> = self.refstack.clone();
        for r in roots {
            self.mark(r);
        }
    }

    /// A collection's mark phase without its sweep: counts the nodes in
    /// use and clears the marks.
    fn count_reachable(&mut self) -> usize {
        self.mark_roots();
        let reachable = self.marks.iter().filter(|&&m| m).count();
        self.marks.fill(false);
        reachable
    }

    /// Counts the nodes in use without collecting and folds the count
    /// into `peak_reachable`.
    pub(crate) fn sample_reachable(&mut self) -> usize {
        let reachable = self.count_reachable();
        self.fold_reachable(reachable);
        reachable
    }

    /// Folds a reachable count into both peaks. `peak_live` takes it too:
    /// a stale node that a cache hit or `mk` handed out again is in use,
    /// yet [`Store::live_since_reset`] does not count it.
    fn fold_reachable(&mut self, reachable: usize) {
        self.peak_reachable = self.peak_reachable.max(reachable);
        self.peak_live = self.peak_live.max(reachable);
    }

    /// Restarts both peaks at the nodes in use, found by a mark phase
    /// without a sweep. The unreachable rest stays in the table, and its
    /// op-cache entries stay warm, until a collection frees it; until then
    /// it is `stale`, which `peak_live` leaves out.
    pub(crate) fn reset_peak(&mut self) {
        let reachable = self.count_reachable();
        self.stale = self.live_count() - reachable;
        self.peak_live = reachable;
        self.peak_reachable = reachable;
    }

    /// Revalidates the operation caches after a node-freeing sweep. Freed
    /// slots are reset to `FREE_NODE` (whose `low` is `NIL`), which is the
    /// liveness test.
    fn revalidate_caches(&mut self) {
        let nodes = &self.nodes;
        let live = |x: u32| x <= ONE || nodes[x as usize].low != NIL;
        // Key layouts: apply is (node, node|NIL, op tag), ite is
        // (node, node, node), appex is (node, node|NIL, seq tag), replace
        // is (node, NIL, seq tag).
        self.apply_cache.revalidate(live, true, false);
        self.ite_cache.revalidate(live, true, true);
        self.appex_cache.revalidate(live, true, false);
        self.replace_cache.revalidate(live, false, false);
        // Client entries are (node, node|NIL, opaque tag).
        self.client_cache.revalidate(live, true, false);
        self.count_memo.retain(live);
    }

    /// Drops every memoized operation result (a fill of every cache).
    pub(crate) fn clear_caches(&mut self) {
        for c in [
            &mut self.apply_cache,
            &mut self.ite_cache,
            &mut self.appex_cache,
            &mut self.replace_cache,
            &mut self.client_cache,
        ] {
            c.clear();
        }
        self.count_memo.retain(|_| false);
    }

    /// Cumulative per-cache counters:
    /// `(apply, ite, appex, replace, client)`.
    pub(crate) fn cache_stats(
        &self,
    ) -> (CacheStats, CacheStats, CacheStats, CacheStats, CacheStats) {
        (
            self.apply_cache.stats,
            self.ite_cache.stats,
            self.appex_cache.stats,
            self.replace_cache.stats,
            self.client_cache.stats,
        )
    }

    /// Bytes written in the unique table: the used node prefix plus the
    /// bucket array. Reserved slots past the prefix are not counted.
    pub(crate) fn table_bytes(&self) -> usize {
        self.nodes.len() * NODE_BYTES + self.buckets.len() * std::mem::size_of::<u32>()
    }

    /// Bytes currently held by all five operation caches.
    pub(crate) fn cache_bytes(&self) -> usize {
        self.apply_cache.bytes()
            + self.ite_cache.bytes()
            + self.appex_cache.bytes()
            + self.replace_cache.bytes()
            + self.client_cache.bytes()
    }

    // ----- client operation cache ------------------------------------------

    /// Looks up a client-memoized result for `(a, b, tag)`.
    pub(crate) fn client_get(&mut self, a: u32, b: u32, tag: u32) -> Option<u32> {
        self.client_cache.get(a, b, tag)
    }

    /// Memoizes `res` as the client result of `(a, b, tag)`. All node
    /// arguments must be externally referenced (they are `Bdd` roots), so
    /// revalidation keeps the entry exactly as long as they stay live.
    pub(crate) fn client_put(&mut self, a: u32, b: u32, tag: u32, res: u32) {
        self.client_cache.put(a, b, tag, res);
    }

    // ----- public-operation entry -------------------------------------------

    /// Public-operation entry hook: with the sanitizer enabled, every
    /// `SANITIZE_STRIDE`th entry audits the full table and caches.
    pub(crate) fn enter_public_op(&mut self) {
        if self.sanitize {
            self.sanitize_ops = self.sanitize_ops.wrapping_add(1);
            if self.sanitize_ops % SANITIZE_STRIDE == 1 {
                self.sanitize_check("public-op entry");
            }
        }
    }

    /// Runs [`Store::check_invariants`] and panics on any violation —
    /// corrupt kernel state must not propagate into further operations.
    pub(crate) fn sanitize_check(&self, context: &str) {
        if let Err(e) = self.check_invariants() {
            panic!("bdd sanitizer ({context}): {e}");
        }
    }

    /// Audits every structural invariant of the node store:
    ///
    /// * terminal nodes 0/1 are intact (self-children, terminal level);
    /// * the bucket array is a power of two no shorter than the used prefix;
    /// * no live node has `low == high` (such nodes must be reduced away);
    /// * every node, bucket, free-list and cache index lies inside the
    ///   used prefix of the table (slots past it were never written);
    /// * every live node's level is a real variable level, strictly above
    ///   (numerically below) both children's levels, and both children are
    ///   live nodes;
    /// * the unique table is canonical: no two live nodes share
    ///   `(level, low, high)`, every live node is reachable from its hash
    ///   bucket's chain, and each chain links only live nodes of its own
    ///   bucket, each once;
    /// * the free list is acyclic, contains exactly `free_count` slots,
    ///   and every slot on it is actually free (`low == NIL`);
    /// * every valid entry of the five operation caches names only live
    ///   nodes, under each cache's key layout (see
    ///   [`Store::revalidate_caches`]), and so does every count-memo root;
    /// * no node carries a mark: marks are set only inside a collection or
    ///   a [`Store::reachable`] walk, and a leaked one would keep a dead
    ///   node alive at the next collection.
    ///
    /// Read-only and `O(nodes + cache entries)`.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let n = self.nodes.len();
        for t in [ZERO, ONE] {
            let node = &self.nodes[t as usize];
            if node.level != TERM_LEVEL || node.low != t || node.high != t {
                return Err(format!(
                    "terminal {t} corrupted: level={} low={} high={}",
                    node.level, node.low, node.high
                ));
            }
        }
        if let Some(i) = self.marks.iter().position(|&m| m) {
            return Err(format!(
                "node {i} carries a stray mark outside GC: the next collection would keep it alive"
            ));
        }
        let nb = self.buckets.len();
        if !nb.is_power_of_two() || self.bucket_mask != nb - 1 {
            return Err(format!(
                "bucket array of {nb} is not a power of two matching mask {:#x}",
                self.bucket_mask
            ));
        }
        if nb < n {
            return Err(format!(
                "bucket array of {nb} is shorter than the used prefix of {n} slots"
            ));
        }
        let live = |x: u32| x <= ONE || self.nodes[x as usize].low != NIL;
        let past = |x: u32| x != NIL && x as usize >= n;
        if let Some(b) = self.buckets.iter().position(|&h| past(h)) {
            return Err(format!(
                "bucket {b} head {} is past the used prefix of {n} slots",
                self.buckets[b]
            ));
        }
        let mut keys: HashSet<(u32, u32, u32)> = HashSet::new();
        let mut live_seen = 0usize;
        for i in 2..n {
            let node = &self.nodes[i];
            if node.low == NIL {
                continue; // free slot; accounted by the free-list walk
            }
            live_seen += 1;
            if node.low == node.high {
                return Err(format!(
                    "node {i} is unreduced: low == high == {}",
                    node.low
                ));
            }
            if node.level >= self.varcount {
                return Err(format!(
                    "node {i} has level {} outside the {} variables",
                    node.level, self.varcount
                ));
            }
            if past(node.next) {
                return Err(format!(
                    "node {i}: chain link {} is past the used prefix of {n} slots",
                    node.next
                ));
            }
            for (name, c) in [("low", node.low), ("high", node.high)] {
                if past(c) {
                    return Err(format!(
                        "node {i}: {name} child {c} is past the used prefix of {n} slots"
                    ));
                }
                if !live(c) {
                    return Err(format!("node {i}: {name} child {c} is a freed slot"));
                }
                if self.nodes[c as usize].level <= node.level {
                    return Err(format!(
                        "node {i} (level {}) violates ordering: {name} child {c} has level {}",
                        node.level, self.nodes[c as usize].level
                    ));
                }
            }
            if !keys.insert((node.level, node.low, node.high)) {
                return Err(format!(
                    "duplicate unique-table node {i}: ({},{},{}) already present",
                    node.level, node.low, node.high
                ));
            }
            // Canonicity also demands reachability: `mk` must find this
            // node, so it must sit on its own bucket's chain.
            let slot = hash3(node.level, node.low, node.high) & self.bucket_mask;
            let mut cur = self.buckets[slot];
            let mut hops = 0usize;
            while cur != NIL && cur != i as u32 {
                hops += 1;
                if hops > n {
                    return Err(format!("bucket {slot} chain has a cycle"));
                }
                cur = self.nodes[cur as usize].next;
                if past(cur) {
                    return Err(format!(
                        "bucket {slot} chain index {cur} is past the used prefix of {n} slots"
                    ));
                }
            }
            if cur == NIL {
                return Err(format!(
                    "node {i} ({},{},{}) missing from bucket {slot} chain",
                    node.level, node.low, node.high
                ));
            }
        }
        // Each bucket chains only nodes that hash to it, and every live
        // node exactly once: the walk above found each on its own chain, so
        // a total above the live count means a node is linked twice.
        let mut chained = 0usize;
        for (b, &head) in self.buckets.iter().enumerate() {
            let mut cur = head;
            while cur != NIL {
                let node = &self.nodes[cur as usize];
                if !live(cur) {
                    return Err(format!("bucket {b} chain reaches freed slot {cur}"));
                }
                let slot = hash3(node.level, node.low, node.high) & self.bucket_mask;
                if slot != b {
                    return Err(format!(
                        "node {cur} on bucket {b} chain hashes to bucket {slot}"
                    ));
                }
                chained += 1;
                if chained > live_seen {
                    return Err(format!(
                        "bucket chains link more than the {live_seen} live nodes"
                    ));
                }
                cur = node.next;
            }
        }
        let mut free_seen = 0usize;
        let mut cur = self.free_head;
        while cur != NIL {
            free_seen += 1;
            if free_seen > n {
                return Err("free list has a cycle".into());
            }
            if past(cur) {
                return Err(format!(
                    "free-list index {cur} is past the used prefix of {n} slots"
                ));
            }
            let node = &self.nodes[cur as usize];
            if node.low != NIL {
                return Err(format!("live node {cur} is chained on the free list"));
            }
            cur = node.next;
        }
        if free_seen != self.free_count {
            return Err(format!(
                "free list holds {free_seen} slots but free_count says {}",
                self.free_count
            ));
        }
        if live_seen != self.live_count() {
            return Err(format!(
                "{live_seen} live nodes in the table but live_count() says {}",
                self.live_count()
            ));
        }
        let fault = |x: u32| {
            if past(x) {
                Some("past the used prefix")
            } else if !live(x) {
                Some("a dead node")
            } else {
                None
            }
        };
        // Same key layouts as `revalidate_caches`.
        for (name, cache, b_node, c_node) in [
            ("apply", &self.apply_cache, true, false),
            ("ite", &self.ite_cache, true, true),
            ("appex", &self.appex_cache, true, false),
            ("replace", &self.replace_cache, false, false),
            ("client", &self.client_cache, true, false),
        ] {
            cache
                .check(fault, b_node, c_node)
                .map_err(|e| format!("{name} {e}"))?;
        }
        if let Some((r, what)) = self.count_memo.roots().find_map(|r| Some((r, fault(r)?))) {
            return Err(format!("count memo entry for root {r} names {what}"));
        }
        Ok(())
    }

    fn mark(&mut self, f: u32) {
        if self.is_term(f) || self.marks[f as usize] {
            return;
        }
        // Iterative DFS: BDD depth is bounded by varcount but width is not,
        // and an explicit stack avoids any risk with very tall orderings.
        let mut stack = vec![f];
        while let Some(u) = stack.pop() {
            if self.is_term(u) || self.marks[u as usize] {
                continue;
            }
            self.marks[u as usize] = true;
            stack.push(self.nodes[u as usize].low);
            stack.push(self.nodes[u as usize].high);
        }
    }

    /// Doubles the logical capacity. The new slots are reserved, not
    /// written or chained: `mk` reaches them once the free list runs dry,
    /// and the bucket array follows them there ([`Store::mk`]).
    fn grow(&mut self) {
        let old_len = self.capacity;
        let new_len = old_len * 2;
        // Keep the operation caches proportioned to the table: a cache much
        // smaller than the working set thrashes and destroys the
        // memoization BDD algorithms depend on. Never shrink here.
        let target: u32 = (new_len.clamp(1 << 16, 1usize << CACHE_MAX_LOG2) as u64).ilog2();
        self.apply_cache
            .resize(target.max(self.apply_cache.log2_size()));
        self.appex_cache
            .resize(target.max(self.appex_cache.log2_size()));
        self.ite_cache
            .resize(target.saturating_sub(2).max(self.ite_cache.log2_size()));
        self.replace_cache
            .resize(target.saturating_sub(1).max(self.replace_cache.log2_size()));
        self.capacity = new_len;
        self.nodes.reserve_exact(new_len - self.nodes.len());
    }

    /// Stable id for a quantification variable set; same set, same id, so
    /// exist/relprod results stay cached across calls.
    fn varset_id(&mut self, vars: &[Level]) -> u32 {
        let mut key: Vec<Level> = vars.to_vec();
        key.sort_unstable();
        key.dedup();
        let next = self.varset_ids.len() as u32;
        *self.varset_ids.entry(key).or_insert(next)
    }

    /// Stable id for a replace permutation.
    fn perm_id(&mut self, pairs: &[(Level, Level)]) -> u32 {
        let mut key: Vec<(Level, Level)> = pairs.to_vec();
        key.sort_unstable();
        let next = self.perm_ids.len() as u32;
        *self.perm_ids.entry(key).or_insert(next)
    }

    /// Stable appex-cache tag for a fused replace+relprod call.
    fn fused_seq(&mut self, varset: u32, perm: u32) -> u32 {
        let next = self.fused_ids.len() as u32;
        FUSED_SEQ_BASE | *self.fused_ids.entry((varset, perm)).or_insert(next)
    }

    // ----- variables --------------------------------------------------------

    pub(crate) fn ithvar(&mut self, var: Level) -> u32 {
        assert!(var < self.varcount, "variable out of range");
        self.mk(var, ZERO, ONE)
    }

    pub(crate) fn nithvar(&mut self, var: Level) -> u32 {
        assert!(var < self.varcount, "variable out of range");
        self.mk(var, ONE, ZERO)
    }

    /// The variables of the domains `doms`, each domain's bits
    /// least-significant first, in the order of `doms`.
    pub(crate) fn vars_of(&self, doms: &[DomainId]) -> Vec<Level> {
        doms.iter()
            .flat_map(|d| self.domains[d.0].bits.iter().copied())
            .collect()
    }

    // ----- apply family -----------------------------------------------------

    /// The binary apply `f OP g` for `OP` one of [`AND`], [`OR`], [`XOR`]
    /// and [`DIFF`]. `OP` is also the apply-cache tag; the operands of the
    /// commutative operators are ordered for the cache key.
    pub(crate) fn apply_rec<const OP: u32>(&mut self, f: u32, g: u32) -> u32 {
        let terminal = match OP {
            AND if f == ZERO || g == ZERO => Some(ZERO),
            AND if f == ONE || f == g => Some(g),
            AND if g == ONE => Some(f),
            OR if f == ONE || g == ONE => Some(ONE),
            OR if f == ZERO || f == g => Some(g),
            OR if g == ZERO => Some(f),
            XOR if f == g => Some(ZERO),
            XOR if f == ZERO => Some(g),
            XOR if g == ZERO => Some(f),
            XOR if f == ONE => Some(self.not_rec(g)),
            XOR if g == ONE => Some(self.not_rec(f)),
            DIFF if f == ZERO || g == ONE || f == g => Some(ZERO),
            DIFF if g == ZERO => Some(f),
            DIFF if f == ONE => Some(self.not_rec(g)),
            AND | OR | XOR | DIFF => None,
            _ => unreachable!("apply tag {OP}"),
        };
        if let Some(r) = terminal {
            return r;
        }
        let (a, b) = if OP != DIFF && g < f { (g, f) } else { (f, g) };
        if let Some(r) = self.apply_cache.get(a, b, OP) {
            return r;
        }
        let (lf, lg) = (self.level(f), self.level(g));
        let m = lf.min(lg);
        let (f0, f1) = if lf == m {
            (self.low(f), self.high(f))
        } else {
            (f, f)
        };
        let (g0, g1) = if lg == m {
            (self.low(g), self.high(g))
        } else {
            (g, g)
        };
        let low = self.apply_rec::<OP>(f0, g0);
        self.push_ref(low);
        let high = self.apply_rec::<OP>(f1, g1);
        self.push_ref(high);
        let res = self.mk(m, low, high);
        self.pop_ref(2);
        self.apply_cache.put(a, b, OP, res);
        res
    }

    pub(crate) fn not_rec(&mut self, f: u32) -> u32 {
        if f == ZERO {
            return ONE;
        }
        if f == ONE {
            return ZERO;
        }
        if let Some(r) = self.apply_cache.get(f, NIL, NOT_TAG) {
            return r;
        }
        let (flow, fhigh, flevel) = {
            let n = &self.nodes[f as usize];
            (n.low, n.high, n.level)
        };
        let low = self.not_rec(flow);
        self.push_ref(low);
        let high = self.not_rec(fhigh);
        self.push_ref(high);
        let res = self.mk(flevel, low, high);
        self.pop_ref(2);
        self.apply_cache.put(f, NIL, NOT_TAG, res);
        res
    }

    pub(crate) fn ite_rec(&mut self, f: u32, g: u32, h: u32) -> u32 {
        if f == ONE {
            return g;
        }
        if f == ZERO {
            return h;
        }
        if g == h {
            return g;
        }
        if g == ONE && h == ZERO {
            return f;
        }
        if g == ZERO && h == ONE {
            return self.not_rec(f);
        }
        if let Some(r) = self.ite_cache.get(f, g, h) {
            return r;
        }
        let m = self.level(f).min(self.level(g)).min(self.level(h));
        let cof = |s: &Store, x: u32| {
            if s.level(x) == m {
                (s.low(x), s.high(x))
            } else {
                (x, x)
            }
        };
        let (f0, f1) = cof(self, f);
        let (g0, g1) = cof(self, g);
        let (h0, h1) = cof(self, h);
        let low = self.ite_rec(f0, g0, h0);
        self.push_ref(low);
        let high = self.ite_rec(f1, g1, h1);
        self.push_ref(high);
        let res = self.mk(m, low, high);
        self.pop_ref(2);
        self.ite_cache.put(f, g, h, res);
        res
    }

    // ----- quantification ----------------------------------------------------

    fn set_quant(&mut self, vars: &[Level]) {
        self.quant_set.fill(false);
        self.quant_set.resize(self.varcount as usize, false);
        self.quant_last = 0;
        for &v in vars {
            assert!(v < self.varcount, "quantified variable out of range");
            self.quant_set[v as usize] = true;
            self.quant_last = self.quant_last.max(v);
        }
    }

    /// Existentially quantifies the variables in `vars` out of `f`.
    pub(crate) fn exist(&mut self, f: u32, vars: &[Level]) -> u32 {
        if vars.is_empty() || self.is_term(f) {
            return f;
        }
        self.set_quant(vars);
        let id = self.varset_id(vars);
        self.exist_rec(f, id.wrapping_mul(2))
    }

    fn exist_rec(&mut self, f: u32, seq: u32) -> u32 {
        if self.is_term(f) || self.level(f) > self.quant_last {
            return f;
        }
        if let Some(r) = self.appex_cache.get(f, NIL, seq) {
            return r;
        }
        let (flow, fhigh, flevel) = {
            let n = &self.nodes[f as usize];
            (n.low, n.high, n.level)
        };
        let low = self.exist_rec(flow, seq);
        self.push_ref(low);
        let res = if self.quant_set[flevel as usize] {
            if low == ONE {
                self.pop_ref(1);
                self.appex_cache.put(f, NIL, seq, ONE);
                return ONE;
            }
            let high = self.exist_rec(fhigh, seq);
            self.push_ref(high);
            let r = self.apply_rec::<OR>(low, high);
            self.pop_ref(2);
            r
        } else {
            let high = self.exist_rec(fhigh, seq);
            self.push_ref(high);
            let r = self.mk(flevel, low, high);
            self.pop_ref(2);
            r
        };
        self.appex_cache.put(f, NIL, seq, res);
        res
    }

    /// The relational product `∃ vars. (f ∧ g)`, computed in one pass.
    pub(crate) fn relprod(&mut self, f: u32, g: u32, vars: &[Level]) -> u32 {
        if vars.is_empty() {
            return self.apply_rec::<AND>(f, g);
        }
        self.set_quant(vars);
        let id = self.varset_id(vars);
        self.relprod_rec(f, g, id.wrapping_mul(2).wrapping_add(1))
    }

    fn relprod_rec(&mut self, f: u32, g: u32, seq: u32) -> u32 {
        if f == ZERO || g == ZERO {
            return ZERO;
        }
        let (lf, lg) = (self.level(f), self.level(g));
        if lf > self.quant_last && lg > self.quant_last {
            return self.apply_rec::<AND>(f, g);
        }
        let (a, b) = if f < g { (f, g) } else { (g, f) };
        if let Some(r) = self.appex_cache.get(a, b, seq) {
            return r;
        }
        let m = lf.min(lg);
        let (f0, f1) = if lf == m {
            (self.low(f), self.high(f))
        } else {
            (f, f)
        };
        let (g0, g1) = if lg == m {
            (self.low(g), self.high(g))
        } else {
            (g, g)
        };
        let res = if self.quant_set[m as usize] {
            let low = self.relprod_rec(f0, g0, seq);
            if low == ONE {
                self.appex_cache.put(a, b, seq, ONE);
                return ONE;
            }
            self.push_ref(low);
            let high = self.relprod_rec(f1, g1, seq);
            self.push_ref(high);
            let r = self.apply_rec::<OR>(low, high);
            self.pop_ref(2);
            r
        } else {
            let low = self.relprod_rec(f0, g0, seq);
            self.push_ref(low);
            let high = self.relprod_rec(f1, g1, seq);
            self.push_ref(high);
            let r = self.mk(m, low, high);
            self.pop_ref(2);
            r
        };
        self.appex_cache.put(a, b, seq, res);
        res
    }

    // ----- replace -----------------------------------------------------------

    /// Renames the variables of `f` by `pairs` of `(from, to)` variables:
    /// the simultaneous substitution `f[from := to, ...]`, correct for any
    /// pairing (cycles, swaps, targets already in the support, merges).
    pub(crate) fn replace(&mut self, f: u32, pairs: &[(Level, Level)]) -> u32 {
        let pairs: Vec<(Level, Level)> = pairs.iter().copied().filter(|&(a, b)| a != b).collect();
        if self.is_term(f) || pairs.is_empty() {
            return f;
        }
        self.set_perm(&pairs);
        let id = self.perm_id(&pairs);
        self.replace_rec(f, id)
    }

    /// Installs the permutation for `pairs` of `(from, to)` variables:
    /// `perm` maps each source variable to its target, identity elsewhere.
    fn set_perm(&mut self, pairs: &[(Level, Level)]) {
        self.perm.clear();
        self.perm.extend(0..self.varcount);
        for &(from, to) in pairs {
            assert!(from < self.varcount && to < self.varcount);
            self.perm[from as usize] = to;
        }
    }

    /// Renames bottom-up. A node whose target level lies above both renamed
    /// children is rebuilt in place by `mk`; that is every node of a
    /// rename that keeps the support's order. A node that lands at or below
    /// a renamed child is placed by `ite(var(target), high, low)`, which
    /// is BuDDy's `correctify`.
    fn replace_rec(&mut self, f: u32, seq: u32) -> u32 {
        if self.is_term(f) {
            return f;
        }
        if let Some(r) = self.replace_cache.get(f, NIL, seq) {
            return r;
        }
        let (flow, fhigh, flevel) = {
            let n = &self.nodes[f as usize];
            (n.low, n.high, n.level)
        };
        let low = self.replace_rec(flow, seq);
        self.push_ref(low);
        let high = self.replace_rec(fhigh, seq);
        self.push_ref(high);
        let level = self.perm[flevel as usize];
        let res = if level < self.level(low) && level < self.level(high) {
            self.mk(level, low, high)
        } else {
            let var = self.mk(level, ZERO, ONE);
            self.push_ref(var);
            let r = self.ite_rec(var, high, low);
            self.pop_ref(1);
            r
        };
        self.pop_ref(2);
        self.replace_cache.put(f, NIL, seq, res);
        res
    }

    /// `∃ vars. (replace(f, pairs) ∧ g)`.
    ///
    /// When `pairs` keep the relative order of `f`'s support, this is one
    /// fused traversal with no intermediate BDD: each node of `f` is read
    /// at its translated level `perm[level]`, so the renamed `f` is a
    /// well-formed OBDD that is never materialized. Results are memoized
    /// in the `appex_cache` under a tag derived from the (varset,
    /// permutation) pair. Any other rename is materialized by
    /// [`Store::replace`] and then joined by [`Store::relprod`].
    pub(crate) fn replace_relprod(
        &mut self,
        f: u32,
        g: u32,
        pairs: &[(Level, Level)],
        vars: &[Level],
    ) -> u32 {
        // Pairs whose source is not in the support are no-ops; dropping
        // them keeps `perm_tail` tight.
        let support = self.support(f);
        let live: Vec<(Level, Level)> = pairs
            .iter()
            .copied()
            .filter(|&(a, b)| a != b && support.binary_search(&a).is_ok())
            .collect();
        if live.is_empty() {
            return self.relprod(f, g, vars);
        }
        if !self.replace_is_monotone(&support, &live) {
            let renamed = self.replace(f, &live);
            self.push_ref(renamed);
            let res = self.relprod(renamed, g, vars);
            self.pop_ref(1);
            return res;
        }
        self.set_quant(vars);
        self.set_perm(&live);
        // Levels >= perm_tail are untouched by the permutation; once the
        // recursion is past both it and the last quantified level it can
        // downgrade to the plain AND and share the apply cache.
        let mut tail = self.varcount;
        while tail > 0 && self.perm[tail as usize - 1] == tail - 1 {
            tail -= 1;
        }
        self.perm_tail = tail;
        let vid = self.varset_id(vars);
        let pid = self.perm_id(&live);
        let fseq = self.fused_seq(vid, pid);
        let eseq = vid.wrapping_mul(2);
        self.fused_rec(f, g, fseq, eseq)
    }

    fn fused_rec(&mut self, f: u32, g: u32, fseq: u32, eseq: u32) -> u32 {
        if f == ZERO || g == ZERO {
            return ZERO;
        }
        if f == ONE {
            // replace(1) = 1, so the rest is pure quantification of g.
            return if g == ONE {
                ONE
            } else {
                self.exist_rec(g, eseq)
            };
        }
        let lf = self.level(f);
        let plf = self.perm[lf as usize];
        let lg = self.level(g); // TERM_LEVEL when g == ONE
        if lf >= self.perm_tail && plf > self.quant_last && lg > self.quant_last {
            // No renamed and no quantified variables remain below: plain AND.
            return self.apply_rec::<AND>(f, g);
        }
        if let Some(r) = self.appex_cache.get(f, g, fseq) {
            return r;
        }
        let m = plf.min(lg);
        let (f0, f1) = if plf == m {
            (self.low(f), self.high(f))
        } else {
            (f, f)
        };
        let (g0, g1) = if lg == m {
            (self.low(g), self.high(g))
        } else {
            (g, g)
        };
        let res = if self.quant_set[m as usize] {
            let low = self.fused_rec(f0, g0, fseq, eseq);
            if low == ONE {
                self.appex_cache.put(f, g, fseq, ONE);
                return ONE;
            }
            self.push_ref(low);
            let high = self.fused_rec(f1, g1, fseq, eseq);
            self.push_ref(high);
            let r = self.apply_rec::<OR>(low, high);
            self.pop_ref(2);
            r
        } else {
            let low = self.fused_rec(f0, g0, fseq, eseq);
            self.push_ref(low);
            let high = self.fused_rec(f1, g1, fseq, eseq);
            self.push_ref(high);
            let r = self.mk(m, low, high);
            self.pop_ref(2);
            r
        };
        self.appex_cache.put(f, g, fseq, res);
        res
    }

    /// Checks whether the `(from, to)` pairs are monotone on `support`:
    /// applying the mapping preserves the relative order of the support
    /// variables and does not collide with any unmapped support variable.
    pub(crate) fn replace_is_monotone(&self, support: &[Level], pairs: &[(Level, Level)]) -> bool {
        let mapped: Vec<Level> = support
            .iter()
            .map(|&s| {
                pairs
                    .iter()
                    .find(|&&(from, _)| from == s)
                    .map_or(s, |&(_, to)| to)
            })
            .collect();
        mapped.windows(2).all(|w| w[0] < w[1])
    }

    // ----- structural queries --------------------------------------------------

    /// Every internal node reachable from `f`, each once, in depth-first
    /// order (high child first). The walk flags visited nodes in `marks`
    /// and clears them before returning, so it hashes nothing.
    pub(crate) fn reachable(&mut self, f: u32) -> Vec<u32> {
        if self.marks.len() < self.nodes.len() {
            self.marks.resize(self.nodes.len(), false);
        }
        let mut out = Vec::new();
        let mut stack = vec![f];
        while let Some(u) = stack.pop() {
            if self.is_term(u) || self.marks[u as usize] {
                continue;
            }
            self.marks[u as usize] = true;
            out.push(u);
            let n = &self.nodes[u as usize];
            stack.push(n.low);
            stack.push(n.high);
        }
        for &u in &out {
            self.marks[u as usize] = false;
        }
        out
    }

    /// Returns the support of `f` as a sorted list of variables.
    pub(crate) fn support(&mut self, f: u32) -> Vec<Level> {
        let mut seen = vec![false; self.varcount as usize];
        for u in self.reachable(f) {
            seen[self.nodes[u as usize].level as usize] = true;
        }
        (0..self.varcount).filter(|&v| seen[v as usize]).collect()
    }

    /// Number of distinct internal nodes in `f` (excluding terminals).
    pub(crate) fn node_count(&mut self, f: u32) -> usize {
        self.reachable(f).len()
    }

    /// Every internal node reachable from `f`, children before parents,
    /// with `walk_pos[u]` set to `u`'s index in the result (`f` is last).
    /// Like [`Store::reachable`], the walk flags visited nodes in `marks`
    /// and clears them before returning.
    pub(crate) fn postorder(&mut self, f: u32) -> Vec<u32> {
        let n = self.nodes.len();
        if self.marks.len() < n {
            self.marks.resize(n, false);
        }
        if self.walk_pos.len() < n {
            self.walk_pos.resize(n, 0);
        }
        let mut out = Vec::new();
        // `(u, true)` emits `u`: every child pushed above it is done.
        let mut stack = vec![(f, false)];
        while let Some((u, expanded)) = stack.pop() {
            if expanded {
                self.walk_pos[u as usize] = out.len() as u32;
                out.push(u);
            } else if !self.is_term(u) && !self.marks[u as usize] {
                self.marks[u as usize] = true;
                let node = &self.nodes[u as usize];
                stack.extend([(u, true), (node.low, false), (node.high, false)]);
            }
        }
        for &u in &out {
            self.marks[u as usize] = false;
        }
        out
    }

    /// Folds `f` bottom-up over one [`Store::postorder`] walk. A node's
    /// value is the sum over its children of the child's value weighed by
    /// `scale(v, k)`, where `k` counts the variables skipped on that edge:
    /// those with a level `l` in `from < l < to` count `prefix[to] -
    /// prefix[from + 1]`, terminals sitting at level `varcount`. The root
    /// is weighed likewise for the variables above it.
    fn count_walk<T: Copy>(
        &mut self,
        f: u32,
        prefix: &[u32],
        [zero, one]: [T; 2],
        scale: impl Fn(T, u32) -> T,
        add: impl Fn(T, T) -> T,
    ) -> T {
        let order = self.postorder(f);
        let mut vals: Vec<T> = Vec::with_capacity(order.len());
        let value = |vals: &[T], c: u32| match c {
            ZERO => (zero, self.varcount),
            ONE => (one, self.varcount),
            _ => (vals[self.walk_pos[c as usize] as usize], self.level(c)),
        };
        for &u in &order {
            let n = self.nodes[u as usize];
            let mut v = zero;
            for c in [n.low, n.high] {
                let (cv, cl) = value(&vals, c);
                v = add(
                    v,
                    scale(cv, prefix[cl as usize] - prefix[n.level as usize + 1]),
                );
            }
            vals.push(v);
        }
        let (v, l) = value(&vals, f);
        scale(v, prefix[l as usize])
    }

    /// Exact number of satisfying assignments restricted to the variables
    /// in `vars` (which must cover the support of `f`), saturating at
    /// `u128::MAX`.
    pub(crate) fn satcount_exact(&mut self, f: u32, vars: &[Level]) -> u128 {
        // prefix[l] = how many of `vars` have level < l.
        let mut prefix = vec![0u32; self.varcount as usize + 1];
        for &v in vars {
            prefix[v as usize + 1] = 1;
        }
        for l in 1..prefix.len() {
            prefix[l] += prefix[l - 1];
        }
        let scale =
            |v: u128, bits: u32| v.saturating_mul(1u128.checked_shl(bits).unwrap_or(u128::MAX));
        self.count_walk(f, &prefix, [0, 1], scale, u128::saturating_add)
    }

    /// [`Store::satcount_exact`] through the count memo, keyed by `f` and
    /// the id of the sorted variable set.
    pub(crate) fn satcount_exact_memo(&mut self, f: u32, vars: &[Level]) -> u128 {
        let vid = self.varset_id(vars);
        if let Some(count) = self.count_memo.get(f, vid) {
            return count;
        }
        let count = self.satcount_exact(f, vars);
        self.count_memo.put(f, vid, count);
        count
    }

    /// Number of satisfying assignments over all `varcount` variables.
    pub(crate) fn satcount(&mut self, f: u32) -> f64 {
        let prefix: Vec<u32> = (0..=self.varcount).collect();
        let scale = |v: f64, bits: u32| v * 2f64.powi(bits as i32);
        self.count_walk(f, &prefix, [0.0, 1.0], scale, |a, b| a + b)
    }
}

/// Mutation tests of the kernel sanitizer: each test seeds one specific
/// corruption directly into the store's private structures and asserts
/// [`Store::check_invariants`] names it. A sanitizer only ever exercised
/// on healthy tables proves nothing.
#[cfg(test)]
mod sanitize_tests {
    use super::*;

    fn store_with_chain() -> (Store, u32, u32) {
        let mut s = Store::new(4, 1 << 12);
        let a = s.mk(2, ZERO, ONE);
        let b = s.mk(1, a, ONE);
        (s, a, b)
    }

    #[test]
    fn clean_store_passes() {
        let (s, _, _) = store_with_chain();
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn duplicate_unique_table_node_is_caught() {
        let (mut s, a, _) = store_with_chain();
        let (level, low, high) = (s.level(a), s.low(a), s.high(a));
        // Replay `mk`'s allocation tail without the lookup: a second
        // (level, low, high) node enters the table.
        let slot = hash3(level, low, high) & s.bucket_mask;
        let idx = s.alloc_slot(Node {
            level,
            low,
            high,
            refcount: 0,
            next: s.buckets[slot],
        });
        s.buckets[slot] = idx;
        let err = s.check_invariants().unwrap_err();
        assert!(err.contains("duplicate unique-table node"), "{err}");
    }

    #[test]
    fn index_past_the_used_prefix_is_caught() {
        // Slots past the used prefix were never written: any index that
        // reaches one — a bucket head, a child, a free-list link or a cache
        // entry — points at reserved but meaningless memory.
        fn past(s: &Store) -> u32 {
            s.nodes.len() as u32 + 5
        }
        let plants: [fn(&mut Store, u32, u32); 4] = [
            |s, _, _| {
                let b = s.buckets.iter().position(|&h| h == NIL).unwrap();
                s.buckets[b] = past(s);
            },
            |s, a, _| s.nodes[a as usize].low = past(s),
            |s, _, _| {
                s.free_head = past(s);
                s.free_count = 1;
            },
            |s, a, b| {
                let p = past(s);
                s.client_put(a, b, 7, p);
            },
        ];
        for plant in plants {
            let (mut s, a, b) = store_with_chain();
            assert!(past(&s) < s.capacity as u32, "index inside the reservation");
            plant(&mut s, a, b);
            let err = s.check_invariants().unwrap_err();
            assert!(
                err.contains(&format!("{} ", past(&s))) && err.contains("past the used prefix"),
                "{err}"
            );
        }
    }

    #[test]
    fn new_store_allocates_min_buckets_not_capacity() {
        let s = Store::new(4, 1 << 20);
        assert_eq!(s.capacity, 1 << 20);
        assert_eq!(s.buckets.len(), MIN_BUCKETS);
        assert_eq!(s.bucket_mask, MIN_BUCKETS - 1);
    }

    #[test]
    fn bucket_array_shorter_than_the_used_prefix_is_caught() {
        // Shrink the bucket array without rehashing: nodes past its end can
        // no longer be found, and `mk` would duplicate them.
        let (mut s, _, _) = store_with_chain();
        s.buckets.truncate(2);
        s.bucket_mask = 1;
        let err = s.check_invariants().unwrap_err();
        assert!(
            err.contains("bucket array of 2 is shorter than the used prefix of 4 slots"),
            "{err}"
        );
        let (mut s, _, _) = store_with_chain();
        s.buckets.truncate(MIN_BUCKETS - 1);
        let err = s.check_invariants().unwrap_err();
        assert!(err.contains("is not a power of two"), "{err}");
    }

    #[test]
    fn unreduced_node_is_caught() {
        let (mut s, a, _) = store_with_chain();
        s.nodes[a as usize].high = s.nodes[a as usize].low;
        let err = s.check_invariants().unwrap_err();
        assert!(err.contains("unreduced"), "{err}");
    }

    #[test]
    fn level_ordering_violation_is_caught() {
        let (mut s, _, b) = store_with_chain();
        // `b` (level 1) points at `a` (level 2); dragging `b` below its
        // child breaks the ordering invariant along that edge.
        s.nodes[b as usize].level = 3;
        let err = s.check_invariants().unwrap_err();
        assert!(err.contains("violates ordering"), "{err}");
    }

    #[test]
    fn node_off_its_bucket_chain_is_caught() {
        let (mut s, a, _) = store_with_chain();
        // Unlink `a` from its bucket: still live, no longer findable —
        // the next `mk` of the same triple would create a duplicate.
        let n = s.nodes[a as usize];
        let slot = hash3(n.level, n.low, n.high) & s.bucket_mask;
        if s.buckets[slot] == a {
            s.buckets[slot] = n.next;
        } else {
            let mut cur = s.buckets[slot];
            while s.nodes[cur as usize].next != a {
                cur = s.nodes[cur as usize].next;
            }
            s.nodes[cur as usize].next = n.next;
        }
        let err = s.check_invariants().unwrap_err();
        assert!(err.contains("missing from bucket"), "{err}");
    }

    #[test]
    fn node_on_a_foreign_bucket_chain_is_caught() {
        let (mut s, a, _) = store_with_chain();
        // A stale head left behind by a rehash: `a` stays on its own chain
        // but is linked from a bucket it does not hash to as well.
        let n = s.nodes[a as usize];
        let own = hash3(n.level, n.low, n.high) & s.bucket_mask;
        let b = (own + 1) & s.bucket_mask;
        assert_eq!(s.buckets[b], NIL);
        s.buckets[b] = a;
        let err = s.check_invariants().unwrap_err();
        assert!(
            err.contains(&format!(
                "node {a} on bucket {b} chain hashes to bucket {own}"
            )),
            "{err}"
        );
    }

    #[test]
    fn free_count_drift_is_caught() {
        let (mut s, _, _) = store_with_chain();
        s.free_count += 1;
        let err = s.check_invariants().unwrap_err();
        assert!(err.contains("free list holds"), "{err}");
    }

    #[test]
    fn stray_mark_is_caught() {
        let (mut s, a, b) = store_with_chain();
        assert_eq!(s.node_count(b), 2, "the walk leaves no mark behind");
        assert_eq!(s.check_invariants(), Ok(()));
        s.marks[a as usize] = true;
        let err = s.check_invariants().unwrap_err();
        assert!(
            err.contains(&format!("node {a} carries a stray mark")),
            "{err}"
        );
    }

    #[test]
    fn terminal_corruption_is_caught() {
        let (mut s, _, _) = store_with_chain();
        s.nodes[ONE as usize].low = ZERO;
        let err = s.check_invariants().unwrap_err();
        assert!(err.contains("terminal 1 corrupted"), "{err}");
    }

    #[test]
    fn stale_cache_entry_is_caught() {
        let (mut s, a, b) = store_with_chain();
        // Nothing is externally referenced, so a collection frees the
        // chain; an entry seeded afterwards names dead slots — exactly
        // what a missed revalidation would leave behind.
        s.gc();
        assert_eq!(s.nodes[a as usize].low, NIL, "gc freed the chain");
        s.client_put(a, b, 7, ONE);
        let err = s.check_invariants().unwrap_err();
        assert!(
            err.contains("client cache entry") && err.contains("dead node"),
            "{err}"
        );
    }

    #[test]
    fn dead_count_memo_root_is_caught() {
        let (mut s, a, b) = store_with_chain();
        assert_eq!(s.satcount_exact_memo(b, &[1, 2]), 3);
        // The collection frees `b` and revalidation drops its entry; one
        // seeded afterwards names a dead root.
        s.gc();
        assert_eq!(s.check_invariants(), Ok(()));
        s.count_memo.put(a, 0, 1);
        let err = s.check_invariants().unwrap_err();
        assert!(
            err.contains(&format!("count memo entry for root {a}")) && err.contains("dead node"),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "bdd sanitizer (public-op entry)")]
    fn public_op_entry_panics_on_seeded_corruption() {
        let (mut s, a, _) = store_with_chain();
        s.sanitize = true;
        s.nodes[a as usize].high = s.nodes[a as usize].low;
        // First sampled entry (op counter 1) runs the audit.
        s.enter_public_op();
    }
}
