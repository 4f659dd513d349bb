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
use crate::order::{ReorderStats, VarOrder};
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

/// Default max-growth factor of a sifting pass: a sweep direction is
/// abandoned once the table exceeds this multiple of the best size seen
/// for the block being sifted (Rudell's bound; BuDDy ships 1.2 as well).
pub(crate) const DEFAULT_MAX_GROWTH: f64 = 1.2;

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
    /// caches' lifecycle — revalidated after GC, cleared by reordering —
    /// so a warm entry always names live nodes.
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
    pub(crate) domains: Vec<DomainData>,
    pub(crate) domain_names: HashMap<String, usize>,
    /// Level↔variable bijection; public API speaks variables, nodes carry
    /// levels, and dynamic reordering permutes this mapping.
    pub(crate) order: VarOrder,
    /// Live-node threshold that arms an automatic sift (None = disabled).
    pub(crate) auto_reorder_threshold: Option<usize>,
    /// Armed by `reclaim` when the threshold is crossed; fired at the next
    /// public operation entry, where the refstack is empty.
    auto_reorder_pending: bool,
    pub(crate) reorder_runs: usize,
    /// Kernel sanitizer switch: run [`Store::check_invariants`] at public
    /// operation entry (sampled), after every node-freeing GC and after
    /// every reordering pass. Defaults from the `sanitize` cargo feature,
    /// overridable either way by `WHALE_SANITIZE=1`/`WHALE_SANITIZE=0`.
    pub(crate) sanitize: bool,
    /// Public-op counter driving the sampled entry-point checks.
    sanitize_ops: u32,
}

/// How often the sampled entry-point check fires: a full table + cache
/// audit is O(nodes + cache entries), too heavy for literally every public
/// operation, so entry points check every `SANITIZE_STRIDE`th call (GC and
/// reorder — the events that actually move nodes — always check).
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
            domains: Vec::new(),
            domain_names: HashMap::new(),
            order: VarOrder::new(varcount),
            auto_reorder_threshold: None,
            auto_reorder_pending: false,
            reorder_runs: 0,
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
        self.insert_new(slot, level, low, high)
    }

    /// Allocates the node `(level, low, high)`, which the caller looked up
    /// and did not find, chains it into `slot` and returns its index. If
    /// the allocation extends the used prefix past the bucket count, the
    /// bucket array doubles and the prefix is rehashed into it.
    fn insert_new(&mut self, slot: usize, level: u32, low: u32, high: u32) -> u32 {
        let idx = self.alloc_slot(Node {
            level,
            low,
            high,
            refcount: 0,
            next: self.buckets[slot],
        });
        self.buckets[slot] = idx;
        if self.nodes.len() > self.buckets.len() {
            self.rehash(self.buckets.len() * 2);
        }
        idx
    }

    /// Replaces the bucket array by one of `len` (a power of two) empty
    /// buckets and chains every live node of the used prefix into it, lowest
    /// index first in each chain. Every live node must be chained under its
    /// current fields on entry; free slots keep their free-list links.
    fn rehash(&mut self, len: usize) {
        debug_assert!(len.is_power_of_two() && len >= self.nodes.len());
        self.buckets.clear();
        self.buckets.resize(len, NIL);
        self.bucket_mask = len - 1;
        for i in (2..self.nodes.len()).rev() {
            if self.nodes[i].low != NIL {
                self.bucket_insert(i as u32);
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
        if let Some(t) = self.auto_reorder_threshold {
            if self.live_count() >= t {
                // Can't sift here — the refstack holds an operation's
                // intermediates. Arm the trigger; the next public entry
                // point runs the pass.
                self.auto_reorder_pending = true;
            }
        }
    }

    pub(crate) fn gc(&mut self) {
        self.peak_live = self.peak_live.max(self.live_count());
        // Only the used prefix is scanned: slots past it were never written.
        self.marks.resize(self.nodes.len(), false);
        // Mark phase: externally referenced nodes and the kernel refstack.
        for i in 2..self.nodes.len() {
            if self.nodes[i].refcount > 0 && self.nodes[i].low != NIL {
                self.mark(i as u32);
            }
        }
        let roots: Vec<u32> = self.refstack.clone();
        for r in roots {
            self.mark(r);
        }
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

    /// Public-operation entry hook: fires a pending automatic reorder,
    /// which is only safe here, where the refstack is empty. With the
    /// sanitizer enabled, every `SANITIZE_STRIDE`th entry also audits the
    /// full table and caches.
    pub(crate) fn enter_public_op(&mut self) {
        if self.sanitize {
            self.sanitize_ops = self.sanitize_ops.wrapping_add(1);
            if self.sanitize_ops % SANITIZE_STRIDE == 1 {
                self.sanitize_check("public-op entry");
            }
        }
        self.maybe_auto_reorder();
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
    /// and the bucket array follows them there ([`Store::insert_new`]).
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
        let level = self.order.level_of(var);
        self.mk(level, ZERO, ONE)
    }

    pub(crate) fn nithvar(&mut self, var: Level) -> u32 {
        assert!(var < self.varcount, "variable out of range");
        let level = self.order.level_of(var);
        self.mk(level, ONE, ZERO)
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
            let l = self.order.level_of(v);
            self.quant_set[l as usize] = true;
            self.quant_last = self.quant_last.max(l);
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

    /// Renames variables of `f` according to `pairs` of `(from, to)` levels.
    ///
    /// The fast path applies when the induced level mapping is monotone on
    /// the support of `f`; otherwise the caller (the manager) falls back to a
    /// conjoin-and-quantify rename.
    pub(crate) fn replace_monotone(&mut self, f: u32, pairs: &[(Level, Level)]) -> u32 {
        if self.is_term(f) || pairs.is_empty() {
            return f;
        }
        self.set_perm(pairs);
        let id = self.perm_id(pairs);
        self.replace_rec(f, id)
    }

    /// Installs the level-space permutation for `pairs` of `(from, to)`
    /// variables: `perm` maps the *level* of each source variable to the
    /// *level* of its target, identity elsewhere.
    fn set_perm(&mut self, pairs: &[(Level, Level)]) {
        self.perm.clear();
        self.perm.extend(0..self.varcount);
        for &(from, to) in pairs {
            assert!(from < self.varcount && to < self.varcount);
            let (fl, tl) = (self.order.level_of(from), self.order.level_of(to));
            self.perm[fl as usize] = tl;
        }
    }

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
        let res = self.mk(self.perm[flevel as usize], low, high);
        self.pop_ref(2);
        self.replace_cache.put(f, NIL, seq, res);
        res
    }

    /// The fused kernel: `∃ vars. (replace(f, pairs) ∧ g)` in a single
    /// traversal with no intermediate BDD.
    ///
    /// The rename is applied *during* the AND-∃ recursion: each node of `f`
    /// is read at its translated level `perm[level]`, which is sound
    /// because the caller guarantees `pairs` is monotone on the support of
    /// `f` (translation preserves the relative order of `f`'s nodes, so
    /// the renamed `f` is a well-formed OBDD that is never materialized).
    /// Results are memoized in the `appex_cache` under a tag derived from
    /// the (varset, permutation) pair.
    pub(crate) fn replace_relprod(
        &mut self,
        f: u32,
        g: u32,
        pairs: &[(Level, Level)],
        vars: &[Level],
    ) -> u32 {
        if pairs.is_empty() {
            return if vars.is_empty() {
                self.apply_rec::<AND>(f, g)
            } else {
                self.relprod(f, g, vars)
            };
        }
        self.set_quant(vars);
        self.set_perm(pairs);
        // Levels >= perm_tail are untouched by the permutation; once the
        // recursion is past both it and the last quantified level it can
        // downgrade to the plain AND and share the apply cache.
        let mut tail = self.varcount;
        while tail > 0 && self.perm[tail as usize - 1] == tail - 1 {
            tail -= 1;
        }
        self.perm_tail = tail;
        let vid = self.varset_id(vars);
        let pid = self.perm_id(pairs);
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

    /// Checks whether the `(from, to)` pairs are monotone on `support`
    /// under the *current* variable order: applying the mapping preserves
    /// the relative level order of the support variables and does not
    /// collide with any unmapped support variable.
    pub(crate) fn replace_is_monotone(&self, support: &[Level], pairs: &[(Level, Level)]) -> bool {
        let mut mapped: Vec<(Level, Level)> = support
            .iter()
            .map(|&s| {
                let to = pairs
                    .iter()
                    .find(|&&(from, _)| from == s)
                    .map(|&(_, to)| to)
                    .unwrap_or(s);
                (self.order.level_of(s), self.order.level_of(to))
            })
            .collect();
        mapped.sort_unstable_by_key(|&(sl, _)| sl);
        mapped.windows(2).all(|w| w[0].1 < w[1].1)
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
            seen[self.order.var_at(self.nodes[u as usize].level) as usize] = true;
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
            prefix[self.order.level_of(v) as usize + 1] = 1;
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

    // ----- dynamic reordering -------------------------------------------------
    //
    // In-place Rudell sifting. The invariants (see DESIGN.md):
    //
    //   * node indices are stable — external `Bdd` handles survive because a
    //     node whose function changes shape is rewritten *in place*;
    //   * a swap of levels (l, l+1) touches only nodes at those two levels;
    //   * only old level-(l+1) nodes can die during a swap, and deaths never
    //     cascade deeper (a dying node's children are always retained by the
    //     rewritten nodes' new children);
    //   * the unique table stays canonical at every intermediate step.

    /// Removes `idx` from its hash bucket (keyed by its current fields).
    fn bucket_remove(&mut self, idx: u32) {
        let n = self.nodes[idx as usize];
        let slot = hash3(n.level, n.low, n.high) & self.bucket_mask;
        let mut cur = self.buckets[slot];
        if cur == idx {
            self.buckets[slot] = n.next;
            return;
        }
        while cur != NIL {
            let next = self.nodes[cur as usize].next;
            if next == idx {
                self.nodes[cur as usize].next = n.next;
                return;
            }
            cur = next;
        }
        unreachable!("node {idx} not found in its unique-table bucket");
    }

    /// Chains `idx` into the bucket for its current `(level, low, high)`.
    fn bucket_insert(&mut self, idx: u32) {
        let n = self.nodes[idx as usize];
        let slot = hash3(n.level, n.low, n.high) & self.bucket_mask;
        self.nodes[idx as usize].next = self.buckets[slot];
        self.buckets[slot] = idx;
    }

    /// Builds the bookkeeping for a reordering pass: total reference counts
    /// (external + one per table parent) and per-level node lists. Runs a
    /// collection first so dead nodes don't distort sifting scores.
    fn build_reorder_ctx(&mut self) -> ReorderCtx {
        assert!(
            self.refstack.is_empty(),
            "reorder attempted while an operation is in flight"
        );
        self.gc();
        let len = self.nodes.len();
        let mut ctx = ReorderCtx {
            rc: vec![0; len],
            lists: vec![Vec::new(); self.varcount as usize],
            pos: vec![0; len],
        };
        for i in 2..len {
            let n = self.nodes[i];
            if n.low == NIL {
                continue; // free slot
            }
            ctx.rc[i] += n.refcount as u64;
            ctx.rc[n.low as usize] += 1;
            ctx.rc[n.high as usize] += 1;
            ctx.pos[i] = ctx.lists[n.level as usize].len() as u32;
            ctx.lists[n.level as usize].push(i as u32);
        }
        ctx
    }

    /// Finds or creates the node `(level, low, high)` during a swap, keeping
    /// the reorder context's refcounts and level lists current. Unlike
    /// [`Store::mk`] this never collects: the caller pre-reserved capacity.
    fn swap_node(&mut self, level: u32, low: u32, high: u32, ctx: &mut ReorderCtx) -> u32 {
        if low == high {
            return low;
        }
        let slot = hash3(level, low, high) & self.bucket_mask;
        let mut cur = self.buckets[slot];
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            if n.level == level && n.low == low && n.high == high {
                return cur;
            }
            cur = n.next;
        }
        debug_assert!(
            self.free_slots() > 0,
            "swap ran out of pre-reserved capacity"
        );
        let idx = self.insert_new(slot, level, low, high);
        if idx as usize >= ctx.rc.len() {
            // A never-used slot: the context covers the used prefix only.
            ctx.rc.resize(idx as usize + 1, 0);
            ctx.pos.resize(idx as usize + 1, 0);
        }
        ctx.rc[idx as usize] = 0;
        ctx.rc[low as usize] += 1;
        ctx.rc[high as usize] += 1;
        ctx.pos[idx as usize] = ctx.lists[level as usize].len() as u32;
        ctx.lists[level as usize].push(idx);
        idx
    }

    /// Releases one reference to `f` held by a rewritten node. If that was
    /// the last reference, `f` — necessarily an old lower-level node, now
    /// labeled `l` — is freed on the spot so `live_count` stays exact for
    /// sifting scores. Deaths never cascade: the dying node's children are
    /// still referenced by the rewritten node's new children.
    fn swap_deref(&mut self, f: u32, l: u32, ctx: &mut ReorderCtx) {
        if f <= ONE {
            return;
        }
        ctx.rc[f as usize] -= 1;
        if ctx.rc[f as usize] != 0 {
            return;
        }
        debug_assert_eq!(self.nodes[f as usize].level, l);
        debug_assert_eq!(self.nodes[f as usize].refcount, 0);
        self.bucket_remove(f);
        let n = self.nodes[f as usize];
        for c in [n.low, n.high] {
            if c > ONE {
                ctx.rc[c as usize] -= 1;
                debug_assert!(ctx.rc[c as usize] > 0, "cascading death in swap");
            }
        }
        let p = ctx.pos[f as usize] as usize;
        let list = &mut ctx.lists[l as usize];
        list.swap_remove(p);
        if p < list.len() {
            ctx.pos[list[p] as usize] = p as u32;
        }
        self.nodes[f as usize] = FREE_NODE;
        self.nodes[f as usize].next = self.free_head;
        self.free_head = f;
        self.free_count += 1;
    }

    /// Swaps adjacent levels `l` and `l + 1` in place.
    ///
    /// Writing `u` for the variable at level `l` and `v` for the one below:
    /// every `v`-node is relabeled one level up (phase A); `u`-nodes not
    /// depending on `v` are relabeled one level down (phase B1); `u`-nodes
    /// depending on `v` are rewritten in place to test `v` first, with their
    /// two new children looked up or created at level `l + 1` (phase B2).
    /// Phase order matters for canonicity: B2's lookups at level `l + 1`
    /// must see every B1-relabeled node, and no still-at-`l + 1` `v`-node.
    pub(crate) fn swap_adjacent(&mut self, l: u32, ctx: &mut ReorderCtx) {
        debug_assert!(l + 1 < self.varcount);
        let (lu, lv) = (l as usize, l as usize + 1);
        // Reserve enough free slots that phase B2 never allocates from an
        // empty list (each dependent node creates at most two children).
        let need = 2 * ctx.lists[lu].len() + 2;
        while self.free_slots() < need {
            self.grow();
        }
        let unodes = std::mem::take(&mut ctx.lists[lu]);
        let vnodes = std::mem::take(&mut ctx.lists[lv]);
        // Phase A: old lower-level nodes move up to level l.
        for &v in &vnodes {
            self.bucket_remove(v);
            self.nodes[v as usize].level = l;
            self.bucket_insert(v);
            ctx.pos[v as usize] = ctx.lists[lu].len() as u32;
            ctx.lists[lu].push(v);
        }
        // Phase B1: upper-level nodes independent of v move down untouched.
        let mut dependent = Vec::new();
        for &u in &unodes {
            let n = self.nodes[u as usize];
            // v-nodes sit at level l now; u's children were at > l before.
            if self.level(n.low) == l || self.level(n.high) == l {
                dependent.push(u);
            } else {
                self.bucket_remove(u);
                self.nodes[u as usize].level = l + 1;
                self.bucket_insert(u);
                ctx.pos[u as usize] = ctx.lists[lv].len() as u32;
                ctx.lists[lv].push(u);
            }
        }
        // Phase B2: rewrite v-dependent nodes in place, preserving indices.
        for &u in &dependent {
            let n = self.nodes[u as usize];
            let (f0, f1) = (n.low, n.high);
            let (f00, f01) = if self.level(f0) == l {
                (self.low(f0), self.high(f0))
            } else {
                (f0, f0)
            };
            let (f10, f11) = if self.level(f1) == l {
                (self.low(f1), self.high(f1))
            } else {
                (f1, f1)
            };
            // `u` stays chained under its old fields until both children
            // exist: a `swap_node` allocation may rehash the used prefix,
            // which chains every live node under the fields it has then.
            // The lookups are at level l + 1, so they cannot find `u`.
            let a = self.swap_node(l + 1, f00, f10, ctx);
            let b = self.swap_node(l + 1, f01, f11, ctx);
            debug_assert_ne!(a, b, "rewritten node collapsed to a redundant test");
            self.bucket_remove(u);
            {
                let n = &mut self.nodes[u as usize];
                n.level = l;
                n.low = a;
                n.high = b;
            }
            self.bucket_insert(u);
            ctx.pos[u as usize] = ctx.lists[lu].len() as u32;
            ctx.lists[lu].push(u);
            ctx.rc[a as usize] += 1;
            ctx.rc[b as usize] += 1;
            self.swap_deref(f0, l, ctx);
            self.swap_deref(f1, l, ctx);
        }
        self.order.swap_levels(l);
    }

    /// One externally driven adjacent-level swap (a testing and diagnostic
    /// building block — it pays the full O(table) context build per call,
    /// where a sifting pass amortizes it).
    pub(crate) fn swap_levels_once(&mut self, l: u32) {
        assert!(l + 1 < self.varcount, "swap level out of range");
        let mut ctx = self.build_reorder_ctx();
        self.swap_adjacent(l, &mut ctx);
        self.peak_live = self.peak_live.max(self.live_count());
        // Cache entries may name nodes freed by the swap.
        self.clear_caches();
    }

    /// Swaps the blocks at layout positions `i` and `i + 1` by sinking each
    /// variable of the upper block past the whole lower block, bottom
    /// variable first — relative order inside both blocks is preserved.
    fn block_swap(
        &mut self,
        layout: &mut [(u32, u32)],
        i: usize,
        ctx: &mut ReorderCtx,
        swaps: &mut usize,
    ) {
        let p: u32 = layout[..i].iter().map(|&(_, w)| w).sum();
        let (a, b) = (layout[i].1, layout[i + 1].1);
        for j in (0..a).rev() {
            for s in 0..b {
                self.swap_adjacent(p + j + s, ctx);
                *swaps += 1;
            }
        }
        layout.swap(i, i + 1);
    }

    /// Sifts one block (identified by `id`) through every layout position,
    /// then parks it at the best one seen. Sweeps abandon a direction once
    /// the table grows past `max_growth` times the best size so far.
    fn sift_block(
        &mut self,
        layout: &mut [(u32, u32)],
        id: u32,
        max_growth: f64,
        ctx: &mut ReorderCtx,
        swaps: &mut usize,
        peak: &mut usize,
    ) {
        let mut p = layout
            .iter()
            .position(|&(b, _)| b == id)
            .expect("block present in layout");
        let nblocks = layout.len();
        let mut best = self.live_count();
        let mut best_pos = p;
        let bound = |best: usize| (best as f64 * max_growth) as usize + 2;
        // Sweep down to the bottom.
        while p + 1 < nblocks {
            self.block_swap(layout, p, ctx, swaps);
            p += 1;
            let sz = self.live_count();
            *peak = (*peak).max(sz);
            if sz < best {
                best = sz;
                best_pos = p;
            } else if sz > bound(best) {
                break;
            }
        }
        // Sweep up to the top.
        while p > 0 {
            self.block_swap(layout, p - 1, ctx, swaps);
            p -= 1;
            let sz = self.live_count();
            *peak = (*peak).max(sz);
            if sz < best {
                best = sz;
                best_pos = p;
            } else if sz > bound(best) {
                break;
            }
        }
        // Park at the best position seen.
        while p < best_pos {
            self.block_swap(layout, p, ctx, swaps);
            p += 1;
        }
        while p > best_pos {
            self.block_swap(layout, p - 1, ctx, swaps);
            p -= 1;
        }
    }

    /// One sifting pass: every block, largest first, is moved to its locally
    /// optimal position. Blocks are the ordering groups fixed at manager
    /// construction (interleaved domains travel together); if external
    /// swaps have torn a group apart, the pass degrades to sifting single
    /// variables, which is always sound.
    pub(crate) fn sift(&mut self, max_growth: f64) -> ReorderStats {
        let mut stats = ReorderStats::default();
        if self.varcount < 2 {
            let live = self.live_count();
            stats.nodes_before = live;
            stats.nodes_after = live;
            return stats;
        }
        let mut ctx = self.build_reorder_ctx();
        stats.nodes_before = self.live_count();
        let mut peak = stats.nodes_before;
        let mut layout: Vec<(u32, u32)> = self
            .order
            .block_layout()
            .unwrap_or_else(|| (0..self.varcount).map(|l| (l, 1)).collect());
        // Initial node mass per block decides the sift order (largest
        // first, Rudell's heuristic) — measured once, before anything moves.
        let mut mass: Vec<(usize, u32)> = Vec::with_capacity(layout.len());
        let mut lvl = 0usize;
        for &(id, w) in &layout {
            let m: usize = (lvl..lvl + w as usize).map(|l| ctx.lists[l].len()).sum();
            mass.push((m, id));
            lvl += w as usize;
        }
        mass.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, id) in &mass {
            self.sift_block(
                &mut layout,
                id,
                max_growth,
                &mut ctx,
                &mut stats.swaps,
                &mut peak,
            );
        }
        self.peak_live = self.peak_live.max(peak);
        stats.nodes_after = self.live_count();
        self.reorder_runs += 1;
        if stats.swaps > 0 {
            // Entries may name nodes freed during the pass.
            self.clear_caches();
        }
        if self.sanitize {
            self.sanitize_check("after reorder");
        }
        stats
    }

    /// Fires a pending automatic sift, if armed and safe (no operation in
    /// flight). Called from public operation entry points.
    pub(crate) fn maybe_auto_reorder(&mut self) {
        if !self.auto_reorder_pending || !self.refstack.is_empty() {
            return;
        }
        self.auto_reorder_pending = false;
        let stats = self.sift(DEFAULT_MAX_GROWTH);
        // Back off: don't rearm until the table doubles past the sifted
        // size, or thrashing would eat the savings.
        if let Some(t) = &mut self.auto_reorder_threshold {
            *t = (*t).max(stats.nodes_after * 2);
        }
    }
}

/// Transient bookkeeping of one reordering pass.
pub(crate) struct ReorderCtx {
    /// Total references per node: external refcount + one per table parent.
    rc: Vec<u64>,
    /// Table nodes at each level.
    lists: Vec<Vec<u32>>,
    /// Index of each node in its level list (for O(1) removal).
    pos: Vec<u32>,
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
