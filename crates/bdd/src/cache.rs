//! Set-associative operation caches for the BDD kernel.
//!
//! Each cache is a fixed-size, 4-way set-associative table whose sets are
//! exactly one 64-byte cache line, so a lookup touches one line. A set is
//! a newest-first queue: an insertion shifts the ways down and writes at
//! way 0, so a full set evicts its oldest insertion. An entry whose `a`
//! field is `NIL` is empty. After a garbage collection that actually freed
//! nodes, [`Cache::revalidate`] drops every entry naming a freed node and
//! compacts each set — warm memoization state survives GC instead of being
//! thrown away wholesale.

pub(crate) const NIL: u32 = u32::MAX;

/// Associativity: entries per set.
const WAYS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Entry {
    a: u32,
    b: u32,
    c: u32,
    res: u32,
}

const EMPTY: Entry = Entry {
    a: NIL,
    b: NIL,
    c: NIL,
    res: NIL,
};

/// One set: four 16-byte entries filling one cache line, newest first.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Set([Entry; WAYS]);

const EMPTY_SET: Set = Set([EMPTY; WAYS]);

/// Hit/miss/eviction counters of one cache, cumulative over its lifetime
/// (preserved across `Cache::clear`, `Cache::revalidate` and resizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that returned a memoized result.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Insertions that displaced a valid entry from a full set.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when no lookups ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A 4-way set-associative cache keyed by up to three `u32` operands.
pub(crate) struct Cache {
    sets: Vec<Set>,
    set_mask: usize,
    pub(crate) stats: CacheStats,
}

#[inline]
fn mix(a: u32, b: u32, c: u32) -> usize {
    // Cheap multiplicative hash over the three operands.
    let mut h = (a as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= (b as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    h ^= (c as u64).wrapping_mul(0x1656_67b1_9e37_79f9);
    h ^= h >> 29;
    h as usize
}

impl Cache {
    /// Creates a cache with `1 << log2_size` entries (at least one full set).
    pub(crate) fn new(log2_size: u32) -> Self {
        let sets = ((1usize << log2_size) / WAYS).max(1);
        Cache {
            sets: vec![EMPTY_SET; sets],
            set_mask: sets - 1,
            stats: CacheStats::default(),
        }
    }

    /// Log2 of the entry count.
    pub(crate) fn log2_size(&self) -> u32 {
        (self.sets.len() * WAYS).ilog2()
    }

    /// Bytes held by the set array.
    pub(crate) fn bytes(&self) -> usize {
        self.sets.len() * std::mem::size_of::<Set>()
    }

    #[inline]
    fn set_of(&self, a: u32, b: u32, c: u32) -> usize {
        mix(a, b, c) & self.set_mask
    }

    #[inline]
    pub(crate) fn get(&mut self, a: u32, b: u32, c: u32) -> Option<u32> {
        let set = &self.sets[self.set_of(a, b, c)].0;
        for e in set {
            if e.a == a && e.b == b && e.c == c {
                self.stats.hits += 1;
                return Some(e.res);
            }
        }
        self.stats.misses += 1;
        None
    }

    #[inline]
    pub(crate) fn put(&mut self, a: u32, b: u32, c: u32, res: u32) {
        let s = self.set_of(a, b, c);
        let set = &mut self.sets[s].0;
        if let Some(e) = set.iter_mut().find(|e| e.a == a && e.b == b && e.c == c) {
            e.res = res;
            return;
        }
        if set[WAYS - 1].a != NIL {
            self.stats.evictions += 1;
        }
        set.copy_within(0..WAYS - 1, 1);
        set[0] = Entry { a, b, c, res };
    }

    /// Drops every entry. Writes the whole table; runs only on request.
    pub(crate) fn clear(&mut self) {
        self.sets.fill(EMPTY_SET);
    }

    /// GC invalidation: drops entries with a node-valued field that fails
    /// `live` and compacts each set, keeping the survivors' order. Called
    /// only after a collection that freed nodes, before any freed slot can
    /// be reused.
    ///
    /// `b_is_node`/`c_is_node` describe the key layout: the `b`/`c` slots
    /// hold node indices (checked, `NIL` allowed) or opaque tags (skipped).
    pub(crate) fn revalidate(
        &mut self,
        live: impl Fn(u32) -> bool,
        b_is_node: bool,
        c_is_node: bool,
    ) {
        for Set(set) in &mut self.sets {
            let mut kept = 0;
            for w in 0..WAYS {
                let e = set[w];
                if e.a == NIL {
                    break;
                }
                if live(e.a)
                    && live(e.res)
                    && (!b_is_node || e.b == NIL || live(e.b))
                    && (!c_is_node || e.c == NIL || live(e.c))
                {
                    set[kept] = e;
                    kept += 1;
                }
            }
            set[kept..].fill(EMPTY);
        }
    }

    /// Sanitizer audit: every non-empty entry must name only live nodes,
    /// under the same key layout [`Cache::revalidate`] uses; `fault` says
    /// what is wrong with any other node. A violation means an entry
    /// survived a GC that freed one of its nodes — a stale hit
    /// waiting to happen once the slot is reallocated.
    pub(crate) fn check(
        &self,
        fault: impl Fn(u32) -> Option<&'static str>,
        b_is_node: bool,
        c_is_node: bool,
    ) -> Result<(), String> {
        let entries = self.sets.iter().flat_map(|s| s.0.iter());
        for (i, e) in entries.enumerate() {
            if e.a == NIL {
                continue;
            }
            for (field, node, is_node) in [
                ("a", e.a, true),
                ("res", e.res, true),
                ("b", e.b, b_is_node && e.b != NIL),
                ("c", e.c, c_is_node && e.c != NIL),
            ] {
                if !is_node {
                    continue;
                }
                if let Some(what) = fault(node) {
                    return Err(format!(
                        "cache entry {i} ({},{},{})->{} names {node} in field {field}: {what}",
                        e.a, e.b, e.c, e.res
                    ));
                }
            }
        }
        Ok(())
    }

    /// Resizes to `1 << log2_size` entries, rehashing the entries into the
    /// new table (oldest first, so each set stays newest-first) and keeping
    /// the cumulative counters.
    pub(crate) fn resize(&mut self, log2_size: u32) {
        if log2_size == self.log2_size() {
            return;
        }
        let stats = self.stats;
        let old = std::mem::replace(self, Cache::new(log2_size)).sets;
        for Set(set) in old {
            for e in set.iter().rev().filter(|e| e.a != NIL) {
                self.put(e.a, e.b, e.c, e.res);
            }
        }
        // Rehash insertions are bookkeeping, not real evictions.
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_set_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Set>(), 64);
        assert_eq!(std::mem::align_of::<Set>(), 64);
    }

    #[test]
    fn put_then_get() {
        let mut c = Cache::new(8);
        assert_eq!(c.get(1, 2, 3), None);
        c.put(1, 2, 3, 42);
        assert_eq!(c.get(1, 2, 3), Some(42));
        assert_eq!(c.get(1, 2, 4), None);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 2);
    }

    #[test]
    fn clear_empties_every_set() {
        let mut c = Cache::new(6);
        for k in 0..64u32 {
            c.put(k, k, k, k);
        }
        c.clear();
        assert!(c.sets.iter().all(|s| s.0 == [EMPTY; WAYS]));
        assert!((0..64u32).all(|k| c.get(k, k, k).is_none()));
    }

    #[test]
    fn four_ways_coexist_in_one_set() {
        let mut c = Cache::new(2); // exactly one set of 4 ways
        for k in 0..4u32 {
            c.put(k, k, k, 100 + k);
        }
        for k in 0..4u32 {
            assert_eq!(c.get(k, k, k), Some(100 + k), "way {k} retained");
        }
        assert_eq!(c.stats.evictions, 0);
    }

    #[test]
    fn a_full_set_evicts_its_oldest_insertion() {
        let mut c = Cache::new(2); // exactly one set of 4 ways
        for k in 0..4u32 {
            c.put(k, k, k, 100 + k);
        }
        // Hits do not refresh recency: eviction follows insertion order.
        assert_eq!(c.get(0, 0, 0), Some(100));
        c.put(9, 9, 9, 109);
        assert_eq!(c.stats.evictions, 1);
        assert_eq!(c.get(0, 0, 0), None, "oldest insertion evicted");
        for k in [1u32, 2, 3, 9] {
            assert_eq!(c.get(k, k, k), Some(100 + k));
        }
        c.put(10, 10, 10, 110);
        assert_eq!(c.get(1, 1, 1), None, "then the next oldest");
    }

    #[test]
    fn a_put_to_the_same_key_never_evicts() {
        let mut c = Cache::new(2);
        for k in 0..4u32 {
            c.put(k, k, k, 100 + k);
        }
        c.put(2, 2, 2, 7);
        assert_eq!(c.stats.evictions, 0);
        assert_eq!(c.get(2, 2, 2), Some(7), "result overwritten in place");
        for k in [0u32, 1, 3] {
            assert_eq!(c.get(k, k, k), Some(100 + k));
        }
    }

    #[test]
    fn revalidate_keeps_survivors_and_drops_the_dead() {
        let mut c = Cache::new(2); // one set, so compaction is visible
        c.put(2, 3, 1, 4); // all "nodes" live
        c.put(7, 8, 1, 9); // 8 will die
        c.put(5, NIL, 1, 6); // b is NIL: allowed
        c.put(10, 11, 1, 8); // result 8 will die
        c.revalidate(|x| x != 8, true, false);
        assert_eq!(c.get(2, 3, 1), Some(4));
        assert_eq!(c.get(5, NIL, 1), Some(6));
        assert_eq!(c.get(7, 8, 1), None);
        assert_eq!(c.get(10, 11, 1), None);
        // Survivors are compacted to the front, newest first.
        assert_eq!(c.sets[0].0[0].a, 5);
        assert_eq!(c.sets[0].0[1].a, 2);
        assert_eq!(c.sets[0].0[2..], [EMPTY; 2]);
        // Two free ways: the next two insertions evict nothing.
        c.put(20, 20, 1, 20);
        c.put(21, 21, 1, 21);
        assert_eq!(c.stats.evictions, 0);
    }

    #[test]
    fn resize_preserves_entries_and_counters() {
        let mut c = Cache::new(4);
        c.put(1, 2, 3, 10);
        c.put(4, 5, 6, 11);
        let _ = c.get(1, 2, 3);
        let stats_before = c.stats;
        c.resize(8);
        assert_eq!(c.log2_size(), 8);
        assert_eq!(c.stats, stats_before, "counters survive resize");
        assert_eq!(c.get(1, 2, 3), Some(10));
        assert_eq!(c.get(4, 5, 6), Some(11));
    }

    #[test]
    fn tag_slots_are_not_liveness_checked() {
        let mut c = Cache::new(4);
        // c = 99 is an opaque tag (e.g. a varset/permutation id), not a node.
        c.put(2, 3, 99, 4);
        c.revalidate(|x| x != 99, true, false);
        assert_eq!(c.get(2, 3, 99), Some(4));
    }
}
