//! Set-associative operation caches for the BDD kernel.
//!
//! Each cache is a fixed-size, 4-way set-associative table. Within a full
//! set the victim is chosen round-robin by default; caches built with
//! [`Cache::new_aged`] instead evict by *generation age* — every entry
//! carries an access stamp refreshed on hit, and the stalest way loses.
//! Age-based replacement only matters where capacity misses are real (the
//! apply cache); for the compulsory-miss-dominated caches the cheaper
//! round-robin is kept. Entries are *generation-tagged*: an entry is valid
//! only when its generation matches the cache's current generation, so
//! [`Cache::clear`] is an O(1) generation bump rather than a memset. After a
//! garbage collection that actually freed nodes, [`Cache::revalidate`]
//! re-tags every entry whose operands and result all survived — warm
//! memoization state is preserved across GC instead of being thrown away
//! wholesale.

pub(crate) const NIL: u32 = u32::MAX;

/// Associativity: entries per set.
const WAYS: usize = 4;

#[derive(Clone, Copy)]
struct Entry {
    a: u32,
    b: u32,
    c: u32,
    res: u32,
    gen: u32,
    /// Access stamp for age-based eviction (0 when the cache is not aged).
    stamp: u32,
}

const EMPTY: Entry = Entry {
    a: NIL,
    b: NIL,
    c: NIL,
    res: NIL,
    gen: 0,
    stamp: 0,
};

/// Hit/miss/eviction counters of one cache, cumulative over its lifetime
/// (preserved across `Cache::clear`, `Cache::revalidate` and resizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that returned a memoized result.
    pub hits: u64,
    /// Lookups that found nothing (or only stale entries).
    pub misses: u64,
    /// Insertions that displaced a *valid* entry from a full set.
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
    entries: Vec<Entry>,
    /// Round-robin victim pointer per set.
    rr: Vec<u8>,
    set_mask: usize,
    gen: u32,
    pub(crate) stats: CacheStats,
    /// Counter snapshot at the start of the current pressure window (see
    /// [`Cache::pressure_window`]).
    window_base: CacheStats,
    /// Window hit rate measured when the cache last grew adaptively; the
    /// next closed window compares against it to decide whether the growth
    /// paid off (see [`Cache::adapt`]).
    pre_grow_rate: Option<f64>,
    /// Set once a doubling failed to improve the window hit rate: the miss
    /// stream is compulsory (first-time keys), so further growth buys
    /// nothing and adaptive sizing stops until the next [`Cache::clear`].
    saturated: bool,
    /// When set, full-set eviction picks the entry with the oldest access
    /// stamp instead of the round-robin victim.
    aged: bool,
    /// Monotone access counter driving the stamps of an aged cache.
    tick: u32,
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
        let size = (1usize << log2_size).max(WAYS);
        let sets = size / WAYS;
        Cache {
            entries: vec![EMPTY; size],
            rr: vec![0; sets],
            set_mask: sets - 1,
            gen: 1, // entries start at gen 0 == invalid
            stats: CacheStats::default(),
            window_base: CacheStats::default(),
            pre_grow_rate: None,
            saturated: false,
            aged: false,
            tick: 0,
        }
    }

    /// Like [`Cache::new`], but with generation-age (least-recently-used
    /// within the set) eviction instead of round-robin.
    pub(crate) fn new_aged(log2_size: u32) -> Self {
        let mut c = Cache::new(log2_size);
        c.aged = true;
        c
    }

    /// Advances the access counter. On the (essentially unreachable) u32
    /// wraparound all stamps reset to "oldest", which momentarily degrades
    /// victim choice but never correctness.
    #[inline]
    fn next_tick(&mut self) -> u32 {
        if self.tick == u32::MAX {
            for e in &mut self.entries {
                e.stamp = 0;
            }
            self.tick = 0;
        }
        self.tick += 1;
        self.tick
    }

    /// Log2 of the entry count.
    pub(crate) fn log2_size(&self) -> u32 {
        self.entries.len().ilog2()
    }

    /// Bytes held by the entry and victim-pointer arrays.
    pub(crate) fn bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<Entry>() + self.rr.len()
    }

    /// Counter deltas accumulated since the last [`Cache::end_window`] —
    /// the *eviction pressure window* the adaptive sizing policy inspects.
    pub(crate) fn pressure_window(&self) -> CacheStats {
        CacheStats {
            hits: self.stats.hits - self.window_base.hits,
            misses: self.stats.misses - self.window_base.misses,
            evictions: self.stats.evictions - self.window_base.evictions,
        }
    }

    /// Closes the current pressure window: subsequent
    /// [`Cache::pressure_window`] calls measure from this point.
    pub(crate) fn end_window(&mut self) {
        self.window_base = self.stats;
    }

    /// One adaptive-sizing decision. Returns `true` if the cache grew.
    ///
    /// Waits until the pressure window has accumulated `min_misses` misses,
    /// then: if the previous decision grew the cache and this window's hit
    /// rate did not improve by at least `min_hit_gain`, the evicted entries
    /// were evidently never re-requested — the miss stream is *compulsory*,
    /// and the cache marks itself saturated (no further growth until the
    /// next [`Cache::clear`]). Otherwise, if evictions account for at least
    /// `grow_ratio` of the window's misses, the working set does not fit
    /// and the cache doubles (up to `1 << max_log2` entries).
    ///
    /// The feedback step is what makes the policy safe on streaming
    /// workloads: eviction pressure alone cannot distinguish a too-small
    /// cache from a stream of first-time keys, but the hit-rate response to
    /// a doubling can.
    pub(crate) fn adapt(
        &mut self,
        min_misses: u64,
        grow_ratio: f64,
        min_hit_gain: f64,
        max_log2: u32,
    ) -> bool {
        let w = self.pressure_window();
        if w.misses < min_misses {
            return false;
        }
        let rate = w.hit_rate();
        if let Some(pre) = self.pre_grow_rate.take() {
            if rate < pre + min_hit_gain {
                self.saturated = true;
            }
        }
        let mut grew = false;
        if !self.saturated
            && self.log2_size() < max_log2
            && w.evictions as f64 >= grow_ratio * w.misses as f64
        {
            self.resize(self.log2_size() + 1);
            self.pre_grow_rate = Some(rate);
            grew = true;
        }
        self.end_window();
        grew
    }

    #[inline]
    pub(crate) fn get(&mut self, a: u32, b: u32, c: u32) -> Option<u32> {
        let base = (mix(a, b, c) & self.set_mask) * WAYS;
        for w in 0..WAYS {
            let e = self.entries[base + w];
            if e.gen == self.gen && e.a == a && e.b == b && e.c == c {
                self.stats.hits += 1;
                if self.aged {
                    self.entries[base + w].stamp = self.next_tick();
                }
                return Some(e.res);
            }
        }
        self.stats.misses += 1;
        None
    }

    #[inline]
    pub(crate) fn put(&mut self, a: u32, b: u32, c: u32, res: u32) {
        let set = mix(a, b, c) & self.set_mask;
        let base = set * WAYS;
        // Prefer overwriting the same key, then any stale/empty slot.
        let mut victim = None;
        for (w, e) in self.entries[base..base + WAYS].iter().enumerate() {
            if e.a == a && e.b == b && e.c == c {
                victim = Some((w, false));
                break;
            }
            if victim.is_none() && e.gen != self.gen {
                victim = Some((w, false));
            }
        }
        let (way, evicts) = match victim {
            Some(v) => v,
            None if self.aged => {
                // Full set of valid entries: age out the least recently
                // touched way.
                let mut best = 0;
                let mut best_stamp = u32::MAX;
                for (w, e) in self.entries[base..base + WAYS].iter().enumerate() {
                    if e.stamp < best_stamp {
                        best_stamp = e.stamp;
                        best = w;
                    }
                }
                (best, true)
            }
            None => {
                let w = self.rr[set] as usize % WAYS;
                self.rr[set] = self.rr[set].wrapping_add(1);
                (w, true)
            }
        };
        if evicts {
            self.stats.evictions += 1;
        }
        let stamp = if self.aged { self.next_tick() } else { 0 };
        self.entries[base + way] = Entry {
            a,
            b,
            c,
            res,
            gen: self.gen,
            stamp,
        };
    }

    /// Invalidates every entry by bumping the generation — O(1) amortized
    /// (a full memset happens only on the ~never-reached u32 wraparound).
    pub(crate) fn clear(&mut self) {
        if self.gen == u32::MAX {
            self.entries.fill(EMPTY);
            self.gen = 1;
        } else {
            self.gen += 1;
        }
    }

    /// Re-arms adaptive growth. Called when the workload phase genuinely
    /// changes (a reordering pass discarded all memoized state) — *not*
    /// after GC revalidation, which preserves warm entries and therefore
    /// says nothing new about the miss stream.
    pub(crate) fn reset_adapt(&mut self) {
        self.saturated = false;
        self.pre_grow_rate = None;
    }

    /// Generation-tagged GC invalidation: bumps the generation, then
    /// re-tags entries whose node-valued fields all satisfy `live`. Called
    /// only after a collection that freed nodes; surviving entries stay
    /// warm, entries naming a freed node go stale before its slot can be
    /// reused.
    ///
    /// `b_is_node`/`c_is_node` describe the key layout: the `b`/`c` slots
    /// hold node indices (checked, `NIL` allowed) or opaque tags (skipped).
    pub(crate) fn revalidate(
        &mut self,
        live: impl Fn(u32) -> bool,
        b_is_node: bool,
        c_is_node: bool,
    ) {
        let old = self.gen;
        self.clear();
        if self.gen < old {
            // Wraparound hard-cleared the table; nothing to re-tag.
            return;
        }
        let new = self.gen;
        for e in &mut self.entries {
            if e.gen != old || e.a == NIL {
                continue;
            }
            let ok = live(e.a)
                && live(e.res)
                && (!b_is_node || e.b == NIL || live(e.b))
                && (!c_is_node || e.c == NIL || live(e.c));
            if ok {
                e.gen = new;
            }
        }
    }

    /// Sanitizer audit: every *valid* entry (current generation, non-empty)
    /// must name only live nodes, under the same key layout
    /// [`Cache::revalidate`] uses; `fault` says what is wrong with any
    /// other node. A violation means an entry survived a GC/reorder that
    /// freed one of its nodes — a stale hit waiting to happen once the slot
    /// is reallocated.
    pub(crate) fn check(
        &self,
        fault: impl Fn(u32) -> Option<&'static str>,
        b_is_node: bool,
        c_is_node: bool,
    ) -> Result<(), String> {
        for (i, e) in self.entries.iter().enumerate() {
            if e.gen != self.gen || e.a == NIL {
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

    /// Resizes to `1 << log2_size` entries, rehashing still-valid entries
    /// into the new table and keeping the cumulative counters.
    pub(crate) fn resize(&mut self, log2_size: u32) {
        let size = (1usize << log2_size).max(WAYS);
        if size == self.entries.len() {
            return;
        }
        let old = std::mem::replace(&mut self.entries, vec![EMPTY; size]);
        let old_gen = self.gen;
        let sets = size / WAYS;
        self.rr = vec![0; sets];
        self.set_mask = sets - 1;
        self.gen = 1;
        let stats = self.stats;
        for e in old {
            if e.gen == old_gen && e.a != NIL {
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
    fn clear_removes_entries() {
        let mut c = Cache::new(4);
        c.put(7, 8, 9, 10);
        c.clear();
        assert_eq!(c.get(7, 8, 9), None);
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
        // A fifth insertion evicts exactly one way, round-robin.
        c.put(9, 9, 9, 109);
        assert_eq!(c.stats.evictions, 1);
        let survivors = (0..4u32).filter(|&k| c.get(k, k, k).is_some()).count();
        assert_eq!(survivors, 3);
        assert_eq!(c.get(9, 9, 9), Some(109));
    }

    #[test]
    fn aged_eviction_picks_least_recently_used() {
        let mut c = Cache::new_aged(2); // exactly one set of 4 ways
        for k in 0..4u32 {
            c.put(k, k, k, 100 + k);
        }
        // Touch 0, 2 and 3; key 1 becomes the stalest way.
        for k in [0u32, 2, 3] {
            assert_eq!(c.get(k, k, k), Some(100 + k));
        }
        c.put(9, 9, 9, 109);
        assert_eq!(c.stats.evictions, 1);
        assert_eq!(c.get(1, 1, 1), None, "LRU way evicted");
        for k in [0u32, 2, 3, 9] {
            assert_eq!(c.get(k, k, k), Some(100 + k), "recent ways retained");
        }
    }

    #[test]
    fn aged_hit_refreshes_recency() {
        let mut c = Cache::new_aged(2);
        for k in 0..4u32 {
            c.put(k, k, k, 100 + k);
        }
        // Key 0 was inserted first; a fresh hit must still protect it, so
        // the next eviction falls on key 1 (the new oldest).
        assert_eq!(c.get(0, 0, 0), Some(100));
        c.put(9, 9, 9, 109);
        assert_eq!(c.get(0, 0, 0), Some(100));
        assert_eq!(c.get(1, 1, 1), None);
    }

    #[test]
    fn aged_put_prefers_stale_slots_over_eviction() {
        let mut c = Cache::new_aged(2);
        for k in 0..4u32 {
            c.put(k, k, k, 100 + k);
        }
        c.clear();
        // All ways stale after clear: a new put reuses one, no eviction.
        c.put(5, 5, 5, 105);
        assert_eq!(c.stats.evictions, 0);
        assert_eq!(c.get(5, 5, 5), Some(105));
    }

    #[test]
    fn revalidate_keeps_live_entries() {
        let mut c = Cache::new(4);
        c.put(2, 3, 1, 4); // all "nodes" live
        c.put(5, NIL, 1, 6); // b is NIL: allowed
        c.put(7, 8, 1, 9); // 8 will die
        c.revalidate(|x| x != 8, true, false);
        assert_eq!(c.get(2, 3, 1), Some(4));
        assert_eq!(c.get(5, NIL, 1), Some(6));
        assert_eq!(c.get(7, 8, 1), None);
    }

    #[test]
    fn revalidate_checks_result_liveness() {
        let mut c = Cache::new(4);
        c.put(2, 3, 1, 4);
        c.revalidate(|x| x != 4, true, false);
        assert_eq!(c.get(2, 3, 1), None);
    }

    #[test]
    fn resize_preserves_entries_and_counters() {
        let mut c = Cache::new(4);
        c.put(1, 2, 3, 10);
        c.put(4, 5, 6, 11);
        let _ = c.get(1, 2, 3);
        let stats_before = c.stats;
        c.resize(8);
        assert_eq!(c.stats, stats_before, "counters survive resize");
        assert_eq!(c.get(1, 2, 3), Some(10));
        assert_eq!(c.get(4, 5, 6), Some(11));
    }

    /// Drives one pressure window of `n` distinct-key misses; every put
    /// into the tiny cache past the first few evicts a valid entry.
    fn stream_misses(c: &mut Cache, start: u32, n: u32) {
        for k in start..start + n {
            assert_eq!(c.get(k, k, k), None);
            c.put(k, k, k, k);
        }
    }

    #[test]
    fn adapt_waits_for_a_full_window() {
        let mut c = Cache::new(2);
        stream_misses(&mut c, 0, 63);
        assert!(!c.adapt(64, 0.5, 0.01, 20), "window not closed yet");
        assert_eq!(c.log2_size(), 2);
    }

    #[test]
    fn adapt_grows_under_eviction_pressure() {
        let mut c = Cache::new(2);
        stream_misses(&mut c, 0, 64);
        assert!(c.adapt(64, 0.5, 0.01, 20), "eviction-dominated window");
        assert_eq!(c.log2_size(), 3, "one doubling per decision");
        // The decision closed the window: an immediate re-check is a no-op.
        assert!(!c.adapt(64, 0.5, 0.01, 20));
    }

    #[test]
    fn adapt_respects_the_size_cap() {
        let mut c = Cache::new(4);
        stream_misses(&mut c, 0, 64);
        assert!(!c.adapt(64, 0.5, 0.01, 4), "already at max_log2");
        assert_eq!(c.log2_size(), 4);
    }

    #[test]
    fn adapt_ignores_low_eviction_windows() {
        let mut c = Cache::new(10); // big enough that nothing evicts
        stream_misses(&mut c, 0, 64);
        assert!(!c.adapt(64, 0.5, 0.01, 20));
        assert_eq!(c.log2_size(), 10);
    }

    #[test]
    fn adapt_saturates_when_growth_does_not_pay() {
        let mut c = Cache::new(2);
        stream_misses(&mut c, 0, 64);
        assert!(c.adapt(64, 0.5, 0.01, 20), "first window grows");
        // The next window is again all first-time keys: the doubling bought
        // no hits, so the cache declares the stream compulsory...
        stream_misses(&mut c, 1000, 64);
        assert!(!c.adapt(64, 0.5, 0.01, 20), "no hit gain → saturated");
        // ...and stays saturated under arbitrarily heavy later pressure.
        stream_misses(&mut c, 2000, 64);
        assert!(!c.adapt(64, 0.5, 0.01, 20));
        assert_eq!(c.log2_size(), 3);
        // A full clear announces a new workload phase and re-arms growth.
        c.clear();
        c.reset_adapt();
        stream_misses(&mut c, 3000, 64);
        assert!(c.adapt(64, 0.5, 0.01, 20));
        assert_eq!(c.log2_size(), 4);
    }

    #[test]
    fn adapt_keeps_growing_while_hit_rate_improves() {
        let mut c = Cache::new(2);
        stream_misses(&mut c, 0, 64);
        assert!(c.adapt(64, 0.5, 0.01, 20));
        // This window has re-request locality (every key is looked up
        // again right after insertion, before pressure can evict it): the
        // hit rate responds to the doubling, so growth stays armed.
        for k in 0..64u32 {
            assert_eq!(c.get(k, k, k), None);
            c.put(k, k, k, k);
            assert_eq!(c.get(k, k, k), Some(k));
        }
        assert!(
            c.adapt(64, 0.5, 0.01, 20),
            "improved hit rate keeps growing"
        );
        assert_eq!(c.log2_size(), 4);
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
