//! Satisfying-assignment enumeration and decoding over finite domains,
//! plus the memo that keeps exact counts across calls.

use crate::cache::{CacheStats, NIL};
use crate::store::{Store, ONE, ZERO};
use crate::Level;

/// Log2 of the count memo's entry count.
const COUNT_MEMO_LOG2: u32 = 8;

/// A direct-mapped memo of exact counts, keyed by `(root, varset id)`. It
/// never grows: a colliding entry is overwritten and the next count of
/// the evicted key just recounts. An entry whose root is `NIL` is empty.
pub(crate) struct CountMemo {
    entries: Vec<(u32, u32, u128)>,
    pub(crate) stats: CacheStats,
}

impl CountMemo {
    pub(crate) fn new() -> Self {
        CountMemo {
            entries: vec![(NIL, 0, 0); 1 << COUNT_MEMO_LOG2],
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn slot(root: u32, vid: u32) -> usize {
        let h = (u64::from(root) << 32 | u64::from(vid)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> (64 - COUNT_MEMO_LOG2)) as usize
    }

    pub(crate) fn get(&mut self, root: u32, vid: u32) -> Option<u128> {
        let (r, v, count) = self.entries[Self::slot(root, vid)];
        if (r, v) == (root, vid) {
            self.stats.hits += 1;
            Some(count)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    pub(crate) fn put(&mut self, root: u32, vid: u32, count: u128) {
        let e = &mut self.entries[Self::slot(root, vid)];
        if e.0 != NIL {
            self.stats.evictions += 1;
        }
        *e = (root, vid, count);
    }

    /// Drops every entry whose root fails `live`.
    pub(crate) fn retain(&mut self, live: impl Fn(u32) -> bool) {
        for e in &mut self.entries {
            if e.0 != NIL && !live(e.0) {
                e.0 = NIL;
            }
        }
    }

    /// Roots of the occupied entries.
    pub(crate) fn roots(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries.iter().map(|e| e.0).filter(|&r| r != NIL)
    }
}

/// Enumerates all satisfying assignments of `f` restricted to `vars`
/// (sorted by level ascending), expanding don't-cares, and calls `cb` with
/// one `bool` per variable in `vars` order.
///
/// The support of `f` must be a subset of `vars`.
pub(crate) fn for_each_sat(store: &Store, f: u32, vars: &[Level], cb: &mut dyn FnMut(&[bool])) {
    debug_assert!(vars.windows(2).all(|w| w[0] < w[1]), "vars must be sorted");
    let mut assignment = vec![false; vars.len()];
    walk(store, f, vars, 0, &mut assignment, cb);
}

fn walk(
    store: &Store,
    f: u32,
    vars: &[Level],
    ix: usize,
    assignment: &mut Vec<bool>,
    cb: &mut dyn FnMut(&[bool]),
) {
    if f == ZERO {
        return;
    }
    if ix == vars.len() {
        assert_eq!(
            f, ONE,
            "support of the function is not covered by the variable list"
        );
        cb(assignment);
        return;
    }
    let lv = vars[ix];
    let fl = store.level(f);
    if f == ONE || fl > lv {
        // Don't-care on this variable: expand both branches.
        assignment[ix] = false;
        walk(store, f, vars, ix + 1, assignment, cb);
        assignment[ix] = true;
        walk(store, f, vars, ix + 1, assignment, cb);
    } else {
        assert_eq!(
            fl, lv,
            "function depends on a variable not in the variable list"
        );
        assignment[ix] = false;
        walk(store, store.low(f), vars, ix + 1, assignment, cb);
        assignment[ix] = true;
        walk(store, store.high(f), vars, ix + 1, assignment, cb);
    }
}

/// Decodes domain values out of a boolean assignment.
///
/// `positions[d]` maps each domain to the `(index into assignment, bit
/// significance)` pairs of its variables.
pub(crate) fn decode_tuple(assignment: &[bool], positions: &[Vec<(usize, u32)>]) -> Vec<u64> {
    positions
        .iter()
        .map(|ps| {
            ps.iter()
                .map(|&(ix, sig)| (assignment[ix] as u64) << sig)
                .sum()
        })
        .collect()
}
