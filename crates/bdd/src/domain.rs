//! Finite-domain ("fdd") layer: blocks of boolean variables encoding
//! bounded integer domains, as in BuDDy's `fdd` interface which the paper's
//! `bddbddb` system was built on.

use crate::store::{Store, AND, ONE, OR, ZERO};
use crate::Level;

/// Identifier of a declared finite domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub(crate) usize);

/// Declaration of a finite domain: a name and the number of elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainSpec {
    pub(crate) name: String,
    pub(crate) size: u64,
}

impl DomainSpec {
    /// Declares a domain holding values `0..size`.
    pub fn new(name: impl Into<String>, size: u64) -> Self {
        DomainSpec {
            name: name.into(),
            size,
        }
    }

    /// The domain name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of elements.
    pub fn size(&self) -> u64 {
        self.size
    }
}

/// Number of bits needed to encode values `0..size`.
pub(crate) fn bits_for(size: u64) -> u32 {
    if size <= 2 {
        1
    } else {
        64 - (size - 1).leading_zeros()
    }
}

#[derive(Debug, Clone)]
pub(crate) struct DomainData {
    pub(crate) name: String,
    pub(crate) size: u64,
    /// Levels of this domain's bits, least-significant first.
    pub(crate) bits: Vec<Level>,
}

// ----- constructions over domains, at store level ---------------------------
//
// All intermediates are protected on the store's refstack via the returned
// nodes being immediately consumed by callers that protect them; within each
// function we protect accumulators explicitly because any `mk` may trigger a
// garbage collection.

/// BDD encoding `value` in the domain with the given bit levels (LSB first).
pub(crate) fn const_rec(store: &mut Store, bits: &[Level], value: u64) -> u32 {
    let mut acc = ONE;
    // Conjoin literal by literal; the accumulator must be protected before
    // the literal is created, because creating a node can garbage collect.
    for (k, &lvl) in bits.iter().enumerate() {
        store.protect(acc);
        let lit = if (value >> k) & 1 == 1 {
            store.ithvar(lvl)
        } else {
            store.nithvar(lvl)
        };
        store.protect(lit);
        let next = store.apply_rec::<AND>(acc, lit);
        store.unprotect(2);
        acc = next;
    }
    acc
}

/// BDD encoding `x <= bound` over the given bits (LSB first).
pub(crate) fn leq_rec(store: &mut Store, bits: &[Level], bound: u64) -> u32 {
    // Walk from LSB to MSB accumulating: acc' for bit k with bound bit b:
    //   b == 1:  acc' = ¬x_k ∨ (x_k ∧ acc)   (x_k < b, or equal and rest ok)
    //   b == 0:  acc' = ¬x_k ∧ acc
    let mut acc = ONE;
    for (k, &lvl) in bits.iter().enumerate() {
        let b = (bound >> k) & 1;
        store.protect(acc);
        let x = store.ithvar(lvl);
        store.protect(x);
        let next = if b == 1 {
            store.ite_rec(x, acc, ONE)
        } else {
            store.ite_rec(x, ZERO, acc)
        };
        store.unprotect(2);
        acc = next;
    }
    acc
}

/// BDD encoding `x >= bound` over the given bits (LSB first).
pub(crate) fn geq_rec(store: &mut Store, bits: &[Level], bound: u64) -> u32 {
    let mut acc = ONE;
    for (k, &lvl) in bits.iter().enumerate() {
        let b = (bound >> k) & 1;
        store.protect(acc);
        let x = store.ithvar(lvl);
        store.protect(x);
        let next = if b == 0 {
            store.ite_rec(x, ONE, acc)
        } else {
            store.ite_rec(x, acc, ZERO)
        };
        store.unprotect(2);
        acc = next;
    }
    acc
}

/// BDD encoding `lo <= x <= hi` over the given bits.
///
/// This is the O(bits) *range* primitive of Section 4.1 of the paper: one
/// BDD for the values below the upper bound, one for the values above the
/// lower bound, and their conjunction.
pub(crate) fn range_rec(store: &mut Store, bits: &[Level], lo: u64, hi: u64) -> u32 {
    if lo > hi {
        return ZERO;
    }
    let le = leq_rec(store, bits, hi);
    store.protect(le);
    let ge = geq_rec(store, bits, lo);
    store.protect(ge);
    let res = store.apply_rec::<AND>(le, ge);
    store.unprotect(2);
    res
}

/// BDD encoding `x < y` over two equally wide bit vectors (LSB first).
///
/// Built LSB-to-MSB like the other comparators: at each bit, either the
/// higher bits decide, or they are equal and the current bit decides.
pub(crate) fn lt_rec(store: &mut Store, xbits: &[Level], ybits: &[Level]) -> u32 {
    debug_assert_eq!(xbits.len(), ybits.len());
    // acc = comparison of bits below the current one.
    let mut acc = ZERO; // empty prefixes are equal, so not less-than
    for (&xl, &yl) in xbits.iter().zip(ybits) {
        // less' = (¬x ∧ y) ∨ ((x ↔ y) ∧ less)
        store.protect(acc);
        let x = store.ithvar(xl);
        store.protect(x);
        let y = store.ithvar(yl);
        store.protect(y);
        let nx = store.not_rec(x);
        store.protect(nx);
        let strictly = store.apply_rec::<AND>(nx, y);
        store.protect(strictly);
        let ny = store.not_rec(y);
        store.protect(ny);
        let xnor = store.ite_rec(x, y, ny);
        store.protect(xnor);
        let carry = store.apply_rec::<AND>(xnor, acc);
        store.protect(carry);
        let next = store.apply_rec::<OR>(strictly, carry);
        store.unprotect(8);
        acc = next;
    }
    acc
}

/// BDD encoding bitwise equality of two equally wide domains.
pub(crate) fn eq_rec(store: &mut Store, xbits: &[Level], ybits: &[Level]) -> u32 {
    debug_assert_eq!(xbits.len(), ybits.len());
    let mut acc = ONE;
    for (&xl, &yl) in xbits.iter().zip(ybits) {
        store.protect(acc);
        let x = store.ithvar(xl);
        store.protect(x);
        let y = store.ithvar(yl);
        store.protect(y);
        let ny = store.not_rec(y);
        store.protect(ny);
        let xnor = store.ite_rec(x, y, ny);
        store.protect(xnor);
        let next = store.apply_rec::<AND>(acc, xnor);
        store.unprotect(5);
        acc = next;
    }
    acc
}

/// BDD holding exactly the tuples whose packed keys are `keys`: bit `j` of
/// a key (counting from the most significant bit of word 0) is the value
/// of the variable at `levels[j]`. `levels` must be strictly increasing and
/// `keys` sorted and deduplicated, so each level's 0- and 1-halves of a key
/// range are contiguous. Built by recursive partition with `mk` alone, so
/// it makes at most one node per distinct key prefix.
pub(crate) fn tuple_set_rec(store: &mut Store, levels: &[u32], keys: &[Vec<u64>]) -> u32 {
    fn build(store: &mut Store, levels: &[u32], keys: &[Vec<u64>], depth: usize) -> u32 {
        if keys.is_empty() {
            return ZERO;
        }
        if depth == levels.len() {
            return ONE;
        }
        let (word, mask) = (depth / 64, 1u64 << (63 - depth % 64));
        let split = keys.partition_point(|k| k[word] & mask == 0);
        let low = build(store, levels, &keys[..split], depth + 1);
        store.protect(low);
        let high = build(store, levels, &keys[split..], depth + 1);
        let res = store.mk(levels[depth], low, high);
        store.unprotect(1);
        res
    }
    build(store, levels, keys, 0)
}

#[cfg(test)]
mod tests {
    use super::bits_for;

    #[test]
    fn bit_widths() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(256), 8);
        assert_eq!(bits_for(257), 9);
        assert_eq!(bits_for(1 << 40), 40);
    }
}
