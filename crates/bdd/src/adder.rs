//! The O(bits) adder relation `{(x, y) | y = x + c}` between two domains.
//!
//! Algorithm 4 of the paper computes the contexts of callees by "adding a
//! constant to the contexts of the callers", noting that "this operation is
//! also cheap in BDDs". This module is that operation: a ripple-carry
//! construction whose state at each bit is the carry the bits below must
//! produce, so the resulting BDD has O(bits) distinct subfunctions
//! regardless of the constant.
//!
//! The relation is assembled from the least significant bit upwards, so
//! every `ite` puts the current bit pair on top of sub-results over the
//! bits below it. Domains are laid out most significant bit first, which
//! makes each step O(1) under interleaved layouts instead of pushing a new
//! bit under an already built sub-BDD. It is still built with apply
//! operations, so the result is correct under any variable order.

use crate::store::{Store, ONE, ZERO};
use crate::Level;

/// Builds the relation `y = x + c` over two equally wide bit vectors
/// (least-significant bit first). There is no wrap-around: assignments
/// that would overflow the bit width are excluded, so a constant at or
/// above `2^bits` yields the empty relation.
pub(crate) fn add_const_rec(store: &mut Store, xbits: &[Level], ybits: &[Level], c: u64) -> u32 {
    debug_assert_eq!(xbits.len(), ybits.len());
    let n = xbits.len();
    if n < 64 && c >> n != 0 {
        return ZERO;
    }
    // `below[r]`: assignments of the bits below the current one that add
    // up with `c`'s low bits and carry `r` into the current bit. Below bit
    // 0 there is nothing to add, so no carry.
    let mut below = [ONE, ZERO];
    for k in 0..n {
        let ck = ((c >> k) & 1) as usize;
        store.protect(below[0]);
        store.protect(below[1]);
        let y = store.ithvar(ybits[k]);
        store.protect(y);
        let x = store.ithvar(xbits[k]);
        store.protect(x);
        let mut next = [ZERO; 2];
        for (carry_out, slot) in next.iter_mut().enumerate() {
            let mut by_x = [ZERO; 2];
            for (xk, branch) in by_x.iter_mut().enumerate() {
                // The carry-in that makes `y_k = b` is fixed by parity; it
                // qualifies if it also produces the required carry out.
                let sub = |b: usize| {
                    let carry_in = b ^ xk ^ ck;
                    if (xk + ck + carry_in) >> 1 == carry_out {
                        below[carry_in]
                    } else {
                        ZERO
                    }
                };
                *branch = store.ite_rec(y, sub(1), sub(0));
                store.protect(*branch);
            }
            *slot = store.ite_rec(x, by_x[1], by_x[0]);
            store.unprotect(2);
            store.protect(*slot);
        }
        store.unprotect(6);
        below = next;
    }
    below[0]
}
