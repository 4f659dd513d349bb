//! Integration tests for the client operation cache: memo entries must
//! track node liveness exactly (a hit may never name a freed node), and a
//! reordering pass may drop them but never make them wrong.

use whale_bdd::{Bdd, BddManager};

/// `f = ⋁ᵢ (aᵢ ∧ bᵢ)` with every `aᵢ` ordered before every `bᵢ`: the
/// classic exponential ordering, guaranteed to give sifting real work.
fn interleaving_victim(mgr: &BddManager, pairs: u32) -> Bdd {
    let mut f = mgr.zero();
    for i in 0..pairs {
        f = f.or(&mgr.ithvar(i).and(&mgr.ithvar(pairs + i)));
    }
    f
}

#[test]
fn client_memo_roundtrip() {
    let mgr = BddManager::with_vars(8);
    let a = mgr.ithvar(0).and(&mgr.ithvar(1));
    let b = mgr.ithvar(2).or(&mgr.ithvar(3));
    let r = mgr.ithvar(4).xor(&mgr.ithvar(5));
    assert!(mgr.memo_get(&a, Some(&b), 7).is_none());
    mgr.memo_put(&a, Some(&b), 7, &r);
    let hit = mgr.memo_get(&a, Some(&b), 7).expect("warm entry");
    assert_eq!(hit, r);
    // The unary key shape (b = None) is a distinct key.
    assert!(mgr.memo_get(&a, None, 7).is_none());
    mgr.memo_put(&a, None, 7, &b);
    assert_eq!(mgr.memo_get(&a, None, 7), Some(b.clone()));
    // And so is the tag.
    assert!(mgr.memo_get(&a, Some(&b), 8).is_none());
}

#[test]
fn client_memo_entry_dies_with_its_result() {
    let mgr = BddManager::with_vars(8);
    let a = mgr.ithvar(0);
    let b = mgr.ithvar(1);
    // A result structurally unrelated to the keys, so dropping the handle
    // really does free its nodes.
    let r = mgr.ithvar(4).xor(&mgr.ithvar(5));
    mgr.memo_put(&a, Some(&b), 1, &r);
    assert_eq!(mgr.memo_get(&a, Some(&b), 1), Some(r.clone()));
    drop(r);
    mgr.gc();
    assert!(
        mgr.memo_get(&a, Some(&b), 1).is_none(),
        "a hit may never resurrect a freed result"
    );
}

#[test]
fn client_memo_entry_survives_gc_while_result_lives() {
    let mgr = BddManager::with_vars(8);
    let a = mgr.ithvar(0);
    let b = mgr.ithvar(1);
    let r = mgr.ithvar(4).xor(&mgr.ithvar(5));
    mgr.memo_put(&a, Some(&b), 1, &r);
    // Unrelated garbage to give the collection something to free.
    for i in 0..8u32 {
        let _ = mgr.ithvar(i % 8).and(&mgr.ithvar((i + 3) % 8));
    }
    mgr.gc();
    assert_eq!(
        mgr.memo_get(&a, Some(&b), 1),
        Some(r.clone()),
        "revalidation must keep entries whose nodes all survived"
    );
}

#[test]
fn memo_after_reorder_is_gone_or_still_correct() {
    let mgr = BddManager::with_vars(16);
    let a = interleaving_victim(&mgr, 8);
    let b = mgr.ithvar(3);
    let r = a.and(&b);
    mgr.memo_put(&a, Some(&b), 1, &r);
    let count_before = r.satcount();
    let stats = mgr.reorder_sift();
    assert!(stats.swaps > 0, "sifting had real work by construction");
    // Reordering rewrites nodes in place: handles stay valid, caches are
    // cleared. A lookup may miss, but must never return a wrong result.
    if let Some(hit) = mgr.memo_get(&a, Some(&b), 1) {
        assert_eq!(hit, r);
    }
    assert_eq!(r.satcount(), count_before);
}
