//! Integration tests for the client operation cache: memo entries must
//! track node liveness exactly (a hit may never name a freed node), under
//! any variable order.

use whale_bdd::{Bdd, BddManager, DomainSpec, OrderSpec};

/// A manager over one-bit domains `A0..A7` and `B0..B7` laid out by
/// `order`, and `f = ⋁ᵢ (aᵢ ∧ bᵢ)` in it.
fn pairs_under(order: &str) -> (BddManager, Bdd) {
    let names: Vec<String> = (0..8)
        .flat_map(|i| [format!("A{i}"), format!("B{i}")])
        .collect();
    let specs: Vec<DomainSpec> = names.iter().map(|n| DomainSpec::new(n, 2)).collect();
    let mgr = BddManager::with_domains(&specs, &OrderSpec::parse(order).unwrap()).unwrap();
    let mut f = mgr.zero();
    for i in 0..8 {
        f = f.or(&var(&mgr, &format!("A{i}")).and(&var(&mgr, &format!("B{i}"))));
    }
    (mgr, f)
}

/// The variable of the one-bit domain `name`.
fn var(mgr: &BddManager, name: &str) -> Bdd {
    mgr.ithvar(mgr.domain_levels(mgr.domain(name).unwrap())[0])
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

/// The same function under the exponential order (every `aᵢ` above every
/// `bᵢ`) and the linear one (pairs adjacent): a memo entry survives a
/// collection that frees the garbage around it under both, and the two
/// managers agree on its count.
#[test]
fn memo_survives_gc_under_two_orders() {
    let exponential = "A0_A1_A2_A3_A4_A5_A6_A7_B0_B1_B2_B3_B4_B5_B6_B7";
    let linear = "A0_B0_A1_B1_A2_B2_A3_B3_A4_B4_A5_B5_A6_B6_A7_B7";
    let mut counts = Vec::new();
    let mut sizes = Vec::new();
    for order in [exponential, linear] {
        let (mgr, a) = pairs_under(order);
        let b = var(&mgr, "A3");
        let r = a.and(&b);
        mgr.memo_put(&a, Some(&b), 1, &r);
        for i in 0..16u32 {
            let _ = mgr.ithvar(i).xor(&a);
        }
        mgr.gc();
        assert_eq!(mgr.memo_get(&a, Some(&b), 1), Some(r.clone()), "{order}");
        counts.push(r.satcount());
        sizes.push(a.node_count());
    }
    assert_eq!(counts[0], counts[1]);
    assert!(sizes[0] > 8 * sizes[1], "node counts {sizes:?}");
}
