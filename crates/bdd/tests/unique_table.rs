//! The unique table's bucket array is sized to the nodes in use, not to the
//! manager's reserved capacity: it starts small and doubles, rehashing the
//! used node prefix, whenever `mk` or a sifting swap extends that prefix
//! past it. These tests drive both paths through several doublings under
//! the 2^20-slot reservation every analysis engine makes, and check that
//! the functions the live handles denote never change.

use whale_bdd::{Bdd, BddManager, DomainId, DomainSpec, OrderSpec, NODE_BYTES};
use whale_testkit::Rng;

/// Bucket count of a new unique table.
const MIN_BUCKETS: usize = 1 << 12;
/// Node-table capacity every analysis engine reserves.
const ENGINE_CAPACITY: usize = 1 << 20;

/// Splits `BddStats::table_bytes` into `(used prefix, buckets)`. The bucket
/// count is the smallest power of two of at least `MIN_BUCKETS` that holds
/// the prefix, so exactly one candidate count leaves a prefix in range.
fn table_shape(m: &BddManager) -> (usize, usize) {
    let bytes = m.stats().table_bytes;
    let mut buckets = MIN_BUCKETS;
    loop {
        let rest = bytes - 4 * buckets;
        let prefix = rest / NODE_BYTES;
        let low = if buckets == MIN_BUCKETS {
            0
        } else {
            buckets / 2
        };
        if rest.is_multiple_of(NODE_BYTES) && prefix > low && prefix <= buckets {
            return (prefix, buckets);
        }
        buckets *= 2;
        assert!(4 * buckets <= bytes, "no bucket count fits {bytes} bytes");
    }
}

fn manager() -> (BddManager, [DomainId; 3]) {
    let specs = [
        DomainSpec::new("A", 64),
        DomainSpec::new("B", 64),
        DomainSpec::new("C", 1 << 12),
    ];
    // Separate blocks, so sifting moves whole domains past each other.
    let order = OrderSpec::parse("A_B_C").unwrap();
    let m = BddManager::with_domains_and_capacity(&specs, &order, ENGINE_CAPACITY).unwrap();
    let doms = ["A", "B", "C"].map(|d| m.domain(d).unwrap());
    (m, doms)
}

fn random_tuple(rng: &mut Rng) -> Vec<u64> {
    vec![
        rng.gen_range(0..64),
        rng.gen_range(0..64),
        rng.gen_range(0..1 << 12),
    ]
}

/// `count` seeded random relations of 3,000 tuples each, built through `mk`.
fn relations(
    m: &BddManager,
    doms: &[DomainId; 3],
    seed: u64,
    count: usize,
) -> Vec<(Bdd, Vec<Vec<u64>>)> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut tuples: Vec<Vec<u64>> = (0..3000).map(|_| random_tuple(&mut rng)).collect();
            tuples.sort();
            tuples.dedup();
            let f = m.tuple_set(doms, tuples.iter().map(|t| t.as_slice()));
            (f, tuples)
        })
        .collect()
}

/// `f`'s tuples, sorted: enumeration follows the current variable order.
fn sorted_tuples(f: &Bdd, doms: &[DomainId]) -> Vec<Vec<u64>> {
    let mut tuples = f.tuples(doms);
    tuples.sort_unstable();
    tuples
}

/// `f`'s value at every assignment of the variables of `dom`, in variable
/// number order; `f`'s support must lie inside them. Reading through
/// variable numbers makes the table independent of the current order.
fn truth_table(m: &BddManager, f: &Bdd, dom: DomainId) -> Vec<bool> {
    let mut vars = m.domain_levels(dom);
    vars.sort_unstable();
    (0..1u32 << vars.len())
        .map(|bits| {
            let assignment: Vec<(u32, bool)> = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, (bits >> i) & 1 == 1))
                .collect();
            f.restrict(&assignment).is_one()
        })
        .collect()
}

#[test]
fn mk_doubles_the_buckets_with_the_used_prefix() {
    let (m, doms) = manager();
    assert_eq!(m.stats().allocated_nodes, ENGINE_CAPACITY);
    let (prefix, buckets) = table_shape(&m);
    assert_eq!(buckets, MIN_BUCKETS, "a new table holds {prefix} nodes");
    let rels = relations(&m, &doms, 7, 4);
    let (prefix, buckets) = table_shape(&m);
    assert!(
        buckets >= 8 * MIN_BUCKETS,
        "only {buckets} buckets for a prefix of {prefix}"
    );
    assert_eq!(
        m.stats().allocated_nodes,
        ENGINE_CAPACITY,
        "no capacity growth"
    );
    m.check_invariants().unwrap();
    for (f, tuples) in &rels {
        assert_eq!(&sorted_tuples(f, &doms), tuples);
    }
    // A collection keeps the bucket array: the used prefix never shrinks.
    drop(rels);
    m.gc();
    assert_eq!(table_shape(&m), (prefix, buckets));
    m.check_invariants().unwrap();
}

#[test]
fn sifting_swaps_double_the_buckets_mid_pass() {
    let (m, doms) = manager();
    let (twin, twin_doms) = manager();
    let rels = relations(&m, &doms, 11, 2);
    let twin_rels = relations(&twin, &twin_doms, 11, 2);
    // Top the used prefix up to within one tuple's nodes of the bucket
    // count. `tuple_set` leaves no garbage, so no slot is free and the
    // pass's first net new nodes extend the prefix across a doubling.
    let mut rng = Rng::seed_from_u64(12);
    let mut padding = Vec::new();
    while {
        let (prefix, buckets) = table_shape(&m);
        prefix + 24 < buckets
    } {
        padding.push(m.tuple_set(&doms, [random_tuple(&mut rng)]));
    }
    m.gc();
    let before = table_shape(&m);
    assert_eq!(before.0, m.stats().live_nodes + 2, "no free slot");
    // A pass without a growth bound sweeps every block to both ends.
    let stats = m.reorder_sift_bounded(1e6);
    assert!(stats.swaps > 0);
    let after = table_shape(&m);
    assert!(
        after.1 > before.1,
        "no bucket doubling during the pass: {before:?} -> {after:?}"
    );
    m.check_invariants().unwrap();
    for ((f, tuples), (g, _)) in rels.iter().zip(&twin_rels) {
        assert_eq!(&sorted_tuples(f, &doms), tuples);
        assert_eq!(&sorted_tuples(g, &twin_doms), tuples);
        for keep in 0..2 {
            let drop = |d: &[DomainId; 3]| -> Vec<DomainId> {
                (0..3).filter(|&i| i != keep).map(|i| d[i]).collect()
            };
            let fp = f.exist_domains(&drop(&doms));
            let gp = g.exist_domains(&drop(&twin_doms));
            assert_eq!(
                truth_table(&m, &fp, doms[keep]),
                truth_table(&twin, &gp, twin_doms[keep])
            );
        }
    }
    // The reordered table keeps working: new nodes land in the grown array.
    let (f, _) = &rels[0];
    let union = rels[1..].iter().fold(f.clone(), |acc, (g, _)| acc.or(g));
    let twin_union = twin_rels[1..]
        .iter()
        .fold(twin_rels[0].0.clone(), |acc, (g, _)| acc.or(g));
    assert_eq!(
        sorted_tuples(&union, &doms),
        sorted_tuples(&twin_union, &twin_doms)
    );
    m.check_invariants().unwrap();
}
