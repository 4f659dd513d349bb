//! The unique table's bucket array is sized to the nodes in use, not to the
//! manager's reserved capacity: it starts small and doubles, rehashing the
//! used node prefix, whenever `mk` extends that prefix past it. These
//! tests drive it through several doublings under the 2^20-slot
//! reservation every analysis engine makes, under two variable orders,
//! and check that the functions the live handles denote never change.

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

/// The two orders every test runs under: the domains in declaration
/// order, and the wide domain on top of the other two interleaved.
const ORDERS: [&str; 2] = ["A_B_C", "C_BxA"];

fn manager(order: &str) -> (BddManager, [DomainId; 3]) {
    let specs = [
        DomainSpec::new("A", 64),
        DomainSpec::new("B", 64),
        DomainSpec::new("C", 1 << 12),
    ];
    let order = OrderSpec::parse(order).unwrap();
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

/// `f`'s tuples, sorted: enumeration follows the variable order.
fn sorted_tuples(f: &Bdd, doms: &[DomainId]) -> Vec<Vec<u64>> {
    let mut tuples = f.tuples(doms);
    tuples.sort_unstable();
    tuples
}

#[test]
fn mk_doubles_the_buckets_with_the_used_prefix() {
    for order in ORDERS {
        mk_doubles_the_buckets_under(order);
    }
}

fn mk_doubles_the_buckets_under(order: &str) {
    let (m, doms) = manager(order);
    assert_eq!(m.stats().allocated_nodes, ENGINE_CAPACITY);
    let (prefix, buckets) = table_shape(&m);
    assert_eq!(buckets, MIN_BUCKETS, "a new table holds {prefix} nodes");
    let rels = relations(&m, &doms, 7, 4);
    let (prefix, buckets) = table_shape(&m);
    assert!(
        buckets >= 8 * MIN_BUCKETS,
        "{order}: only {buckets} buckets for a prefix of {prefix}"
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
