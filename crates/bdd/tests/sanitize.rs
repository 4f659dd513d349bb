//! Public-API tests of the kernel sanitizer: with per-manager checks
//! enabled, a realistic workload — operation storms, forced collections,
//! two variable orders, snapshot transfer — must pass every audit, and the
//! audit itself must be available on demand through
//! [`BddManager::check_invariants`].
//!
//! The *corruption* side (seeded mutations being caught) lives as unit
//! tests inside the store, where the private structures can be damaged
//! directly; these tests pin down the opposite obligation: the sanitizer
//! never cries wolf on healthy state.

use whale_bdd::io::BddSnapshot;
use whale_bdd::{BddManager, DomainSpec, OrderSpec};
use whale_testkit::Rng;

/// The domains, and the two orders every test runs under: sequential in
/// declaration order, and interleaved with `B` on top.
fn domains() -> (Vec<DomainSpec>, [OrderSpec; 2]) {
    (
        vec![DomainSpec::new("A", 256), DomainSpec::new("B", 256)],
        ["A_B", "BxA"].map(|o| OrderSpec::parse(o).unwrap()),
    )
}

#[test]
fn sanitized_workload_stays_clean_through_gc_under_two_orders() {
    let (specs, orders) = domains();
    for order in &orders {
        sanitized_workload(&BddManager::with_domains(&specs, order).unwrap());
    }
}

fn sanitized_workload(m: &BddManager) {
    m.set_sanitize(true);
    assert!(m.sanitize_enabled());
    let a = m.domain("A").unwrap();
    let b = m.domain("B").unwrap();

    let mut rng = Rng::seed_from_u64(42);
    let mut rel = m.zero();
    for _ in 0..64 {
        let t = m
            .domain_const(a, rng.gen_range(0..256))
            .and(&m.domain_const(b, rng.gen_range(0..256)));
        rel = rel.or(&t);
    }
    let eq = m.domain_eq(a, b);
    let joined = rel.and(&eq);
    let projected = joined.exist_domains(&[b]);
    assert!(!projected.is_zero() || joined.is_zero());

    // A collection, which restructures the table, runs its own full audit.
    m.gc();
    let back = rel.and(&m.one());
    assert_eq!(back, rel);
    assert_eq!(m.check_invariants(), Ok(()));
}

#[test]
fn snapshot_restore_roundtrip_under_sanitizer() {
    let (specs, [order, _]) = domains();
    let src = BddManager::with_domains(&specs, &order).unwrap();
    let dst = BddManager::with_domains(&specs, &order).unwrap();
    src.set_sanitize(true);
    dst.set_sanitize(true);
    let a = src.domain("A").unwrap();
    let b = src.domain("B").unwrap();

    let mut rng = Rng::seed_from_u64(7);
    let mut rel = src.zero();
    for _ in 0..32 {
        let t = src
            .domain_const(a, rng.gen_range(0..256))
            .and(&src.domain_const(b, rng.gen_range(0..256)));
        rel = rel.or(&t);
    }
    let snap = BddSnapshot::of(&rel);
    // Shipping both ways must reproduce the function bit-for-bit, and the
    // receiving table must pass the audit.
    let over_there = snap.restore(&dst).unwrap();
    let back = BddSnapshot::of(&over_there).restore(&src).unwrap();
    assert_eq!(back, rel);
    assert_eq!(dst.check_invariants(), Ok(()));
}

#[test]
fn per_manager_toggle_is_independent() {
    let (specs, [order, _]) = domains();
    let m1 = BddManager::with_domains(&specs, &order).unwrap();
    let m2 = BddManager::with_domains(&specs, &order).unwrap();
    m1.set_sanitize(true);
    m1.set_sanitize(false);
    m2.set_sanitize(true);
    assert!(!m1.sanitize_enabled());
    assert!(m2.sanitize_enabled());
}
