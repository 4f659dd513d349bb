//! Unit tests for the raw BDD kernel: apply family, quantification,
//! relational product, replace, counting and enumeration.

use whale_bdd::{BddManager, DomainSpec, OrderSpec};

fn mgr4() -> BddManager {
    BddManager::with_vars(4)
}

#[test]
fn constants() {
    let m = mgr4();
    assert!(m.zero().is_zero());
    assert!(m.one().is_one());
    assert_ne!(m.zero(), m.one());
    assert_eq!(m.zero().not(), m.one());
    assert_eq!(m.one().not(), m.zero());
}

#[test]
fn literal_counts() {
    let m = mgr4();
    let x = m.ithvar(0);
    assert_eq!(x.satcount() as u64, 8); // half of 2^4
    assert_eq!(m.nithvar(0).satcount() as u64, 8);
    assert_eq!(x.node_count(), 1);
}

#[test]
fn and_or_absorption() {
    let m = mgr4();
    let x = m.ithvar(0);
    let y = m.ithvar(1);
    let f = x.and(&y);
    assert_eq!(f.or(&x), x); // x∧y ∨ x = x
    assert_eq!(f.and(&x), f);
    assert_eq!(x.and(&x.not()), m.zero());
    assert_eq!(x.or(&x.not()), m.one());
}

#[test]
fn de_morgan() {
    let m = mgr4();
    let x = m.ithvar(1);
    let y = m.ithvar(3);
    assert_eq!(x.and(&y).not(), x.not().or(&y.not()));
    assert_eq!(x.or(&y).not(), x.not().and(&y.not()));
}

#[test]
fn xor_and_diff() {
    let m = mgr4();
    let x = m.ithvar(0);
    let y = m.ithvar(2);
    let xor = x.xor(&y);
    assert_eq!(xor, x.diff(&y).or(&y.diff(&x)));
    assert_eq!(x.xor(&x), m.zero());
    assert_eq!(x.diff(&m.zero()), x);
    assert_eq!(x.diff(&m.one()), m.zero());
}

#[test]
fn ite_matches_definition() {
    let m = mgr4();
    let f = m.ithvar(0);
    let g = m.ithvar(1);
    let h = m.ithvar(2);
    let ite = f.ite(&g, &h);
    let manual = f.and(&g).or(&f.not().and(&h));
    assert_eq!(ite, manual);
}

#[test]
fn exist_removes_variable() {
    let m = mgr4();
    let x = m.ithvar(0);
    let y = m.ithvar(1);
    let f = x.and(&y);
    let g = f.exist(&[0]);
    assert_eq!(g, y);
    assert_eq!(f.exist(&[0, 1]), m.one());
    // Quantifying a variable not in the support is a no-op.
    assert_eq!(f.exist(&[3]), f);
}

#[test]
fn relprod_equals_and_then_exist() {
    let m = mgr4();
    let x = m.ithvar(0);
    let y = m.ithvar(1);
    let z = m.ithvar(2);
    let f = x.or(&y);
    let g = y.or(&z);
    assert_eq!(f.relprod(&g, &[1]), f.and(&g).exist(&[1]));
    assert_eq!(f.relprod(&g, &[0, 1, 2]), f.and(&g).exist(&[0, 1, 2]));
    assert_eq!(f.relprod(&g, &[]), f.and(&g));
}

#[test]
fn support_is_sorted_and_exact() {
    let m = mgr4();
    let f = m.ithvar(3).and(&m.ithvar(0)).or(&m.ithvar(2));
    assert_eq!(f.support(), vec![0, 2, 3]);
    assert_eq!(m.one().support(), Vec::<u32>::new());
}

#[test]
fn replace_monotone_shift() {
    let m = mgr4();
    let x0 = m.ithvar(0);
    let x1 = m.ithvar(1);
    let f = x0.and(&x1); // vars {0,1}
    let g = f.replace_levels(&[(0, 2), (1, 3)]);
    assert_eq!(g, m.ithvar(2).and(&m.ithvar(3)));
}

#[test]
fn replace_non_monotone_reverses_order() {
    let m = mgr4();
    // f over {0,1}; rename 0->3 and 1->2 reverses relative order.
    let f = m.ithvar(0).and(&m.ithvar(1).not());
    let g = f.replace_levels(&[(0, 3), (1, 2)]);
    assert_eq!(g, m.ithvar(3).and(&m.ithvar(2).not()));
}

#[test]
fn replace_swaps_nonmonotone_target_in_support() {
    let m = mgr4();
    // Swap 0 and 1: non-monotone and every target in the support.
    let f = m.ithvar(0).and(&m.ithvar(1).not());
    let g = f.replace_levels(&[(0, 1), (1, 0)]);
    assert_eq!(g, m.ithvar(1).and(&m.ithvar(0).not()));
}

#[test]
fn replace_identity_and_dead_pairs() {
    let m = mgr4();
    let f = m.ithvar(1);
    assert_eq!(f.replace_levels(&[]), f);
    assert_eq!(f.replace_levels(&[(2, 3)]), f);
    assert_eq!(f.replace_levels(&[(1, 1)]), f);
}

/// One [`replace_renames_tuple_columns`] case: a relation over domains
/// `cols` renamed by `pairs` must decode over `out` to the input tuples
/// passed through `map` (which drops a tuple by returning `None`).
struct RenameCase {
    name: &'static str,
    cols: &'static [usize],
    pairs: &'static [(usize, usize)],
    out: &'static [usize],
    map: fn(&[u64]) -> Option<Vec<u64>>,
}

/// Whole-domain renames over three interleaved domains, so every swap
/// and cycle is non-monotone.
#[test]
fn replace_renames_tuple_columns() {
    let case = |name, cols, pairs, out, map| RenameCase {
        name,
        cols,
        pairs,
        out,
        map,
    };
    let cases = [
        case("move", &[0], &[(0, 1)], &[1], |t| Some(vec![t[0]])),
        case("swap", &[0, 1], &[(0, 1), (1, 0)], &[0, 1], |t| {
            Some(vec![t[1], t[0]])
        }),
        case(
            "3-cycle",
            &[0, 1, 2],
            &[(0, 1), (1, 2), (2, 0)],
            &[0, 1, 2],
            |t| Some(vec![t[2], t[0], t[1]]),
        ),
        case("chain", &[0, 1], &[(0, 1), (1, 2)], &[1, 2], |t| {
            Some(vec![t[0], t[1]])
        }),
        case("no-op", &[0, 1], &[], &[0, 1], |t| Some(t.to_vec())),
        case("identity pair", &[0, 1], &[(0, 0)], &[0, 1], |t| {
            Some(t.to_vec())
        }),
        // Non-injective: both columns land on A2, so only the tuples whose
        // two values agree survive.
        case("merge", &[0, 1], &[(0, 2), (1, 2)], &[2], |t| {
            (t[0] == t[1]).then(|| vec![t[0]])
        }),
    ];
    let m = BddManager::with_domains(
        &[
            DomainSpec::new("A0", 8),
            DomainSpec::new("A1", 8),
            DomainSpec::new("A2", 8),
        ],
        &OrderSpec::parse("A0xA1xA2").unwrap(),
    )
    .unwrap();
    let doms: Vec<_> = ["A0", "A1", "A2"]
        .iter()
        .map(|n| m.domain(n).unwrap())
        .collect();
    let rows: [[u64; 3]; 5] = [[1, 2, 3], [4, 5, 6], [7, 0, 2], [3, 3, 5], [5, 1, 1]];
    for RenameCase {
        name,
        cols,
        pairs,
        out,
        map,
    } in cases
    {
        let input: Vec<Vec<u64>> = rows.iter().map(|r| r[..cols.len()].to_vec()).collect();
        let col_doms: Vec<_> = cols.iter().map(|&c| doms[c]).collect();
        let f = m.tuple_set(&col_doms, &input);
        let dom_pairs: Vec<_> = pairs.iter().map(|&(a, b)| (doms[a], doms[b])).collect();
        let out_doms: Vec<_> = out.iter().map(|&c| doms[c]).collect();
        let mut got = f.replace(&dom_pairs).tuples(&out_doms);
        got.sort();
        let mut want: Vec<Vec<u64>> = input.iter().filter_map(|t| map(t)).collect();
        want.sort();
        want.dedup();
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn satcount_full_space() {
    let m = mgr4();
    assert_eq!(m.one().satcount() as u64, 16);
    assert_eq!(m.zero().satcount() as u64, 0);
    let f = m.ithvar(0).or(&m.ithvar(1));
    assert_eq!(f.satcount() as u64, 12);
}

#[test]
fn gc_preserves_live_nodes() {
    let m = mgr4();
    let f = m.ithvar(0).and(&m.ithvar(1)).or(&m.ithvar(2));
    let count_before = f.satcount() as u64;
    // Create garbage.
    for i in 0..200 {
        let _temp = m.ithvar(i % 4).xor(&m.ithvar((i + 1) % 4));
    }
    m.gc();
    assert_eq!(f.satcount() as u64, count_before);
    // f still usable in new operations after GC.
    assert_eq!(f.and(&m.one()), f);
}

#[test]
fn table_growth_under_pressure() {
    // Force many distinct live nodes so the table must grow.
    let m = BddManager::with_vars(24);
    let mut fs = Vec::new();
    let mut acc = m.zero();
    for i in 0..24u32 {
        acc = acc.xor(&m.ithvar(i));
        fs.push(acc.clone());
    }
    // Parity over k vars has k internal nodes... times many partials: all live.
    let stats = m.manager_stats_sanity();
    assert!(stats.live_nodes > 0);
    for (i, f) in fs.iter().enumerate() {
        assert_eq!(f.satcount() as u64, 1 << 23, "parity over {} vars", i + 1);
    }
}

#[test]
fn reachable_peak_is_the_live_count_after_a_collection() {
    let m = BddManager::with_vars(12);
    let keep = m.ithvar(0).and(&m.ithvar(1));
    {
        // Garbage: parities over growing prefixes, dropped before the GC.
        let mut acc = m.zero();
        let mut partials = Vec::new();
        for i in 0..12 {
            acc = acc.xor(&m.ithvar(i));
            partials.push(acc.clone());
        }
    }
    let before = m.stats();
    m.gc();
    let s = m.stats();
    assert_eq!(s.peak_reachable_nodes, s.live_nodes);
    assert!(s.peak_reachable_nodes <= s.peak_live_nodes);
    // The live peak counted the parities; the reachable peak did not.
    assert!(s.peak_live_nodes >= before.live_nodes);
    assert!(s.peak_reachable_nodes < before.live_nodes);
    assert!(!keep.is_zero());
}

#[test]
fn sampling_reachable_counts_in_use_nodes_without_collecting() {
    let m = BddManager::with_vars(12);
    let keep = m.ithvar(0).and(&m.ithvar(1)).or(&m.ithvar(5));
    drop(m.ithvar(7).xor(&m.ithvar(9)));
    let before = m.stats();
    assert_eq!(m.sample_reachable(), keep.node_count());
    let s = m.stats();
    // Marked but not swept: the garbage is still in the table.
    assert_eq!(
        (s.gc_runs, s.live_nodes),
        (before.gc_runs, before.live_nodes)
    );
    assert!(s.live_nodes > keep.node_count());
    assert_eq!(s.peak_reachable_nodes, keep.node_count());
    m.check_invariants().unwrap();
}

#[test]
fn reset_peak_marks_without_collecting() {
    let m = BddManager::with_vars(16);
    let keep = m.ithvar(0).and(&m.ithvar(1)).or(&m.ithvar(5));
    {
        // Garbage: parities over growing prefixes, dropped before the reset.
        let mut acc = m.zero();
        for i in 0..12 {
            acc = acc.xor(&m.ithvar(i));
        }
    }
    let before = m.stats();
    assert!(before.live_nodes > keep.node_count());
    m.reset_peak();
    let s = m.stats();
    // Marked, not swept: the garbage stays in the table.
    assert_eq!(
        (s.gc_runs, s.live_nodes),
        (before.gc_runs, before.live_nodes)
    );
    assert_eq!(s.peak_live_nodes, keep.node_count());
    assert_eq!(s.peak_reachable_nodes, keep.node_count());

    // Nodes made after the reset (over variables no garbage node tests)
    // raise the live peak by their own number; the garbage does not count.
    let fresh = m.ithvar(13).and(&m.ithvar(14)).and(&m.ithvar(15));
    let s = m.stats();
    let made = s.live_nodes - before.live_nodes;
    assert!(made >= fresh.node_count());
    assert_eq!(s.peak_live_nodes, keep.node_count() + made);

    {
        // Rebuilding the garbage finds its nodes still in the table and
        // makes none; once a mark finds them in use, the live peak counts
        // them too, so it never falls below the reachable peak.
        let mut again = m.zero();
        for i in 0..12 {
            again = again.xor(&m.ithvar(i));
        }
        assert_eq!(m.stats().live_nodes, before.live_nodes + made);
        assert!(m.sample_reachable() > keep.node_count() + made);
        let s = m.stats();
        assert_eq!(s.peak_live_nodes, s.peak_reachable_nodes);
    }

    // A collection frees the garbage and clears the stale count: once the
    // table holds more than the old peak, the live peak is all of it.
    m.gc();
    let s = m.stats();
    assert_eq!(s.gc_runs, before.gc_runs + 1);
    assert_eq!(s.live_nodes, keep.node_count() + fresh.node_count());
    let mut parity = m.zero();
    for i in 0..12 {
        parity = parity.xor(&m.ithvar(i));
    }
    let s = m.stats();
    assert!(s.live_nodes > keep.node_count() + made);
    assert_eq!(s.peak_live_nodes, s.live_nodes);
    m.check_invariants().unwrap();
}

trait StatsExt {
    fn manager_stats_sanity(&self) -> whale_bdd::BddStats;
}
impl StatsExt for BddManager {
    fn manager_stats_sanity(&self) -> whale_bdd::BddStats {
        let s = self.stats();
        assert!(s.allocated_nodes >= s.live_nodes);
        assert!(s.peak_live_nodes >= s.live_nodes);
        s
    }
}

#[test]
fn domain_basics() {
    let m = BddManager::with_domains(
        &[DomainSpec::new("A", 10), DomainSpec::new("B", 10)],
        &OrderSpec::parse("AxB").unwrap(),
    )
    .unwrap();
    let a = m.domain("A").unwrap();
    let b = m.domain("B").unwrap();
    assert_eq!(m.domain_size(a), 10);
    assert_eq!(m.domain_levels(a).len(), 4);
    let c3 = m.domain_const(a, 3);
    assert_eq!(c3.satcount_domains(&[a]) as u64, 1);
    let all_pairs = m.one();
    assert_eq!(all_pairs.satcount_domains(&[a, b]) as u64, 256); // 2^8 bit patterns
    let eq = m.domain_eq(a, b);
    assert_eq!(eq.satcount_domains(&[a, b]) as u64, 16); // all 16 bit-equal pairs
}

#[test]
fn domain_range_counts() {
    let m = BddManager::with_domains(
        &[DomainSpec::new("A", 1000)],
        &OrderSpec::parse("A").unwrap(),
    )
    .unwrap();
    let a = m.domain("A").unwrap();
    for (lo, hi) in [(0u64, 0u64), (0, 999), (5, 5), (17, 432), (998, 999)] {
        let r = m.domain_range(a, lo, hi);
        assert_eq!(r.satcount_domains(&[a]) as u64, hi - lo + 1, "[{lo},{hi}]");
    }
    assert!(m.domain_range(a, 7, 3).is_zero());
}

#[test]
fn domain_range_is_o_bits_sized() {
    // The range BDD must stay tiny even for a huge domain (Section 4.1).
    let m = BddManager::with_domains(
        &[DomainSpec::new("C", 1 << 40)],
        &OrderSpec::parse("C").unwrap(),
    )
    .unwrap();
    let c = m.domain("C").unwrap();
    let r = m.domain_range(c, 123_456_789, 987_654_321_000);
    assert!(r.node_count() <= 2 * 40, "range BDD is O(bits)");
    assert_eq!(
        r.satcount_domains(&[c]) as u64,
        987_654_321_000 - 123_456_789 + 1
    );
}

#[test]
fn adder_relation() {
    let m = BddManager::with_domains(
        &[DomainSpec::new("X", 64), DomainSpec::new("Y", 64)],
        &OrderSpec::parse("XxY").unwrap(),
    )
    .unwrap();
    let x = m.domain("X").unwrap();
    let y = m.domain("Y").unwrap();
    let add5 = m.domain_add_const(x, y, 5);
    // Pairs (v, v+5) for v in 0..59 (no wrap-around past 63).
    assert_eq!(add5.satcount_domains(&[x, y]) as u64, 59);
    let mut seen = Vec::new();
    add5.and(&m.domain_range(x, 10, 12))
        .for_each_tuple(&[x, y], |t| seen.push((t[0], t[1])));
    seen.sort_unstable();
    assert_eq!(seen, vec![(10, 15), (11, 16), (12, 17)]);
}

#[test]
fn adder_zero_offset_is_equality() {
    let m = BddManager::with_domains(
        &[DomainSpec::new("X", 128), DomainSpec::new("Y", 128)],
        &OrderSpec::parse("XxY").unwrap(),
    )
    .unwrap();
    let x = m.domain("X").unwrap();
    let y = m.domain("Y").unwrap();
    assert_eq!(m.domain_add_const(x, y, 0), m.domain_eq(x, y));
}

#[test]
fn adder_constant_at_or_past_the_width_is_empty() {
    // Every `x + c` with `c >= 2^bits` overflows the 4-bit domain, so no
    // pair survives — the high bits of `c` must not be dropped (`c = 16`
    // is not the identity, `c = 17` is not `y = x + 1`).
    let m = BddManager::with_domains(
        &[DomainSpec::new("X", 16), DomainSpec::new("Y", 16)],
        &OrderSpec::parse("XxY").unwrap(),
    )
    .unwrap();
    let x = m.domain("X").unwrap();
    let y = m.domain("Y").unwrap();
    for c in [16, 17, 31, 1 << 40, u64::MAX] {
        assert!(m.domain_add_const(x, y, c).is_zero(), "c = {c}");
    }
    assert_eq!(m.domain_add_const(x, y, 15).satcount_domains(&[x, y]), 1.0);
}

#[test]
fn adder_is_o_bits_sized() {
    let m = BddManager::with_domains(
        &[DomainSpec::new("X", 1 << 30), DomainSpec::new("Y", 1 << 30)],
        &OrderSpec::parse("XxY").unwrap(),
    )
    .unwrap();
    let x = m.domain("X").unwrap();
    let y = m.domain("Y").unwrap();
    let f = m.domain_add_const(x, y, 0x1234_5678);
    assert!(
        f.node_count() <= 6 * 30,
        "adder BDD must be O(bits), got {} nodes",
        f.node_count()
    );
}

#[test]
fn domain_rename_roundtrip() {
    let m = BddManager::with_domains(
        &[DomainSpec::new("V0", 100), DomainSpec::new("V1", 100)],
        &OrderSpec::parse("V0xV1").unwrap(),
    )
    .unwrap();
    let v0 = m.domain("V0").unwrap();
    let v1 = m.domain("V1").unwrap();
    let f = m.domain_range(v0, 20, 40);
    let g = f.replace(&[(v0, v1)]);
    assert_eq!(g, m.domain_range(v1, 20, 40));
    assert_eq!(g.replace(&[(v1, v0)]), f);
}

#[test]
fn tuples_enumeration() {
    let m = BddManager::with_domains(
        &[DomainSpec::new("A", 4), DomainSpec::new("B", 4)],
        &OrderSpec::parse("A_B").unwrap(),
    )
    .unwrap();
    let a = m.domain("A").unwrap();
    let b = m.domain("B").unwrap();
    let f = m
        .domain_const(a, 1)
        .and(&m.domain_const(b, 2))
        .or(&m.domain_const(a, 3).and(&m.domain_const(b, 0)));
    let mut ts = f.tuples(&[a, b]);
    ts.sort();
    assert_eq!(ts, vec![vec![1, 2], vec![3, 0]]);
}

#[test]
fn with_domains_validation() {
    use whale_bdd::BddError;
    let specs = [DomainSpec::new("A", 4), DomainSpec::new("B", 4)];
    let err = BddManager::with_domains(&specs, &OrderSpec::parse("A").unwrap());
    assert!(matches!(err, Err(BddError::DomainMissingFromOrder(_))));
    let err = BddManager::with_domains(&specs, &OrderSpec::parse("A_B_C").unwrap());
    assert!(matches!(err, Err(BddError::UnknownDomainInOrder(_))));
    let err = BddManager::with_domains(&specs, &OrderSpec::parse("A_B_A").unwrap());
    assert!(matches!(err, Err(BddError::DuplicateDomain(_))));
    let err = BddManager::with_domains(&[DomainSpec::new("A", 0)], &OrderSpec::parse("A").unwrap());
    assert!(matches!(err, Err(BddError::EmptyDomain(_))));
}

#[test]
fn cross_manager_ops_panic() {
    let m1 = mgr4();
    let m2 = mgr4();
    let a = m1.ithvar(0);
    let b = m2.ithvar(0);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.and(&b)));
    assert!(result.is_err());
}

#[test]
fn domain_sizes_that_are_not_powers_of_two() {
    let m = BddManager::with_domains(&[DomainSpec::new("D", 5)], &OrderSpec::parse("D").unwrap())
        .unwrap();
    let d = m.domain("D").unwrap();
    // All 5 constants exist and are disjoint.
    let mut union = m.zero();
    for v in 0..5 {
        let c = m.domain_const(d, v);
        assert!(union.and(&c).is_zero());
        union = union.or(&c);
    }
    assert_eq!(union.satcount_domains(&[d]) as u64, 5);
    assert_eq!(union, m.domain_range(d, 0, 4));
}

#[test]
fn exact_satcount_matches_f64_small() {
    let m = BddManager::with_domains(
        &[DomainSpec::new("A", 1000), DomainSpec::new("B", 1000)],
        &OrderSpec::parse("AxB").unwrap(),
    )
    .unwrap();
    let a = m.domain("A").unwrap();
    let b = m.domain("B").unwrap();
    let f = m.domain_range(a, 10, 600).and(&m.domain_add_const(a, b, 7));
    assert_eq!(
        f.satcount_domains_exact(&[a, b]),
        f.satcount_domains(&[a, b]) as u128
    );
    assert_eq!(f.satcount_domains_exact(&[a, b]), 591);
}

#[test]
fn exact_satcount_beyond_f64_precision() {
    // 2^62-sized domains: the f64 count rounds, the exact count does not.
    let m = BddManager::with_domains(
        &[DomainSpec::new("X", 1 << 62)],
        &OrderSpec::parse("X").unwrap(),
    )
    .unwrap();
    let x = m.domain("X").unwrap();
    let hi = (1u64 << 60) + 12345;
    let f = m.domain_range(x, 3, hi);
    assert_eq!(f.satcount_domains_exact(&[x]), (hi - 3 + 1) as u128);
}

#[test]
fn exact_satcount_constants() {
    let m = BddManager::with_domains(
        &[DomainSpec::new("D", 256)],
        &OrderSpec::parse("D").unwrap(),
    )
    .unwrap();
    let d = m.domain("D").unwrap();
    assert_eq!(m.zero().satcount_domains_exact(&[d]), 0);
    assert_eq!(m.one().satcount_domains_exact(&[d]), 256);
    assert_eq!(m.domain_const(d, 17).satcount_domains_exact(&[d]), 1);
}

#[test]
fn forall_is_dual_of_exist() {
    let m = mgr4();
    let f = m.ithvar(0).or(&m.ithvar(1));
    // ∀x0. (x0 ∨ x1) = x1
    assert_eq!(f.forall(&[0]), m.ithvar(1));
    // ∀ of a conjunction with a free var eliminates satisfying assignments.
    let g = m.ithvar(0).and(&m.ithvar(1));
    assert_eq!(g.forall(&[0]), m.zero());
    assert_eq!(m.one().forall(&[0, 1, 2, 3]), m.one());
}

#[test]
fn restrict_cofactors() {
    let m = mgr4();
    let f = m.ithvar(0).ite(&m.ithvar(1), &m.ithvar(2));
    assert_eq!(f.restrict(&[(0, true)]), m.ithvar(1));
    assert_eq!(f.restrict(&[(0, false)]), m.ithvar(2));
    assert_eq!(f.restrict(&[(0, true), (1, true)]), m.one());
    assert_eq!(f.restrict(&[]), f);
}

#[test]
fn io_roundtrip_with_root_level_siblings() {
    // A function whose root shares its level with another node of the same
    // level reachable in the DAG — regression for root identification by
    // position instead of id.
    use whale_bdd::io::{read_bdd, write_bdd};
    let m = BddManager::with_vars(6);
    // f = x0 ? (x1 ∧ x2) : (x1 ∨ x3): nodes at level 1 appear twice below
    // different branches; serialize a SUBfunction whose root level (1) has
    // sibling nodes at the same level in the source table.
    let g1 = m.ithvar(1).and(&m.ithvar(2));
    let g2 = m.ithvar(1).or(&m.ithvar(3));
    let f = m.ithvar(0).ite(&g1, &g2);
    for func in [&g1, &g2, &f] {
        let mut buf = Vec::new();
        write_bdd(func, &mut buf).unwrap();
        assert_eq!(&read_bdd(&m, buf.as_slice()).unwrap(), func);
    }
}

/// The apply cache keys the commutative operators on the ordered operand
/// pair and `diff` on the pair as given: swapping the operands of `and`
/// is one hit and no miss, swapping those of `diff` misses, and every
/// result keeps its truth table.
#[test]
fn apply_cache_orders_only_commutative_operands() {
    let m = BddManager::with_vars(3);
    let a = m.ithvar(0).or(&m.ithvar(1));
    let b = m.ithvar(1).xor(&m.ithvar(2));

    let before = m.stats().apply_cache;
    let ab = a.and(&b);
    let mid = m.stats().apply_cache;
    let ba = b.and(&a);
    let after = m.stats().apply_cache;
    assert!(mid.misses > before.misses);
    assert_eq!(after.hits, mid.hits + 1);
    assert_eq!(after.misses, mid.misses);
    assert_eq!(ab, ba);

    let before = m.stats().apply_cache;
    let a_b = a.diff(&b);
    let b_a = b.diff(&a);
    let after = m.stats().apply_cache;
    assert!(after.misses >= before.misses + 2);
    assert_ne!(a_b, b_a);

    let eval = |f: &whale_bdd::Bdd, i: u32| {
        f.restrict(&[(0, i & 1 == 1), (1, i & 2 == 2), (2, i & 4 == 4)])
            .is_one()
    };
    for i in 0..8 {
        let (va, vb) = (eval(&a, i), eval(&b, i));
        assert_eq!(eval(&ab, i), va && vb, "and at {i:03b}");
        assert_eq!(eval(&a_b, i), va && !vb, "a diff b at {i:03b}");
        assert_eq!(eval(&b_a, i), vb && !va, "b diff a at {i:03b}");
    }
}
