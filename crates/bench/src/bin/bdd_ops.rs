//! Microbenchmarks of the BDD kernel: the apply family, the relational
//! product, renames, and the paper's O(bits) range/adder constructions.
//!
//! Emits one JSON line per benchmark (see `whale_bench::micro`).
//! Iteration counts: `TESTKIT_BENCH_ITERS` / `TESTKIT_BENCH_WARMUP`.

use whale_bdd::{Bdd, BddManager, DomainSpec, OrderSpec};
use whale_bench::micro::Bench;

fn setup() -> (BddManager, Bdd, Bdd) {
    let mgr = BddManager::with_domains(
        &[
            DomainSpec::new("A", 1 << 16),
            DomainSpec::new("B", 1 << 16),
            DomainSpec::new("C", 1 << 16),
        ],
        &OrderSpec::parse("AxBxC").unwrap(),
    )
    .unwrap();
    let a = mgr.domain("A").unwrap();
    let b = mgr.domain("B").unwrap();
    // Two structured relations with partial overlap: unions of shifted
    // adders, i.e. sparse many-to-many edge relations like the points-to
    // and assignment relations of the analyses (thousands of BDD nodes,
    // far from both the dense and the singleton extremes).
    let edges = |base: u64, lo: u64, hi: u64| {
        let mut r = mgr.zero();
        for k in 0..64u64 {
            r = r.or(&mgr.domain_add_const(a, b, base + k * 977));
        }
        r.and(&mgr.domain_range(a, lo, hi))
    };
    let r1 = edges(17, 1000, 60000);
    let r2 = edges(4099, 20000, 60000);
    (mgr, r1, r2)
}

fn main() {
    let bench = Bench::from_env(3, 20);
    let (mgr, r1, r2) = setup();
    let a = mgr.domain("A").unwrap();
    let b = mgr.domain("B").unwrap();
    let cc = mgr.domain("C").unwrap();

    bench.bench("bdd/and", || r1.and(&r2));
    bench.bench("bdd/or", || r1.or(&r2));
    bench.bench("bdd/diff", || r1.diff(&r2));
    bench.bench("bdd/relprod", || r1.relprod_domains(&r2, &[a]));
    bench.bench("bdd/replace", || r1.replace(&[(b, cc)]));
    // Fused vs. composed rename+join on the semi-naive hot-path shape: a
    // large relation renamed and joined against a delta narrowed on the
    // join variable, so the composed variant materializes a full renamed
    // BDD the join then mostly discards. The A→B, B→C shift is monotone
    // under the AxBxC interleave, so the fused call takes the single-pass
    // kernel. Op caches are cleared (the same fill for both variants) each
    // iteration so both measure real traversals, not warm cache hits.
    let pairs = [(a, b), (b, cc)];
    let delta = r2.and(&mgr.domain_range(b, 24000, 24100));
    // Pre-grow the unique table so neither variant pays first-run growth.
    {
        let _ = r1.replace(&pairs).relprod_domains(&delta, &[b]);
    }
    bench.bench("bdd/replace_relprod_composed", || {
        mgr.clear_op_caches();
        r1.replace(&pairs).relprod_domains(&delta, &[b])
    });
    bench.bench("bdd/replace_relprod_fused", || {
        mgr.clear_op_caches();
        r1.fused_replace_relprod_domains(&delta, &pairs, &[b])
            .expect("monotone shift must take the fused kernel")
    });
    {
        let mgr = BddManager::with_domains(
            &[DomainSpec::new("X", 1 << 62)],
            &OrderSpec::parse("X").unwrap(),
        )
        .unwrap();
        let x = mgr.domain("X").unwrap();
        bench.bench("bdd/range_62bit", || {
            mgr.domain_range(x, 123_456_789, 1 << 55)
        });
    }
    {
        let mgr = BddManager::with_domains(
            &[DomainSpec::new("X", 1 << 62), DomainSpec::new("Y", 1 << 62)],
            &OrderSpec::parse("XxY").unwrap(),
        )
        .unwrap();
        let x = mgr.domain("X").unwrap();
        let y = mgr.domain("Y").unwrap();
        bench.bench("bdd/adder_62bit", || {
            mgr.domain_add_const(x, y, 0x1234_5678_9abc)
        });
    }
    bench.bench("bdd/satcount", || r1.satcount());

    // One JSON line of cumulative op-cache counters for the trajectory
    // files, in the same style as the bench lines.
    let s = mgr.stats();
    let cache = |c: whale_bdd::CacheStats| {
        format!(
            "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_rate\":{:.4}}}",
            c.hits,
            c.misses,
            c.evictions,
            c.hit_rate()
        )
    };
    println!(
        "{{\"bench\":\"bdd/cache_stats\",\"apply\":{},\"ite\":{},\"appex\":{},\"replace\":{}}}",
        cache(s.apply_cache),
        cache(s.ite_cache),
        cache(s.appex_cache),
        cache(s.replace_cache),
    );
}
