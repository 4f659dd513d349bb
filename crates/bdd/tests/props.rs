//! Property-based tests: the kernel is checked against a brute-force
//! truth-table oracle on random boolean expressions, and the finite-domain
//! layer against direct set arithmetic.
//!
//! Runs on the in-tree `whale-testkit` harness: 64 cases per property,
//! failing seeds are printed and replayable with `TESTKIT_SEED=<n>`.

use whale_testkit::prop::{pair_of, ranged_u32, ranged_u64};
use whale_testkit::{check, Gen, Rng};

use whale_bdd::{Bdd, BddManager, DomainSpec, OrderSpec};

const NVARS: u32 = 6;
const CASES: u32 = 64;

/// A random boolean expression over `NVARS` variables.
#[derive(Debug, Clone)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Diff(Box<Expr>, Box<Expr>),
}

fn gen_expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.25) {
        return Expr::Var(rng.gen_range(0..NVARS));
    }
    let a = || Box::new(Expr::Var(0));
    let mut node = match rng.gen_range(0..5u32) {
        0 => Expr::Not(a()),
        1 => Expr::And(a(), a()),
        2 => Expr::Or(a(), a()),
        3 => Expr::Xor(a(), a()),
        _ => Expr::Diff(a(), a()),
    };
    match &mut node {
        Expr::Not(x) => **x = gen_expr(rng, depth - 1),
        Expr::And(x, y) | Expr::Or(x, y) | Expr::Xor(x, y) | Expr::Diff(x, y) => {
            **x = gen_expr(rng, depth - 1);
            **y = gen_expr(rng, depth - 1);
        }
        Expr::Var(_) => unreachable!(),
    }
    node
}

/// Shrink an expression to its immediate subexpressions: greedy descent
/// finds a minimal failing subtree.
fn subexprs(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Var(v) if *v > 0 => vec![Expr::Var(0)],
        Expr::Var(_) => vec![],
        Expr::Not(x) => vec![(**x).clone()],
        Expr::And(x, y) | Expr::Or(x, y) | Expr::Xor(x, y) | Expr::Diff(x, y) => {
            vec![(**x).clone(), (**y).clone()]
        }
    }
}

fn arb_expr() -> Gen<Expr> {
    Gen::new(|rng| gen_expr(rng, 5)).with_shrink(subexprs)
}

fn arb_expr_pair() -> Gen<(Expr, Expr)> {
    pair_of(arb_expr(), arb_expr())
}

fn eval(e: &Expr, bits: u32) -> bool {
    match e {
        Expr::Var(v) => (bits >> v) & 1 == 1,
        Expr::Not(a) => !eval(a, bits),
        Expr::And(a, b) => eval(a, bits) && eval(b, bits),
        Expr::Or(a, b) => eval(a, bits) || eval(b, bits),
        Expr::Xor(a, b) => eval(a, bits) ^ eval(b, bits),
        Expr::Diff(a, b) => eval(a, bits) && !eval(b, bits),
    }
}

fn build(m: &BddManager, e: &Expr) -> Bdd {
    const IDENTITY: [u32; NVARS as usize] = [0, 1, 2, 3, 4, 5];
    build_at(m, e, &IDENTITY)
}

/// Builds `e` with expression variable `v` held by manager variable
/// `vars[v]`.
fn build_at(m: &BddManager, e: &Expr, vars: &[u32]) -> Bdd {
    let sub = |x: &Expr| build_at(m, x, vars);
    match e {
        Expr::Var(v) => m.ithvar(vars[*v as usize]),
        Expr::Not(a) => sub(a).not(),
        Expr::And(a, b) => sub(a).and(&sub(b)),
        Expr::Or(a, b) => sub(a).or(&sub(b)),
        Expr::Xor(a, b) => sub(a).xor(&sub(b)),
        Expr::Diff(a, b) => sub(a).diff(&sub(b)),
    }
}

/// A manager over `NVARS` one-bit domains `X0..`, with `order` listing
/// the expression variables top first, and the manager variable that
/// holds each expression variable.
fn ordered_manager(order: &[u32]) -> (BddManager, Vec<u32>) {
    let name = |v: u32| format!("X{v}");
    let specs: Vec<DomainSpec> = (0..NVARS).map(|v| DomainSpec::new(name(v), 2)).collect();
    let spec = OrderSpec::from_groups(order.iter().map(|&v| vec![name(v)]).collect());
    let m = BddManager::with_domains(&specs, &spec).unwrap();
    let vars = (0..NVARS)
        .map(|v| m.domain_levels(m.domain(&name(v)).unwrap())[0])
        .collect();
    (m, vars)
}

fn truth_table(e: &Expr) -> Vec<bool> {
    (0..(1u32 << NVARS)).map(|bits| eval(e, bits)).collect()
}

fn bdd_truth_table(m: &BddManager, f: &Bdd) -> Vec<bool> {
    // Evaluate the BDD by intersecting with each minterm.
    (0..(1u32 << NVARS))
        .map(|bits| {
            let mut minterm = m.one();
            for v in 0..NVARS {
                let lit = if (bits >> v) & 1 == 1 {
                    m.ithvar(v)
                } else {
                    m.nithvar(v)
                };
                minterm = minterm.and(&lit);
            }
            !f.and(&minterm).is_zero()
        })
        .collect()
}

fn eq_or<T: PartialEq + std::fmt::Debug>(got: T, want: T, what: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

#[test]
fn bdd_matches_truth_table() {
    check("bdd_matches_truth_table", CASES, &arb_expr(), |e| {
        let m = BddManager::with_vars(NVARS);
        let f = build(&m, e);
        eq_or(bdd_truth_table(&m, &f), truth_table(e), "truth table")
    });
}

#[test]
fn satcount_matches_truth_table() {
    check("satcount_matches_truth_table", CASES, &arb_expr(), |e| {
        let m = BddManager::with_vars(NVARS);
        let f = build(&m, e);
        let expected = truth_table(e).iter().filter(|&&b| b).count() as u64;
        eq_or(f.satcount() as u64, expected, "satcount")
    });
}

#[test]
fn exist_matches_oracle() {
    let gen = pair_of(arb_expr(), ranged_u32(0, NVARS));
    check("exist_matches_oracle", CASES, &gen, |(e, var)| {
        let m = BddManager::with_vars(NVARS);
        let f = build(&m, e);
        let g = f.exist(&[*var]);
        let tt = truth_table(e);
        let expected: Vec<bool> = (0..(1u32 << NVARS))
            .map(|bits| tt[(bits & !(1 << var)) as usize] || tt[(bits | (1 << var)) as usize])
            .collect();
        eq_or(bdd_truth_table(&m, &g), expected, "exist")
    });
}

#[test]
fn relprod_is_and_exist() {
    let gen = pair_of(arb_expr_pair(), ranged_u32(0, NVARS));
    check("relprod_is_and_exist", CASES, &gen, |((a, b), var)| {
        let m = BddManager::with_vars(NVARS);
        let fa = build(&m, a);
        let fb = build(&m, b);
        if fa.relprod(&fb, &[*var]) == fa.and(&fb).exist(&[*var]) {
            Ok(())
        } else {
            Err("relprod != and;exist".into())
        }
    });
}

#[test]
fn double_negation() {
    check("double_negation", CASES, &arb_expr(), |e| {
        let m = BddManager::with_vars(NVARS);
        let f = build(&m, e);
        if f.not().not() == f {
            Ok(())
        } else {
            Err("not(not(f)) != f".into())
        }
    });
}

#[test]
fn canonical_equal_functions_equal_nodes() {
    check(
        "canonical_equal_functions_equal_nodes",
        CASES,
        &arb_expr_pair(),
        |(a, b)| {
            let m = BddManager::with_vars(NVARS);
            let fa = build(&m, a);
            let fb = build(&m, b);
            let same_fn = truth_table(a) == truth_table(b);
            eq_or(fa == fb, same_fn, "canonicity")
        },
    );
}

#[test]
fn gc_is_transparent() {
    check("gc_is_transparent", CASES, &arb_expr_pair(), |(a, b)| {
        let m = BddManager::with_vars(NVARS);
        let fa = build(&m, a);
        let before = bdd_truth_table(&m, &fa);
        // Generate garbage, collect, and re-check.
        {
            let _g = build(&m, b);
        }
        m.gc();
        eq_or(bdd_truth_table(&m, &fa), before, "post-GC truth table")?;
        // Rebuilding b after GC must still work and be canonical.
        let fb1 = build(&m, b);
        let fb2 = build(&m, b);
        eq_or(fb1 == fb2, true, "post-GC canonicity")
    });
}

#[test]
fn replace_shift_matches_oracle() {
    check("replace_shift_matches_oracle", CASES, &arb_expr(), |e| {
        // Shift all variables up by NVARS within a 2*NVARS manager: always
        // monotone.
        let m = BddManager::with_vars(2 * NVARS);
        let f = build(&m, e);
        let pairs: Vec<(u32, u32)> = (0..NVARS).map(|v| (v, v + NVARS)).collect();
        let g = f.replace_levels(&pairs);
        // g over shifted vars must have the same satcount.
        eq_or(g.satcount() as u64, f.satcount() as u64, "shift satcount")?;
        // And shifting back is the identity.
        let back: Vec<(u32, u32)> = pairs.iter().map(|&(a, b)| (b, a)).collect();
        eq_or(g.replace_levels(&back) == f, true, "shift round-trip")
    });
}

#[test]
fn fused_replace_relprod_matches_composed() {
    let gen = pair_of(arb_expr_pair(), ranged_u32(0, 2 * NVARS));
    check(
        "fused_replace_relprod_matches_composed",
        CASES,
        &gen,
        |((a, b), var)| {
            // f lives on vars 0..NVARS and is renamed up by NVARS (always
            // monotone, so the fused kernel engages); g spans the full
            // 2*NVARS space via two copies joined at shifted levels.
            let m = BddManager::with_vars(2 * NVARS);
            let f = build(&m, a);
            let pairs: Vec<(u32, u32)> = (0..NVARS).map(|v| (v, v + NVARS)).collect();
            let g = build(&m, b).and(&build(&m, a).replace_levels(&pairs).or(&build(&m, b)));
            let vars = [*var];
            let fused = f.replace_relprod(&g, &pairs, &vars);
            let composed = f.replace_levels(&pairs).relprod(&g, &vars);
            eq_or(fused == composed, true, "fused == replace;relprod")?;
            eq_or(
                fused.satcount() as u64,
                composed.satcount() as u64,
                "fused satcount",
            )
        },
    );
}

/// A random relation over `D0, D1, D2` (4 domains of 8 values in one of a
/// few orders), a rename of some of the four domains and a second
/// relation over `D1, D3` to join the renamed one with.
#[derive(Debug, Clone)]
struct RenameCase {
    order: &'static str,
    rows: Vec<Vec<u64>>,
    /// `(from, to)` domain indices, sources distinct: a permutation (swaps,
    /// cycles) or a partial map that may merge two sources.
    pairs: Vec<(usize, usize)>,
    other: Vec<Vec<u64>>,
    quant: Vec<usize>,
}

fn arb_rename_case() -> Gen<RenameCase> {
    Gen::new(|rng| {
        let order = *rng.choose(&["D0xD1xD2xD3", "D0_D1_D2_D3", "D3_D1xD0_D2"]);
        let row = |rng: &mut Rng, n: usize| (0..n).map(|_| rng.below(8)).collect::<Vec<u64>>();
        let rows = (0..rng.below(12)).map(|_| row(rng, 3)).collect();
        let other = (0..rng.below(12)).map(|_| row(rng, 2)).collect();
        let mut sources: Vec<usize> = (0..4).collect();
        rng.shuffle(&mut sources);
        let pairs = if rng.gen_bool(0.5) {
            let mut targets = sources.clone();
            rng.shuffle(&mut targets);
            sources.into_iter().zip(targets).collect()
        } else {
            let n = rng.gen_range(1..5usize);
            sources[..n]
                .iter()
                .map(|&s| (s, rng.gen_range(0..4usize)))
                .collect()
        };
        let quant = (0..4).filter(|_| rng.gen_bool(0.4)).collect();
        RenameCase {
            order,
            rows,
            pairs,
            other,
            quant,
        }
    })
}

/// The tuple-level meaning of a rename: `rows` over domains `cols`
/// renamed by `pairs` is the relation over the target domains (sorted)
/// whose tuples, read back through the pairs, lie in `rows`. A row whose
/// merged columns disagree has no image.
fn renamed_rows(
    rows: &[Vec<u64>],
    cols: &[usize],
    pairs: &[(usize, usize)],
) -> (Vec<usize>, Vec<Vec<u64>>) {
    let dst: Vec<usize> = cols
        .iter()
        .map(|&c| pairs.iter().find(|p| p.0 == c).map_or(c, |p| p.1))
        .collect();
    let mut out = dst.clone();
    out.sort_unstable();
    out.dedup();
    let mut image: Vec<Vec<u64>> = rows
        .iter()
        .filter_map(|r| {
            let mut u = vec![None; out.len()];
            for (&d, &v) in dst.iter().zip(r) {
                let k = out.binary_search(&d).unwrap();
                if *u[k].get_or_insert(v) != v {
                    return None;
                }
            }
            Some(u.into_iter().map(Option::unwrap).collect())
        })
        .collect();
    image.sort();
    image.dedup();
    (out, image)
}

#[test]
fn replace_matches_tuple_renaming() {
    check(
        "replace_matches_tuple_renaming",
        CASES,
        &arb_rename_case(),
        |c| {
            let names = ["D0", "D1", "D2", "D3"];
            let specs: Vec<DomainSpec> = names.iter().map(|n| DomainSpec::new(*n, 8)).collect();
            let m = BddManager::with_domains(&specs, &OrderSpec::parse(c.order).unwrap()).unwrap();
            let d: Vec<_> = names.iter().map(|n| m.domain(n).unwrap()).collect();
            let f = m.tuple_set(&d[..3], &c.rows);
            let pairs: Vec<_> = c.pairs.iter().map(|&(a, b)| (d[a], d[b])).collect();
            let renamed = f.replace(&pairs);
            let (out, want) = renamed_rows(&c.rows, &[0, 1, 2], &c.pairs);
            let out_doms: Vec<_> = out.iter().map(|&i| d[i]).collect();
            let mut got = renamed.tuples(&out_doms);
            got.sort();
            eq_or(got, want, "replace vs renamed tuples")?;
            let g = m.tuple_set(&[d[1], d[3]], &c.other);
            let quant: Vec<_> = c.quant.iter().map(|&i| d[i]).collect();
            eq_or(
                f.replace_relprod_domains(&g, &pairs, &quant),
                renamed.relprod_domains(&g, &quant),
                "replace_relprod_domains vs replace;relprod_domains",
            )
        },
    );
}

#[test]
fn cache_survives_gc_churn() {
    check(
        "cache_survives_gc_churn",
        CASES,
        &arb_expr_pair(),
        |(a, b)| {
            // Compute results, then churn garbage through repeated build/drop
            // and forced GCs: the generation-tagged caches must never serve a
            // stale entry whose nodes were freed and reallocated.
            let m = BddManager::with_vars(NVARS);
            let fa = build(&m, a);
            let before_and = fa.and(&build(&m, b));
            let before_tt = bdd_truth_table(&m, &before_and);
            drop(before_and);
            for _ in 0..3 {
                {
                    let g1 = build(&m, b).xor(&build(&m, a));
                    let _g2 = g1.not().or(&fa);
                }
                m.gc();
            }
            let after_and = fa.and(&build(&m, b));
            eq_or(bdd_truth_table(&m, &after_and), before_tt, "post-churn AND")?;
            // Canonicity across the churn: recomputing yields the same node.
            eq_or(
                fa.and(&build(&m, b)) == after_and,
                true,
                "post-churn canonicity",
            )
        },
    );
}

/// Reference node count of the reduced OBDD of the truth table `tt` when
/// expression variable `v` sits at level `levels[v]`: the nodes at level
/// `l` are exactly the distinct cofactors — over every assignment to the
/// variables above `l` — that depend on the variable at `l`.
fn reference_node_count(levels: &[u32], tt: &[bool]) -> usize {
    let mut by_level: Vec<u32> = (0..NVARS).collect();
    by_level.sort_by_key(|&v| levels[v as usize]);
    let mut count = 0;
    for (l, &x) in by_level.iter().enumerate() {
        let above = &by_level[..l];
        let mut cofactors = std::collections::HashSet::new();
        for assign in 0..(1u32 << l) {
            let fix = |bits: u32| {
                above.iter().enumerate().fold(bits, |b, (i, &v)| {
                    (b & !(1 << v)) | (((assign >> i) & 1) << v)
                })
            };
            let g: Vec<bool> = (0..(1u32 << NVARS)).map(|b| tt[fix(b) as usize]).collect();
            if (0..(1u32 << NVARS)).any(|b| g[b as usize] != g[(b ^ (1 << x)) as usize]) {
                cofactors.insert(g);
            }
        }
        count += cofactors.len();
    }
    count
}

/// `support` and `node_count` walk the graph with the store's GC marks:
/// both must match a truth-table reference — a variable is in the support
/// iff flipping it changes some row — under the identity and a permuted
/// order, on two calls in a row with a forced GC between them, and must
/// leave no mark behind (the sanitizer rejects stray marks).
#[test]
fn support_and_node_count_match_truth_table() {
    const PERMUTED: [u32; NVARS as usize] = [3, 0, 5, 1, 4, 2];
    let permuted = std::cell::Cell::new(0usize);
    let gen = pair_of(arb_expr_pair(), ranged_u32(0, 2));
    check(
        "support_and_node_count_match_truth_table",
        CASES,
        &gen,
        |((e, garbage), order)| {
            let order: Vec<u32> = if *order == 1 {
                permuted.set(permuted.get() + 1);
                PERMUTED.to_vec()
            } else {
                (0..NVARS).collect()
            };
            let (m, vars) = ordered_manager(&order);
            let f = build_at(&m, e, &vars);
            let tt = truth_table(e);
            let mut support: Vec<u32> = (0..NVARS)
                .filter(|&v| {
                    (0..(1u32 << NVARS)).any(|b| tt[b as usize] != tt[(b ^ (1 << v)) as usize])
                })
                .map(|v| vars[v as usize])
                .collect();
            support.sort_unstable();
            let nodes = reference_node_count(&vars, &tt);
            for call in ["first", "second"] {
                eq_or(f.support(), support.clone(), &format!("{call} support"))?;
                eq_or(f.node_count(), nodes, &format!("{call} node_count"))?;
                m.check_invariants()?;
                {
                    let _g = build_at(&m, garbage, &vars).xor(&f);
                }
                m.gc();
            }
            Ok(())
        },
    );
    assert!(
        permuted.get() > 0,
        "no case used the permuted order; its check is vacuous"
    );
}

#[test]
fn domain_range_count() {
    let gen = pair_of(ranged_u64(0, 500), ranged_u64(0, 500));
    check("domain_range_count", CASES, &gen, |&(lo, len)| {
        let m = BddManager::with_domains(
            &[DomainSpec::new("D", 1000)],
            &OrderSpec::parse("D").unwrap(),
        )
        .unwrap();
        let d = m.domain("D").unwrap();
        let hi = (lo + len).min(999);
        let r = m.domain_range(d, lo, hi);
        eq_or(r.satcount_domains(&[d]) as u64, hi - lo + 1, "range count")
    });
}

/// One adder check: a width, a layout of the two domains and an
/// unrelated third one, and a constant (a quarter of the cases at or past
/// `2^bits`, where nothing survives).
#[derive(Debug, Clone)]
struct AdderCase {
    bits: u32,
    layout: &'static str,
    c: u64,
}

fn arb_adder_case() -> Gen<AdderCase> {
    Gen::new(|rng| {
        let bits = rng.gen_range(1..13u32);
        let width = 1u64 << bits;
        AdderCase {
            bits,
            layout: ["XxY_Z", "YxX_Z", "X_Y_Z", "Y_X_Z", "X_Z_Y", "ZxY_X"][rng.below(6) as usize],
            c: match rng.gen_range(0..8u32) {
                0 => width + rng.below(width),
                1 => rng.next_u64() | width,
                _ => rng.below(width),
            },
        }
    })
}

#[test]
fn domain_adder_matches_arithmetic() {
    check(
        "domain_adder_matches_arithmetic",
        CASES,
        &arb_adder_case(),
        |case| {
            let width = 1u64 << case.bits;
            let m = BddManager::with_domains(
                &[
                    DomainSpec::new("X", width),
                    DomainSpec::new("Y", width),
                    DomainSpec::new("Z", 8),
                ],
                &OrderSpec::parse(case.layout).unwrap(),
            )
            .unwrap();
            let x = m.domain("X").unwrap();
            let y = m.domain("Y").unwrap();
            let mut pairs = m.domain_add_const(x, y, case.c).tuples(&[x, y]);
            pairs.sort_unstable();
            let expected: Vec<Vec<u64>> = (0..width)
                .filter_map(|v| {
                    v.checked_add(case.c)
                        .filter(|&w| w < width)
                        .map(|w| vec![v, w])
                })
                .collect();
            eq_or(pairs, expected, "adder tuples")
        },
    );
}

/// One tuple-builder check: domain sizes (the attributes), the variable
/// order (shuffled, some domains interleaved) and the tuples, duplicates
/// included.
#[derive(Debug, Clone)]
struct TupleCase {
    sizes: Vec<u64>,
    order: Vec<Vec<String>>,
    tuples: Vec<Vec<u64>>,
}

/// Domain names of a [`TupleCase`]: the attributes plus one unrelated
/// domain, so the relation's variables are not contiguous in the order.
fn tuple_case_names(arity: usize) -> Vec<String> {
    (0..arity)
        .map(|i| format!("D{i}"))
        .chain(["E".to_string()])
        .collect()
}

fn arb_tuple_case() -> Gen<TupleCase> {
    Gen::new(|rng| {
        let arity = rng.gen_range(1..5usize);
        // A few cases use 63- and 64-bit domains: keys past 128 bits.
        let wide = rng.gen_bool(0.15);
        let sizes: Vec<u64> = (0..arity)
            .map(|_| {
                if wide {
                    *rng.choose(&[1u64 << 63, u64::MAX])
                } else {
                    1 + rng.below(300)
                }
            })
            .collect();
        let mut names = tuple_case_names(arity);
        rng.shuffle(&mut names);
        let mut order: Vec<Vec<String>> = Vec::new();
        for name in names {
            match order.last_mut() {
                Some(group) if rng.gen_bool(0.4) => group.push(name),
                _ => order.push(vec![name]),
            }
        }
        // Wide cases stay small: the reference's per-bit minterms are slow.
        let count = match (rng.gen_bool(0.1), wide) {
            (true, _) => 0,
            (false, true) => rng.below(40),
            (false, false) => rng.below(400),
        };
        let mut tuples: Vec<Vec<u64>> = Vec::new();
        for _ in 0..count {
            if !tuples.is_empty() && rng.gen_bool(0.2) {
                let dup = rng.choose(&tuples).clone();
                tuples.push(dup);
            } else {
                tuples.push(sizes.iter().map(|&s| rng.below(s)).collect());
            }
        }
        TupleCase {
            sizes,
            order,
            tuples,
        }
    })
}

/// Checks `tuple_set` against a minterm-per-tuple OR. The manager starts
/// at the 4k-slot minimum and `tuple_set` runs first on a nearly empty
/// table, so the larger cases collect and grow the table in the middle of
/// the build. Returns whether that happened.
fn tuple_set_matches_reference(case: &TupleCase) -> Result<bool, String> {
    let names = tuple_case_names(case.sizes.len());
    let specs: Vec<DomainSpec> = names
        .iter()
        .zip(case.sizes.iter().chain([&50]))
        .map(|(n, &size)| DomainSpec::new(n.as_str(), size))
        .collect();
    let m = BddManager::with_domains_and_capacity(
        &specs,
        &OrderSpec::from_groups(case.order.clone()),
        1 << 12,
    )
    .unwrap();
    let doms: Vec<_> = names[..case.sizes.len()]
        .iter()
        .map(|n| m.domain(n).unwrap())
        .collect();
    let reference = |tuples: &[Vec<u64>]| {
        let mut acc = m.zero();
        for t in tuples {
            let mut minterm = m.one();
            for (&v, &d) in t.iter().zip(&doms) {
                minterm = minterm.and(&m.domain_const(d, v));
            }
            acc = acc.or(&minterm);
        }
        acc
    };
    let before = m.stats();
    let built = m.tuple_set(&doms, &case.tuples);
    let after = m.stats();
    eq_or(
        built == reference(&case.tuples),
        true,
        "tuple_set equals the minterm OR",
    )?;
    let mut distinct = case.tuples.clone();
    distinct.sort_unstable();
    distinct.dedup();
    eq_or(
        built.satcount_domains_exact(&doms),
        distinct.len() as u128,
        "tuple count",
    )?;
    Ok(after.gc_runs > before.gc_runs && after.allocated_nodes > before.allocated_nodes)
}

#[test]
fn tuple_set_matches_minterm_reference() {
    // One fixed relation past 128 key bits: three 63-bit attributes.
    let wide = TupleCase {
        sizes: vec![1 << 63; 3],
        order: vec![
            vec!["D2".into(), "E".into()],
            vec!["D0".into()],
            vec!["D1".into()],
        ],
        tuples: vec![
            vec![0, 1 << 62, 12345],
            vec![(1 << 63) - 1, 7, 0],
            vec![0, 1 << 62, 12345],
        ],
    };
    tuple_set_matches_reference(&wide).unwrap();
    let grown = std::cell::Cell::new(0);
    check(
        "tuple_set_matches_minterm_reference",
        CASES,
        &arb_tuple_case(),
        |case| {
            grown.set(grown.get() + u32::from(tuple_set_matches_reference(case)?));
            Ok(())
        },
    );
    assert!(grown.get() > 0, "no build collected and grew the table");
}

/// One count check: a relation over 1–3 domains, its tuples, junk
/// relations to build, count and free around it, and whether the order
/// is reversed with the unrelated domain on top.
#[derive(Debug, Clone)]
struct CountCase {
    sizes: Vec<u64>,
    tuples: Vec<Vec<u64>>,
    junk: Vec<Vec<Vec<u64>>>,
    reversed: bool,
}

fn arb_count_case() -> Gen<CountCase> {
    Gen::new(|rng| {
        let sizes: Vec<u64> = (0..rng.gen_range(1..4usize))
            .map(|_| 1 + rng.below(40))
            .collect();
        let rel = |rng: &mut Rng| -> Vec<Vec<u64>> {
            (0..rng.below(60))
                .map(|_| sizes.iter().map(|&s| rng.below(s)).collect())
                .collect()
        };
        let tuples = rel(rng);
        let junk = (0..rng.gen_range(1..4usize)).map(|_| rel(rng)).collect();
        CountCase {
            sizes,
            tuples,
            junk,
            reversed: rng.gen_bool(0.5),
        }
    })
}

#[test]
fn exact_counts_survive_gc_and_cache_clears() {
    check(
        "exact_counts_survive_gc_and_cache_clears",
        CASES,
        &arb_count_case(),
        |case| {
            let names: Vec<String> = (0..case.sizes.len()).map(|i| format!("D{i}")).collect();
            let mut specs: Vec<DomainSpec> = names
                .iter()
                .zip(&case.sizes)
                .map(|(n, &size)| DomainSpec::new(n.as_str(), size))
                .collect();
            specs.push(DomainSpec::new("E", 50));
            let mut order: Vec<Vec<String>> = names.iter().map(|n| vec![n.clone()]).collect();
            order.push(vec!["E".into()]);
            if case.reversed {
                order.reverse();
            }
            let m = BddManager::with_domains(&specs, &OrderSpec::from_groups(order)).unwrap();
            let doms: Vec<_> = names.iter().map(|n| m.domain(n).unwrap()).collect();
            let e = m.domain("E").unwrap();
            // Both counts, checked against decoding, and the memo's hits.
            let counted = |f: &Bdd| -> Result<u64, String> {
                let want = f.tuples(&doms).len() as u128;
                eq_or(f.satcount_domains_exact(&doms), want, "exact count")?;
                eq_or(f.satcount_domains(&doms), want as f64, "f64 count")?;
                Ok(m.stats().count_memo.hits)
            };
            let rel = m.tuple_set(&doms, &case.tuples);
            let hits = counted(&rel)?;
            eq_or(counted(&rel)?, hits + 1, "repeat count hits the memo")?;
            // One root over two variable sets: keys must not collide, and
            // the domain order does not change the key.
            let mut with_e = doms.clone();
            with_e.push(e);
            let n = rel.satcount_domains_exact(&doms);
            eq_or(
                rel.satcount_domains_exact(&with_e),
                n * 64,
                "count with E free",
            )?;
            with_e.reverse();
            eq_or(
                rel.satcount_domains_exact(&with_e),
                n * 64,
                "reversed domains",
            )?;
            // Counted roots die and their slots are reused.
            for t in &case.junk {
                counted(&m.tuple_set(&doms, t))?;
            }
            m.gc();
            m.check_invariants()?;
            for t in case.junk.iter().rev() {
                counted(&m.tuple_set(&doms, t))?;
            }
            counted(&rel)?;
            m.clear_op_caches();
            let hits = m.stats().count_memo.hits;
            eq_or(counted(&rel)?, hits, "cleared memo misses")?;
            m.check_invariants()
        },
    );
}
