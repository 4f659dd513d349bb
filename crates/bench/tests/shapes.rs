//! The shapes EXPERIMENTS.md says hold in every row of Figures 5 and 6,
//! checked on the same row functions the `figures` binary prints, at
//! scale 1/64.

use whale_bench::{config, fig5_row, fig6_row, get, prepare_cs, PreparedCs, Row};

fn row(name: &str, f: fn(&PreparedCs) -> Row) -> Row {
    f(&prepare_cs(&config(name, 1, 64).unwrap()))
}

/// The paper's Figure 5: "the single-threaded benchmarks have only one
/// escaped object: the global object", and no synchronization is needed.
#[test]
fn single_threaded_benchmarks_escape_only_the_global_object() {
    for name in ["freetts", "openwfe", "pmd"] {
        let r = row(name, fig5_row);
        let esc = &r.cell("alg7").counts;
        assert_eq!(get(esc, "escaped"), 1, "{name}: escaped objects");
        assert_eq!(get(esc, "needed_syncs"), 0, "{name}: needed syncs");
    }
}

/// `multi / pointer_vars` of one Figure 6 variant, as an exact fraction.
fn multi(row: &Row, variant: &str) -> (u128, u128) {
    let c = &row.cell(variant).counts;
    (get(c, "multi"), get(c, "pointer_vars"))
}

/// `a <= b` for fractions `(numerator, denominator)`.
fn at_most((an, ad): (u128, u128), (bn, bd): (u128, u128)) -> bool {
    an * bd <= bn * ad
}

/// Figure 6's pointer columns: the multi-typed share does not rise from
/// CI without filter to CI with filter to projected CS to full CS, and a
/// pointer analysis is at least as precise as the type analysis with the
/// same context treatment.
#[test]
fn precision_orders_hold_across_the_refinement_variants() {
    for name in ["freetts", "nfcchat"] {
        let r = row(name, fig6_row);
        let chain = ["CiUntyped", "CiTyped", "ProjectedCsPointer", "CsPointer"];
        for pair in chain.windows(2) {
            assert!(
                at_most(multi(&r, pair[1]), multi(&r, pair[0])),
                "{name}: {} multi-typed above {}",
                pair[1],
                pair[0]
            );
        }
        for (pointer, ty) in [
            ("ProjectedCsPointer", "ProjectedCsType"),
            ("CsPointer", "CsType"),
        ] {
            assert!(
                at_most(multi(&r, pointer), multi(&r, ty)),
                "{name}: {pointer} less precise than {ty}"
            );
        }
    }
}
