//! Span regression tests: every span-carrying diagnostic variant must
//! report the exact 1-based line AND column of the offending construct.
//!
//! Rules are deliberately indented by varying amounts so a column that
//! silently degrades to 1 (or to the line start) fails the test rather
//! than passing by coincidence.

use whale_datalog::analyze::check_source;
use whale_datalog::diag::Diagnostic;
use whale_datalog::DatalogError;

/// Asserts that analyzing `src` yields a diagnostic with `code` at
/// exactly `line:col`.
fn expect_span(name: &str, src: &str, code: &str, line: usize, col: usize) {
    let analysis = check_source(src);
    let diag = analysis
        .diagnostics
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| {
            panic!(
                "{name}: no {code} diagnostic; got {:?}",
                analysis
                    .diagnostics
                    .iter()
                    .map(|d| d.code)
                    .collect::<Vec<_>>()
            )
        });
    assert_eq!(
        (diag.span.line, diag.span.col),
        (line, col),
        "{name}: {code} span mismatch in:\n{src}"
    );
}

#[test]
fn parse_error_points_at_offending_character() {
    // The `?` is the 3rd character of line 2.
    expect_span("E001", "DOMAINS\nV ?\n", "E001", 2, 3);
}

#[test]
fn unknown_domain_points_at_declaration() {
    let src = "DOMAINS\nV 16\nRELATIONS\ninput a (x : Q)\n";
    expect_span("E002", src, "E002", 4, 1);
}

#[test]
fn arity_mismatch_points_at_indented_rule() {
    let src =
        "DOMAINS\nV 16\nRELATIONS\ninput a (x : V)\noutput p (x : V)\nRULES\n  p(x) :- a(x,x).\n";
    expect_span("E006", src, "E006", 7, 3);
}

#[test]
fn type_conflict_points_at_rule() {
    let src = "DOMAINS\nV 16\nH 8\nRELATIONS\ninput a (x : V)\ninput b (x : H)\noutput p (x : V)\nRULES\np(x) :- a(x), b(x).\n";
    expect_span("E007", src, "E007", 9, 1);
}

#[test]
fn unsafe_head_var_points_at_rule() {
    let src = "DOMAINS\nV 16\nRELATIONS\ninput a (x : V)\noutput p (x : V, y : V)\nRULES\np(x,y) :- a(x).\n";
    expect_span("E008", src, "E008", 7, 1);
}

#[test]
fn unsafe_negated_var_points_at_rule() {
    let src = "DOMAINS\nV 16\nRELATIONS\ninput a (x : V)\ninput b (x : V)\noutput p (x : V)\nRULES\np(x) :- a(x), !b(y).\n";
    expect_span("E009", src, "E009", 8, 1);
}

#[test]
fn not_stratified_points_at_rule() {
    let src = "DOMAINS\nV 16\nRELATIONS\ninput a (x : V)\noutput p (x : V)\nRULES\np(x) :- a(x), !p(x).\n";
    expect_span("E010", src, "E010", 7, 1);
}

#[test]
fn constraint_domain_mismatch_points_at_rule() {
    let src = "DOMAINS\nV 16\nH 8\nRELATIONS\ninput a (x : V)\ninput b (x : H)\noutput p (x : V)\nRULES\np(x) :- a(x), b(y), x < y.\n";
    expect_span("E013", src, "E013", 9, 1);
}

#[test]
fn unused_relation_points_at_declaration() {
    let src = "DOMAINS\nV 8\nRELATIONS\ninput edge (s : V, d : V)\ninput ghost (s : V)\noutput path (s : V, d : V)\nRULES\npath(x,y) :- edge(x,y).\n";
    expect_span("W001", src, "W001", 5, 1);
}

/// One program exercising W002/W003/W004 at once, each rule indented by a
/// different amount so every column is distinct.
const WARN_TRIO: &str = "DOMAINS\n\
V 16\n\
RELATIONS\n\
input a (x : V)\n\
input c (x : V, y : V)\n\
tmp (x : V)\n\
tmp2 (x : V)\n\
output p (x : V)\n\
RULES\n\
\x20\x20\x20p(x) :- c(x,y).\n\
\x20tmp(x) :- a(x).\n\
\x20\x20tmp2(x) :- tmp(x).\n";

#[test]
fn singleton_variable_points_at_rule_with_column() {
    expect_span("W003", WARN_TRIO, "W003", 10, 4);
}

#[test]
fn unreachable_rule_points_at_rule_with_column() {
    expect_span("W004", WARN_TRIO, "W004", 11, 2);
}

#[test]
fn dead_rule_points_at_rule_with_column() {
    expect_span("W002", WARN_TRIO, "W002", 12, 3);
}

#[test]
fn cross_product_points_at_indented_rule() {
    let src = "DOMAINS\nV 16\nRELATIONS\ninput a (x : V)\ninput b (x : V)\noutput p (x : V, y : V)\nRULES\n    p(x,y) :- a(x), b(y).\n";
    expect_span("W006", src, "W006", 8, 5);
}

#[test]
fn expensive_rule_points_at_rule() {
    let src = "DOMAINS\nV 65536\nRELATIONS\ninput edge (s : V, d : V)\noutput path (s : V, d : V)\nRULES\npath(x,y) :- edge(x,y).\n path(x,z) :- path(x,y), edge(y,z).\n";
    expect_span("W007", src, "W007", 8, 2);
}

#[test]
fn duplicate_and_subsumed_rules_point_at_later_rule() {
    let src = "DOMAINS\nV 16\nRELATIONS\ninput edge (s : V, d : V)\noutput path (s : V, d : V)\nRULES\npath(x,y) :- edge(x,y).\n  path(a,b) :- edge(a,b).\n path(x,y) :- edge(x,y), edge(y,y).\n";
    expect_span("W008", src, "W008", 8, 3);
    expect_span("W009", src, "W009", 9, 2);
}

/// Spanless variants must render without a `-->` locus rather than with a
/// bogus 0:0 location.
#[test]
fn spanless_variants_stay_spanless() {
    let err = DatalogError::ZeroSearchBudget;
    let d = Diagnostic::from_error(&err);
    assert_eq!(d.code, "E015");
    assert!(!d.span.is_known());
}
