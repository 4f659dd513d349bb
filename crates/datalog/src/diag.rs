//! Structured diagnostics: stable codes, severities, source spans, and
//! rustc-style caret / JSON rendering.
//!
//! [`DatalogError`] stays the programmatic error type; this module wraps
//! each variant in a [`Diagnostic`] carrying a stable code (`E0xx` for
//! errors, `W0xx` for warnings), a [`Span`], and optional notes, so that
//! both CLIs and CI can render, filter and machine-read the lint surface
//! uniformly (`bddbddb --check --format json`).

use crate::json::json_string;
use crate::DatalogError;
use std::fmt;

/// A 1-based source position. `line == 0` means "no source location"
/// (programmatically constructed rules, engine-level errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based source line; 0 when unknown.
    pub line: usize,
    /// 1-based column (in characters); 0 when unknown.
    pub col: usize,
}

impl Span {
    /// The "no location" span.
    pub const NONE: Span = Span { line: 0, col: 0 };

    /// A span at `line:col` (both 1-based).
    pub fn new(line: usize, col: usize) -> Self {
        Span { line, col }
    }

    /// Whether this span points at real source text.
    pub fn is_known(&self) -> bool {
        self.line != 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Diagnostic severity. Errors abort compilation; warnings are advisory
/// unless `--deny-warnings` promotes them to a failing exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The program cannot be solved.
    Error,
    /// The program is solvable but suspicious.
    Warning,
}

impl Severity {
    /// Lowercase name as rendered in text and JSON output.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One structured diagnostic: a coded, located, renderable finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, e.g. `E010` or `W006`. Codes are append-only.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Primary human-readable message.
    pub message: String,
    /// Source location (may be [`Span::NONE`]).
    pub span: Span,
    /// Secondary notes ("help: did you mean ...", cycle paths, costs).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Builds a diagnostic from scratch (used by the analyzer passes).
    pub fn new(
        code: &'static str,
        severity: Severity,
        message: impl Into<String>,
        span: Span,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Appends a secondary note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Maps a [`DatalogError`] onto its stable code, severity and span.
    pub fn from_error(err: &DatalogError) -> Self {
        let (code, severity, span, mut notes): (_, _, Span, Vec<String>) = match err {
            DatalogError::Parse { line, col, .. } => {
                ("E001", Severity::Error, Span::new(*line, *col), vec![])
            }
            DatalogError::UnknownDomain {
                suggestion,
                line,
                col,
                ..
            } => (
                "E002",
                Severity::Error,
                Span::new(*line, *col),
                suggestion
                    .iter()
                    .map(|s| format!("help: did you mean `{s}`?"))
                    .collect(),
            ),
            DatalogError::UnknownRelation { suggestion, .. } => (
                "E003",
                Severity::Error,
                Span::NONE,
                suggestion
                    .iter()
                    .map(|s| format!("help: did you mean `{s}`?"))
                    .collect(),
            ),
            DatalogError::DuplicateDomain(_) => ("E004", Severity::Error, Span::NONE, vec![]),
            DatalogError::DuplicateRelation(_) => ("E005", Severity::Error, Span::NONE, vec![]),
            DatalogError::ArityMismatch { line, col, .. } => {
                ("E006", Severity::Error, Span::new(*line, *col), vec![])
            }
            DatalogError::TypeConflict { line, col, .. } => {
                ("E007", Severity::Error, Span::new(*line, *col), vec![])
            }
            DatalogError::UnsafeHeadVar { line, col, .. } => (
                "E008",
                Severity::Error,
                Span::new(*line, *col),
                vec!["help: every head variable must occur in a positive body atom".into()],
            ),
            DatalogError::UnsafeNegatedVar { line, col, .. } => {
                ("E009", Severity::Error, Span::new(*line, *col), vec![])
            }
            DatalogError::NotStratified {
                line, col, cycle, ..
            } => (
                "E010",
                Severity::Error,
                Span::new(*line, *col),
                if cycle.is_empty() {
                    vec![]
                } else {
                    vec![format!("note: negation cycle: {}", render_cycle(cycle))]
                },
            ),
            DatalogError::ConstantOutOfRange { .. } => {
                ("E011", Severity::Error, Span::NONE, vec![])
            }
            DatalogError::UnresolvedName { .. } => ("E012", Severity::Error, Span::NONE, vec![]),
            DatalogError::ConstraintDomainMismatch { line, col, .. } => {
                ("E013", Severity::Error, Span::new(*line, *col), vec![])
            }
            DatalogError::BadFact(_) => ("E014", Severity::Error, Span::NONE, vec![]),
            DatalogError::ZeroSearchBudget => ("E015", Severity::Error, Span::NONE, vec![]),
            DatalogError::Bdd(_) => ("E016", Severity::Error, Span::NONE, vec![]),
            DatalogError::UnusedRelation { line, col, .. } => {
                ("W001", Severity::Warning, Span::new(*line, *col), vec![])
            }
            DatalogError::DeadRule { line, col, .. } => {
                ("W002", Severity::Warning, Span::new(*line, *col), vec![])
            }
            DatalogError::SingletonVariable { line, col, .. } => {
                ("W003", Severity::Warning, Span::new(*line, *col), vec![])
            }
            DatalogError::UnreachableRule { line, col, .. } => {
                ("W004", Severity::Warning, Span::new(*line, *col), vec![])
            }
            // W005 (a binding pattern blocked by negation, raised by the
            // demand-driven query rewrite that queries no longer use) is
            // retired; codes are append-only, so it is never reused.
            DatalogError::CrossProduct {
                line, col, groups, ..
            } => (
                "W006",
                Severity::Warning,
                Span::new(*line, *col),
                vec![format!(
                    "note: body atoms split into {groups} variable-disjoint groups; \
                     the join is a cartesian product"
                )],
            ),
            DatalogError::ExpensiveRule {
                line,
                col,
                cost_log2,
                ..
            } => (
                "W007",
                Severity::Warning,
                Span::new(*line, *col),
                vec![format!(
                    "note: estimated join search space is 2^{cost_log2}; consider \
                     splitting the rule or reordering domains"
                )],
            ),
            DatalogError::DuplicateRule {
                line,
                col,
                first_line,
                ..
            } => (
                "W008",
                Severity::Warning,
                Span::new(*line, *col),
                vec![format!(
                    "note: identical (up to variable renaming) to the rule at line {first_line}"
                )],
            ),
            DatalogError::SubsumedRule {
                line, col, by_line, ..
            } => (
                "W009",
                Severity::Warning,
                Span::new(*line, *col),
                vec![format!(
                    "note: every tuple it derives is already derived by the more \
                     general rule at line {by_line}"
                )],
            ),
        };
        // The Display impl already prints `(line N)` suffixes for located
        // variants; the caret rendering re-states the location, so strip
        // nothing — keep the message verbatim for greppability.
        let message = err.to_string();
        let d = Diagnostic {
            code,
            severity,
            message,
            span,
            notes: Vec::new(),
        };
        let mut d = d;
        d.notes.append(&mut notes);
        d
    }

    /// Renders the diagnostic rustc-style. When `src` is given and the
    /// span is known, includes the offending source line with a caret.
    ///
    /// ```text
    /// warning[W006]: rule joins unrelated atoms ...
    ///   --> prog.dl:12:1
    ///    |
    /// 12 | big(x,y) :- a(x), b(y).
    ///    | ^
    /// ```
    pub fn render(&self, file: &str, src: Option<&str>) -> String {
        let mut out = format!(
            "{}[{}]: {}",
            self.severity.as_str(),
            self.code,
            self.message
        );
        if self.span.is_known() {
            out.push_str(&format!("\n  --> {file}:{}", self.span));
            if let Some(src) = src {
                if let Some(text) = src.lines().nth(self.span.line - 1) {
                    let ln = self.span.line.to_string();
                    let pad = " ".repeat(ln.len());
                    out.push_str(&format!("\n {pad}|\n{ln} | {text}\n {pad}| "));
                    out.push_str(&" ".repeat(self.span.col.saturating_sub(1)));
                    out.push('^');
                }
            }
        } else {
            out.push_str(&format!("\n  --> {file}"));
        }
        for note in &self.notes {
            out.push_str(&format!("\n  = {note}"));
        }
        out
    }

    /// Renders the diagnostic as a single JSON object (no external
    /// dependencies; strings are escaped per RFC 8259).
    pub fn to_json(&self, file: &str) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"code\":\"{}\"", self.code));
        s.push_str(&format!(",\"severity\":\"{}\"", self.severity.as_str()));
        s.push_str(&format!(",\"file\":{}", json_string(file)));
        s.push_str(&format!(",\"line\":{}", self.span.line));
        s.push_str(&format!(",\"col\":{}", self.span.col));
        s.push_str(&format!(",\"message\":{}", json_string(&self.message)));
        s.push_str(",\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&json_string(n));
        }
        s.push_str("]}");
        s
    }
}

/// Formats a negation-cycle witness `[p, q, r]` as `p -> q -> r -> p`,
/// closing the loop back to the first relation.
pub(crate) fn render_cycle(cycle: &[String]) -> String {
    let mut s = String::new();
    for (i, r) in cycle.iter().enumerate() {
        if i > 0 {
            s.push_str(" -> ");
        }
        s.push_str(r);
    }
    if let Some(first) = cycle.first() {
        s.push_str(" -> ");
        s.push_str(first);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_display_and_known() {
        assert_eq!(Span::new(3, 7).to_string(), "3:7");
        assert!(Span::new(1, 1).is_known());
        assert!(!Span::NONE.is_known());
    }

    #[test]
    fn caret_lands_on_column() {
        let d = Diagnostic::new("W006", Severity::Warning, "boom", Span::new(2, 5));
        let src = "line one\nabcd^here\n";
        let r = d.render("f.dl", Some(src));
        assert!(r.contains("warning[W006]: boom"), "{r}");
        assert!(r.contains("--> f.dl:2:5"), "{r}");
        // The caret line: gutter, then four spaces of column padding so
        // `^` sits under column 5 of the quoted source line.
        let caret_line = r.lines().last().unwrap();
        assert_eq!(caret_line, "  |     ^", "{r}");
        let quoted = r.lines().nth(r.lines().count() - 2).unwrap();
        assert_eq!(quoted, "2 | abcd^here");
    }

    #[test]
    fn json_escapes_and_shapes() {
        let d = Diagnostic::new(
            "E001",
            Severity::Error,
            "bad \"quote\"\nnewline",
            Span::new(1, 2),
        )
        .with_note("help: x");
        let j = d.to_json("a\\b.dl");
        assert_eq!(
            j,
            "{\"code\":\"E001\",\"severity\":\"error\",\"file\":\"a\\\\b.dl\",\
             \"line\":1,\"col\":2,\"message\":\"bad \\\"quote\\\"\\nnewline\",\
             \"notes\":[\"help: x\"]}"
        );
    }

    #[test]
    fn cycle_rendering_closes_loop() {
        assert_eq!(render_cycle(&["p".into(), "q".into()]), "p -> q -> p");
    }
}
