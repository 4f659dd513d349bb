//! A Datalog-to-BDD deductive database: a reproduction of `bddbddb`
//! (Whaley, Unkel & Lam), the engine behind the PLDI 2004 paper
//! *Cloning-Based Context-Sensitive Pointer Alias Analysis Using Binary
//! Decision Diagrams*.
//!
//! Programs are written in the paper's Datalog dialect — a `DOMAINS`
//! section, a `RELATIONS` section and a `RULES` section — and solved over
//! BDD-represented relations:
//!
//! ```
//! use whale_datalog::{Engine, Program};
//!
//! # fn main() -> Result<(), whale_datalog::DatalogError> {
//! let program = Program::parse(r#"
//! DOMAINS
//! V 16
//!
//! RELATIONS
//! input edge (src : V, dst : V)
//! output path (src : V, dst : V)
//!
//! RULES
//! path(x,y) :- edge(x,y).
//! path(x,z) :- path(x,y), edge(y,z).
//! "#)?;
//! let mut engine = Engine::new(program)?;
//! engine.add_fact("edge", &[0, 1])?;
//! engine.add_fact("edge", &[1, 2])?;
//! engine.add_fact("edge", &[2, 3])?;
//! engine.solve()?;
//! assert_eq!(engine.relation_count("path")? as u64, 6);
//! # Ok(())
//! # }
//! ```
//!
//! The solver implements the optimizations Section 2.4 of the paper
//! describes: attribute (physical-domain) assignment that minimizes
//! renames, rule-application ordering from the rule dependency graph,
//! and *incrementalization* (semi-naive fixpoint evaluation). The naive
//! mode is kept for ablation benchmarks.

pub mod analyze;
mod ast;
pub mod diag;
mod engine;
mod error;
mod eval;
pub mod graph;
mod json;
mod lexer;
mod parser;
mod plan;
mod program;
mod relation;

pub use analyze::{Analysis, RuleCost};
pub use ast::{Atom, ConstraintOp, DomainDecl, Literal, RelationDecl, RelationKind, Rule, Term};
pub use diag::{Diagnostic, Severity, Span};
pub use engine::{Engine, EngineOptions, QueryResult, SolveStats};
pub use error::DatalogError;
pub use json::{json_string, parse_json, Json};
pub use program::Program;

/// Parses a single query atom such as `vP(v, 3)` or `vPC(_, v, "A@main:0")`,
/// for use with [`Engine::select_atom`]. A trailing `.` is accepted.
///
/// # Errors
///
/// [`DatalogError::Parse`] when the input is not exactly one atom.
pub fn parse_query(src: &str) -> Result<Atom, DatalogError> {
    parser::parse_query(src)
}
