//! **whale** — a full reproduction of Whaley & Lam, *Cloning-Based
//! Context-Sensitive Pointer Alias Analysis Using Binary Decision
//! Diagrams* (PLDI 2004).
//!
//! This umbrella crate re-exports the workspace:
//!
//! - [`bdd`] — the OBDD kernel with the finite-domain layer (the
//!   BuDDy/JavaBDD substitute), including the paper's O(bits) range and
//!   adder primitives.
//! - [`datalog`] — the Datalog-to-BDD deductive database (the `bddbddb`
//!   reproduction): parser, stratification, physical-domain assignment,
//!   semi-naive BDD solver.
//! - [`ir`] — the Java-like IR, class-hierarchy analysis, textual
//!   frontend, synthetic benchmark generator and fact extraction (the
//!   Joeq substitute).
//! - [`core`] — the paper's contribution: the Algorithm 4 context
//!   numbering, Algorithms 1–3 and 5–7, and the Section 5 queries.
//!
//! # Quick start
//!
//! ```
//! use whale::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(r#"
//! class A extends Object {
//!   entry static method main() {
//!     var a: A;
//!     a = new A;
//!     A::consume(a);
//!   }
//!   static method consume(p: A) { }
//! }
//! "#)?;
//! let facts = Facts::extract(&program);
//! let cg = CallGraph::from_cha(&facts)?;
//! let numbering = number_contexts(&cg);
//! let cs = context_sensitive(&facts, &cg, &numbering, None)?;
//! assert!(cs.count("vPC")? >= 2.0);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the
//! `whale-bench` crate for the harness regenerating every table and
//! figure of the paper.

pub use whale_bdd as bdd;
pub use whale_core as core;
pub use whale_datalog as datalog;
pub use whale_ir as ir;

pub mod serve;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use whale_core::{
        context_insensitive, context_sensitive, cs_type_analysis, default_options, detect_races,
        number_contexts, queries, taint_analysis, thread_escape, Analysis, CallGraph,
        CallGraphMode, ContextNumbering, FlowKind, RaceReport, TaintAnalysis, TaintFinding,
        CI_ORDER, CS_ORDER, CS_TYPE_ORDER, RACE_ORDER, THREAD_ORDER,
    };
    pub use whale_datalog::{Engine, EngineOptions, Program};
    pub use whale_ir::{parse_program, Facts, ProgramBuilder, TaintSpec};
}
