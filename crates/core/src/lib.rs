//! Cloning-based context-sensitive pointer alias analysis using BDDs.
//!
//! A faithful reproduction of Whaley & Lam, *Cloning-Based
//! Context-Sensitive Pointer Alias Analysis Using Binary Decision
//! Diagrams* (PLDI 2004): the context numbering scheme of Algorithm 4, the
//! pointer analyses of Algorithms 1–3 and 5, the context-sensitive type
//! analysis of Algorithm 6, the thread-escape analysis of Algorithm 7 and
//! the queries of Section 5 — all expressed in Datalog and executed by the
//! `whale-datalog` (bddbddb) engine over `whale-bdd`.
//!
//! # Quick start
//!
//! ```
//! use whale_core::{
//!     context_insensitive, context_sensitive, number_contexts, CallGraph,
//!     CallGraphMode,
//! };
//! use whale_ir::{parse_program, Facts};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(r#"
//! class A extends Object {
//!   entry static method main() {
//!     var a: A;
//!     a = new A;
//!     A::use(a);
//!   }
//!   static method use(p: A) { }
//! }
//! "#)?;
//! let facts = Facts::extract(&program);
//!
//! // Context-insensitive points-to (Algorithm 2).
//! let ci = context_insensitive(&facts, true, CallGraphMode::Cha, None)?;
//! assert!(ci.count("vP")? >= 1.0);
//!
//! // Cloning-based context-sensitive points-to (Algorithms 4 + 5).
//! let cg = CallGraph::from_cha(&facts)?;
//! let numbering = number_contexts(&cg);
//! let cs = context_sensitive(&facts, &cg, &numbering, None)?;
//! assert!(cs.count("vPC")? >= 1.0);
//! # Ok(())
//! # }
//! ```

mod analyses;
mod callgraph;
pub mod handcoded;
mod input;
mod numbering;
pub mod order_search;
pub mod queries;
mod races;
mod taint;
mod threads;

pub use analyses::{
    context_insensitive, context_sensitive, cs_type_analysis, default_options,
    prepare_context_insensitive, prepare_context_sensitive, Analysis, CallGraphMode, CI_ORDER,
    CS_ORDER, CS_TYPE_ORDER,
};
pub use callgraph::CallGraph;
pub use numbering::{number_contexts, ContextNumbering, EdgeContexts, CONTEXT_CLAMP};
pub use races::{detect_races, singleton_sites, RaceAnalysis, RacePair, RaceReport, RACE_ORDER};
pub use taint::{
    taint_analysis, taint_analysis_resolved, FlowKind, TaintAnalysis, TaintFinding, WitnessStep,
};
pub use threads::{thread_contexts, thread_escape, ThreadContexts, ThreadEscape, THREAD_ORDER};
