//! The paper's analyses, expressed (as in the paper) as Datalog programs.
//!
//! - [`context_insensitive`] — Algorithms 1 and 2 (precomputed CHA call
//!   graph, optional type filtering) and Algorithm 3 (call graph discovered
//!   on the fly).
//! - [`context_sensitive`] — Algorithm 5: the cloning-based
//!   context-sensitive points-to analysis over the `IEC` relation of
//!   Algorithm 4.
//! - [`cs_type_analysis`] — Algorithm 6: context-sensitive type analysis.
//!
//! Every function returns the solved [`Engine`] so callers can run further
//! queries against the result relations.

use crate::callgraph::CallGraph;
use crate::input::{callgraph_rules, domains_section, load_base_facts, BASE_RELATIONS};
use crate::numbering::ContextNumbering;
use whale_datalog::{DatalogError, Engine, EngineOptions, Program, SolveStats};
use whale_ir::Facts;

/// How the call graph feeding an analysis is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallGraphMode {
    /// Precomputed by class-hierarchy analysis on declared receiver types
    /// (the assumption of Algorithms 1, 2 and 5).
    Cha,
    /// Discovered on the fly from points-to results (Algorithm 3).
    OnTheFly,
}

/// A solved analysis: query its relations through [`Analysis::engine`].
pub struct Analysis {
    /// The solved Datalog engine.
    pub engine: Engine,
    /// Solver statistics (rounds ≈ the paper's "iterations" column).
    pub stats: SolveStats,
}

impl Analysis {
    /// Tuple count of a result relation.
    ///
    /// # Errors
    ///
    /// [`DatalogError::UnknownRelation`].
    pub fn count(&self, relation: &str) -> Result<f64, DatalogError> {
        self.engine.relation_count(relation)
    }
}

/// The engine options an analysis uses when the caller passes `None`:
/// semi-naive evaluation with fused renames over the given variable
/// order. Public so drivers can layer overrides (the relation cache) on
/// an analysis's own defaults, e.g.
/// `EngineOptions { rel_cache: false, ..default_options(CS_ORDER) }`.
pub fn default_options(order: &str) -> EngineOptions {
    EngineOptions {
        seminaive: true,
        order: Some(order.into()),
        ..EngineOptions::default()
    }
}

/// Default variable order for the context-insensitive analyses.
pub const CI_ORDER: &str = "Z_N_F_T_M_I_V_H";
/// Default variable order of Algorithm 5, the context-sensitive points-to
/// analysis: the context bits below the heap bits. Found by
/// [`crate::order_search::search_order`] on freetts at 1/16 (EXPERIMENTS.md,
/// "Per-analysis variable orders").
pub const CS_ORDER: &str = "Z_N_F_T_I_M_V_H_C";
/// Default variable order of Algorithm 6, the context-sensitive type
/// analysis. Found by [`crate::order_search::search_order`] on freetts at
/// 1/16.
pub const CS_TYPE_ORDER: &str = "Z_T_N_F_I_M_V_C_H";

/// The context-insensitive points-to rules (Algorithms 1/2/3), shared with
/// the query programs.
pub(crate) fn ci_rules(typed: bool, mode: CallGraphMode) -> String {
    let mut rules = String::new();
    rules.push_str("vPfilter(v,h) :- vT(v,tv), hT(h,th), aT(tv,th).\n");
    rules.push_str(&callgraph_rules(mode == CallGraphMode::Cha));
    rules.push_str("vP(v,h) :- vP0(v,h).\n");
    if typed {
        rules.push_str("vP(v1,h) :- assign(v1,v2), vP(v2,h), vPfilter(v1,h).\n");
    } else {
        rules.push_str("vP(v1,h) :- assign(v1,v2), vP(v2,h).\n");
    }
    rules.push_str("hP(h1,f,h2) :- store(v1,f,v2), vP(v1,h1), vP(v2,h2).\n");
    if typed {
        rules.push_str("vP(v2,h2) :- load(v1,f,v2), vP(v1,h1), hP(h1,f,h2), vPfilter(v2,h2).\n");
    } else {
        rules.push_str("vP(v2,h2) :- load(v1,f,v2), vP(v1,h1), hP(h1,f,h2).\n");
    }
    rules
}

/// The relation declarations of the context-insensitive programs.
pub(crate) const CI_RELATIONS: &str = "\
vPfilter (variable : V, heap : H)
output IE (invoke : I, target : M)
assign (dest : V, source : V)
output vP (variable : V, heap : H)
output hP (base : H, field : F, target : H)
";

/// The relation declarations of the Algorithm 5 program.
pub(crate) const CS_RELATIONS: &str = "\
input IEC (caller : C, invoke : I, callee : C, tgt : M)
input mC (context : C, method : M)
vC (context : C, variable : V)
vPfilter (variable : V, heap : H)
assignC (destc : C, dest : V, srcc : C, src : V)
output vPC (context : C, variable : V, heap : H)
output hP (base : H, field : F, target : H)
";

/// The Algorithm 5 rules.
pub(crate) const CS_RULES: &str = "\
vC(c,v) :- mV(m,v), mC(c,m).
vPfilter(v,h) :- vT(v,tv), hT(h,th), aT(tv,th).
vPC(c,v,h) :- vP0(v,h), vC(c,v).
assignC(c1,v1,c2,v2) :- IEC(c2,i,c1,m), formal(m,z,v1), actual(i,z,v2).
assignC(c2,v1,c1,v2) :- IEC(c2,i,c1,m), Iret(i,v1), Mret(m,v2).
assignC(c2,v1,c1,v2) :- IEC(c2,i,c1,m2), mI(m1,i,_), Mthr(m1,v1), Mthr(m2,v2).
vPC(c1,v1,h) :- assignC(c1,v1,c2,v2), vPC(c2,v2,h), vPfilter(v1,h).
vPC(c,v1,h) :- assign0(v1,v2), vPC(c,v2,h), vPfilter(v1,h).
hP(h1,f,h2) :- store(v1,f,v2), vPC(c,v1,h1), vPC(c,v2,h2).
vPC(c,v2,h2) :- load(v1,f,v2), vPC(c,v1,h1), hP(h1,f,h2), vPfilter(v2,h2).
";

/// The Algorithm 6 relations.
pub(crate) const CS_TYPE_RELATIONS: &str = "\
input IEC (caller : C, invoke : I, callee : C, tgt : M)
input mC (context : C, method : M)
vC (context : C, variable : V)
vTfilter (variable : V, type : T)
assignC (destc : C, dest : V, srcc : C, src : V)
output vTC (context : C, variable : V, type : T)
output fT (field : F, target : T)
";

/// The Algorithm 6 rules.
pub(crate) const CS_TYPE_RULES: &str = "\
vC(c,v) :- mV(m,v), mC(c,m).
vTfilter(v,t) :- vT(v,tv), aT(tv,t).
vTC(c,v,t) :- vP0(v,h), hT(h,t), vC(c,v).
assignC(c1,v1,c2,v2) :- IEC(c2,i,c1,m), formal(m,z,v1), actual(i,z,v2).
assignC(c2,v1,c1,v2) :- IEC(c2,i,c1,m), Iret(i,v1), Mret(m,v2).
assignC(c2,v1,c1,v2) :- IEC(c2,i,c1,m2), mI(m1,i,_), Mthr(m1,v1), Mthr(m2,v2).
vTC(c1,v1,t) :- assignC(c1,v1,c2,v2), vTC(c2,v2,t), vTfilter(v1,t).
vTC(c,v1,t) :- assign0(v1,v2), vTC(c,v2,t), vTfilter(v1,t).
fT(f,t) :- store(_,f,v2), vTC(_,v2,t).
vTC(c,v,t) :- load(_,f,v), fT(f,t), vTfilter(v,t), vC(c,v).
";

/// Assembles and solves an Algorithm 5 program with optional extra
/// relation declarations and rules appended (for queries built on top of
/// the context-sensitive results).
pub(crate) fn context_sensitive_extended(
    facts: &Facts,
    cg: &CallGraph,
    numbering: &ContextNumbering,
    extra_relations: &str,
    extra_rules: &str,
    options: Option<EngineOptions>,
) -> Result<Analysis, DatalogError> {
    context_sensitive_with_facts(
        facts,
        cg,
        numbering,
        extra_relations,
        extra_rules,
        &[],
        options,
    )
}

/// [`context_sensitive_extended`] plus extra input facts loaded before
/// solving.
#[allow(clippy::too_many_arguments)]
pub(crate) fn context_sensitive_with_facts(
    facts: &Facts,
    cg: &CallGraph,
    numbering: &ContextNumbering,
    extra_relations: &str,
    extra_rules: &str,
    extra_facts: &[(&str, Vec<Vec<u64>>)],
    options: Option<EngineOptions>,
) -> Result<Analysis, DatalogError> {
    let mut engine = prepare_cs_engine(
        facts,
        cg,
        numbering,
        extra_relations,
        extra_rules,
        extra_facts,
        options,
        CS_RELATIONS,
        CS_RULES,
        CS_ORDER,
    )?;
    let stats = engine.solve()?;
    Ok(Analysis { engine, stats })
}

/// Builds a loaded-but-unsolved Algorithm 5 engine: program assembled,
/// base facts, extras, and the context numbering's `IEC`/`mC` installed.
/// The caller decides when (and how) to solve — the daemon warm-starts
/// or solves incrementally instead of calling [`Engine::solve`] eagerly.
///
/// # Errors
///
/// Propagates Datalog/BDD errors.
pub fn prepare_context_sensitive(
    facts: &Facts,
    cg: &CallGraph,
    numbering: &ContextNumbering,
    options: Option<EngineOptions>,
) -> Result<Engine, DatalogError> {
    prepare_cs_engine(
        facts,
        cg,
        numbering,
        "",
        "",
        &[],
        options,
        CS_RELATIONS,
        CS_RULES,
        CS_ORDER,
    )
}

#[allow(clippy::too_many_arguments)]
fn prepare_cs_engine(
    facts: &Facts,
    cg: &CallGraph,
    numbering: &ContextNumbering,
    extra_relations: &str,
    extra_rules: &str,
    extra_facts: &[(&str, Vec<Vec<u64>>)],
    options: Option<EngineOptions>,
    relations: &str,
    rules: &str,
    order: &str,
) -> Result<Engine, DatalogError> {
    let src = format!(
        "{}\nRELATIONS\n{}{}{}\nRULES\n{}{}",
        domains_section(facts, &context_domain(numbering)),
        BASE_RELATIONS,
        relations,
        extra_relations,
        rules,
        extra_rules,
    );
    let program = Program::parse(&src)?;
    let mut engine =
        Engine::with_options(program, options.unwrap_or_else(|| default_options(order)))?;
    load_base_facts(&mut engine, facts)?;
    for (rel, tuples) in extra_facts {
        engine.add_facts(rel, tuples)?;
    }
    numbering.install_iec(cg, &mut engine, "IEC")?;
    numbering.install_mc(&mut engine, "mC")?;
    Ok(engine)
}

/// Algorithms 1/2/3: context-insensitive points-to analysis.
///
/// `typed` enables the Algorithm 2 type filter; `mode` selects the
/// precomputed CHA call graph or on-the-fly discovery. Output relations:
/// `vP (variable, heap)`, `hP (base, field, target)`, `IE (invoke,
/// target)`.
///
/// # Errors
///
/// Propagates Datalog/BDD errors.
pub fn context_insensitive(
    facts: &Facts,
    typed: bool,
    mode: CallGraphMode,
    options: Option<EngineOptions>,
) -> Result<Analysis, DatalogError> {
    context_insensitive_extended(facts, typed, mode, "", "", options)
}

/// [`context_insensitive`] with extra relations and rules appended.
pub(crate) fn context_insensitive_extended(
    facts: &Facts,
    typed: bool,
    mode: CallGraphMode,
    extra_relations: &str,
    extra_rules: &str,
    options: Option<EngineOptions>,
) -> Result<Analysis, DatalogError> {
    context_insensitive_with_facts(
        facts,
        typed,
        mode,
        extra_relations,
        extra_rules,
        &[],
        options,
    )
}

/// [`context_insensitive_extended`] plus extra input facts loaded before
/// solving.
pub(crate) fn context_insensitive_with_facts(
    facts: &Facts,
    typed: bool,
    mode: CallGraphMode,
    extra_relations: &str,
    extra_rules: &str,
    extra_facts: &[(&str, Vec<Vec<u64>>)],
    options: Option<EngineOptions>,
) -> Result<Analysis, DatalogError> {
    let mut engine = prepare_ci_engine(
        facts,
        typed,
        mode,
        extra_relations,
        extra_rules,
        extra_facts,
        options,
    )?;
    let stats = engine.solve()?;
    Ok(Analysis { engine, stats })
}

/// Builds a loaded-but-unsolved context-insensitive engine (Algorithms
/// 1/2/3): program assembled, base facts loaded, nothing solved yet. The
/// daemon uses this to warm-start or solve incrementally instead of
/// calling [`Engine::solve`] eagerly.
///
/// # Errors
///
/// Propagates Datalog/BDD errors.
pub fn prepare_context_insensitive(
    facts: &Facts,
    typed: bool,
    mode: CallGraphMode,
    options: Option<EngineOptions>,
) -> Result<Engine, DatalogError> {
    prepare_ci_engine(facts, typed, mode, "", "", &[], options)
}

fn prepare_ci_engine(
    facts: &Facts,
    typed: bool,
    mode: CallGraphMode,
    extra_relations: &str,
    extra_rules: &str,
    extra_facts: &[(&str, Vec<Vec<u64>>)],
    options: Option<EngineOptions>,
) -> Result<Engine, DatalogError> {
    let src = format!(
        "{}\nRELATIONS\n{}{}{}\nRULES\n{}{}",
        domains_section(facts, &[]),
        BASE_RELATIONS,
        CI_RELATIONS,
        extra_relations,
        ci_rules(typed, mode),
        extra_rules,
    );
    let program = Program::parse(&src)?;
    let mut engine = Engine::with_options(
        program,
        options.unwrap_or_else(|| default_options(CI_ORDER)),
    )?;
    load_base_facts(&mut engine, facts)?;
    for (rel, tuples) in extra_facts {
        engine.add_facts(rel, tuples)?;
    }
    Ok(engine)
}

/// Context-domain declaration line for a numbering.
fn context_domain(numbering: &ContextNumbering) -> Vec<String> {
    vec![format!("C {}", numbering.context_domain_size())]
}

/// Algorithm 5: context-sensitive points-to analysis with a precomputed
/// call graph, exploded by the context numbering.
///
/// Output relations: `vPC (context, variable, heap)` and `hP`.
///
/// # Errors
///
/// Propagates Datalog/BDD errors.
pub fn context_sensitive(
    facts: &Facts,
    cg: &CallGraph,
    numbering: &ContextNumbering,
    options: Option<EngineOptions>,
) -> Result<Analysis, DatalogError> {
    context_sensitive_extended(facts, cg, numbering, "", "", options)
}

/// Algorithm 6: context-sensitive type analysis (the fast 0-CFA-style
/// variant lifted to contexts by the Algorithm 4 numbering).
///
/// Output relations: `vTC (context, variable, type)` and `fT (field,
/// type)`.
///
/// # Errors
///
/// Propagates Datalog/BDD errors.
pub fn cs_type_analysis(
    facts: &Facts,
    cg: &CallGraph,
    numbering: &ContextNumbering,
    options: Option<EngineOptions>,
) -> Result<Analysis, DatalogError> {
    cs_type_analysis_extended(facts, cg, numbering, "", "", options)
}

/// [`cs_type_analysis`] with extra relations and rules appended.
pub(crate) fn cs_type_analysis_extended(
    facts: &Facts,
    cg: &CallGraph,
    numbering: &ContextNumbering,
    extra_relations: &str,
    extra_rules: &str,
    options: Option<EngineOptions>,
) -> Result<Analysis, DatalogError> {
    cs_type_analysis_with_facts(
        facts,
        cg,
        numbering,
        extra_relations,
        extra_rules,
        &[],
        options,
    )
}

/// [`cs_type_analysis_extended`] plus extra input facts loaded before
/// solving.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cs_type_analysis_with_facts(
    facts: &Facts,
    cg: &CallGraph,
    numbering: &ContextNumbering,
    extra_relations: &str,
    extra_rules: &str,
    extra_facts: &[(&str, Vec<Vec<u64>>)],
    options: Option<EngineOptions>,
) -> Result<Analysis, DatalogError> {
    let mut engine = prepare_cs_engine(
        facts,
        cg,
        numbering,
        extra_relations,
        extra_rules,
        extra_facts,
        options,
        CS_TYPE_RELATIONS,
        CS_TYPE_RULES,
        CS_TYPE_ORDER,
    )?;
    let stats = engine.solve()?;
    Ok(Analysis { engine, stats })
}
