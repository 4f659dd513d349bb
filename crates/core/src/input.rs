//! Shared plumbing: domain declarations and fact loading for the analysis
//! Datalog programs.

use whale_datalog::{DatalogError, Engine};
use whale_ir::Facts;

/// Renders the common `DOMAINS` section from extracted fact sizes.
///
/// `extra` lines (e.g. a context domain `C <size>`) are appended verbatim.
pub(crate) fn domains_section(facts: &Facts, extra: &[String]) -> String {
    let s = &facts.sizes;
    let mut out = String::from("DOMAINS\n");
    out.push_str(&format!("V {}\n", s.v));
    out.push_str(&format!("H {}\n", s.h + 1)); // +1: synthetic global object
    out.push_str(&format!("F {}\n", s.f));
    out.push_str(&format!("T {}\n", s.t));
    out.push_str(&format!("I {}\n", s.i));
    out.push_str(&format!("M {}\n", s.m));
    out.push_str(&format!("N {}\n", s.n));
    out.push_str(&format!("Z {}\n", s.z));
    for line in extra {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The id of the synthetic global heap object (see [`domains_section`]).
pub(crate) fn global_object(facts: &Facts) -> u64 {
    facts.sizes.h
}

/// Standard `RELATIONS` declarations for the base input relations.
pub(crate) const BASE_RELATIONS: &str = "\
input vP0 (variable : V, heap : H)
input store (base : V, field : F, source : V)
input load (base : V, field : F, dest : V)
input assign0 (dest : V, source : V)
input vT (variable : V, type : T)
input hT (heap : H, type : T)
input aT (supertype : T, subtype : T)
input cha (type : T, name : N, target : M)
input actual (invoke : I, param : Z, var : V)
input formal (method : M, param : Z, var : V)
input IE0 (invoke : I, target : M)
input mI (method : M, invoke : I, name : N)
input Mret (method : M, var : V)
input Mthr (method : M, var : V)
input Iret (invoke : I, var : V)
input mCls (method : M, type : T)
input mV (method : M, var : V)
input mH (method : M, heap : H)
input syncs (var : V)
";

/// Loads every base input relation and name map into an engine.
pub(crate) fn load_base_facts(engine: &mut Engine, facts: &Facts) -> Result<(), DatalogError> {
    engine.add_facts("vP0", &facts.vp0)?;
    engine.add_facts("store", &facts.store)?;
    engine.add_facts("load", &facts.load)?;
    engine.add_facts("assign0", &facts.assign)?;
    engine.add_facts("vT", &facts.vt)?;
    engine.add_facts("hT", &facts.ht)?;
    engine.add_facts("aT", &facts.at)?;
    engine.add_facts("cha", &facts.cha)?;
    engine.add_facts("actual", &facts.actual)?;
    engine.add_facts("formal", &facts.formal)?;
    engine.add_facts("IE0", &facts.ie0)?;
    engine.add_facts("mI", &facts.mi)?;
    engine.add_facts("Mret", &facts.mret)?;
    engine.add_facts("Mthr", &facts.mthr)?;
    engine.add_facts("Iret", &facts.iret)?;
    engine.add_facts("mCls", &facts.mcls)?;
    engine.add_facts("mV", &facts.mv)?;
    engine.add_facts("mH", &facts.mh)?;
    engine.add_facts("syncs", &facts.syncs)?;
    // The synthetic global object is typed as java.lang.Object (type 0).
    engine.add_fact("hT", &[global_object(facts), 0])?;
    set_name_maps(engine, facts)?;
    Ok(())
}

/// Registers the element-name maps so queries can use quoted constants and
/// results print readably.
pub(crate) fn set_name_maps(engine: &mut Engine, facts: &Facts) -> Result<(), DatalogError> {
    engine.set_name_map("V", &facts.var_names)?;
    let mut heap_names = facts.heap_names.clone();
    heap_names.push("<global>".to_string());
    engine.set_name_map("H", &heap_names)?;
    engine.set_name_map("F", &facts.field_names)?;
    engine.set_name_map("T", &facts.type_names)?;
    engine.set_name_map("M", &facts.method_names)?;
    engine.set_name_map("N", &facts.simple_names)?;
    Ok(())
}

/// The invocation-edge rules `IE(i,m)`: the program's known edges plus
/// receiver resolution.
///
/// `cha_based == true` resolves receivers by their declared types (the
/// precomputed CHA call graph the paper assumes for Algorithms 1, 2 and 5);
/// `false` resolves by points-to results (Algorithm 3, discovered on the
/// fly).
pub(crate) fn ie_rules(cha_based: bool) -> &'static str {
    if cha_based {
        "IE(i,m) :- IE0(i,m).\n\
         IE(i,m) :- mI(_,i,n), actual(i,0,v), vT(v,tv), aT(tv,t), cha(t,n,m).\n"
    } else {
        "IE(i,m) :- IE0(i,m).\n\
         IE(i,m) :- mI(_,i,n), actual(i,0,v), vP(v,h), hT(h,t), cha(t,n,m).\n"
    }
}

/// The call-graph construction rules shared by every context-insensitive
/// analysis: [`ie_rules`] plus the `assign` edges the invocations induce.
pub(crate) fn callgraph_rules(cha_based: bool) -> String {
    let mut s = ie_rules(cha_based).to_string();
    s.push_str("assign(v1,v2) :- IE(i,m), formal(m,z,v1), actual(i,z,v2).\n");
    s.push_str("assign(v1,v2) :- IE(i,m), Iret(i,v1), Mret(m,v2).\n");
    // Exceptions escape callees into their callers' exception variables.
    s.push_str("assign(v1,v2) :- mI(m1,i,_), IE(i,m2), Mthr(m1,v1), Mthr(m2,v2).\n");
    s.push_str("assign(v1,v2) :- assign0(v1,v2).\n");
    s
}
