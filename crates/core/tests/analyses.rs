//! End-to-end tests of the analyses on hand-computed programs.

use whale_core::{
    context_insensitive, context_sensitive, cs_type_analysis, number_contexts, thread_escape,
    CallGraph, CallGraphMode,
};
use whale_ir::{parse_program, Facts};

/// Variable id by `method::name` suffix.
fn var(facts: &Facts, suffix: &str) -> u64 {
    facts
        .var_names
        .iter()
        .position(|n| {
            n.rsplit_once('#')
                .map(|(head, _)| head.ends_with(suffix))
                .unwrap_or(false)
        })
        .unwrap_or_else(|| panic!("no variable matching `{suffix}`")) as u64
}

/// Heap id by name prefix (`Class@Method`).
fn heap(facts: &Facts, prefix: &str) -> u64 {
    facts
        .heap_names
        .iter()
        .position(|n| n.starts_with(prefix))
        .unwrap_or_else(|| panic!("no heap site matching `{prefix}`")) as u64
}

/// The classic polyvariance example: a context-insensitive analysis merges
/// the two calls of `id`, the cloning-based context-sensitive analysis
/// keeps them apart.
const POLY: &str = r#"
class A extends Object { }
class B extends Object { }
class Id extends Object {
  static method id(p: Object): Object {
    return p;
  }
}
class Main extends Object {
  entry static method main() {
    var a: A;
    var b: B;
    var ra: Object;
    var rb: Object;
    a = new A;
    b = new B;
    ra = Id::id(a);
    rb = Id::id(b);
  }
}
"#;

#[test]
fn context_insensitive_merges_id_calls() {
    let p = parse_program(POLY).unwrap();
    let facts = Facts::extract(&p);
    let ci = context_insensitive(&facts, true, CallGraphMode::Cha, None).unwrap();
    let ra = var(&facts, "main::ra");
    let ha = heap(&facts, "A@");
    let hb = heap(&facts, "B@");
    // CI pollution: ra sees both A and B objects.
    assert!(ci.engine.relation_contains("vP", &[ra, ha]).unwrap());
    assert!(ci.engine.relation_contains("vP", &[ra, hb]).unwrap());
}

#[test]
fn context_sensitive_separates_id_calls() {
    let p = parse_program(POLY).unwrap();
    let facts = Facts::extract(&p);
    let cg = CallGraph::from_cha(&facts).unwrap();
    let numbering = number_contexts(&cg);
    let cs = context_sensitive(&facts, &cg, &numbering, None).unwrap();
    let ra = var(&facts, "main::ra");
    let rb = var(&facts, "main::rb");
    let ha = heap(&facts, "A@");
    let hb = heap(&facts, "B@");
    let vpc = cs.engine.relation_tuples("vPC").unwrap();
    let pts = |v: u64| -> Vec<u64> {
        let mut hs: Vec<u64> = vpc.iter().filter(|t| t[1] == v).map(|t| t[2]).collect();
        hs.sort_unstable();
        hs.dedup();
        hs
    };
    assert_eq!(pts(ra), vec![ha], "ra only sees the A object");
    assert_eq!(pts(rb), vec![hb], "rb only sees the B object");
    // The id parameter has two contexts with different pointees.
    let idp = var(&facts, "id::p");
    let p_pts: Vec<(u64, u64)> = vpc
        .iter()
        .filter(|t| t[1] == idp)
        .map(|t| (t[0], t[2]))
        .collect();
    let ctxs: std::collections::HashSet<u64> = p_pts.iter().map(|&(c, _)| c).collect();
    assert_eq!(ctxs.len(), 2, "id has two clones");
    for &(_, h) in &p_pts {
        assert!(h == ha || h == hb);
    }
    // Each context sees exactly one object.
    for &c in &ctxs {
        let in_ctx: Vec<u64> = p_pts
            .iter()
            .filter(|&&(cc, _)| cc == c)
            .map(|&(_, h)| h)
            .collect();
        assert_eq!(in_ctx.len(), 1, "context {c} is monomorphic");
    }
}

#[test]
fn projected_cs_equals_ci_here() {
    // For this program the CS result projected to (v, h) equals the CI
    // result restricted to reachable code (CS is never less precise).
    let p = parse_program(POLY).unwrap();
    let facts = Facts::extract(&p);
    let ci = context_insensitive(&facts, true, CallGraphMode::Cha, None).unwrap();
    let cg = CallGraph::from_cha(&facts).unwrap();
    let numbering = number_contexts(&cg);
    let cs = context_sensitive(&facts, &cg, &numbering, None).unwrap();
    let mut projected: Vec<(u64, u64)> = cs
        .engine
        .relation_tuples("vPC")
        .unwrap()
        .iter()
        .map(|t| (t[1], t[2]))
        .collect();
    projected.sort_unstable();
    projected.dedup();
    let mut ci_vp: Vec<(u64, u64)> = ci
        .engine
        .relation_tuples("vP")
        .unwrap()
        .iter()
        .map(|t| (t[0], t[1]))
        .collect();
    ci_vp.sort_unstable();
    // CS projected must be a subset of CI.
    for pair in &projected {
        assert!(
            ci_vp.binary_search(pair).is_ok(),
            "CS ⊆ CI violated: {pair:?}"
        );
    }
}

const VIRTUAL: &str = r#"
class Base extends Object {
  method make(): Object {
    var o: Object;
    o = new Object;
    return o;
  }
}
class Sub extends Base {
  method make(): Object {
    var o: Object;
    o = new Object;
    return o;
  }
}
class Main extends Object {
  entry static method main() {
    var b: Base;
    var r: Object;
    b = new Sub;
    r = b.make();
  }
}
"#;

#[test]
fn on_the_fly_callgraph_is_smaller_than_cha() {
    let p = parse_program(VIRTUAL).unwrap();
    let facts = Facts::extract(&p);
    let cha = context_insensitive(&facts, true, CallGraphMode::Cha, None).unwrap();
    let otf = context_insensitive(&facts, true, CallGraphMode::OnTheFly, None).unwrap();
    let cha_edges = cha.count("IE").unwrap() as u64;
    let otf_edges = otf.count("IE").unwrap() as u64;
    // CHA dispatches b.make() to Base.make and Sub.make; the points-to
    // based discovery knows b is a Sub.
    assert_eq!(cha_edges, 2);
    assert_eq!(otf_edges, 1);
    // And the points-to result is more precise too.
    assert!(otf.count("vP").unwrap() <= cha.count("vP").unwrap());
}

const ILL_TYPED_FLOW: &str = r#"
class A extends Object { }
class B extends Object { }
class Holder extends Object {
  field slot: Object;
}
class Main extends Object {
  entry static method main() {
    var ha: Holder;
    var a: A;
    var b: B;
    var outA: A;
    ha = new Holder;
    a = new A;
    b = new B;
    ha.slot = a;
    ha.slot = b;
    outA = ha.slot;
  }
}
"#;

#[test]
fn type_filter_drops_ill_typed_pointees() {
    let p = parse_program(ILL_TYPED_FLOW).unwrap();
    let facts = Facts::extract(&p);
    let untyped = context_insensitive(&facts, false, CallGraphMode::Cha, None).unwrap();
    let typed = context_insensitive(&facts, true, CallGraphMode::Cha, None).unwrap();
    let out = var(&facts, "main::outA");
    let ha = heap(&facts, "A@");
    let hb = heap(&facts, "B@");
    // Untyped: outA sees both objects through the slot.
    assert!(untyped.engine.relation_contains("vP", &[out, ha]).unwrap());
    assert!(untyped.engine.relation_contains("vP", &[out, hb]).unwrap());
    // Typed: the B object cannot be assigned to an A variable.
    assert!(typed.engine.relation_contains("vP", &[out, ha]).unwrap());
    assert!(!typed.engine.relation_contains("vP", &[out, hb]).unwrap());
    // Type filtering is strictly more precise overall.
    assert!(typed.count("vP").unwrap() < untyped.count("vP").unwrap());
}

#[test]
fn cs_type_analysis_overapproximates_cs_pointer_types() {
    let p = parse_program(POLY).unwrap();
    let facts = Facts::extract(&p);
    let cg = CallGraph::from_cha(&facts).unwrap();
    let numbering = number_contexts(&cg);
    let cs = context_sensitive(&facts, &cg, &numbering, None).unwrap();
    let ty = cs_type_analysis(&facts, &cg, &numbering, None).unwrap();
    // Types seen by the pointer analysis (via hT) must all be seen by the
    // type analysis.
    let mut ht = std::collections::HashMap::new();
    for t in &facts.ht {
        ht.insert(t[0], t[1]);
    }
    let vtc: std::collections::HashSet<(u64, u64, u64)> = ty
        .engine
        .relation_tuples("vTC")
        .unwrap()
        .iter()
        .map(|t| (t[0], t[1], t[2]))
        .collect();
    for t in cs.engine.relation_tuples("vPC").unwrap() {
        let (c, v, h) = (t[0], t[1], t[2]);
        if let Some(&ty_of_h) = ht.get(&h) {
            assert!(
                vtc.contains(&(c, v, ty_of_h)),
                "type analysis misses ({c},{v},type {ty_of_h})"
            );
        }
    }
}

const THREADS: &str = r#"
class Worker extends Thread {
  field shared: Object;
  method run() {
    var mine: Object;
    var got: Object;
    mine = new Object;
    sync mine;
    got = this.shared;
    sync got;
  }
}
class Main extends Object {
  entry static method main() {
    var w: Worker;
    var o: Object;
    w = new Worker;
    o = new Object;
    w.shared = o;
    start w;
  }
}
"#;

#[test]
fn thread_escape_hand_example() {
    let p = parse_program(THREADS).unwrap();
    let facts = Facts::extract(&p);
    let cg = CallGraph::from_cha(&facts).unwrap();
    let esc = thread_escape(&facts, &cg, None).unwrap();
    // One thread creation site => contexts {0 global, 1 main, 2, 3}.
    assert_eq!(esc.contexts.domain_size, 4);
    let escaped = esc.engine.relation_tuples("escaped").unwrap();
    let h_o = heap(&facts, "java.lang.Object@Main.main");
    let h_mine = heap(&facts, "java.lang.Object@Worker.run");
    let h_w = heap(&facts, "Worker@");
    // o is stored into the worker and read by the thread: escaped.
    assert!(
        escaped.iter().any(|t| t[1] == h_o),
        "shared object must escape: {escaped:?}"
    );
    // The thread object itself is touched by creator and thread: escaped.
    assert!(escaped.iter().any(|t| t[1] == h_w));
    // The thread-local object stays captured.
    assert!(!escaped.iter().any(|t| t[1] == h_mine));
    let captured = esc.engine.relation_tuples("captured").unwrap();
    assert!(captured.iter().any(|t| t[1] == h_mine));
    // sync mine is unneeded, sync got is needed.
    let needed = esc.engine.relation_tuples("neededSyncs").unwrap();
    let unneeded = esc.engine.relation_tuples("unneededSyncs").unwrap();
    let v_mine = var(&facts, "run::mine");
    let v_got = var(&facts, "run::got");
    assert!(needed.iter().any(|t| t[1] == v_got));
    assert!(!needed.iter().any(|t| t[1] == v_mine));
    assert!(unneeded.iter().any(|t| t[1] == v_mine));
}

#[test]
fn single_threaded_program_only_global_escapes() {
    let p = parse_program(POLY).unwrap();
    let facts = Facts::extract(&p);
    let cg = CallGraph::from_cha(&facts).unwrap();
    let esc = thread_escape(&facts, &cg, None).unwrap();
    let escaped = esc.engine.relation_tuples("escaped").unwrap();
    // Only the synthetic global object (the paper's observation for
    // single-threaded benchmarks).
    assert_eq!(escaped.len(), 1, "escaped = {escaped:?}");
    assert_eq!(escaped[0][1], facts.sizes.h, "the global object");
}

#[test]
fn figure1_graph_through_full_cs_pipeline() {
    // A program whose call graph mirrors Figure 1 (M2<->M3 recursion).
    let src = r#"
class G extends Object {
  entry static method main() {
    var o: Object;
    o = new Object;
    o = G::m2(o);
    o = G::m3(o);
  }
  static method m2(p: Object): Object {
    var r: Object;
    r = G::m3(p);
    r = G::m4(p);
    return r;
  }
  static method m3(p: Object): Object {
    var r: Object;
    r = G::m2(p);
    r = G::m4(p);
    r = G::m5(p);
    return r;
  }
  static method m4(p: Object): Object {
    var r: Object;
    r = G::m6(p);
    return r;
  }
  static method m5(p: Object): Object {
    var r: Object;
    r = G::m6(p);
    return r;
  }
  static method m6(p: Object): Object {
    return p;
  }
}
"#;
    let p = parse_program(src).unwrap();
    let facts = Facts::extract(&p);
    let cg = CallGraph::from_cha(&facts).unwrap();
    let numbering = number_contexts(&cg);
    let m = |name: &str| {
        facts
            .method_names
            .iter()
            .position(|n| n.ends_with(name))
            .unwrap()
    };
    assert_eq!(numbering.counts[m(".main")], 1);
    assert_eq!(numbering.counts[m(".m2")], 2);
    assert_eq!(numbering.counts[m(".m3")], 2);
    assert_eq!(numbering.counts[m(".m4")], 4);
    assert_eq!(numbering.counts[m(".m5")], 2);
    assert_eq!(numbering.counts[m(".m6")], 6);
    // And the CS analysis over it converges with the right context domain.
    let cs = context_sensitive(&facts, &cg, &numbering, None).unwrap();
    assert!(cs.count("vPC").unwrap() > 0.0);
    // m6's parameter has results in all six contexts.
    let p6 = var(&facts, "m6::p");
    let ctxs: std::collections::HashSet<u64> = cs
        .engine
        .relation_tuples("vPC")
        .unwrap()
        .iter()
        .filter(|t| t[1] == p6)
        .map(|t| t[0])
        .collect();
    assert_eq!(ctxs.len(), 6, "m6 is analyzed in six contexts: {ctxs:?}");
}

/// The BDD-built `IEC` relation must contain exactly one tuple per
/// (edge, caller context) pair, and `mC` one per (method, context) —
/// verified with exact (u128) counting on a synthetic benchmark.
#[test]
fn iec_and_mc_exact_tuple_counts() {
    use whale_core::EdgeContexts;
    let config = whale_ir::synth::SynthConfig::tiny("iec", 11);
    let program = whale_ir::synth::generate(&config);
    let facts = Facts::extract(&program);
    let cg = CallGraph::from_cha(&facts).unwrap();
    let numbering = number_contexts(&cg);
    let cs = context_sensitive(&facts, &cg, &numbering, None).unwrap();

    let expected_iec: u128 = numbering
        .edge_contexts
        .iter()
        .map(|e| match *e {
            EdgeContexts::Shift { callers, .. } => callers,
            EdgeContexts::Identity { contexts } => contexts,
            EdgeContexts::Merged { callers, .. } => callers,
        })
        .sum();
    let sig = cs.engine.relation_signature("IEC").unwrap();
    let iec = cs.engine.relation_bdd("IEC").unwrap();
    assert_eq!(iec.satcount_domains_exact(&sig), expected_iec);

    let expected_mc: u128 = numbering.counts.iter().sum();
    let sig = cs.engine.relation_signature("mC").unwrap();
    let mc = cs.engine.relation_bdd("mC").unwrap();
    assert_eq!(mc.satcount_domains_exact(&sig), expected_mc);
}

/// The full Algorithm 5 program computes the same fixpoint under naive and
/// semi-naive evaluation (cross-check of the incrementalization).
#[test]
fn cs_naive_and_seminaive_agree() {
    use whale_datalog::EngineOptions;
    let p = parse_program(POLY).unwrap();
    let facts = Facts::extract(&p);
    let cg = CallGraph::from_cha(&facts).unwrap();
    let numbering = number_contexts(&cg);
    let mut results = Vec::new();
    for seminaive in [true, false] {
        let cs = context_sensitive(
            &facts,
            &cg,
            &numbering,
            Some(EngineOptions {
                seminaive,
                order: None,
                reorder: false,
                ..EngineOptions::default()
            }),
        )
        .unwrap();
        let mut t = cs.engine.relation_tuples("vPC").unwrap();
        t.sort();
        results.push(t);
    }
    assert_eq!(results[0], results[1]);
    assert!(!results[0].is_empty());
}
