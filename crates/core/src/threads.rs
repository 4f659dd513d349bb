//! Algorithm 7: thread-sensitive pointer analysis and escape analysis.
//!
//! Thread contexts follow the paper's scheme (Section 5.6): the global
//! object lives in a context of its own, the startup (main) thread is one
//! context, and every thread creation site gets **two** contexts so that
//! "if an object created by one instance is not accessed by its clone,
//! then it is not accessed by any other instances created by the same call
//! site".

use crate::callgraph::CallGraph;
use crate::input::{domains_section, global_object, load_base_facts, BASE_RELATIONS};
use whale_datalog::{DatalogError, Engine, EngineOptions, Program, SolveStats};
use whale_ir::Facts;

/// Default variable order of Algorithm 7, the thread-sensitive analysis.
/// Found by [`crate::order_search::search_order`] on sshterm at 1/16: the
/// freetts winner kept the context bits above the variable bits and lost
/// on sshterm (EXPERIMENTS.md, "Per-analysis variable orders"). It is the
/// same string as [`crate::CS_ORDER`] by measurement, not by construction.
pub const THREAD_ORDER: &str = "Z_N_F_T_I_M_V_H_C";

/// The thread-context assignment for a program.
#[derive(Debug, Clone)]
pub struct ThreadContexts {
    /// Context-domain size.
    pub domain_size: u64,
    /// The shared context of global objects (always 0).
    pub global_context: u64,
    /// The startup thread's context (always 1).
    pub main_context: u64,
    /// Per thread-creation site: `(heap site, [clone 1, clone 2], run
    /// method)`.
    pub sites: Vec<(u64, [u64; 2], u64)>,
    /// `HT(c, h)`: thread context `c` may execute non-thread allocation
    /// site `h`.
    pub ht: Vec<[u64; 2]>,
    /// `CM(c, m)`: thread context `c` may execute method `m` (the same
    /// filtered reachability that `HT` is built from — edges into `run`
    /// methods removed, clone contexts rooted at their `run` method).
    pub cm: Vec<[u64; 2]>,
    /// `vP0T(cv, v, ch, h)`: initial thread and global points-to tuples.
    pub vp0t: Vec<[u64; 4]>,
}

/// Computes the paper's thread-context scheme from the facts and a call
/// graph.
pub fn thread_contexts(facts: &Facts, cg: &CallGraph) -> ThreadContexts {
    // Identify each thread-creation site's run() method via CHA.
    let run_name = facts
        .simple_names
        .iter()
        .position(|n| n == "run")
        .map(|i| i as u64);
    let mut ht_of_site = vec![u64::MAX; facts.sizes.h as usize];
    for t in &facts.ht {
        ht_of_site[t[0] as usize] = t[1];
    }
    let mut sites = Vec::new();
    let mut next_ctx = 2u64;
    for &h in &facts.thread_allocs {
        let class = ht_of_site[h as usize];
        // The CHA triples cover inherited `run` methods (dispatch walks
        // the superclass chain), but nothing guarantees their order here:
        // take the lowest method id so the resolution is deterministic.
        let run = run_name.and_then(|rn| {
            facts
                .cha
                .iter()
                .filter(|t| t[0] == class && t[1] == rn)
                .map(|t| t[2])
                .min()
        });
        if let Some(run) = run {
            sites.push((h, [next_ctx, next_ctx + 1], run));
            next_ctx += 2;
        }
    }
    let domain_size = next_ctx.max(2);

    // Run methods of thread classes are roots of their own contexts, not
    // of the startup thread: per the paper, the cloned run() methods go on
    // the entry list and thread-start edges do not extend the creator's
    // context. Reachability therefore ignores edges into run methods.
    let run_methods: Vec<u64> = sites.iter().map(|s| s.2).collect();
    let main_roots: Vec<u64> = facts
        .entries
        .iter()
        .copied()
        .filter(|m| !run_methods.contains(m))
        .collect();
    let filtered = CallGraph {
        methods: cg.methods,
        edges: cg
            .edges
            .iter()
            .copied()
            .filter(|&(_, _, callee)| !run_methods.contains(&callee))
            .collect(),
        entries: cg.entries.clone(),
    };

    // HT: reachable non-thread allocation sites per context.
    let mut ht = Vec::new();
    let is_thread_alloc = |h: u64| facts.thread_allocs.contains(&h);
    let add_reach = |roots: &[u64], ctx: u64, ht: &mut Vec<[u64; 2]>| {
        let reach = filtered.reachable_from(roots);
        for t in &facts.mh {
            if reach[t[0] as usize] && !is_thread_alloc(t[1]) {
                ht.push([ctx, t[1]]);
            }
        }
    };
    add_reach(&main_roots, 1, &mut ht);
    for (_, clones, run) in &sites {
        for &c in clones {
            add_reach(&[*run], c, &mut ht);
        }
    }

    // vP0T: thread-creation sites point to their clone contexts, executed
    // from every context whose thread reaches the creating method; the
    // global variable points to the synthetic global object (context 0)
    // from every context.
    let mut vp0t = Vec::new();
    let mut method_reach: Vec<(u64, Vec<bool>)> = Vec::new();
    method_reach.push((1, filtered.reachable_from(&main_roots)));
    for (_, clones, run) in &sites {
        for &c in clones {
            method_reach.push((c, filtered.reachable_from(&[*run])));
        }
    }
    let mut site_method = vec![u64::MAX; facts.sizes.h as usize];
    for t in &facts.mh {
        site_method[t[1] as usize] = t[0];
    }
    for t in &facts.vp0 {
        let (v, h) = (t[0], t[1]);
        if !is_thread_alloc(h) {
            continue;
        }
        let m = site_method[h as usize];
        let Some((_, clones, _)) = sites.iter().find(|s| s.0 == h) else {
            continue;
        };
        for (ctx, reach) in &method_reach {
            if m != u64::MAX && reach[m as usize] {
                for &cn in clones {
                    vp0t.push([*ctx, v, cn, h]);
                }
            }
        }
    }
    // Each run() clone's `this` points to its own thread object in its own
    // context (the paper's cloned run methods on the entry list).
    for (h, clones, run) in &sites {
        let this_var = facts
            .formal
            .iter()
            .find(|t| t[0] == *run && t[1] == 0)
            .map(|t| t[2]);
        if let Some(v) = this_var {
            for &c in clones {
                vp0t.push([c, v, c, *h]);
            }
        }
    }
    // The global variable (VarId 0) points to the synthetic global object,
    // which lives in the reserved context 0; the variable itself is only
    // accessed from real thread contexts (1..), otherwise loads through it
    // would fabricate accesses from the phantom context 0.
    let g = global_object(facts);
    for c in 1..domain_size {
        vp0t.push([c, 0, 0, g]);
    }

    let mut cm = Vec::new();
    for (ctx, reach) in &method_reach {
        for (m, r) in reach.iter().enumerate() {
            if *r {
                cm.push([*ctx, m as u64]);
            }
        }
    }

    ThreadContexts {
        domain_size,
        global_context: 0,
        main_context: 1,
        sites,
        ht,
        cm,
        vp0t,
    }
}

/// Results of the thread-escape analysis (Algorithm 7 + the escape
/// queries of Section 5.6).
pub struct ThreadEscape {
    /// The solved engine (relations `vPT`, `hPT`, `escaped`, `captured`,
    /// `neededSyncs`, `unneededSyncs`).
    pub engine: Engine,
    /// Solver statistics.
    pub stats: SolveStats,
    /// The context assignment used.
    pub contexts: ThreadContexts,
}

impl ThreadEscape {
    /// `(captured, escaped)` object counts — context/site pairs, as in
    /// Figure 5.
    ///
    /// # Errors
    ///
    /// Propagates Datalog/BDD errors.
    pub fn object_counts(&self) -> Result<(u64, u64), DatalogError> {
        Ok((
            self.engine.relation_count("captured")? as u64,
            self.engine.relation_count("escaped")? as u64,
        ))
    }

    /// `(unneeded, needed)` synchronization-operation counts, as in
    /// Figure 5.
    ///
    /// # Errors
    ///
    /// Propagates Datalog/BDD errors.
    pub fn sync_counts(&self) -> Result<(u64, u64), DatalogError> {
        Ok((
            self.engine.relation_count("unneededSyncs")? as u64,
            self.engine.relation_count("neededSyncs")? as u64,
        ))
    }
}

/// Runs the thread-sensitive pointer analysis (Algorithm 7) and the escape
/// queries. The invocation edges of `cg` feed the (context-insensitive)
/// `assign` derivation, matching the paper's use of a previously computed
/// call graph.
///
/// # Example
///
/// ```
/// use whale_core::{thread_escape, CallGraph};
/// use whale_ir::{parse_program, Facts};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = parse_program(r#"
/// class W extends Thread {
///   method run() { var x: Object; x = new Object; sync x; }
/// }
/// class Main extends Object {
///   entry static method main() { var w: W; w = new W; start w; }
/// }
/// "#)?;
/// let facts = Facts::extract(&program);
/// let cg = CallGraph::from_cha(&facts)?;
/// let escape = thread_escape(&facts, &cg, None)?;
/// let (unneeded, _needed) = escape.sync_counts()?;
/// assert!(unneeded >= 1, "x never escapes, its sync is removable");
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates Datalog/BDD errors.
pub fn thread_escape(
    facts: &Facts,
    cg: &CallGraph,
    options: Option<EngineOptions>,
) -> Result<ThreadEscape, DatalogError> {
    thread_escape_extended(facts, cg, &[], "", "", &[], options)
}

/// [`thread_escape`] with extra domains, relation declarations, rules and
/// input facts spliced into the Algorithm 7 program — the hook the
/// downstream clients (race detection) build on.
pub(crate) fn thread_escape_extended(
    facts: &Facts,
    cg: &CallGraph,
    extra_domains: &[String],
    extra_relations: &str,
    extra_rules: &str,
    extra_facts: &[(&str, Vec<Vec<u64>>)],
    options: Option<EngineOptions>,
) -> Result<ThreadEscape, DatalogError> {
    let contexts = thread_contexts(facts, cg);
    let mut domains = vec![format!("C {}", contexts.domain_size)];
    domains.extend_from_slice(extra_domains);
    let src = format!(
        "{}\nRELATIONS\n{}\
input HT (c : C, heap : H)
input vP0T (cv : C, variable : V, ch : C, heap : H)
input IE (invoke : I, target : M)
vPfilter (variable : V, heap : H)
assign (dest : V, source : V)
output vPT (cv : C, variable : V, ch : C, heap : H)
output hPT (cb : C, base : H, field : F, ct : C, target : H)
output escaped (c : C, heap : H)
output captured (c : C, heap : H)
output neededSyncs (c : C, var : V)
output unneededSyncs (c : C, var : V)
{}
RULES
assign(v1,v2) :- IE(i,m), formal(m,z,v1), actual(i,z,v2).
assign(v1,v2) :- IE(i,m), Iret(i,v1), Mret(m,v2).
assign(v1,v2) :- mI(m1,i,_), IE(i,m2), Mthr(m1,v1), Mthr(m2,v2).
assign(v1,v2) :- assign0(v1,v2).
vPfilter(v,h) :- vT(v,tv), hT(h,th), aT(tv,th).
vPT(c1,v,c2,h) :- vP0T(c1,v,c2,h).
vPT(c,v,c,h) :- vP0(v,h), HT(c,h).
vPT(c2,v1,ch,h) :- assign(v1,v2), vPT(c2,v2,ch,h), vPfilter(v1,h).
hPT(c1,h1,f,c2,h2) :- store(v1,f,v2), vPT(c,v1,c1,h1), vPT(c,v2,c2,h2).
vPT(c,v2,c2,h2) :- load(v1,f,v2), vPT(c,v1,c1,h1), hPT(c1,h1,f,c2,h2), vPfilter(v2,h2).
escaped(c,h) :- vPT(cv,_,c,h), cv != c.
captured(c,h) :- vPT(c,_,c,h), !escaped(c,h).
neededSyncs(c,v) :- syncs(v), vPT(c,v,ch,h), escaped(ch,h).
unneededSyncs(c,v) :- syncs(v), vPT(c,v,_,_), !neededSyncs(c,v).
{}",
        domains_section(facts, &domains),
        BASE_RELATIONS,
        extra_relations,
        extra_rules,
    );
    let program = Program::parse(&src)?;
    let mut engine = Engine::with_options(
        program,
        options.unwrap_or_else(|| crate::analyses::default_options(THREAD_ORDER)),
    )?;
    load_base_facts(&mut engine, facts)?;
    engine.add_facts("HT", &contexts.ht)?;
    engine.add_facts("vP0T", &contexts.vp0t)?;
    let ie: Vec<Vec<u64>> = cg.edges.iter().map(|&(i, _, m)| vec![i, m]).collect();
    engine.add_facts("IE", &ie)?;
    for (name, tuples) in extra_facts {
        engine.add_facts(name, tuples)?;
    }
    let stats = engine.solve()?;
    Ok(ThreadEscape {
        engine,
        stats,
        contexts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_ir::parse_program;

    fn two_workers() -> (Facts, CallGraph) {
        let p = parse_program(
            r#"
class W1 extends Thread {
  method run() { var x: Object; x = new Object; }
}
class W2 extends Thread {
  method run() { var y: Object; y = new Object; }
}
class Main extends Object {
  entry static method main() {
    var a: W1;
    var b: W2;
    a = new W1;
    b = new W2;
    start a;
    start b;
  }
}
"#,
        )
        .unwrap();
        let facts = Facts::extract(&p);
        let cg = CallGraph::from_cha(&facts).unwrap();
        (facts, cg)
    }

    #[test]
    fn two_contexts_per_creation_site() {
        let (facts, cg) = two_workers();
        let ctx = thread_contexts(&facts, &cg);
        assert_eq!(ctx.sites.len(), 2);
        // Contexts: 0 global, 1 main, 2+3 for W1, 4+5 for W2.
        assert_eq!(ctx.domain_size, 6);
        assert_eq!(ctx.sites[0].1, [2, 3]);
        assert_eq!(ctx.sites[1].1, [4, 5]);
    }

    #[test]
    fn ht_separates_thread_allocations() {
        let (facts, cg) = two_workers();
        let ctx = thread_contexts(&facts, &cg);
        // W1.run's allocation belongs to W1's contexts only.
        let w1_alloc = facts
            .heap_names
            .iter()
            .position(|n| n.contains("W1.run"))
            .unwrap() as u64;
        let ctxs: Vec<u64> = ctx
            .ht
            .iter()
            .filter(|t| t[1] == w1_alloc)
            .map(|t| t[0])
            .collect();
        assert_eq!(ctxs, vec![2, 3], "W1's allocation in W1's clones only");
    }

    #[test]
    fn thread_objects_point_into_clone_contexts() {
        let (facts, cg) = two_workers();
        let ctx = thread_contexts(&facts, &cg);
        // main's `a` variable points to W1's object in both clone contexts,
        // executed from main's context 1.
        let a_var = facts
            .var_names
            .iter()
            .position(|n| n.contains("main::a#"))
            .unwrap() as u64;
        let entries: Vec<[u64; 4]> = ctx.vp0t.iter().copied().filter(|t| t[1] == a_var).collect();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|t| t[0] == 1));
        let clone_ctxs: Vec<u64> = entries.iter().map(|t| t[2]).collect();
        assert_eq!(clone_ctxs, vec![2, 3]);
    }

    #[test]
    fn run_this_binds_in_own_context() {
        let (facts, cg) = two_workers();
        let ctx = thread_contexts(&facts, &cg);
        let run1 = ctx.sites[0].2;
        let this1 = facts
            .formal
            .iter()
            .find(|t| t[0] == run1 && t[1] == 0)
            .map(|t| t[2])
            .unwrap();
        for &c in &ctx.sites[0].1 {
            assert!(
                ctx.vp0t.iter().any(|t| *t == [c, this1, c, ctx.sites[0].0]),
                "this of run() bound in clone context {c}"
            );
        }
    }

    #[test]
    fn inherited_run_method_resolves() {
        // Sub inherits run() from Base: the creation site must still get
        // its two clone contexts, bound to Base.run.
        let p = parse_program(
            r#"
class Base extends Thread {
  method run() { var x: Object; x = new Object; }
}
class Sub extends Base {
  method other() { }
}
class Main extends Object {
  entry static method main() { var s: Sub; s = new Sub; start s; }
}
"#,
        )
        .unwrap();
        let facts = Facts::extract(&p);
        let cg = CallGraph::from_cha(&facts).unwrap();
        let ctx = thread_contexts(&facts, &cg);
        assert_eq!(ctx.sites.len(), 1, "Sub's creation site found");
        let run = ctx.sites[0].2;
        assert_eq!(facts.method_names[run as usize], "Base.run");
        assert_eq!(ctx.sites[0].1, [2, 3]);
    }

    #[test]
    fn global_variable_not_in_phantom_context() {
        let (facts, cg) = two_workers();
        let ctx = thread_contexts(&facts, &cg);
        assert!(
            !ctx.vp0t.iter().any(|t| t[0] == 0 && t[1] == 0),
            "the global var must not be accessed from context 0 itself"
        );
        // But it is bound in every real context.
        for c in 1..ctx.domain_size {
            assert!(ctx.vp0t.iter().any(|t| t[0] == c && t[1] == 0));
        }
    }
}
