//! Static data-race detection on top of the thread-escape analysis.
//!
//! A race candidate is a pair of field accesses `(s1, s2)` on the same
//! field of the same thread-escaping abstract object `(ch, h)`, executed
//! under distinct thread contexts (the Algorithm 7 context scheme of
//! [`crate::thread_contexts`]), where at least one access is a write and
//! the two accesses hold no common lock.
//!
//! # Lock-set approximation
//!
//! Two accesses hold a common lock iff their enclosing `synchronized`
//! monitors *must* point to the same **singleton** abstract object: an
//! allocation site the execution-count analysis proves is instantiated at
//! most once (its method executes at most once, and never from a thread's
//! `run` method). Must-alias is checked by requiring the monitor variable
//! to point to exactly one `(context, heap)` pair. This deliberately
//! under-approximates lock protection — per-thread or multiply-allocated
//! locks never suppress a report — so it cannot hide a real race at the
//! price of false alarms on exotic locking.
//!
//! # Soundness caveats
//!
//! - Accesses through the synthetic global object (static fields) are
//!   excluded: the initial publication store from `main` and the readers
//!   would otherwise always race. Races *through static fields* are
//!   therefore not reported.
//! - Accesses are attributed to a thread context only if that context can
//!   actually reach the enclosing method (`CM` from
//!   [`crate::ThreadContexts`]). The underlying `vPT` relation is built
//!   from context-blind `assign` edges, so without this restriction a
//!   `run` method's statements would also appear to execute in the
//!   *creating* thread's context.
//! - Fields of the thread objects themselves are excluded: the idiomatic
//!   start handshake (`w.shared = s; start w;` in the creator, `s =
//!   this.shared;` in `run`) is ordered by `Thread.start`'s happens-before
//!   edge, which the detector does not model. Real races on a thread
//!   object's own fields after it started are therefore not reported.
//! - `wait`/`notify`, `join`-ordering and volatile semantics are not
//!   modeled; the detector reasons about mutual exclusion only.

use crate::callgraph::CallGraph;
use crate::input::global_object;
use crate::threads::{thread_escape_extended, ThreadContexts, ThreadEscape};
use whale_datalog::{DatalogError, EngineOptions};
use whale_ir::Facts;

/// Default variable order for the race program: the statement domain sits
/// next to the other "small" domains, contexts between variables and heap
/// as in [`crate::CS_ORDER`].
pub const RACE_ORDER: &str = "Z_N_S_F_T_M_I_V_C_H";

/// One reported racy access pair, with display names resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RacePair {
    /// First access: `(context, statement name)`. For write/read pairs
    /// this is the write.
    pub access1: (u64, String),
    /// Second access: `(context, statement name)`.
    pub access2: (u64, String),
    /// Display name of the abstract object raced on.
    pub object: String,
    /// Display name of the field raced on.
    pub field: String,
    /// Whether both accesses are writes.
    pub write_write: bool,
}

/// Results of the race detector.
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    /// Deduplicated racy pairs, write/write races first, then by name.
    pub pairs: Vec<RacePair>,
    /// Raw (un-deduplicated) tuple count of the `race` relation.
    pub raw_tuples: u64,
}

/// The race detector's outputs: the solved escape engine (with the race
/// relations) plus the resolved report.
pub struct RaceAnalysis {
    /// The underlying thread-escape analysis; its engine additionally
    /// holds `write`, `access` and `race`.
    pub escape: ThreadEscape,
    /// The resolved, ranked report.
    pub report: RaceReport,
}

/// Allocation sites instantiated at most once: sites in methods whose
/// saturating execution count is exactly 1.
///
/// The count is a fixpoint over the call graph with values in
/// `{0, 1, 2 = many}`: entry methods start at 1, thread `run` methods at 2
/// (one creation site stands for arbitrarily many threads), and each call
/// edge adds the caller's count. Recursive cycles saturate to 2, so no
/// SCC machinery is needed.
pub fn singleton_sites(facts: &Facts, cg: &CallGraph, contexts: &ThreadContexts) -> Vec<u64> {
    let nm = facts.sizes.m as usize;
    let run_methods: Vec<u64> = contexts.sites.iter().map(|s| s.2).collect();
    let mut entry = vec![0u8; nm];
    for &m in &facts.entries {
        entry[m as usize] = 1;
    }
    for &m in &run_methods {
        entry[m as usize] = 2;
    }
    let mut count = vec![0u8; nm];
    loop {
        let mut changed = false;
        for m in 0..nm {
            let mut c = entry[m] as u32;
            for &(_, caller, callee) in &cg.edges {
                if callee as usize == m {
                    c += count[caller as usize] as u32;
                }
            }
            let c = c.min(2) as u8;
            if c != count[m] {
                count[m] = c;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    facts
        .mh
        .iter()
        .filter(|t| count[t[0] as usize] == 1)
        .map(|t| t[1])
        .collect()
}

/// Runs the race detector: Algorithm 7 extended with access, lock-set and
/// race rules, then resolves and ranks the reported pairs.
///
/// # Example
///
/// ```
/// use whale_core::{detect_races, CallGraph};
/// use whale_ir::{parse_program, Facts};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = parse_program(r#"
/// class Shared extends Object { field data: Object; }
/// class W extends Thread {
///   field shared: Shared;
///   method run() {
///     var s: Shared; var o: Object;
///     s = this.shared;
///     o = new Object;
///     s.data = o;
///   }
/// }
/// class Main extends Object {
///   entry static method main() {
///     var s: Shared; var w: W;
///     s = new Shared;
///     w = new W;
///     w.shared = s;
///     start w;
///   }
/// }
/// "#)?;
/// let facts = Facts::extract(&program);
/// let cg = CallGraph::from_cha(&facts)?;
/// let races = detect_races(&facts, &cg, None)?;
/// assert!(!races.report.pairs.is_empty(), "unsynchronized write races");
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates Datalog/BDD errors.
pub fn detect_races(
    facts: &Facts,
    cg: &CallGraph,
    options: Option<EngineOptions>,
) -> Result<RaceAnalysis, DatalogError> {
    let relations = "\
input storeAt (stmt : S, base : V, field : F, source : V)
input loadAt (stmt : S, base : V, field : F, dest : V)
input guardedBy (stmt : S, lock : V)
input singleton (heap : H)
input stmtM (stmt : S, method : M)
input CM (c : C, method : M)
input threadObj (heap : H)
output write (c : C, stmt : S, ch : C, heap : H, field : F)
output access (c : C, stmt : S, ch : C, heap : H, field : F)
multiPT (c : C, var : V)
lockOn (c : C, stmt : S, cl : C, lock : H)
commonLock (c1 : C, s1 : S, c2 : C, s2 : S)
output race (c1 : C, s1 : S, c2 : C, s2 : S, heap : H, field : F)
";
    let g = global_object(facts);
    let rules = format!(
        "write(c,s,ch,h,f) :- storeAt(s,v,f,_), stmtM(s,m), CM(c,m), vPT(c,v,ch,h).
access(c,s,ch,h,f) :- write(c,s,ch,h,f).
access(c,s,ch,h,f) :- loadAt(s,v,f,_), stmtM(s,m), CM(c,m), vPT(c,v,ch,h).
multiPT(c,v) :- vPT(c,v,_,h1), vPT(c,v,_,h2), h1 != h2.
multiPT(c,v) :- vPT(c,v,c1,_), vPT(c,v,c2,_), c1 != c2.
lockOn(c,s,cl,l) :- guardedBy(s,v), vPT(c,v,cl,l), singleton(l), !multiPT(c,v).
commonLock(c1,s1,c2,s2) :- lockOn(c1,s1,cl,l), lockOn(c2,s2,cl,l).
race(c1,s1,c2,s2,h,f) :- write(c1,s1,ch,h,f), access(c2,s2,ch,h,f), escaped(ch,h), c1 != c2, h != {g}, !threadObj(h), !commonLock(c1,s1,c2,s2).
"
    );

    // Facts derived outside Datalog: statement-labeled accesses, lexical
    // guard regions, and the singleton sites for the lock-set check.
    let store_at: Vec<Vec<u64>> = facts.store_at.iter().map(|t| t.to_vec()).collect();
    let load_at: Vec<Vec<u64>> = facts.load_at.iter().map(|t| t.to_vec()).collect();
    let guarded_by: Vec<Vec<u64>> = facts.guarded.iter().map(|t| vec![t[1], t[2]]).collect();

    // `thread_contexts` is deterministic and cheap; recompute it here for
    // the singleton analysis (the solved engine gets its own copy).
    let contexts = crate::threads::thread_contexts(facts, cg);
    let singleton: Vec<Vec<u64>> = singleton_sites(facts, cg, &contexts)
        .into_iter()
        .map(|h| vec![h])
        .collect();

    let stmt_m: Vec<Vec<u64>> = facts.sm.iter().map(|t| t.to_vec()).collect();
    let cm: Vec<Vec<u64>> = contexts.cm.iter().map(|t| t.to_vec()).collect();
    let thread_obj: Vec<Vec<u64>> = facts.thread_allocs.iter().map(|&h| vec![h]).collect();

    let extra_facts: Vec<(&str, Vec<Vec<u64>>)> = vec![
        ("storeAt", store_at),
        ("loadAt", load_at),
        ("guardedBy", guarded_by),
        ("singleton", singleton),
        ("stmtM", stmt_m),
        ("CM", cm),
        ("threadObj", thread_obj),
    ];
    let mut escape = thread_escape_extended(
        facts,
        cg,
        &[format!("S {}", facts.sizes.s)],
        relations,
        &rules,
        &extra_facts,
        Some(options.unwrap_or(EngineOptions {
            seminaive: true,
            order: Some(RACE_ORDER.into()),
            ..EngineOptions::default()
        })),
    )?;
    escape.engine.set_name_map("S", &facts.stmt_names)?;

    let report = build_report(facts, &escape)?;
    Ok(RaceAnalysis { escape, report })
}

/// Resolves, deduplicates and ranks the `race` tuples of a solved engine.
fn build_report(facts: &Facts, escape: &ThreadEscape) -> Result<RaceReport, DatalogError> {
    let e = &escape.engine;
    let is_write: std::collections::HashSet<u64> = facts.store_at.iter().map(|t| t[0]).collect();
    let mut seen = std::collections::BTreeSet::new();
    let mut pairs = Vec::new();
    let tuples = e.relation_tuples("race")?;
    let raw_tuples = tuples.len() as u64;
    for t in tuples {
        let (c1, s1, c2, s2, h, f) = (t[0], t[1], t[2], t[3], t[4], t[5]);
        // Canonicalize the unordered pair so symmetric tuples collapse.
        let (a, b) = if (c1, s1) <= (c2, s2) {
            ((c1, s1), (c2, s2))
        } else {
            ((c2, s2), (c1, s1))
        };
        if !seen.insert((a, b, h, f)) {
            continue;
        }
        let stmt_name = |s: u64| e.name_of("S", s).unwrap_or("?").to_string();
        pairs.push(RacePair {
            access1: (a.0, stmt_name(a.1)),
            access2: (b.0, stmt_name(b.1)),
            object: e.name_of("H", h).unwrap_or("?").to_string(),
            field: e.name_of("F", f).unwrap_or("?").to_string(),
            write_write: is_write.contains(&a.1) && is_write.contains(&b.1),
        });
    }
    pairs.sort_by(|x, y| {
        y.write_write
            .cmp(&x.write_write)
            .then_with(|| x.object.cmp(&y.object))
            .then_with(|| x.field.cmp(&y.field))
            .then_with(|| x.access1.cmp(&y.access1))
            .then_with(|| x.access2.cmp(&y.access2))
    });
    Ok(RaceReport { pairs, raw_tuples })
}
