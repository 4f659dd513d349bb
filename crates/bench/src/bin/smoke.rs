//! Pipeline smoke/perf check: runs every analysis on one benchmark config
//! at a chosen scale, printing wall time and peak BDD nodes.

use std::time::Instant;
use whale_bench::config_or_exit;
use whale_core::{
    context_insensitive, context_sensitive, cs_type_analysis, number_contexts, thread_escape,
    CallGraph, CallGraphMode,
};
use whale_ir::{synth, Facts};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("freetts");
    let num: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let den: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(1);
    let config = config_or_exit(name, num, den);
    let t0 = Instant::now();
    let program = synth::generate(&config);
    let facts = Facts::extract(&program);
    println!(
        "{name} x{num}/{den}: classes={} methods={} stmts={} vars={} allocs={} gen={:?}",
        program.classes.len(),
        program.methods.len(),
        program.statement_count(),
        facts.sizes.v,
        facts.sizes.h,
        t0.elapsed()
    );

    let t = Instant::now();
    let ci = context_insensitive(&facts, true, CallGraphMode::Cha, None).unwrap();
    println!(
        "ci-cha: vP={} time={:?} peak={}",
        ci.count("vP").unwrap(),
        t.elapsed(),
        ci.stats.peak_live_nodes
    );

    let t = Instant::now();
    let otf = context_insensitive(&facts, true, CallGraphMode::OnTheFly, None).unwrap();
    println!(
        "ci-otf: vP={} IE={} rounds={} time={:?} peak={}",
        otf.count("vP").unwrap(),
        otf.count("IE").unwrap(),
        otf.stats.rounds,
        t.elapsed(),
        otf.stats.peak_live_nodes
    );

    let t = Instant::now();
    let cg = CallGraph::from_ie(&facts, &otf.engine).unwrap();
    let numbering = number_contexts(&cg);
    println!(
        "numbering: edges={} paths={:.3e} clamped={} time={:?}",
        cg.edges.len(),
        numbering.total_paths() as f64,
        numbering.clamped,
        t.elapsed()
    );

    let t = Instant::now();
    let cs = context_sensitive(&facts, &cg, &numbering, None).unwrap();
    println!(
        "cs: vPC={:.3e} time={:?} peak={}",
        cs.count("vPC").unwrap(),
        t.elapsed(),
        cs.stats.peak_live_nodes
    );

    let t = Instant::now();
    let ty = cs_type_analysis(&facts, &cg, &numbering, None).unwrap();
    println!(
        "cs-type: vTC={:.3e} time={:?} peak={}",
        ty.count("vTC").unwrap(),
        t.elapsed(),
        ty.stats.peak_live_nodes
    );

    let t = Instant::now();
    let esc = thread_escape(&facts, &cg, None).unwrap();
    let (cap, escd) = esc.object_counts().unwrap();
    let (unneeded, needed) = esc.sync_counts().unwrap();
    println!(
        "escape: captured={cap} escaped={escd} syncs(unneeded/needed)={unneeded}/{needed} time={:?} peak={}",
        t.elapsed(),
        esc.stats.peak_live_nodes
    );
}
