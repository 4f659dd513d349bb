//! `fig4_batch`: the paper's Figure 4 row as a batch job. Algorithms 1, 2,
//! 3, 5, 6 and 7 are cold-solved back to back on each program of the
//! run's stream; the six solve times of one program, summed, are the
//! latency sample, and each analysis counts as one operation. Nothing
//! here touches magic sets, incremental solving or the serve protocol.
//!
//! Checks, made between the timed analyses: the hand-coded Algorithm 2
//! of §6.4 agrees with the Datalog Algorithm 2 on the `vP` and `hP`
//! counts, and `vPC` projected onto (v, h) is contained in the typed
//! context-insensitive `vP`.

use std::collections::HashSet;
use std::time::Instant;

use whale_core::handcoded::context_insensitive_handcoded;
use whale_core::{
    context_insensitive, context_sensitive, cs_type_analysis, thread_escape, CallGraphMode,
};
use whale_datalog::{DatalogError, Engine, SolveStats};

use crate::trace::Tracer;
use crate::{
    count_caches, count_inputs, count_manager, count_solve, describe, layer_values, load,
    load_engine, median, millis, peak_rss_mb, per_layer, program_stream, reset_peak_rss, secs,
    Loaded, Ops, Outcome, Plan, RunConfig, Tally, COUNTED_PROGRAMS,
};

/// `freetts` programs at 1/16 scale.
pub fn plan() -> Plan {
    Plan {
        den: 16,
        layers: None,
    }
}

/// The six analyses: span and metric names.
const ALGS: [(&str, &str); 6] = [
    ("core.alg1", "core.alg1_ms"),
    ("core.alg2", "core.alg2_ms"),
    ("core.alg3", "core.alg3_ms"),
    ("core.alg5", "core.alg5_ms"),
    ("core.alg6", "core.alg6_ms"),
    ("core.alg7", "core.alg7_ms"),
];

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let configs = program_stream(cfg.seed, &cfg.plan);
    let mut stream = configs.iter();
    let mut tr = Tracer::new(cfg.trace);
    let mut ops = Ops::default();
    let mut notes = Vec::new();
    let mut times = SolveTimes::default();
    let (traced, untraced) = if cfg.trace {
        let traced = session(
            &mut stream,
            cfg.seconds / 2.0,
            &mut tr,
            &mut ops,
            &mut times,
            &mut notes,
        );
        let untraced = session(
            &mut stream,
            cfg.seconds / 2.0,
            &mut Tracer::new(false),
            &mut ops,
            &mut SolveTimes::default(),
            &mut Vec::new(),
        );
        (traced, untraced)
    } else {
        let t = session(
            &mut stream,
            cfg.seconds,
            &mut Tracer::new(false),
            &mut ops,
            &mut times,
            &mut notes,
        );
        (t.clone(), t)
    };
    notes.push(untraced.note("fig4_batch (untraced)"));

    let metrics = if cfg.trace {
        notes.push(traced.note("fig4_batch (traced)"));
        let programs = COUNTED_PROGRAMS.min(traced.setup_s.len());
        let mut v = layer_values(&tr, programs, &traced, &untraced);
        for (span, metric) in ALGS {
            v.insert(metric, median(&tr.durations(span)));
        }
        v.insert("datalog.solve_ms", median(&times.solve_ms));
        v.insert("datalog.stratum_max_ms", median(&times.stratum_max_ms));
        per_layer(&v)
    } else {
        untraced.end_to_end()
    };
    Outcome {
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        notes,
        tracer: tr,
    }
}

/// Per-program Datalog times for the traced run.
#[derive(Default)]
struct SolveTimes {
    solve_ms: Vec<f64>,
    stratum_max_ms: Vec<f64>,
}

/// Takes programs from the stream until `budget` seconds have elapsed (at
/// least one): sets each up, then solves and checks its six analyses.
/// Counters come from the first [`COUNTED_PROGRAMS`] programs of a traced
/// session, so they repeat exactly on one seed.
fn session<'a>(
    stream: &mut impl Iterator<Item = &'a whale_ir::synth::SynthConfig>,
    budget: f64,
    tr: &mut Tracer,
    ops: &mut Ops,
    times: &mut SolveTimes,
    notes: &mut Vec<String>,
) -> Tally {
    let mut tally = Tally::default();
    let t0 = Instant::now();
    while secs(t0) < budget || tally.latency_ms.is_empty() {
        let Some(config) = stream.next() else {
            break;
        };
        reset_peak_rss();
        let t = Instant::now();
        let l = load(config, tr);
        drop(load_engine(&l, tr));
        tally.setup_s.push(secs(t));
        if notes.len() < 3 {
            notes.push(describe(config, &l));
        }
        let counted = tally.setup_s.len() <= COUNTED_PROGRAMS && tr.on();
        if counted {
            count_inputs(&l, tr);
        }
        let p = pass(&l, tr, ops, counted);
        tally.latency_ms.push(p.ms);
        tally.units += ALGS.len() as f64;
        tally.busy_s += p.ms / 1e3;
        times.solve_ms.push(p.solve_ms);
        times.stratum_max_ms.push(p.stratum_max_ms);
        tally.rss_mb.push(peak_rss_mb());
    }
    tally
}

/// One program's six analyses.
struct Pass {
    /// Summed wall time of the six analysis calls.
    ms: f64,
    /// Summed Datalog solve time.
    solve_ms: f64,
    /// Slowest stratum of any of the six solves.
    stratum_max_ms: f64,
}

/// Cold-solves the six analyses on one program, each timed and traced on
/// its own, and checks the outputs between them.
fn pass(l: &Loaded, tr: &mut Tracer, ops: &mut Ops, counted: bool) -> Pass {
    let f = &l.facts;
    let mut p = Pass {
        ms: 0.0,
        solve_ms: 0.0,
        stratum_max_ms: 0.0,
    };
    let mut ci_vp: HashSet<(u64, u64)> = HashSet::new();
    let mut ci_counts = (0, 0);
    for (alg, _) in ALGS {
        let span = tr.begin(alg);
        let t = Instant::now();
        let solved: Result<(Engine, SolveStats), DatalogError> =
            match alg {
                "core.alg1" => context_insensitive(f, false, CallGraphMode::Cha, None)
                    .map(|a| (a.engine, a.stats)),
                "core.alg2" => context_insensitive(f, true, CallGraphMode::Cha, None)
                    .map(|a| (a.engine, a.stats)),
                "core.alg3" => context_insensitive(f, true, CallGraphMode::OnTheFly, None)
                    .map(|a| (a.engine, a.stats)),
                "core.alg5" => {
                    context_sensitive(f, &l.cg, &l.numbering, None).map(|a| (a.engine, a.stats))
                }
                "core.alg6" => {
                    cs_type_analysis(f, &l.cg, &l.numbering, None).map(|a| (a.engine, a.stats))
                }
                _ => thread_escape(f, &l.cg, None).map(|a| (a.engine, a.stats)),
            };
        p.ms += millis(t);
        tr.end(span);
        let Ok((engine, stats)) = solved else {
            ops.check(false);
            continue;
        };
        ops.check(true);
        p.solve_ms += stats.solve_time.as_secs_f64() * 1e3;
        let max = stats
            .stratum_times
            .iter()
            .max()
            .copied()
            .unwrap_or_default();
        p.stratum_max_ms = p.stratum_max_ms.max(max.as_secs_f64() * 1e3);
        if counted {
            count_solve(tr, &stats);
            count_caches(tr, &stats);
            count_manager(tr, &engine);
        }
        match alg {
            "core.alg2" => {
                ci_counts = (count(&engine, "vP"), count(&engine, "hP"));
                ci_vp = engine
                    .relation_tuples("vP")
                    .map(|ts| ts.iter().map(|t| (t[0], t[1])).collect())
                    .unwrap_or_default();
            }
            "core.alg5" => ops.check(projected_vpc_within(&engine, &ci_vp)),
            _ => {}
        }
    }
    let agrees = context_insensitive_handcoded(f)
        .is_ok_and(|hc| (hc.vp_count(), hc.hp_count()) == ci_counts);
    ops.check(agrees);
    p
}

fn count(engine: &Engine, relation: &str) -> u64 {
    engine
        .relation_count_exact(relation)
        .map_or(u64::MAX, |n| n as u64)
}

/// `vPC` projected onto (v, h) is a subset of the typed CI `vP`: cloning
/// only ever refines the context-insensitive answer (Figure 6 ordering).
fn projected_vpc_within(engine: &Engine, ci_vp: &HashSet<(u64, u64)>) -> bool {
    let (Ok(sig), Ok(vpc)) = (engine.relation_signature("vPC"), engine.relation_bdd("vPC")) else {
        return false;
    };
    let pairs = vpc.exist_domains(&sig[..1]).tuples(&sig[1..]);
    !pairs.is_empty() && pairs.iter().all(|t| ci_vp.contains(&(t[0], t[1])))
}
