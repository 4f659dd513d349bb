//! The whale benchmark: two workloads over seeded synthetic programs,
//! each reporting the same end-to-end metrics, plus a traced run that
//! breaks the work down by layer (`ir`, `core`, `datalog`, `bdd`,
//! `serve`).
//!
//! - [`fig4`]: the paper's Figure 4 row, six analyses cold-solved back to
//!   back (batch analysis).
//! - [`serve_rw`]: one closed-loop client reading and writing through the
//!   resident server, warm-started from its dump cache. Its traced run
//!   also asks [`demand`]-driven `vPC(c, V, h)` queries (magic sets).
//!
//! Every run works through a *stream* of small programs generated from the
//! seed, as many as fit in its time, not one large program: the cost of a
//! synthetic program swings by tens of percent from seed to seed, and
//! only figures taken over dozens of programs keep two seeds comparable.
//! `README.md` has the measurements behind each choice.

pub mod demand;
pub mod fig4;
pub mod serve_rw;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use trace::Tracer;
use whale_core::{number_contexts, prepare_context_sensitive, CallGraph, ContextNumbering};
use whale_datalog::{Engine, SolveStats};
use whale_ir::synth::{self, SynthConfig};
use whale_ir::Facts;

/// The end-to-end metrics every workload reports, with their units.
///
/// - `setup_s`: set-up of one program (generation to a loaded, and for
///   the resident workloads solved or warm-started, engine), the median
///   over the run's programs.
/// - `ops_per_s`: analyses or requests completed per second of the time
///   they took.
/// - `p50_ms` / `tail_ms`: median and tail latency of the workload's
///   timed unit (one program's six analyses, a write).
/// - `peak_rss_mb`: peak resident memory while one program is worked on,
///   the median over the run's programs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ir.generate_ms", "ms"),
    ("ir.extract_ms", "ms"),
    ("ir.vars", "count"),
    ("ir.heaps", "count"),
    ("core.callgraph_ms", "ms"),
    ("core.numbering_ms", "ms"),
    ("core.contexts", "count"),
    ("core.load_ms", "ms"),
    ("core.alg1_ms", "ms"),
    ("core.alg2_ms", "ms"),
    ("core.alg3_ms", "ms"),
    ("core.alg5_ms", "ms"),
    ("core.alg6_ms", "ms"),
    ("core.alg7_ms", "ms"),
    ("datalog.solve_ms", "ms"),
    ("datalog.stratum_max_ms", "ms"),
    ("datalog.rounds", "count"),
    ("datalog.rule_apps", "count"),
    ("datalog.memo_hits", "count"),
    ("datalog.memo_hit_rate", "ratio"),
    ("datalog.query_ms", "ms"),
    ("datalog.query_rule_apps", "count"),
    ("datalog.query_rounds", "count"),
    ("datalog.query_apps_ratio", "ratio"),
    ("datalog.query_apps_base", "count"),
    ("datalog.query_heavy_share", "ratio"),
    ("datalog.incr_rule_apps", "count"),
    ("datalog.strata_resolved", "count"),
    ("datalog.strata_skipped", "count"),
    ("datalog.full_fallbacks", "count"),
    ("bdd.apply_lookups", "count"),
    ("bdd.ite_lookups", "count"),
    ("bdd.appex_lookups", "count"),
    ("bdd.replace_lookups", "count"),
    ("bdd.apply_hit_rate", "ratio"),
    ("bdd.ite_hit_rate", "ratio"),
    ("bdd.appex_hit_rate", "ratio"),
    ("bdd.replace_hit_rate", "ratio"),
    ("bdd.evictions", "count"),
    ("bdd.gc_runs", "count"),
    ("bdd.node_table_peak", "count"),
    ("bdd.allocated_nodes", "count"),
    ("bdd.cache_bytes", "bytes"),
    ("bdd.warm_start_ms", "ms"),
    ("bdd.dump_bytes", "bytes"),
    ("serve.count_ms", "ms"),
    ("serve.select_ms", "ms"),
    ("serve.select_tuples", "count"),
    ("serve.response_bytes", "bytes"),
    ("serve.edit_ms", "ms"),
    ("serve.append_ms", "ms"),
    ("run.latency_samples", "count"),
    ("run.tail_pct", "%"),
    ("trace.overhead_ops_per_s", "1/s"),
    ("trace.overhead_p50_ms", "ms"),
];

/// Where runs leave their span traces and, while they run, dump caches.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Programs at the head of a traced session whose counters are recorded:
/// a fixed prefix, so the counts repeat exactly on one seed.
pub const COUNTED_PROGRAMS: usize = 2;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["fig4_batch", "serve_rw"];

/// Most programs a run takes from its stream; runs end on time long
/// before.
pub const STREAM_LEN: usize = 2000;

/// How a workload's programs are generated.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Scale denominator applied to the calibrated `freetts` row.
    pub den: usize,
    /// Call-graph depth override (`None` keeps the row's).
    pub layers: Option<usize>,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed; drives every generated program and every draw.
    pub seed: u64,
    /// Measured session length in seconds; at least one program is
    /// always completed.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Program shape.
    pub plan: Plan,
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
pub struct Outcome {
    /// Operations attempted (analyses, requests, queries and checks).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Every [`END_TO_END`] metric (untraced run) or every [`PER_LAYER`]
    /// metric (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: input sizes, sample counts.
    pub notes: Vec<String>,
    /// The traced run's spans and counters.
    pub tracer: Tracer,
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "fig4_batch" => Ok(fig4::run(cfg)),
        "serve_rw" => Ok(serve_rw::run(cfg)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The default program shape of a workload.
pub fn default_plan(workload: &str) -> Option<Plan> {
    match workload {
        "fig4_batch" => Some(fig4::plan()),
        "serve_rw" => Some(serve_rw::plan()),
        _ => None,
    }
}

/// Operation and check counts of a run.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Corpus and program set-up
// ---------------------------------------------------------------------

/// The program stream of a run: [`STREAM_LEN`] scaled `freetts`
/// programs. Program `j` of seed `s` uses generator seed
/// `base + s * STREAM_LEN + j`, so seed 0's first program is the
/// calibrated row's own and no two seeds share a program.
pub fn program_stream(seed: u64, plan: &Plan) -> Vec<SynthConfig> {
    let base = synth::benchmarks()
        .into_iter()
        .find(|c| c.name == "freetts")
        .expect("freetts is a calibrated row");
    (0..STREAM_LEN)
        .map(|j| {
            let mut c = base.scaled(1, plan.den);
            if let Some(layers) = plan.layers {
                c.layers = layers;
            }
            c.seed = base
                .seed
                .wrapping_add(seed.wrapping_mul(STREAM_LEN as u64))
                .wrapping_add(j as u64);
            c
        })
        .collect()
}

/// A generated program with its call graph and context numbering.
pub struct Loaded {
    /// Extracted facts.
    pub facts: Facts,
    /// CHA call graph.
    pub cg: CallGraph,
    /// Algorithm 4 numbering.
    pub numbering: ContextNumbering,
}

/// Generates a program and builds everything an analysis needs before
/// its engine: facts, CHA call graph, context numbering.
pub fn load(config: &SynthConfig, tr: &mut Tracer) -> Loaded {
    let s = tr.begin("ir.generate");
    let program = synth::generate(config);
    tr.end(s);
    let s = tr.begin("ir.extract");
    let facts = Facts::extract(&program);
    tr.end(s);
    let s = tr.begin("core.callgraph");
    let cg = CallGraph::from_cha(&facts).expect("CHA call graph");
    tr.end(s);
    let s = tr.begin("core.numbering");
    let numbering = number_contexts(&cg);
    tr.end(s);
    Loaded {
        facts,
        cg,
        numbering,
    }
}

/// Loads an Algorithm 5 engine (parse, base facts, `IEC`/`mC`), unsolved.
pub fn load_engine(l: &Loaded, tr: &mut Tracer) -> Engine {
    let s = tr.begin("core.load");
    let engine = prepare_context_sensitive(&l.facts, &l.cg, &l.numbering, None)
        .expect("Algorithm 5 engine loads");
    tr.end(s);
    engine
}

/// Records a program's input sizes as counters (summed over the counted
/// programs; [`layer_values`] divides by their number).
pub fn count_inputs(l: &Loaded, tr: &mut Tracer) {
    tr.add("ir.vars", l.facts.sizes.v as f64);
    tr.add("ir.heaps", l.facts.sizes.h as f64);
    tr.add("core.contexts", l.numbering.total_paths() as f64);
}

/// Human-readable input sizes of one program.
pub fn describe(config: &SynthConfig, l: &Loaded) -> String {
    format!(
        "program seed={:#x} layers={} width={} V={} H={} contexts={}",
        config.seed,
        config.layers,
        config.width,
        l.facts.sizes.v,
        l.facts.sizes.h,
        l.numbering.total_paths()
    )
}

// ---------------------------------------------------------------------
// Solve statistics
// ---------------------------------------------------------------------

/// Adds a full solve's Datalog counters under the `datalog.*` names.
pub fn count_solve(tr: &mut Tracer, s: &SolveStats) {
    tr.add("datalog.rounds", s.rounds as f64);
    tr.add("datalog.rule_apps", s.rule_applications as f64);
    tr.add("datalog.memo_hits", s.rel_cache.hits as f64);
    tr.add(
        "memo.lookups",
        (s.rel_cache.hits + s.rel_cache.misses) as f64,
    );
}

/// Adds a solve's kernel-cache counters under the `bdd.*` names (deltas
/// of this solve alone).
pub fn count_caches(tr: &mut Tracer, s: &SolveStats) {
    for (kind, c) in [
        (CacheKind::Apply, &s.apply_cache),
        (CacheKind::Ite, &s.ite_cache),
        (CacheKind::Appex, &s.appex_cache),
        (CacheKind::Replace, &s.replace_cache),
    ] {
        let n = kind.names();
        tr.add(n.lookups, (c.hits + c.misses) as f64);
        tr.add(n.hits, c.hits as f64);
        tr.add("bdd.evictions", c.evictions as f64);
    }
}

#[derive(Clone, Copy)]
enum CacheKind {
    Apply,
    Ite,
    Appex,
    Replace,
}

struct CacheNames {
    lookups: &'static str,
    hits: &'static str,
    hit_rate: &'static str,
}

impl CacheKind {
    const ALL: [CacheKind; 4] = [
        CacheKind::Apply,
        CacheKind::Ite,
        CacheKind::Appex,
        CacheKind::Replace,
    ];

    fn names(self) -> CacheNames {
        let (lookups, hits, hit_rate) = match self {
            CacheKind::Apply => ("bdd.apply_lookups", "apply.hits", "bdd.apply_hit_rate"),
            CacheKind::Ite => ("bdd.ite_lookups", "ite.hits", "bdd.ite_hit_rate"),
            CacheKind::Appex => ("bdd.appex_lookups", "appex.hits", "bdd.appex_hit_rate"),
            CacheKind::Replace => (
                "bdd.replace_lookups",
                "replace.hits",
                "bdd.replace_hit_rate",
            ),
        };
        CacheNames {
            lookups,
            hits,
            hit_rate,
        }
    }
}

/// Records a manager's table and cache sizes: sizes as maxima over the
/// counted programs, GC runs as a sum.
pub fn count_manager(tr: &mut Tracer, engine: &Engine) {
    let b = engine.manager().stats();
    tr.add("bdd.gc_runs", b.gc_runs as f64);
    // `peak_live_nodes` is sampled at GC entry before marking, so it
    // counts dead nodes too and tracks the node table's size rather than
    // the live set; hence the name.
    tr.max("bdd.node_table_peak", b.peak_live_nodes as f64);
    tr.max("bdd.allocated_nodes", b.allocated_nodes as f64);
    tr.max("bdd.cache_bytes", b.cache_bytes as f64);
}

// ---------------------------------------------------------------------
// Statistics and memory
// ---------------------------------------------------------------------

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The 90th percentile, moved down until at least ten samples lie beyond
/// it, as `(value, percentile)`; with fewer than 11 samples, the maximum.
///
/// A tenth of the samples beyond it, not a fixed count, keeps a tail of
/// hundreds of samples from resting on the few slowest programs of the
/// seed's draw.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let beyond = (n / 10).max(10);
    match n {
        0 => (0.0, 0.0),
        1..=10 => (v[n - 1], 100.0),
        _ => (v[n - 1 - beyond], 100.0 * (n - beyond) as f64 / n as f64),
    }
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so the
/// next reading covers only what follows. Best-effort: without it the
/// reading is the process-wide peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds since `t`.
pub fn millis(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------
// Tallies and reporting
// ---------------------------------------------------------------------

/// End-to-end measurements of one session (traced or untraced).
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Per-program set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Latency samples of the workload's timed unit, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Work units completed (analyses or requests).
    pub units: f64,
    /// Seconds the timed work took.
    pub busy_s: f64,
    /// Per-program peak RSS readings, MB.
    pub rss_mb: Vec<f64>,
}

impl Tally {
    /// Work units completed per second of timed work.
    pub fn ops_per_s(&self) -> f64 {
        self.units / self.busy_s
    }

    /// The [`END_TO_END`] metrics.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let values = [
            median(&self.setup_s),
            self.ops_per_s(),
            median(&self.latency_ms),
            tail(&self.latency_ms).0,
            median(&self.rss_mb),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }

    /// A one-line summary with the sample counts behind each figure.
    pub fn note(&self, label: &str) -> String {
        let (t, pct) = tail(&self.latency_ms);
        format!(
            "{label}: setup median {:.4} s over {} programs; {:.3} ops/s; \
             p50 {:.3} ms, p{pct:.1} {t:.3} ms over {} samples; peak RSS median {:.1} MB over {} readings",
            median(&self.setup_s),
            self.setup_s.len(),
            self.ops_per_s(),
            median(&self.latency_ms),
            self.latency_ms.len(),
            median(&self.rss_mb),
            self.rss_mb.len()
        )
    }
}

/// Per-layer values a workload computed; names absent here print as 0.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// The shared per-layer values: set-up layers from spans (medians), input
/// sizes and solve counters from the tracer's counters (per program;
/// table and cache sizes as maxima), hit rates, sample counts and the
/// tracing overhead (traced minus untraced session).
pub fn layer_values(tr: &Tracer, programs: usize, traced: &Tally, untraced: &Tally) -> LayerValues {
    let mut v = LayerValues::new();
    let per = programs.max(1) as f64;
    for (metric, span) in [
        ("ir.generate_ms", "ir.generate"),
        ("ir.extract_ms", "ir.extract"),
        ("core.callgraph_ms", "core.callgraph"),
        ("core.numbering_ms", "core.numbering"),
        ("core.load_ms", "core.load"),
    ] {
        v.insert(metric, median(&tr.durations(span)));
    }
    for name in ["ir.vars", "ir.heaps", "core.contexts"] {
        v.insert(name, tr.counter(name) / per);
    }
    for &(name, _) in PER_LAYER {
        if (name.starts_with("datalog.") || name.starts_with("bdd.")) && tr.has(name) {
            let is_size = matches!(
                name,
                "bdd.node_table_peak" | "bdd.allocated_nodes" | "bdd.cache_bytes"
            );
            let c = tr.counter(name);
            v.insert(name, if is_size { c } else { c / per });
        }
    }
    let rate = |hits: f64, lookups: f64| if lookups > 0.0 { hits / lookups } else { 0.0 };
    v.insert(
        "datalog.memo_hit_rate",
        rate(tr.counter("datalog.memo_hits"), tr.counter("memo.lookups")),
    );
    for kind in CacheKind::ALL {
        let n = kind.names();
        v.insert(n.hit_rate, rate(tr.counter(n.hits), tr.counter(n.lookups)));
    }
    v.insert("run.latency_samples", traced.latency_ms.len() as f64);
    v.insert("run.tail_pct", tail(&traced.latency_ms).1);
    v.insert(
        "trace.overhead_ops_per_s",
        traced.ops_per_s() - untraced.ops_per_s(),
    );
    v.insert(
        "trace.overhead_p50_ms",
        median(&traced.latency_ms) - median(&untraced.latency_ms),
    );
    v
}

/// Every [`PER_LAYER`] metric, 0 where the workload has no value.
pub fn per_layer(values: &LayerValues) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// The result line: one JSON object.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}
