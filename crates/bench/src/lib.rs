//! The evaluation harness: the calibrated benchmark lookup, program
//! preparation, and one row function per figure of the paper's
//! evaluation (Figures 3–6, the §6.2 scaling sweep and the §2.3/§2.4/§6.4
//! ablations). Each row function returns a [`Row`]; the `figures` binary
//! renders it as a text table line or, with `--json`, as [`Row::json`].
//! [`micro`] is the kernel micro-benchmarks' runner.

pub mod micro;

use std::time::Instant;
use whale_bdd::BddStats;
use whale_core::handcoded::context_insensitive_handcoded;
use whale_core::queries::{type_refinement, RefineVariant};
use whale_core::{
    context_insensitive, context_sensitive, cs_type_analysis, number_contexts, thread_escape,
    CallGraph, CallGraphMode, ContextNumbering,
};
use whale_datalog::{json_string, Engine, EngineOptions, SolveStats};
use whale_ir::synth::{self, SynthConfig};
use whale_ir::{Facts, Program};

/// A generated benchmark with everything the analyses need.
pub struct Prepared {
    /// The generator config (scaled).
    pub config: SynthConfig,
    /// The generated program.
    pub program: Program,
    /// Extracted facts.
    pub facts: Facts,
}

/// A prepared benchmark plus its discovered call graph and numbering.
pub struct PreparedCs {
    /// The base preparation.
    pub base: Prepared,
    /// Call graph from the on-the-fly analysis (Algorithm 3), as the paper
    /// uses for the context-sensitive runs.
    pub cg: CallGraph,
    /// Algorithm 4 numbering.
    pub numbering: ContextNumbering,
    /// The discovery run as Figure 4's `alg3` cell; its rounds are the
    /// paper's "iterations".
    pub discovery: Cell,
}

/// The calibrated benchmark `name` (a Figure 3 row) scaled to `num/den`,
/// or the fixed `tiny` config, which is never scaled.
///
/// # Errors
///
/// An unknown name, with the list of valid names.
pub fn config(name: &str, num: usize, den: usize) -> Result<SynthConfig, String> {
    if name == "tiny" {
        return Ok(SynthConfig::tiny("tiny", 0x5eed));
    }
    let all = synth::benchmarks();
    match all.iter().find(|c| c.name == name) {
        Some(c) => Ok(c.scaled(num, den)),
        None => {
            let names: Vec<&str> = all.iter().map(|c| c.name.as_str()).collect();
            Err(format!(
                "unknown benchmark `{name}`; valid names: {}, tiny",
                names.join(", ")
            ))
        }
    }
}

/// [`config`] for a command-line name: an unknown name prints the error
/// and exits with status 2.
pub fn config_or_exit(name: &str, num: usize, den: usize) -> SynthConfig {
    config(name, num, den).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Every calibrated benchmark, in Figure 3 order, scaled to `num/den`.
pub fn benchmarks(num: usize, den: usize) -> Vec<SynthConfig> {
    synth::benchmarks()
        .into_iter()
        .map(|c| c.scaled(num, den))
        .collect()
}

/// Call-graph depths of the §6.2 sweep.
pub const SWEEP_LAYERS: [usize; 4] = [6, 9, 12, 15];

/// The §6.2 sweep program at one call-graph depth: the width is fixed, so
/// deepening multiplies reduced call paths at constant program size.
pub fn sweep_config(layers: usize) -> SynthConfig {
    SynthConfig {
        layers,
        width: 24,
        fan_in: 3,
        classes: 18,
        threads: 0,
        shared_pct: 0,
        ..SynthConfig::tiny(&format!("layers{layers}"), 0xdead)
    }
}

/// Variable orders of the §2.4.2 ordering ablation, on Algorithm 2.
const ABLATION_ORDERS: [&str; 8] = [
    "Z_N_F_T_M_I_V_H",
    "H_V_I_M_T_F_N_Z",
    "V_H_Z_N_F_T_M_I",
    "Z_N_F_T_M_I_VxH",
    "Z_N_F_T_M_I_H_V",
    "F_Z_N_T_I_M_V_H",
    "Z_N_T_M_I_V_F_H",
    "N_F_I_M_T_Z_V_H",
];

/// Generates a benchmark and extracts facts.
pub fn prepare(config: &SynthConfig) -> Prepared {
    let program = synth::generate(config);
    let facts = Facts::extract(&program);
    Prepared {
        config: config.clone(),
        program,
        facts,
    }
}

/// Prepares a benchmark and discovers its call graph (Algorithm 3).
pub fn prepare_cs(config: &SynthConfig) -> PreparedCs {
    let base = prepare(config);
    let (otf, secs) = timed(|| {
        context_insensitive(&base.facts, true, CallGraphMode::OnTheFly, None).expect("alg3")
    });
    let cg = CallGraph::from_ie(&base.facts, &otf.engine).expect("call graph");
    PreparedCs {
        numbering: number_contexts(&cg),
        discovery: solve_cell("alg3", &otf.stats, &otf.engine, "vP", secs),
        base,
        cg,
    }
}

/// Deterministic columns: name and value, in table order.
pub type Counts = Vec<(String, u128)>;

/// One timed cell of a row: an analysis run's deterministic counters and
/// its wall time, measured once.
#[derive(Clone)]
pub struct Cell {
    /// Column key, e.g. `alg5` or `cs_pointer`.
    pub key: String,
    /// Deterministic counters of the run.
    pub counts: Counts,
    /// Wall time of the run in seconds.
    pub secs: f64,
}

/// One row of a figure: the benchmark's deterministic columns and one
/// [`Cell`] per analysis run.
pub struct Row {
    /// Figure key: `3`, `4`, `5`, `6`, `scaling` or `ablations`.
    pub fig: &'static str,
    /// Benchmark name, or `layers<N>` for the sweep.
    pub name: String,
    /// Deterministic columns of the benchmark itself.
    pub counts: Counts,
    /// The analysis runs, in table order.
    pub cells: Vec<Cell>,
}

/// The value of `key` in `counts`. Panics on a key no row function writes.
pub fn get(counts: &Counts, key: &str) -> u128 {
    counts
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no column `{key}`"))
        .1
}

impl Row {
    /// The cell `key`. Panics on a key the row function does not write.
    pub fn cell(&self, key: &str) -> &Cell {
        self.cells
            .iter()
            .find(|c| c.key == key)
            .unwrap_or_else(|| panic!("no cell `{key}`"))
    }

    /// The row as one JSON object: the row's columns, then one object per
    /// cell whose last field is its wall time `time_s`.
    pub fn json(&self) -> String {
        let fields = |counts: &Counts| -> String {
            counts
                .iter()
                .map(|(k, v)| format!("{}:{v},", json_string(k)))
                .collect()
        };
        let mut out = format!(
            "{{\"fig\":{},\"name\":{},{}",
            json_string(self.fig),
            json_string(&self.name),
            fields(&self.counts)
        );
        for c in &self.cells {
            out += &format!(
                "{}:{{{}\"time_s\":{:.4}}},",
                json_string(&c.key),
                fields(&c.counts),
                c.secs
            );
        }
        out.pop();
        out + "}"
    }
}

fn col(key: &str, value: impl Into<u128>) -> (String, u128) {
    (key.to_string(), value.into())
}

/// Runs `f`, returning its result and the elapsed wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// A solved analysis as a cell: rounds, rule applications, the exact
/// tuple count of its result relation and peak live nodes.
fn solve_cell(key: &str, stats: &SolveStats, engine: &Engine, relation: &str, secs: f64) -> Cell {
    let tuples = engine
        .relation_count_exact(relation)
        .expect("result relation");
    Cell {
        key: key.to_string(),
        counts: vec![
            col("rounds", stats.rounds as u64),
            col("rule_applications", stats.rule_applications as u64),
            col("tuples", tuples),
            col("peak_live_nodes", stats.peak_live_nodes as u64),
        ],
        secs,
    }
}

fn bench_row(fig: &'static str, p: &PreparedCs, cells: Vec<Cell>) -> Row {
    Row {
        fig,
        name: p.base.config.name.clone(),
        counts: vec![
            col("methods", p.base.program.methods.len() as u64),
            col("paths", p.numbering.total_paths()),
        ],
        cells,
    }
}

/// Figure 3, benchmark vitals: classes, methods, statements (the
/// bytecodes analogue), variables, allocation sites and reduced call
/// paths; its one cell is the call-graph discovery run (Algorithm 3).
pub fn fig3_row(p: &PreparedCs) -> Row {
    let mut row = bench_row("3", p, vec![p.discovery.clone()]);
    let (program, sizes) = (&p.base.program, &p.base.facts.sizes);
    row.counts.extend([
        col("classes", program.classes.len() as u64),
        col("statements", program.statement_count() as u64),
        col("vars", sizes.v),
        col("allocs", sizes.h),
    ]);
    row
}

/// Figure 4, analysis cost: one cell per algorithm — context-insensitive
/// without (`alg1`) and with (`alg2`) type filtering, with call-graph
/// discovery (`alg3`), context-sensitive pointer (`alg5`) and type
/// (`alg6`) analysis, and thread-sensitive analysis (`alg7`).
pub fn fig4_row(p: &PreparedCs) -> Row {
    let (facts, cg, numbering) = (&p.base.facts, &p.cg, &p.numbering);
    let ci = |key: &str, typed: bool| {
        let (a, secs) =
            timed(|| context_insensitive(facts, typed, CallGraphMode::Cha, None).expect(key));
        solve_cell(key, &a.stats, &a.engine, "vP", secs)
    };
    let mut cells = vec![ci("alg1", false), ci("alg2", true), p.discovery.clone()];
    let (a, secs) = timed(|| context_sensitive(facts, cg, numbering, None).expect("alg5"));
    cells.push(solve_cell("alg5", &a.stats, &a.engine, "vPC", secs));
    let (a, secs) = timed(|| cs_type_analysis(facts, cg, numbering, None).expect("alg6"));
    cells.push(solve_cell("alg6", &a.stats, &a.engine, "vTC", secs));
    let (esc, secs) = timed(|| thread_escape(facts, cg, None).expect("alg7"));
    cells.push(solve_cell("alg7", &esc.stats, &esc.engine, "vPT", secs));
    bench_row("4", p, cells)
}

/// Figure 5, thread escape: the thread-sensitive analysis (Algorithm 7)
/// with captured and escaped objects (context/site pairs) and unneeded
/// and needed synchronizations.
pub fn fig5_row(p: &PreparedCs) -> Row {
    let (esc, secs) = timed(|| thread_escape(&p.base.facts, &p.cg, None).expect("alg7"));
    let mut cell = solve_cell("alg7", &esc.stats, &esc.engine, "vPT", secs);
    let (captured, escaped) = esc.object_counts().expect("object counts");
    let (unneeded, needed) = esc.sync_counts().expect("sync counts");
    cell.counts.extend([
        col("captured", captured),
        col("escaped", escaped),
        col("unneeded_syncs", unneeded),
        col("needed_syncs", needed),
    ]);
    bench_row("5", p, vec![cell])
}

/// Figure 6, type refinement: one cell per [`RefineVariant`], keyed by
/// its name, with the variables that point anywhere, the multi-typed ones
/// and the refinable ones.
pub fn fig6_row(p: &PreparedCs) -> Row {
    let cells = RefineVariant::all()
        .into_iter()
        .map(|variant| {
            let (cg, numbering) = match variant.context_sensitive() {
                true => (Some(&p.cg), Some(&p.numbering)),
                false => (None, None),
            };
            let (s, secs) = timed(|| {
                type_refinement(&p.base.facts, cg, numbering, variant).expect("refinement")
            });
            Cell {
                key: format!("{variant:?}"),
                counts: vec![
                    col("pointer_vars", s.pointer_vars),
                    col("multi", s.multi),
                    col("refinable", s.refinable),
                ],
                secs,
            }
        })
        .collect();
    bench_row("6", p, cells)
}

/// §6.2 scaling: the context-sensitive pointer analysis (Algorithm 5) on
/// the sweep program at one depth, with the manager's op-cache counters
/// after the solve.
pub fn scaling_row(layers: usize) -> Row {
    let p = prepare(&sweep_config(layers));
    let cg = CallGraph::from_cha(&p.facts).expect("call graph");
    let numbering = number_contexts(&cg);
    let (a, secs) = timed(|| context_sensitive(&p.facts, &cg, &numbering, None).expect("alg5"));
    let mut cell = solve_cell("alg5", &a.stats, &a.engine, "vPC", secs);
    cell.counts
        .extend(cache_counts(&a.engine.manager().stats()));
    Row {
        fig: "scaling",
        name: p.config.name,
        counts: vec![
            col("layers", layers as u64),
            col("paths", numbering.total_paths()),
        ],
        cells: vec![cell],
    }
}

fn cache_counts(s: &BddStats) -> Counts {
    let mut counts = vec![col("cache_bytes", s.cache_bytes as u64)];
    for (name, c) in [
        ("apply", &s.apply_cache),
        ("ite", &s.ite_cache),
        ("appex", &s.appex_cache),
        ("replace", &s.replace_cache),
        ("client", &s.client_cache),
    ] {
        counts.push((format!("{name}_hits"), c.hits.into()));
        counts.push((format!("{name}_misses"), c.misses.into()));
        counts.push((format!("{name}_evictions"), c.evictions.into()));
    }
    counts
}

/// The ablations on Algorithm 2 (context-insensitive, typed): semi-naive
/// against naive evaluation (§2.4.1), untyped against typed (§2.3), each
/// of eight variable orders (§2.4.2), and the hand-coded
/// raw-BDD Algorithm 2 (§6.4), whose generated counterpart is `typed`.
pub fn ablations_row(p: &Prepared) -> Row {
    let facts = &p.facts;
    let run = |key: &str, typed: bool, options: Option<EngineOptions>| {
        let (a, secs) =
            timed(|| context_insensitive(facts, typed, CallGraphMode::Cha, options).expect(key));
        solve_cell(key, &a.stats, &a.engine, "vP", secs)
    };
    let mut cells = Vec::new();
    for seminaive in [true, false] {
        let options = EngineOptions {
            seminaive,
            ..EngineOptions::default()
        };
        let key = if seminaive { "seminaive" } else { "naive" };
        cells.push(run(key, true, Some(options)));
    }
    cells.push(run("untyped", false, None));
    cells.push(run("typed", true, None));
    for order in ABLATION_ORDERS {
        let options = EngineOptions {
            order: Some(order.into()),
            ..EngineOptions::default()
        };
        cells.push(run(&format!("order_{order}"), true, Some(options)));
    }
    let (hc, secs) = timed(|| context_insensitive_handcoded(facts).expect("hand-coded"));
    cells.push(Cell {
        key: "hand_coded".into(),
        counts: vec![
            col("rounds", hc.iterations as u64),
            col("tuples", hc.vp_count()),
        ],
        secs,
    });
    Row {
        fig: "ablations",
        name: p.config.name.clone(),
        counts: vec![col("methods", p.program.methods.len() as u64)],
        cells,
    }
}

/// Formats a context/path count like the paper: `4 x 10^14`.
pub fn paths_display(paths: u128) -> String {
    if paths < 100_000 {
        return paths.to_string();
    }
    let log = (paths as f64).log10();
    let exp = log.floor() as u32;
    let mantissa = (paths as f64) / 10f64.powi(exp as i32);
    format!("{mantissa:.0} x 10^{exp}")
}

/// Peak-node count rendered as megabytes using the kernel's actual node
/// size (the paper reports peak live BDD nodes at 20 bytes/node; ours is
/// [`whale_bdd::NODE_BYTES`]).
pub fn peak_mb(peak_nodes: u128) -> f64 {
    (peak_nodes as f64 * whale_bdd::NODE_BYTES as f64) / (1024.0 * 1024.0)
}
