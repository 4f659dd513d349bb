//! The `whale` command-line driver: run the paper's analyses on a program
//! written in the textual IR language.
//!
//! ```console
//! whale analyze app.whale --cs --print vPC
//! whale analyze app.whale --escape
//! whale number app.whale
//! whale facts app.whale
//! whale serve app.whale --cs --cache-dir .whale-cache
//! ```
//!
//! Exit codes follow the usual convention: `0` success, `1` runtime
//! failure (parse error, unsolvable program, I/O), `2` usage error (bad
//! flags or flag combinations) with a pointer to `--help`.

use std::path::PathBuf;
use std::process::ExitCode;
use whale::prelude::*;
use whale::serve::Server;

const USAGE: &str = "\
usage: whale <command> <program-file> [options]

commands:
  analyze   run a points-to analysis
  number    print the Algorithm 4 context numbering summary
  facts     print extracted fact counts
  serve     stay resident: answer queries over stdio or a Unix socket

analyze options:
  --ci          context-insensitive, CHA call graph (default)
  --otf         context-insensitive, call graph discovered on the fly
  --untyped     disable the Algorithm 2 type filter
  --cs          cloning-based context-sensitive points-to (Algorithms 4+5)
  --types       context-sensitive type analysis (Algorithm 6)
  --escape      thread-escape analysis (Algorithm 7)
  --races       static data-race detection on top of thread-escape
  --taint SPEC  spec-driven information-flow audit with witness paths
  --factor      apply flow-sensitive local factoring before extraction
  --print REL   print the tuples of a result relation (repeatable)
  --query ATOM  answer a single Datalog atom from the solved relations,
                e.g. --query 'vPC(0, v, h)'; constants and quoted names
                pin columns, variables and _ stay free
  --lint        run the static Datalog analyzer over the generated
                program: structured diagnostics with stable codes (unused
                relations, dead/unreachable rules, singleton variables,
                cross products, expensive joins, duplicate/subsumed rules)
  --deny-warnings  with --lint, exit nonzero if any warning fires
  --format F    lint output format: text (default) or json
  --stats       print BDD node-table, op-cache and per-stratum statistics

serve options:
  --ci | --otf | --cs   analysis kept resident (default --ci)
  --untyped             disable the type filter (--ci/--otf only)
  --socket PATH         listen on a Unix socket instead of stdio
  --cache-dir DIR       warm-start cache of io v2 BDD dumps, keyed by a
                        hash of the fact stream; written on clean shutdown
  requests are newline-delimited JSON; see DESIGN.md section 5k

taint specs are line-oriented:
  source method NAME / source field NAME
  sink method NAME ARGPOS
  sanitizer method NAME
";

/// A driver failure, split by exit code: usage errors (bad flags, bad
/// combinations) exit 2 and point at `--help`; runtime errors exit 1.
enum CliError {
    Usage(String),
    Run(Box<dyn std::error::Error>),
}

impl<E: Into<Box<dyn std::error::Error>>> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError::Run(e.into())
    }
}

/// Shorthand for usage-error construction in `?` chains.
fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Prints the manager's node-table and per-cache counters — the
/// observability face of the kernel's op caches.
fn print_bdd_stats(s: &whale::bdd::BddStats) {
    println!(
        "bdd: {} live nodes (peak {}, {:.1} MiB), {} allocated, {} GCs",
        s.live_nodes,
        s.peak_live_nodes,
        s.peak_bytes() as f64 / (1024.0 * 1024.0),
        s.allocated_nodes,
        s.gc_runs
    );
    print!(
        "{}",
        s.cache_table(&[
            ("apply", &s.apply_cache),
            ("ite", &s.ite_cache),
            ("appex", &s.appex_cache),
            ("replace", &s.replace_cache),
            ("client", &s.client_cache),
            ("count", &s.count_memo),
        ])
    );
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Run(e)) => {
            eprintln!("whale: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("whale: {msg}");
            eprintln!("run `whale --help` for usage");
            ExitCode::from(2)
        }
    }
}

#[derive(PartialEq, Clone, Copy)]
enum Mode {
    Ci,
    Otf,
    Cs,
    Types,
    Escape,
    Races,
    Taint,
}

/// Everything the flag loop can set; commands validate the combinations
/// they support after parsing.
struct Cli {
    mode: Mode,
    typed: bool,
    factor: bool,
    prints: Vec<String>,
    taint_spec: Option<PathBuf>,
    show_stats: bool,
    query: Option<String>,
    lint: bool,
    deny_warnings: bool,
    lint_json: bool,
    socket: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
}

fn parse_flags(args: &mut impl Iterator<Item = String>) -> Result<Cli, CliError> {
    let mut cli = Cli {
        mode: Mode::Ci,
        typed: true,
        factor: false,
        prints: Vec::new(),
        taint_spec: None,
        show_stats: false,
        query: None,
        lint: false,
        deny_warnings: false,
        lint_json: false,
        socket: None,
        cache_dir: None,
    };
    let mut format_seen = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--factor" => cli.factor = true,
            "--ci" => cli.mode = Mode::Ci,
            "--otf" => cli.mode = Mode::Otf,
            "--cs" => cli.mode = Mode::Cs,
            "--types" => cli.mode = Mode::Types,
            "--escape" => cli.mode = Mode::Escape,
            "--races" => cli.mode = Mode::Races,
            "--taint" => {
                cli.mode = Mode::Taint;
                cli.taint_spec = Some(
                    args.next()
                        .ok_or_else(|| usage("--taint needs a spec file"))?
                        .into(),
                );
            }
            "--untyped" => cli.typed = false,
            "--stats" => cli.show_stats = true,
            "--query" => {
                cli.query = Some(args.next().ok_or_else(|| usage("--query needs an atom"))?)
            }
            "--lint" => cli.lint = true,
            "--deny-warnings" => cli.deny_warnings = true,
            "--format" => {
                format_seen = true;
                match args
                    .next()
                    .ok_or_else(|| usage("--format needs `text` or `json`"))?
                    .as_str()
                {
                    "json" => cli.lint_json = true,
                    "text" => cli.lint_json = false,
                    other => return Err(usage(format!("--format: unknown format `{other}`"))),
                }
            }
            "--print" => cli.prints.push(
                args.next()
                    .ok_or_else(|| usage("--print needs a relation name"))?,
            ),
            "--socket" => {
                cli.socket = Some(
                    args.next()
                        .ok_or_else(|| usage("--socket needs a path"))?
                        .into(),
                )
            }
            "--cache-dir" => {
                cli.cache_dir = Some(
                    args.next()
                        .ok_or_else(|| usage("--cache-dir needs a directory"))?
                        .into(),
                )
            }
            other => return Err(usage(format!("unknown option `{other}`"))),
        }
    }
    // Flag-combination checks that used to silently misbehave (or panic)
    // now fail fast as usage errors.
    if (cli.deny_warnings || format_seen) && !cli.lint {
        return Err(usage("--deny-warnings/--format require --lint"));
    }
    if cli.mode == Mode::Taint && cli.taint_spec.is_none() {
        return Err(usage("--taint needs a spec file"));
    }
    Ok(cli)
}

fn run() -> Result<(), CliError> {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    if command == "--help" || command == "-h" || command.is_empty() {
        print!("{USAGE}");
        return Ok(());
    }
    if !matches!(command.as_str(), "analyze" | "number" | "facts" | "serve") {
        return Err(usage(format!("unknown command `{command}`")));
    }
    let path: PathBuf = args
        .next()
        .ok_or_else(|| usage("missing program file"))?
        .into();
    if path.to_string_lossy().starts_with("--") {
        return Err(usage(format!(
            "expected a program file before options, got `{}`",
            path.display()
        )));
    }
    let cli = parse_flags(&mut args)?;

    let src = std::fs::read_to_string(&path)?;
    let mut program = parse_program(&src)?;
    if cli.factor {
        program = whale::ir::ssa::factor_locals(&program);
    }
    let facts = Facts::extract(&program);
    if command != "serve" {
        // The daemon's stdout belongs to the JSON protocol.
        println!(
            "{}: {} classes, {} methods, {} statements, {} vars, {} allocation sites",
            path.display(),
            program.classes.len(),
            program.methods.len(),
            program.statement_count(),
            facts.sizes.v,
            facts.sizes.h
        );
    }

    match command.as_str() {
        "facts" => {
            println!(
                "vP0={} store={} load={} assign={}",
                facts.vp0.len(),
                facts.store.len(),
                facts.load.len(),
                facts.assign.len()
            );
            println!(
                "actual={} formal={} IE0={} mI={} cha={}",
                facts.actual.len(),
                facts.formal.len(),
                facts.ie0.len(),
                facts.mi.len(),
                facts.cha.len()
            );
            println!(
                "entries={} thread allocation sites={}",
                facts.entries.len(),
                facts.thread_allocs.len()
            );
            Ok(())
        }
        "number" => {
            let cg = CallGraph::from_cha(&facts)?;
            let numbering = number_contexts(&cg);
            println!(
                "call graph: {} edges over {} methods",
                cg.edges.len(),
                cg.methods
            );
            println!(
                "contexts: max {} per method{}",
                numbering.total_paths(),
                if numbering.clamped {
                    " (clamped at 2^62, overflow merged)"
                } else {
                    ""
                }
            );
            let mut rows: Vec<(u128, usize)> = numbering
                .counts
                .iter()
                .enumerate()
                .map(|(m, &c)| (c, m))
                .collect();
            rows.sort_unstable_by(|a, b| b.cmp(a));
            println!("most-cloned methods:");
            for (count, m) in rows.into_iter().take(8) {
                println!("  {count:>12}  {}", facts.method_names[m]);
            }
            Ok(())
        }
        "serve" => run_serve(&cli, &facts),
        "analyze" => run_analyze(&cli, &facts),
        _ => unreachable!("command validated above"),
    }
}

/// Builds the resident engine for `whale serve` and enters the transport
/// loop. The engine is prepared (facts loaded) but deliberately not
/// solved here: `Server::new` may satisfy the solve from the warm-start
/// cache, and otherwise the first request pays for it.
fn run_serve(cli: &Cli, facts: &Facts) -> Result<(), CliError> {
    let engine = match cli.mode {
        Mode::Ci | Mode::Otf => {
            let cg_mode = if cli.mode == Mode::Otf {
                CallGraphMode::OnTheFly
            } else {
                CallGraphMode::Cha
            };
            whale::core::prepare_context_insensitive(facts, cli.typed, cg_mode, None)?
        }
        Mode::Cs => {
            let cg = CallGraph::from_cha(facts)?;
            let numbering = number_contexts(&cg);
            whale::core::prepare_context_sensitive(facts, &cg, &numbering, None)?
        }
        _ => return Err(usage(
            "serve supports --ci, --otf and --cs (escape/races/taint/types are one-shot analyses)",
        )),
    };
    let mut server = Server::new(engine, cli.cache_dir.clone());
    match &cli.socket {
        Some(path) => whale::serve::run_socket(&mut server, path)?,
        None => whale::serve::run_stdio(&mut server)?,
    }
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn run_analyze(cli: &Cli, facts: &Facts) -> Result<(), CliError> {
    let t0 = std::time::Instant::now();
    let mut engine = match cli.mode {
        Mode::Ci | Mode::Otf => {
            let cg_mode = if cli.mode == Mode::Otf {
                CallGraphMode::OnTheFly
            } else {
                CallGraphMode::Cha
            };
            let a = context_insensitive(facts, cli.typed, cg_mode, None)?;
            println!(
                "vP: {} tuples, hP: {} tuples ({:?}, {} fixpoint rounds)",
                a.count("vP")?,
                a.count("hP")?,
                t0.elapsed(),
                a.stats.rounds
            );
            a.engine
        }
        Mode::Cs | Mode::Types => {
            let cg = CallGraph::from_cha(facts)?;
            let numbering = number_contexts(&cg);
            println!(
                "contexts: up to {} per method{}",
                numbering.total_paths(),
                if numbering.clamped { " (clamped)" } else { "" }
            );
            if cli.mode == Mode::Cs {
                let a = context_sensitive(facts, &cg, &numbering, None)?;
                println!("vPC: {:.4e} tuples ({:?})", a.count("vPC")?, t0.elapsed());
                a.engine
            } else {
                let a = cs_type_analysis(facts, &cg, &numbering, None)?;
                println!("vTC: {:.4e} tuples ({:?})", a.count("vTC")?, t0.elapsed());
                a.engine
            }
        }
        Mode::Escape => {
            let cg = CallGraph::from_cha(facts)?;
            let esc = thread_escape(facts, &cg, None)?;
            let (cap, escd) = esc.object_counts()?;
            let (unneeded, needed) = esc.sync_counts()?;
            println!(
                "captured={cap} escaped={escd} syncs: {unneeded} removable, {needed} needed ({:?})",
                t0.elapsed()
            );
            esc.engine
        }
        Mode::Races => {
            let cg = CallGraph::from_cha(facts)?;
            let races = detect_races(facts, &cg, None)?;
            println!(
                "{} racy pair(s) ({} raw tuples, {:?})",
                races.report.pairs.len(),
                races.report.raw_tuples,
                t0.elapsed()
            );
            for p in &races.report.pairs {
                println!(
                    "  {} {}.{}: {} (ctx {}) vs {} (ctx {})",
                    if p.write_write {
                        "write/write"
                    } else {
                        "write/read "
                    },
                    p.object,
                    p.field,
                    p.access1.1,
                    p.access1.0,
                    p.access2.1,
                    p.access2.0
                );
            }
            races.escape.engine
        }
        Mode::Taint => {
            // Enforced as a usage error in `parse_flags`; this is the
            // path that used to be a latent `expect` panic.
            let spec_path = cli
                .taint_spec
                .as_ref()
                .ok_or_else(|| usage("--taint needs a spec file"))?;
            let spec_src = std::fs::read_to_string(spec_path)?;
            let spec = TaintSpec::parse(&spec_src)?;
            let cg = CallGraph::from_cha(facts)?;
            let numbering = number_contexts(&cg);
            let result = taint_analysis(facts, &cg, &numbering, &spec, None)?;
            println!(
                "{} tainted flow(s) reach a sink ({:?}, {} fixpoint rounds)",
                result.findings.len(),
                t0.elapsed(),
                result.analysis.stats.rounds
            );
            for f in &result.findings {
                println!(
                    "  {} in {} (invoke {}, ctx {}):",
                    f.sink_method, f.in_method, f.invoke, f.context
                );
                for s in &f.witness {
                    let kind = match s.kind {
                        FlowKind::Source => "source",
                        FlowKind::Assign => "assign",
                        FlowKind::Call => "call  ",
                        FlowKind::Return => "return",
                        FlowKind::Heap => "heap  ",
                    };
                    println!("    {kind}  {} (ctx {})", s.var_name, s.context);
                }
            }
            result.analysis.engine
        }
    };
    if cli.show_stats {
        print!("{}", engine.stats().stratum_summary());
        print_bdd_stats(&engine.manager().stats());
    }
    if cli.lint {
        // The Datalog program is generated in memory, so there is
        // no source text to caret into — spans are line 0.
        let analysis = whale::datalog::analyze::analyze(engine.program());
        let file = "<generated datalog>";
        if cli.lint_json {
            println!("{}", analysis.to_json(file));
        } else {
            for d in &analysis.diagnostics {
                println!("whale: lint: [{}] {}", d.code, d.message);
                for n in &d.notes {
                    println!("    {n}");
                }
            }
            println!("{} datalog warning(s)", analysis.warning_count());
        }
        if cli.deny_warnings && analysis.warning_count() > 0 {
            return Err(CliError::Run(
                format!(
                    "{} lint warning(s) with --deny-warnings",
                    analysis.warning_count()
                )
                .into(),
            ));
        }
    }
    if let Some(q) = &cli.query {
        let result = engine.solve_query(q)?;
        println!(
            "\nquery {}: {} tuples",
            result.relation,
            result.tuples.len()
        );
        print_tuples(&engine, &result.relation, &result.tuples);
    }
    for rel in &cli.prints {
        println!("\n{rel}:");
        let tuples = engine
            .relation_tuples(rel)
            .map_err(|_| CliError::Run(format!("unknown relation `{rel}`").into()))?;
        print_tuples(&engine, rel, &tuples);
    }
    Ok(())
}

/// Prints `tuples` of the declared relation `relation`, one per line,
/// each value by its name when the program names it.
fn print_tuples(engine: &Engine, relation: &str, tuples: &[Vec<u64>]) {
    let decl = engine
        .program()
        .relations()
        .iter()
        .find(|r| r.name == relation)
        .expect("tuples of a declared relation");
    for t in tuples {
        let row: Vec<String> = t
            .iter()
            .zip(&decl.attrs)
            .map(|(&v, (_, dom))| {
                engine
                    .name_of(dom, v)
                    .map(str::to_string)
                    .unwrap_or_else(|| v.to_string())
            })
            .collect();
        println!("  ({})", row.join(", "));
    }
}
