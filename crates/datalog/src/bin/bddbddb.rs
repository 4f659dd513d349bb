//! A standalone `bddbddb`-style driver: solve a Datalog program from a
//! file, loading input relations from tuple files and writing output
//! relations back.
//!
//! ```console
//! bddbddb program.datalog [--facts DIR] [--out DIR] [--naive] [--order SPEC]
//!         [--reorder] [--jobs N] [--bdd-cache DIR] [--stats] [--query ATOM]
//! ```
//!
//! For every `input` relation `R`, tuples are read from `DIR/R.tuples`
//! (whitespace-separated unsigned integers, one tuple per line, `#`
//! comments allowed); missing files mean an empty relation. Every `output`
//! relation is written to `OUT/R.tuples` in the same format, and a summary
//! line is printed per output.
//!
//! With `--bdd-cache DIR`, input relations are loaded from `DIR/R.bdd`
//! when present (taking precedence over tuple files) and every output
//! relation's BDD is saved there after solving — the original `bddbddb`'s
//! `.bdd` caching. Cached BDDs are only portable across runs using the
//! same program and variable ordering.
//!
//! With `--query 'R(arg, ...)'` the program is not solved in full:
//! the query atom (constants and quoted names pin columns, variables and
//! `_` stay free) is compiled by the magic-set transformation into a
//! demand-restricted program, only that is solved, and the matching
//! tuples are printed to stdout — no output files are written.
//!
//! With `--check` the program is analyzed but never solved: the static
//! analyzer's diagnostics (stable `E0xx`/`W0xx` codes, caret-rendered
//! source spans) and the cost-sorted rule list are printed to stdout.
//! `--format json` emits the same report as one JSON document, and
//! `--deny-warnings` turns any warning into a nonzero exit — the CI
//! gate. `--deny-warnings` also applies in solve mode.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use whale_datalog::{Engine, EngineOptions, Program, RelationKind};

/// A driver failure, split by exit code: usage errors (bad flags or
/// flag combinations) exit 2 with a pointer at `--help`; runtime
/// failures (parse errors, I/O, `--deny-warnings` trips) exit 1.
enum CliError {
    Usage(String),
    Run(Box<dyn std::error::Error>),
}

impl<E: Into<Box<dyn std::error::Error>>> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError::Run(e.into())
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(CliError::Run(e)) => {
            eprintln!("bddbddb: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("bddbddb: {msg}");
            eprintln!("run `bddbddb --help` for usage");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, CliError> {
    let mut args = std::env::args().skip(1);
    let mut program_path: Option<PathBuf> = None;
    let mut facts_dir = PathBuf::from(".");
    let mut out_dir = PathBuf::from(".");
    let mut bdd_cache: Option<PathBuf> = None;
    let mut options = EngineOptions::default();
    let mut show_stats = false;
    let mut query: Option<String> = None;
    let mut check = false;
    let mut deny_warnings = false;
    let mut json = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--facts" => {
                facts_dir = PathBuf::from(args.next().ok_or_else(|| usage("--facts needs a dir"))?)
            }
            "--out" => {
                out_dir = PathBuf::from(args.next().ok_or_else(|| usage("--out needs a dir"))?)
            }
            "--bdd-cache" => {
                bdd_cache = Some(PathBuf::from(
                    args.next()
                        .ok_or_else(|| usage("--bdd-cache needs a dir"))?,
                ))
            }
            "--naive" => options.seminaive = false,
            "--order" => {
                options.order = Some(args.next().ok_or_else(|| usage("--order needs a spec"))?)
            }
            "--reorder" => options.reorder = true,
            "--jobs" => {
                options.jobs = args
                    .next()
                    .ok_or_else(|| usage("--jobs needs a count"))?
                    .parse::<usize>()
                    .map_err(|e| usage(format!("--jobs: {e}")))?
                    .max(1)
            }
            "--stats" => show_stats = true,
            "--query" => query = Some(args.next().ok_or_else(|| usage("--query needs an atom"))?),
            "--check" => check = true,
            "--deny-warnings" => deny_warnings = true,
            "--format" => match args
                .next()
                .ok_or_else(|| usage("--format needs `text` or `json`"))?
                .as_str()
            {
                "json" => json = true,
                "text" => json = false,
                other => return Err(usage(format!("--format: unknown format `{other}`"))),
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: bddbddb PROGRAM.datalog [--facts DIR] [--out DIR] [--naive] [--order SPEC] [--reorder] [--jobs N] [--bdd-cache DIR] [--stats] [--query ATOM] [--check] [--deny-warnings] [--format text|json]"
                );
                return Ok(ExitCode::SUCCESS);
            }
            other if other.starts_with('-') => {
                return Err(usage(format!("unknown option `{other}`")))
            }
            other if program_path.is_none() => program_path = Some(PathBuf::from(other)),
            other => return Err(usage(format!("unexpected argument `{other}`"))),
        }
    }
    let program_path = program_path.ok_or_else(|| usage("missing program file"))?;
    if json && !check {
        return Err(usage("--format json only applies to --check"));
    }
    let src = std::fs::read_to_string(&program_path)?;

    if check {
        let analysis = whale_datalog::analyze::check_source(&src);
        let file = program_path.display().to_string();
        if json {
            println!("{}", analysis.to_json(&file));
        } else {
            print!("{}", analysis.render_text(&file, Some(&src)));
        }
        let failed = analysis.error_count() > 0 || (deny_warnings && analysis.warning_count() > 0);
        return Ok(if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    let program = Program::parse(&src)?;
    for w in program.warnings() {
        eprintln!("bddbddb: warning: {w}");
    }
    if deny_warnings && !program.warnings().is_empty() {
        return Err(format!(
            "{} warning(s) emitted with --deny-warnings",
            program.warnings().len()
        )
        .into());
    }
    let mut engine = Engine::with_options(program, options)?;

    // Load input relations.
    let decls: Vec<(String, RelationKind)> = engine
        .program()
        .relations()
        .iter()
        .map(|r| (r.name.clone(), r.kind))
        .collect();
    for (name, kind) in &decls {
        if *kind != RelationKind::Input {
            continue;
        }
        if let Some(cache) = &bdd_cache {
            let cached = cache.join(format!("{name}.bdd"));
            if cached.exists() {
                let file = std::io::BufReader::new(std::fs::File::open(&cached)?);
                let bdd = whale_bdd::io::read_bdd(engine.manager(), file)?;
                eprintln!("loaded {name} from {}", cached.display());
                engine.set_relation_bdd(name, bdd)?;
                continue;
            }
        }
        let path = facts_dir.join(format!("{name}.tuples"));
        if !path.exists() {
            continue;
        }
        let tuples = read_tuples(&path)?;
        eprintln!("loaded {} tuples into {name}", tuples.len());
        engine.add_facts(name, tuples)?;
    }

    if let Some(q) = &query {
        let result = engine.solve_query(q)?;
        for l in &result.lints {
            eprintln!("bddbddb: query lint: {l}");
        }
        let s = &result.stats;
        if result.used_magic {
            eprintln!(
                "query solved in {:?}: {} magic rules, {} rules pruned, {} rule applications",
                s.solve_time, s.magic_rules, s.pruned_rules, s.rule_applications
            );
        } else {
            eprintln!(
                "query solved in {:?} without magic sets (rewrite would break stratification); {} rules pruned",
                s.solve_time, s.pruned_rules
            );
        }
        println!("{}: {} tuples", result.relation, result.tuples.len());
        for t in &result.tuples {
            let row: Vec<String> = t.iter().map(u64::to_string).collect();
            println!("{}", row.join(" "));
        }
        return Ok(ExitCode::SUCCESS);
    }

    let t0 = std::time::Instant::now();
    let stats = engine.solve()?;
    eprintln!(
        "solved in {:?}: {} strata, {} rounds, {} rule applications, {} peak BDD nodes",
        t0.elapsed(),
        stats.strata,
        stats.rounds,
        stats.rule_applications,
        stats.peak_live_nodes
    );
    if stats.reorder_runs > 0 {
        eprintln!(
            "reordered {} times in {:?} ({} nodes eliminated), final order {}",
            stats.reorder_runs,
            stats.reorder_time,
            stats.reorder_delta_nodes,
            engine.current_order()
        );
    }
    if show_stats {
        print_stratum_stats(&stats);
        let bs = engine.manager().stats();
        eprintln!(
            "op caches: {:.1} MiB",
            bs.cache_bytes as f64 / (1024.0 * 1024.0)
        );
        // Per-solve counter deltas, including the relation-level memo
        // cache the engine layers on top of the kernel caches, then the
        // manager's exact-count memo (counts run outside solves).
        for (name, c) in [
            ("apply", &stats.apply_cache),
            ("ite", &stats.ite_cache),
            ("appex", &stats.appex_cache),
            ("replace", &stats.replace_cache),
            ("rel", &stats.rel_cache),
            ("count", &bs.count_memo),
        ] {
            eprintln!(
                "  {name:<8} hits={:<10} misses={:<10} evictions={:<10} hit rate {:.1}%",
                c.hits,
                c.misses,
                c.evictions,
                c.hit_rate() * 100.0
            );
        }
    }

    std::fs::create_dir_all(&out_dir)?;
    for (name, kind) in &decls {
        if *kind != RelationKind::Output {
            continue;
        }
        let count = engine.relation_count(name)?;
        let path = out_dir.join(format!("{name}.tuples"));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for t in engine.relation_tuples(name)? {
            let row: Vec<String> = t.iter().map(u64::to_string).collect();
            writeln!(file, "{}", row.join(" "))?;
        }
        println!("{name}: {count} tuples -> {}", path.display());
        if let Some(cache) = &bdd_cache {
            std::fs::create_dir_all(cache)?;
            let cached = cache.join(format!("{name}.bdd"));
            let out = std::io::BufWriter::new(std::fs::File::create(&cached)?);
            whale_bdd::io::write_bdd(&engine.relation_bdd(name)?, out)?;
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Per-stratum timing summary: the slowest strata, the critical path
/// through the stratum DAG, and (for parallel solves) the node traffic
/// between the main manager and the workers.
fn print_stratum_stats(stats: &whale_datalog::SolveStats) {
    let total: std::time::Duration = stats.stratum_times.iter().sum();
    let mut by_time: Vec<(usize, std::time::Duration)> =
        stats.stratum_times.iter().copied().enumerate().collect();
    by_time.sort_by_key(|e| std::cmp::Reverse(e.1));
    eprintln!(
        "strata: {} solved in {total:?} total, critical path {:?}",
        stats.stratum_times.len(),
        stats.critical_path_time
    );
    for (ix, t) in by_time.iter().take(5) {
        if t.is_zero() {
            break;
        }
        eprintln!("  stratum {ix:<4} {t:?}");
    }
    if stats.transferred_nodes > 0 {
        eprintln!(
            "  {} BDD nodes shipped between managers",
            stats.transferred_nodes
        );
    }
}

fn read_tuples(path: &Path) -> Result<Vec<Vec<u64>>, Box<dyn std::error::Error>> {
    let file = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut out = Vec::new();
    for (ln, line) in file.lines().enumerate() {
        let line = line?;
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tuple = Vec::new();
        for tok in line.split_whitespace() {
            // Name the offending token: a bare parse error ("invalid
            // digit found in string") is useless across a directory of
            // machine-generated fact files.
            tuple.push(
                tok.parse::<u64>().map_err(|e| {
                    format!("{}:{}: bad value `{tok}`: {e}", path.display(), ln + 1)
                })?,
            );
        }
        out.push(tuple);
    }
    Ok(out)
}
