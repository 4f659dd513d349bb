//! Command-line entry of the benchmark:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes (input sizes, sample counts) and, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. A
//! traced run also writes its spans to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`, one JSON object a line.

use std::path::Path;
use std::process::ExitCode;

use perfbench::{default_plan, result_json, run, RunConfig, OUT_DIR, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for `{flag}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload =
        workload.ok_or_else(|| format!("missing --workload (one of {})", WORKLOADS.join(", ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(plan) = default_plan(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload `{}` (expected one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        plan,
    };
    let outcome = match run(&args.workload, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match outcome.tracer.write(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
