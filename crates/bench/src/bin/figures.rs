//! Regenerates the paper's evaluation: Figures 3–6, the §6.2 scaling
//! sweep and the §2.3/§2.4/§6.4 ablations, as text tables or, with
//! `--json`, one JSON object per row.
//!
//! ```console
//! figures --fig 3|4|5|6|scaling|ablations [--fig ...] [--scale N/D]
//!         [--only NAME[,NAME]] [--json]
//! ```
//!
//! `--fig` takes a comma list too (`--fig 3,4,5,6`). `--scale` (default
//! 1/8) scales the calibrated benchmarks' program size; `--only` picks
//! benchmarks by name (default: all 21 Figure 3 rows, plus `tiny` on
//! request). The scaling sweep has fixed programs and ignores both.
//! Every cell is run and timed once.

use std::process::ExitCode;
use whale_bench::{
    ablations_row, benchmarks, config, fig3_row, fig4_row, fig5_row, fig6_row, get, paths_display,
    peak_mb, prepare, prepare_cs, scaling_row, Row, SWEEP_LAYERS,
};
use whale_core::queries::RefineVariant;
use whale_ir::synth::SynthConfig;

const USAGE: &str = "usage: figures --fig 3|4|5|6|scaling|ablations [--fig ...] \
                     [--scale N/D] [--only NAME[,NAME]] [--json]";
const FIGS: [&str; 6] = ["3", "4", "5", "6", "scaling", "ablations"];

struct Args {
    figs: Vec<&'static str>,
    scale: (usize, usize),
    configs: Vec<SynthConfig>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut figs, mut scale, mut only, mut json) = (Vec::new(), (1, 8), None, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--json" {
            json = true;
            continue;
        }
        let value = match flag.as_str() {
            "--fig" | "--scale" | "--only" => args.next().ok_or(format!("{flag} needs a value"))?,
            _ => return Err(format!("unknown argument `{flag}`")),
        };
        match flag.as_str() {
            "--fig" => {
                for f in value.split(',') {
                    let fig = FIGS.iter().find(|&&k| k == f);
                    figs.push(*fig.ok_or(format!("unknown figure `{f}`"))?);
                }
            }
            "--scale" => {
                let parsed = value
                    .split_once('/')
                    .and_then(|(n, d)| Some((n.parse().ok()?, d.parse().ok()?)));
                scale = match parsed {
                    Some((n, d)) if n > 0 && d > 0 => (n, d),
                    _ => return Err(format!("--scale wants N/D, got `{value}`")),
                };
            }
            _ => only = Some(value),
        }
    }
    if figs.is_empty() {
        return Err("no --fig given".into());
    }
    let (num, den) = scale;
    let configs = match only {
        None => benchmarks(num, den),
        Some(names) => names
            .split(',')
            .map(|name| config(name, num, den))
            .collect::<Result<_, _>>()?,
    };
    Ok(Args {
        figs,
        scale,
        configs,
        json,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("figures: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (num, den) = args.scale;
    for &fig in &args.figs {
        if !args.json {
            let (title, columns) = header(fig);
            match fig {
                "scaling" => println!("Section 6.2: {title}\n{columns}"),
                "ablations" => println!("Ablations (scale {num}/{den}): {title}\n{columns}"),
                _ => println!("Figure {fig} (scale {num}/{den}): {title}\n{columns}"),
            }
        }
        let emit = |row: Row| match args.json {
            true => println!("{}", row.json()),
            false => print!("{}", text(&row)),
        };
        if fig == "scaling" {
            SWEEP_LAYERS.into_iter().map(scaling_row).for_each(emit);
            continue;
        }
        for config in &args.configs {
            emit(match fig {
                "3" => fig3_row(&prepare_cs(config)),
                "4" => fig4_row(&prepare_cs(config)),
                "5" => fig5_row(&prepare_cs(config)),
                "6" => fig6_row(&prepare_cs(config)),
                _ => ablations_row(&prepare(config)),
            });
        }
    }
    ExitCode::SUCCESS
}

/// The title and column header of a figure's text table.
fn header(fig: &str) -> (&'static str, &'static str) {
    match fig {
        "3" => (
            "benchmark vitals",
            "Name          Classes  Methods    Stmts    Vars  Allocs    C.S. Paths",
        ),
        "4" => (
            "analysis time (s) / peak BDD memory (MB)",
            "Name                    CI          CI+T        OTF(iters)             CS          CS-T           THR",
        ),
        "5" => (
            "escape analysis",
            "Name          captured   escaped   !needed    needed",
        ),
        "6" => (
            "type refinement, % multi-typed / % refinable",
            "Name          CI no-filter     CI filter   proj CS ptr  proj CS type    CS pointer       CS type",
        ),
        "scaling" => (
            "CS pointer analysis (Alg 5) by call-graph depth, fixed width",
            "Layers          Paths  time(s)  rounds     apps          vPC      peak",
        ),
        _ => (
            "Alg 2 variants",
            "Name         Variant                   time(s)  rounds     apps        vP      peak",
        ),
    }
}

/// One row as text lines, in the column layout of [`header`].
fn text(row: &Row) -> String {
    let name = &row.name;
    let n = |cell: &str, key: &str| get(&row.cell(cell).counts, key);
    match row.fig {
        "3" => {
            let keys = ["classes", "methods", "statements", "vars", "allocs"];
            let [c, m, s, v, a] = keys.map(|k| get(&row.counts, k));
            let paths = paths_display(get(&row.counts, "paths"));
            format!("{name:<12} {c:>8} {m:>8} {s:>8} {v:>7} {a:>7}  {paths:>12}\n")
        }
        "4" => {
            let cell = |key: &str| {
                let c = row.cell(key);
                (c.secs, peak_mb(get(&c.counts, "peak_live_nodes")))
            };
            let [(t1, m1), (t2, m2), (t3, m3), (t5, m5), (t6, m6), (t7, m7)] =
                ["alg1", "alg2", "alg3", "alg5", "alg6", "alg7"].map(cell);
            format!(
                "{name:<12} {t1:>6.1}/{m1:<6.0} {t2:>6.1}/{m2:<6.0} {t3:>7.1}/{m3:<4.0}({:>3}) \
                 {t5:>7.1}/{m5:<6.0} {t6:>6.1}/{m6:<6.0} {t7:>6.1}/{m7:<6.0}\n",
                n("alg3", "rounds"),
            )
        }
        "5" => {
            let keys = ["captured", "escaped", "unneeded_syncs", "needed_syncs"];
            let [c, e, u, d] = keys.map(|k| n("alg7", k));
            format!("{name:<12} {c:>9} {e:>9} {u:>9} {d:>9}\n")
        }
        "6" => {
            let cells = RefineVariant::all().map(|variant| {
                let key = &format!("{variant:?}");
                let total = n(key, "pointer_vars").max(1) as f64;
                let multi = 100.0 * n(key, "multi") as f64 / total;
                let refinable = 100.0 * n(key, "refinable") as f64 / total;
                format!("{multi:>5.1}/{refinable:<5.1}")
            });
            let [c0, c1, c2, c3, c4, c5] = cells;
            format!("{name:<12} {c0:>13} {c1:>13} {c2:>13} {c3:>13} {c4:>13} {c5:>13}\n")
        }
        "scaling" => {
            let keys = ["rounds", "rule_applications", "tuples", "peak_live_nodes"];
            let [r, a, t, p] = keys.map(|k| n("alg5", k));
            let paths = paths_display(get(&row.counts, "paths"));
            let secs = row.cell("alg5").secs;
            format!("{name:<8} {paths:>12} {secs:>8.2} {r:>7} {a:>8} {t:>12} {p:>9}\n")
        }
        _ => row
            .cells
            .iter()
            .map(|c| {
                let keys = ["rounds", "rule_applications", "tuples", "peak_live_nodes"];
                let [r, a, t, p] = keys.map(|key| match c.counts.iter().find(|(k, _)| k == key) {
                    Some((_, v)) => v.to_string(),
                    None => "-".into(),
                });
                let (key, secs) = (&c.key, c.secs);
                format!("{name:<12} {key:<24} {secs:>8.3} {r:>7} {a:>8} {t:>9} {p:>9}\n")
            })
            .collect(),
    }
}
