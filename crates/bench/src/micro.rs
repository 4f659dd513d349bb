//! A criterion-free micro-benchmark runner (used by `bdd_ops`).
//!
//! Each benchmark runs `warmup` untimed iterations, then `iters` timed
//! ones, and reports min / median / p95 / mean per-iteration times as a
//! single JSON line on stdout:
//!
//! ```text
//! {"bench":"bdd/and","iters":20,"warmup":3,"min_ns":104210,"median_ns":109835,"p95_ns":131002,"mean_ns":112480.1,"total_ms":2.25}
//! ```
//!
//! JSON lines append cleanly to `BENCH_*.json` trajectory files and diff
//! line-by-line across commits. `TESTKIT_BENCH_ITERS` and
//! `TESTKIT_BENCH_WARMUP` override the counts, so CI smoke runs can use
//! 3 iterations while a real measurement uses 50.

use std::hint::black_box;
use std::time::Instant;
use whale_datalog::json_string;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Bench {
    /// Untimed warmup iterations before measurement.
    pub warmup: u32,
    /// Timed iterations.
    pub iters: u32,
}

/// Summary statistics of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Benchmark name as reported.
    pub name: String,
    /// Timed iterations.
    pub iters: u32,
    /// Fastest iteration.
    pub min_ns: u64,
    /// Median iteration.
    pub median_ns: u64,
    /// 95th-percentile iteration.
    pub p95_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: f64,
}

impl Bench {
    /// A runner with the given defaults, overridable via
    /// `TESTKIT_BENCH_ITERS` / `TESTKIT_BENCH_WARMUP`.
    pub fn from_env(warmup: u32, iters: u32) -> Bench {
        let get = |key: &str, default: u32| {
            std::env::var(key)
                .ok()
                .and_then(|s| s.parse::<u32>().ok())
                .unwrap_or(default)
        };
        Bench {
            warmup: get("TESTKIT_BENCH_WARMUP", warmup),
            iters: get("TESTKIT_BENCH_ITERS", iters).max(1),
        }
    }

    /// Runs one benchmark and prints its JSON line. The closure's return
    /// value is passed through [`black_box`] so the optimizer cannot
    /// delete the measured work.
    pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) -> Stats {
        for _ in 0..self.warmup {
            black_box(f());
        }
        let mut samples_ns: Vec<u64> = Vec::with_capacity(self.iters as usize);
        for _ in 0..self.iters {
            let t0 = Instant::now();
            black_box(f());
            samples_ns.push(t0.elapsed().as_nanos() as u64);
        }
        let stats = summarize(name, &mut samples_ns);
        let total_ms = samples_ns.iter().sum::<u64>() as f64 / 1e6;
        println!(
            "{{\"bench\":{},\"iters\":{},\"warmup\":{},\"min_ns\":{},\"median_ns\":{},\"p95_ns\":{},\"mean_ns\":{:.1},\"total_ms\":{:.2}}}",
            json_string(&stats.name),
            stats.iters,
            self.warmup,
            stats.min_ns,
            stats.median_ns,
            stats.p95_ns,
            stats.mean_ns,
            total_ms,
        );
        stats
    }
}

/// Sorts the samples and computes the summary.
fn summarize(name: &str, samples_ns: &mut [u64]) -> Stats {
    samples_ns.sort_unstable();
    let n = samples_ns.len();
    let pct = |p: f64| samples_ns[(((n - 1) as f64) * p).round() as usize];
    Stats {
        name: name.to_string(),
        iters: n as u32,
        min_ns: samples_ns[0],
        median_ns: pct(0.5),
        p95_ns: pct(0.95),
        mean_ns: samples_ns.iter().sum::<u64>() as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered_and_counted() {
        let b = Bench {
            warmup: 1,
            iters: 10,
        };
        let mut runs = 0u32;
        let stats = b.bench("micro/spin", || {
            runs += 1;
            std::hint::black_box((0..1000).sum::<u64>())
        });
        assert_eq!(runs, 11, "warmup + timed iterations");
        assert_eq!(stats.iters, 10);
        assert!(stats.min_ns <= stats.median_ns);
        assert!(stats.median_ns <= stats.p95_ns);
    }

    #[test]
    fn summarize_percentiles() {
        let mut xs: Vec<u64> = (1..=100).collect();
        let s = summarize("t", &mut xs);
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.median_ns, 51, "round-half-up on the 49.5 index");
        assert_eq!(s.p95_ns, 95);
        assert_eq!(s.mean_ns, 50.5);
    }
}
