//! Empirical variable-ordering search.
//!
//! `bddbddb` "automatically explores different alternatives empirically to
//! find an effective ordering" (Section 2.4.2) — finding the optimal
//! ordering is NP-complete, so this is a deterministic steepest-descent
//! hill-climb over adjacent-group swaps, evaluated by solving a (usually
//! down-scaled) workload and scoring the kernel work the solve did.

use std::time::{Duration, Instant};
use whale_datalog::{DatalogError, SolveStats};

/// One evaluated candidate ordering.
#[derive(Debug, Clone)]
pub struct OrderCandidate {
    /// The ordering string.
    pub order: String,
    /// The score: the solve's [`kernel_misses`]. Lower is better.
    pub misses: u64,
    /// The tiebreak: the solve's
    /// [`SolveStats::peak_reachable_nodes`], the most nodes a collection
    /// or the solve's closing marking pass found in use.
    pub peak_nodes: usize,
    /// Wall-clock solve time. Recorded, never scored: it is noisy.
    pub elapsed: Duration,
}

impl OrderCandidate {
    fn score(&self) -> (u64, usize) {
        (self.misses, self.peak_nodes)
    }
}

/// The outcome of a search.
#[derive(Debug, Clone)]
pub struct OrderSearchResult {
    /// Best ordering found.
    pub best: OrderCandidate,
    /// Every evaluation, in search order.
    pub evaluated: Vec<OrderCandidate>,
}

/// Deterministic kernel work of a solve: the apply, ite, appex and replace
/// op-cache misses. Every miss is one recursion step that did real work,
/// so the sum ranks orders the way wall time does without its noise. The
/// reachable peak does not: an order can keep fewer nodes alive while
/// recomputing far more of them.
pub fn kernel_misses(stats: &SolveStats) -> u64 {
    [
        &stats.apply_cache,
        &stats.ite_cache,
        &stats.appex_cache,
        &stats.replace_cache,
    ]
    .iter()
    .map(|c| c.misses)
    .sum()
}

/// Steepest-descent hill-climb from `start` (an `_`-separated ordering
/// string). Each step evaluates every order one adjacent-group swap away
/// that was not evaluated before, and moves to the best of them if it
/// beats the current order on ([`kernel_misses`], then
/// [`SolveStats::peak_reachable_nodes`]); a tie keeps the current order.
/// The climb stops at a local minimum or once `budget` evaluations are
/// spent, evaluating `start` itself included. `eval` solves the workload
/// under the given ordering and returns the solve's statistics.
///
/// # Errors
///
/// [`DatalogError::ZeroSearchBudget`] if `budget` is `0` (nothing may be
/// evaluated, so there is no result to return); otherwise propagates the
/// first evaluation error.
pub fn search_order<F>(
    start: &str,
    budget: usize,
    mut eval: F,
) -> Result<OrderSearchResult, DatalogError>
where
    F: FnMut(&str) -> Result<SolveStats, DatalogError>,
{
    if budget == 0 {
        return Err(DatalogError::ZeroSearchBudget);
    }
    let mut evaluated: Vec<OrderCandidate> = Vec::new();
    let mut run = |order: String, evaluated: &mut Vec<OrderCandidate>| {
        let t0 = Instant::now();
        let stats = eval(&order)?;
        evaluated.push(OrderCandidate {
            order,
            misses: kernel_misses(&stats),
            peak_nodes: stats.peak_reachable_nodes,
            elapsed: t0.elapsed(),
        });
        Ok::<usize, DatalogError>(evaluated.len() - 1)
    };
    // `best` is always the best order evaluated so far: a step moves only
    // to a strictly better order, so an order evaluated earlier cannot
    // beat it and is never re-evaluated.
    let mut best = run(start.to_string(), &mut evaluated)?;
    loop {
        let groups: Vec<String> = evaluated[best]
            .order
            .split('_')
            .map(str::to_string)
            .collect();
        let mut next = best;
        for i in 0..groups.len().saturating_sub(1) {
            let mut g = groups.clone();
            g.swap(i, i + 1);
            let candidate = g.join("_");
            if evaluated.iter().any(|c| c.order == candidate) {
                continue;
            }
            if evaluated.len() >= budget {
                break;
            }
            let c = run(candidate, &mut evaluated)?;
            if evaluated[c].score() < evaluated[next].score() {
                next = c;
            }
        }
        if next == best {
            break;
        }
        best = next;
    }
    Ok(OrderSearchResult {
        best: evaluated[best].clone(),
        evaluated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_bdd::CacheStats;

    /// Statistics whose score is `misses` (all apply misses), tiebroken
    /// by `peak`.
    fn stats(misses: u64, peak: usize) -> SolveStats {
        SolveStats {
            apply_cache: CacheStats {
                misses,
                ..CacheStats::default()
            },
            peak_reachable_nodes: peak,
            ..SolveStats::default()
        }
    }

    /// A toy score with one known minimum: the number of inversions
    /// against `A_B_C_D_E` (the minimum, 0, is that order itself).
    fn inversions(order: &str) -> u64 {
        let g: Vec<&str> = order.split('_').collect();
        let mut n = 0;
        for i in 0..g.len() {
            for j in i + 1..g.len() {
                n += u64::from(g[i] > g[j]);
            }
        }
        n
    }

    #[test]
    fn misses_sum_the_four_kernel_caches() {
        let mut s = SolveStats::default();
        s.apply_cache.misses = 1;
        s.ite_cache.misses = 20;
        s.appex_cache.misses = 300;
        s.replace_cache.misses = 4000;
        s.rel_cache.misses = 50_000;
        s.appex_cache.hits = 600_000;
        assert_eq!(kernel_misses(&s), 4321);
    }

    #[test]
    fn climbs_to_the_known_minimum_of_a_toy_score() {
        let res = search_order("E_D_C_B_A", 200, |o| Ok(stats(inversions(o), 0))).unwrap();
        assert_eq!(res.best.order, "A_B_C_D_E");
        assert_eq!(res.best.misses, 0);
        assert!(res.evaluated.iter().all(|c| c.misses >= res.best.misses));
    }

    #[test]
    fn takes_the_best_neighbor_not_the_first_better_one() {
        // From `A_B_C`: swapping A/B is slightly better, B/C much better.
        let score = |o: &str| match o {
            "A_B_C" => 100,
            "B_A_C" => 99,
            "A_C_B" => 10,
            _ => 1000,
        };
        let res = search_order("A_B_C", 50, |o| Ok(stats(score(o), 0))).unwrap();
        assert_eq!(res.best.order, "A_C_B");
        assert_eq!(res.evaluated[1].order, "B_A_C", "{:?}", res.evaluated);
    }

    #[test]
    fn keeps_the_current_order_on_ties() {
        let res = search_order("A_B_C_D", 50, |_| Ok(stats(7, 7))).unwrap();
        assert_eq!(res.best.order, "A_B_C_D");
        // One neighborhood: three swaps, then stop.
        assert_eq!(res.evaluated.len(), 4);
    }

    #[test]
    fn peak_breaks_a_miss_tie() {
        let res =
            search_order("A_B", 50, |o| Ok(stats(5, if o == "A_B" { 9 } else { 8 }))).unwrap();
        assert_eq!(res.best.order, "B_A");
        assert_eq!(res.best.peak_nodes, 8);
    }

    #[test]
    fn is_deterministic_across_two_runs() {
        let run = || {
            search_order("C_E_A_D_B", 9, |o| Ok(stats(inversions(o), o.len())))
                .unwrap()
                .evaluated
                .into_iter()
                .map(|c| (c.order, c.misses, c.peak_nodes))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn respects_budget() {
        let mut calls = 0u64;
        let res = search_order("A_B_C_D_E", 3, |_| {
            calls += 1;
            Ok(stats(100 - calls, 0)) // always improving: would run forever unbudgeted
        })
        .unwrap();
        assert_eq!(res.evaluated.len(), 3);
        assert_eq!(calls, 3);
    }

    #[test]
    fn zero_budget_is_an_error_and_evaluates_nothing() {
        let mut calls = 0usize;
        let res = search_order("A_B", 0, |_| {
            calls += 1;
            Ok(stats(1, 1))
        });
        assert!(matches!(res, Err(DatalogError::ZeroSearchBudget)));
        assert_eq!(calls, 0, "budget 0 must not evaluate the start order");
    }

    #[test]
    fn budget_one_evaluates_only_the_start() {
        let mut calls = 0usize;
        let res = search_order("A_B_C", 1, |_| {
            calls += 1;
            Ok(stats(7, 7))
        })
        .unwrap();
        assert_eq!(calls, 1);
        assert_eq!(res.evaluated.len(), 1);
        assert_eq!(res.best.order, "A_B_C");
    }

    #[test]
    fn searches_a_real_analysis() {
        let program = whale_ir::synth::generate(&whale_ir::synth::SynthConfig::tiny("os", 5));
        let facts = whale_ir::Facts::extract(&program);
        let res = search_order(crate::analyses::CI_ORDER, 4, |order| {
            let solved = crate::analyses::context_insensitive(
                &facts,
                true,
                crate::analyses::CallGraphMode::Cha,
                Some(crate::analyses::default_options(order)),
            )?;
            Ok(solved.stats)
        })
        .unwrap();
        assert_eq!(res.evaluated.len(), 4);
        assert!(res.best.misses > 0);
        assert!(res.evaluated.iter().all(|c| c.score() >= res.best.score()));
    }
}
