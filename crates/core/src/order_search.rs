//! Empirical variable-ordering search.
//!
//! `bddbddb` "automatically explores different alternatives empirically to
//! find an effective ordering" (Section 2.4.2) — finding the optimal
//! ordering is NP-complete, so this is a deterministic hill-climb over
//! adjacent-group swaps, evaluated by solving a (usually down-scaled)
//! workload and scoring its peak BDD node count.

use std::time::{Duration, Instant};
use whale_datalog::DatalogError;

/// One evaluated candidate ordering.
#[derive(Debug, Clone)]
pub struct OrderCandidate {
    /// The ordering string.
    pub order: String,
    /// The evaluation's score: for [`search_ci_order`], the solve's
    /// [`whale_datalog::SolveStats::peak_reachable_nodes`], the most nodes
    /// a collection or the solve's closing marking pass found in use.
    /// Lower is better.
    pub peak_nodes: usize,
    /// Wall-clock solve time.
    pub elapsed: Duration,
}

/// The outcome of a search.
#[derive(Debug, Clone)]
pub struct OrderSearchResult {
    /// Best ordering found.
    pub best: OrderCandidate,
    /// Every evaluation, in search order.
    pub evaluated: Vec<OrderCandidate>,
}

/// Hill-climbs from `start` (an `_`-separated ordering string), swapping
/// adjacent groups, until no neighbor improves or `budget` evaluations are
/// spent. Evaluating `start` itself counts against the budget. `eval` must
/// solve the workload under the given ordering and return its peak BDD
/// node count.
///
/// # Errors
///
/// [`DatalogError::ZeroSearchBudget`] if `budget` is `0` (nothing may be
/// evaluated, so there is no result to return); otherwise propagates the
/// first evaluation error.
pub fn hill_climb<F>(
    start: &str,
    budget: usize,
    mut eval: F,
) -> Result<OrderSearchResult, DatalogError>
where
    F: FnMut(&str) -> Result<usize, DatalogError>,
{
    if budget == 0 {
        return Err(DatalogError::ZeroSearchBudget);
    }
    let mut evaluated = Vec::new();
    let mut run = |order: &str, evaluated: &mut Vec<OrderCandidate>| {
        let t0 = Instant::now();
        let peak = eval(order)?;
        let cand = OrderCandidate {
            order: order.to_string(),
            peak_nodes: peak,
            elapsed: t0.elapsed(),
        };
        evaluated.push(cand.clone());
        Ok::<OrderCandidate, DatalogError>(cand)
    };
    let mut best = run(start, &mut evaluated)?;
    let mut spent = 1usize;
    loop {
        let groups: Vec<&str> = best.order.split('_').collect();
        let mut improved = false;
        for i in 0..groups.len().saturating_sub(1) {
            if spent >= budget {
                break;
            }
            let mut g = groups.clone();
            g.swap(i, i + 1);
            let candidate = g.join("_");
            let c = run(&candidate, &mut evaluated)?;
            spent += 1;
            if c.peak_nodes < best.peak_nodes {
                best = c;
                improved = true;
                break; // restart neighborhood from the improved order
            }
        }
        if !improved || spent >= budget {
            break;
        }
    }
    Ok(OrderSearchResult { best, evaluated })
}

/// Searches a variable ordering for the context-insensitive analysis
/// (Algorithm 2) on the given facts: a [`hill_climb`] from
/// [`crate::analyses::CI_ORDER`], scoring each candidate by the solve's
/// peak reachable BDD nodes. Peak *live* nodes are no score: they are
/// sampled before a collection marks, so every order that fills the table
/// reads the same. Use a down-scaled workload: the best order transfers to
/// larger inputs of the same shape, which is exactly how `bddbddb`'s
/// empirical search was used.
///
/// # Errors
///
/// [`DatalogError::ZeroSearchBudget`] if `budget` is `0`; otherwise
/// propagates the first failed evaluation.
pub fn search_ci_order(
    facts: &whale_ir::Facts,
    budget: usize,
) -> Result<OrderSearchResult, DatalogError> {
    hill_climb(crate::analyses::CI_ORDER, budget, |order| {
        let solved = crate::analyses::context_insensitive(
            facts,
            true,
            crate::analyses::CallGraphMode::Cha,
            Some(crate::analyses::default_options(order)),
        )?;
        Ok(solved.stats.peak_reachable_nodes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_ci_order_runs() {
        let program = whale_ir::synth::generate(&whale_ir::synth::SynthConfig::tiny("os", 5));
        let facts = whale_ir::Facts::extract(&program);
        let res = search_ci_order(&facts, 4).unwrap();
        assert!(res.evaluated.len() >= 2);
        assert!(res
            .evaluated
            .iter()
            .all(|c| c.peak_nodes >= res.best.peak_nodes));
    }

    #[test]
    fn climbs_to_known_minimum() {
        // Cost = index of "G" in the order (front is best).
        let eval = |order: &str| {
            Ok(order
                .split('_')
                .position(|g| g == "G")
                .unwrap_or(usize::MAX))
        };
        let res = hill_climb("A_B_G_C", 50, eval).unwrap();
        assert_eq!(res.best.peak_nodes, 0);
        assert!(res.best.order.starts_with("G_"));
        assert!(res.evaluated.len() >= 3);
    }

    #[test]
    fn respects_budget() {
        let mut calls = 0usize;
        let res = hill_climb("A_B_C_D_E", 3, |_| {
            calls += 1;
            Ok(100 - calls) // always improving: would run forever unbudgeted
        })
        .unwrap();
        assert!(res.evaluated.len() <= 4);
    }

    #[test]
    fn zero_budget_is_an_error_and_evaluates_nothing() {
        let mut calls = 0usize;
        let res = hill_climb("A_B", 0, |_| {
            calls += 1;
            Ok(1)
        });
        assert!(matches!(res, Err(DatalogError::ZeroSearchBudget)));
        assert_eq!(calls, 0, "budget 0 must not evaluate the start order");

        let program = whale_ir::synth::generate(&whale_ir::synth::SynthConfig::tiny("os", 5));
        let facts = whale_ir::Facts::extract(&program);
        assert!(matches!(
            search_ci_order(&facts, 0),
            Err(DatalogError::ZeroSearchBudget)
        ));
    }

    #[test]
    fn budget_one_evaluates_only_the_start() {
        let mut calls = 0usize;
        let res = hill_climb("A_B_C", 1, |_| {
            calls += 1;
            Ok(7)
        })
        .unwrap();
        assert_eq!(calls, 1);
        assert_eq!(res.evaluated.len(), 1);
        assert_eq!(res.best.order, "A_B_C");
    }

    #[test]
    fn stops_at_local_minimum() {
        let res = hill_climb("A_B", 50, |o| Ok(if o == "A_B" { 1 } else { 2 })).unwrap();
        assert_eq!(res.best.order, "A_B");
        assert_eq!(res.evaluated.len(), 2);
    }
}
