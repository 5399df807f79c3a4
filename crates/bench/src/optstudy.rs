//! The surrogate-optimization study shared by Figs. 14 and 15 and the
//! case study: fixed-time and fixed-steps comparisons of GNN-based vs
//! simulation-based annealing search, with simulator post-processing of
//! GNN decisions (Section VIII-C5).

use chainnet_placement::evaluator::{loss_probability, relative_loss_reduction, BatchEvaluator};
use chainnet_placement::problem::PlacementProblem;
use chainnet_placement::sa::{SaConfig, SaResult, SimulatedAnnealing};
use chainnet_qsim::model::Placement;
use chainnet_qsim::sim::{SimConfig, Simulator};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Simulated ground-truth total throughput of a placement (used both by
/// the simulation-based search and to post-process GNN decisions).
pub fn ground_truth_throughput(
    problem: &PlacementProblem,
    placement: &Placement,
    horizon: f64,
    seed: u64,
) -> f64 {
    let model = problem
        .bind(placement.clone())
        .expect("placement is structurally valid");
    Simulator::new()
        .run(&model, &SimConfig::new(horizon, seed))
        .expect("simulation succeeds")
        .total_throughput
}

/// A best-so-far decision event on a global (cross-trial) axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalImprovement {
    /// Wall-clock seconds since the whole search started.
    pub time_secs: f64,
    /// Global step index across sequential trials.
    pub step: usize,
    /// Search-evaluator objective.
    pub estimated_objective: f64,
    /// The placement.
    pub placement: Placement,
}

/// Flatten a multi-trial result into global best-so-far improvements:
/// trials execute sequentially, and only strict global improvements are
/// kept.
pub fn global_improvements(result: &SaResult) -> Vec<GlobalImprovement> {
    let mut out = Vec::new();
    let mut best = result.initial_objective;
    let mut time_offset = 0.0;
    let mut step_offset = 0usize;
    for trial in &result.trials {
        for imp in &trial.improvements {
            if imp.objective > best {
                best = imp.objective;
                out.push(GlobalImprovement {
                    time_secs: time_offset + imp.elapsed_secs,
                    step: step_offset + imp.step,
                    estimated_objective: imp.objective,
                    placement: imp.placement.clone(),
                });
            }
        }
        time_offset += trial.elapsed_secs;
        step_offset += trial.steps.len();
    }
    out
}

/// A curve of loss probability / relative reduction against a grid
/// (time in seconds, or steps).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Curve {
    /// Grid coordinates (seconds or steps).
    pub grid: Vec<f64>,
    /// Simulated (post-processed) loss probability of the best decision
    /// available at each grid point.
    pub loss_prob: Vec<f64>,
    /// Simulated relative loss reduction at each grid point (Eq. 19).
    pub relative_reduction: Vec<f64>,
    /// Loss probability as *estimated by the search evaluator* (the
    /// dashed ChainNet curves of Fig. 14c-d).
    pub estimated_loss_prob: Vec<f64>,
}

/// Evaluate the best-so-far decision on a grid, re-simulating each
/// improvement exactly once.
pub fn curve_on_grid(
    problem: &PlacementProblem,
    initial: &Placement,
    improvements: &[GlobalImprovement],
    grid: &[f64],
    by_time: bool,
    eval_horizon: f64,
) -> Curve {
    let lam = problem.total_arrival_rate();
    // Simulate each distinct decision once.
    let mut cache: HashMap<Placement, f64> = HashMap::new();
    let initial_x = ground_truth_throughput(problem, initial, eval_horizon, 9_999);
    cache.insert(initial.clone(), initial_x);
    for imp in improvements {
        cache.entry(imp.placement.clone()).or_insert_with(|| {
            ground_truth_throughput(problem, &imp.placement, eval_horizon, 9_999)
        });
    }
    let mut loss_prob = Vec::with_capacity(grid.len());
    let mut rel = Vec::with_capacity(grid.len());
    let mut est = Vec::with_capacity(grid.len());
    for &g in grid {
        // Last improvement at or before this grid point.
        let at = improvements
            .iter()
            .take_while(|imp| {
                let coord = if by_time {
                    imp.time_secs
                } else {
                    imp.step as f64
                };
                coord <= g
            })
            .last();
        let (x_sim, x_est) = match at {
            Some(imp) => (cache[&imp.placement], imp.estimated_objective),
            None => (initial_x, initial_x),
        };
        loss_prob.push(loss_probability(lam, x_sim));
        rel.push(relative_loss_reduction(lam, initial_x, x_sim));
        est.push(loss_probability(lam, x_est.min(lam)));
    }
    Curve {
        grid: grid.to_vec(),
        loss_prob,
        relative_reduction: rel,
        estimated_loss_prob: est,
    }
}

/// Outcome of one method on one problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodOutcome {
    /// Evaluator/method label.
    pub method: String,
    /// Simulated total throughput of the final decision.
    pub final_throughput: f64,
    /// Simulated loss probability of the final decision.
    pub final_loss_prob: f64,
    /// Simulated relative loss reduction (Eq. 19).
    pub relative_reduction: f64,
    /// Wall-clock seconds spent searching.
    pub search_secs: f64,
    /// Objective evaluations consumed.
    pub evaluations: u64,
    /// Trials completed.
    pub trials: usize,
    /// The improvement trail (for curves).
    pub improvements: Vec<GlobalImprovement>,
    /// The full multi-trial result.
    pub sa_result: SaResult,
}

/// Run a fixed-trials search with `evaluator` and post-process the final
/// decision with the ground-truth simulator.
pub fn run_search(
    problem: &PlacementProblem,
    initial: &Placement,
    evaluator: &mut dyn BatchEvaluator,
    sa_config: SaConfig,
    trials: usize,
    eval_horizon: f64,
) -> MethodOutcome {
    let method = evaluator.name().to_string();
    let sa = SimulatedAnnealing::new(sa_config);
    let result = sa.optimize(problem, initial, evaluator, trials);
    outcome_from_result(problem, initial, method, result, eval_horizon)
}

/// Run a fixed-wall-clock search (Section VIII-C4a) and post-process.
pub fn run_search_for(
    problem: &PlacementProblem,
    initial: &Placement,
    evaluator: &mut dyn BatchEvaluator,
    sa_config: SaConfig,
    budget_secs: f64,
    eval_horizon: f64,
) -> MethodOutcome {
    let method = evaluator.name().to_string();
    let sa = SimulatedAnnealing::new(sa_config);
    let result = sa.optimize_for(problem, initial, evaluator, budget_secs);
    outcome_from_result(problem, initial, method, result, eval_horizon)
}

fn outcome_from_result(
    problem: &PlacementProblem,
    initial: &Placement,
    method: String,
    result: SaResult,
    eval_horizon: f64,
) -> MethodOutcome {
    let lam = problem.total_arrival_rate();
    let improvements = global_improvements(&result);
    // Post-process: simulate the final decision (paper Section VIII-C5
    // reports simulated values, not the GNN's own estimates).
    let final_x = ground_truth_throughput(problem, &result.best_placement, eval_horizon, 31_337);
    let initial_x = ground_truth_throughput(problem, initial, eval_horizon, 31_337);
    MethodOutcome {
        method,
        final_throughput: final_x,
        final_loss_prob: loss_probability(lam, final_x),
        relative_reduction: relative_loss_reduction(lam, initial_x, final_x),
        search_secs: result.elapsed_secs,
        evaluations: result.evaluations,
        trials: result.trials.len(),
        improvements,
        sa_result: result,
    }
}

/// Build an evenly spaced grid of `points` values over `(0, max]`.
pub fn linear_grid(max: f64, points: usize) -> Vec<f64> {
    (1..=points.max(1))
        .map(|i| max * i as f64 / points.max(1) as f64)
        .collect()
}

/// Average multiple curves sharing the same number of grid points
/// (grids may differ; the mean grid is reported).
///
/// # Panics
///
/// Panics if curves have differing lengths or the slice is empty.
pub fn mean_curve(curves: &[Curve]) -> Curve {
    assert!(!curves.is_empty(), "no curves to average");
    let n = curves[0].grid.len();
    assert!(
        curves.iter().all(|c| c.grid.len() == n),
        "curves must share grid length"
    );
    let m = curves.len() as f64;
    let mean_of = |f: &dyn Fn(&Curve) -> &Vec<f64>| -> Vec<f64> {
        (0..n)
            .map(|i| curves.iter().map(|c| f(c)[i]).sum::<f64>() / m)
            .collect()
    };
    Curve {
        grid: mean_of(&|c| &c.grid),
        loss_prob: mean_of(&|c| &c.loss_prob),
        relative_reduction: mean_of(&|c| &c.relative_reduction),
        estimated_loss_prob: mean_of(&|c| &c.estimated_loss_prob),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainnet_placement::evaluator::SimEvaluator;
    use chainnet_qsim::model::{Device, Fragment, ServiceChain};

    fn tiny_problem() -> PlacementProblem {
        let devices = vec![
            Device::new(4.0, 0.3).unwrap(),
            Device::new(40.0, 2.0).unwrap(),
            Device::new(40.0, 2.0).unwrap(),
        ];
        let chains = vec![ServiceChain::new(
            1.0,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
            ],
        )
        .unwrap()];
        PlacementProblem::new(devices, chains).unwrap()
    }

    #[test]
    fn run_search_post_processes_with_simulator() {
        let p = tiny_problem();
        let init = Placement::new(vec![vec![0, 1]]);
        let mut ev = SimEvaluator::new(SimConfig::new(400.0, 1));
        let cfg = SaConfig::paper_default().with_max_steps(15);
        let out = run_search(&p, &init, &mut ev, cfg, 2, 400.0);
        assert_eq!(out.trials, 2);
        assert!(out.final_loss_prob >= 0.0 && out.final_loss_prob <= 1.0);
        assert!(out.relative_reduction >= -0.1);
    }

    #[test]
    fn global_improvements_are_strictly_increasing() {
        let p = tiny_problem();
        let init = Placement::new(vec![vec![0, 1]]);
        let mut ev = SimEvaluator::new(SimConfig::new(300.0, 2));
        let cfg = SaConfig::paper_default().with_max_steps(20);
        let out = run_search(&p, &init, &mut ev, cfg, 3, 300.0);
        for w in out.improvements.windows(2) {
            assert!(w[1].estimated_objective > w[0].estimated_objective);
            assert!(w[1].step >= w[0].step);
        }
    }

    #[test]
    fn curve_is_monotone_in_estimates() {
        let p = tiny_problem();
        let init = Placement::new(vec![vec![0, 1]]);
        let mut ev = SimEvaluator::new(SimConfig::new(300.0, 3));
        let cfg = SaConfig::paper_default().with_max_steps(20);
        let out = run_search(&p, &init, &mut ev, cfg, 2, 300.0);
        let grid = linear_grid(40.0, 8);
        let curve = curve_on_grid(&p, &init, &out.improvements, &grid, false, 300.0);
        assert_eq!(curve.grid.len(), 8);
        for w in curve.estimated_loss_prob.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "estimated loss must not increase");
        }
    }

    #[test]
    fn mean_curve_averages() {
        let c1 = Curve {
            grid: vec![1.0, 2.0],
            loss_prob: vec![0.4, 0.2],
            relative_reduction: vec![0.1, 0.5],
            estimated_loss_prob: vec![0.4, 0.2],
        };
        let c2 = Curve {
            grid: vec![1.0, 2.0],
            loss_prob: vec![0.2, 0.0],
            relative_reduction: vec![0.3, 0.7],
            estimated_loss_prob: vec![0.2, 0.0],
        };
        let m = mean_curve(&[c1, c2]);
        for (a, b) in m.loss_prob.iter().zip([0.3, 0.1]) {
            assert!((a - b).abs() < 1e-12);
        }
        for (a, b) in m.relative_reduction.iter().zip([0.2, 0.6]) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn linear_grid_spans_range() {
        let g = linear_grid(10.0, 5);
        assert_eq!(g, vec![2.0, 4.0, 6.0, 8.0, 10.0]);
    }
}
