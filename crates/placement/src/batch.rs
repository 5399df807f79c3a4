//! Parallel batch optimization: solve many placement problems at once
//! across threads, each with its own evaluator instance. This is the
//! workhorse behind paper-scale sweeps ("100 randomly generated placement
//! problems", Section VIII-C1).

use crate::evaluator::BatchEvaluator;
use crate::problem::PlacementProblem;
use crate::sa::{SaConfig, SaResult, SimulatedAnnealing};
use chainnet_qsim::{QsimError, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Solve every problem with its own evaluator, in parallel.
///
/// `make_evaluator(i)` builds a fresh evaluator for problem `i` — a
/// simulator config or a clone of a trained surrogate — so no state is
/// shared across threads. Results keep problem order. Problems whose
/// initial placement cannot be constructed produce an `Err` entry.
///
/// Work is distributed by a lock-free atomic index and each finished
/// `(index, result)` pair flows back over a channel to be reassembled in
/// problem order on the calling thread — workers never contend on a
/// shared results collection.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn optimize_batch<F, E>(
    problems: &[PlacementProblem],
    make_evaluator: F,
    sa_config: SaConfig,
    trials: usize,
    threads: usize,
) -> Vec<Result<SaResult>>
where
    F: Fn(usize) -> E + Sync,
    E: BatchEvaluator,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<SaResult>>> = Vec::new();
    slots.resize_with(problems.len(), || None);

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, Result<SaResult>)>();
        for _ in 0..threads.max(1).min(problems.len().max(1)) {
            let tx = tx.clone();
            let next = &next;
            let make_evaluator = &make_evaluator;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(problem) = problems.get(i) else {
                    return;
                };
                let outcome = problem.initial_placement().map(|initial| {
                    let mut evaluator = make_evaluator(i);
                    let sa = SimulatedAnnealing::new(
                        sa_config.with_seed(sa_config.seed.wrapping_add(i as u64)),
                    );
                    sa.optimize(problem, &initial, &mut evaluator, trials)
                });
                // The receiver outlives every worker inside this scope;
                // a send can only fail after a receiver-side panic, which
                // already aborts the batch when the scope joins.
                let _ = tx.send((i, outcome));
            });
        }
        drop(tx);
        // Reassemble in problem order as results stream in; each index
        // arrives exactly once.
        for (i, outcome) in rx {
            slots[i] = Some(outcome);
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(QsimError::InvalidModel(
                    "batch worker terminated early".into(),
                ))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::SimEvaluator;
    use chainnet_qsim::model::{Device, Fragment, ServiceChain};
    use chainnet_qsim::sim::SimConfig;

    fn problems(n: usize) -> Vec<PlacementProblem> {
        (0..n)
            .map(|i| {
                let devices = vec![
                    Device::new(5.0, 0.3 + 0.05 * i as f64).unwrap(),
                    Device::new(30.0, 2.0).unwrap(),
                    Device::new(30.0, 2.0).unwrap(),
                ];
                let chains = vec![ServiceChain::new(
                    0.8,
                    vec![
                        Fragment::new(1.0, 1.0).unwrap(),
                        Fragment::new(1.0, 1.0).unwrap(),
                    ],
                )
                .unwrap()];
                PlacementProblem::new(devices, chains).unwrap()
            })
            .collect()
    }

    #[test]
    fn batch_solves_all_problems_in_order() {
        let ps = problems(4);
        let results = optimize_batch(
            &ps,
            |i| SimEvaluator::new(SimConfig::new(200.0, i as u64)),
            SaConfig::paper_default().with_max_steps(8),
            1,
            2,
        );
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            let r = r.as_ref().expect("solved");
            assert!(
                r.best_objective >= r.initial_objective,
                "problem {i} regressed"
            );
        }
    }

    #[test]
    fn batch_matches_sequential_results() {
        let ps = problems(3);
        let cfg = SaConfig::paper_default().with_max_steps(6).with_seed(11);
        let parallel = optimize_batch(
            &ps,
            |i| SimEvaluator::new(SimConfig::new(150.0, 40 + i as u64)),
            cfg,
            1,
            3,
        );
        let sequential = optimize_batch(
            &ps,
            |i| SimEvaluator::new(SimConfig::new(150.0, 40 + i as u64)),
            cfg,
            1,
            1,
        );
        for (p, s) in parallel.iter().zip(&sequential) {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(p.best_placement, s.best_placement);
            assert_eq!(p.best_objective, s.best_objective);
        }
    }

    #[test]
    fn infeasible_problem_reports_error_without_poisoning_batch() {
        let mut ps = problems(2);
        // An impossible problem: fragment memory exceeds every device.
        let devices = vec![
            Device::new(0.5, 1.0).unwrap(),
            Device::new(0.5, 1.0).unwrap(),
        ];
        let chains = vec![ServiceChain::new(0.5, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap()];
        ps.push(PlacementProblem::new(devices, chains).unwrap());
        let results = optimize_batch(
            &ps,
            |i| SimEvaluator::new(SimConfig::new(100.0, i as u64)),
            SaConfig::paper_default().with_max_steps(4),
            1,
            2,
        );
        assert!(results[0].is_ok());
        assert!(results[1].is_ok());
        assert!(results[2].is_err());
    }
}
