//! Design-choice ablation for the optimizer (not a paper figure):
//! (i) the search strategy — simulated annealing vs greedy hill climbing
//! vs random walk over the same move neighborhood — justifying the
//! paper's SA choice, and (ii) the evaluator class — trained ChainNet vs
//! the zero-training analytic decomposition approximation vs ground-truth
//! simulation.

use chainnet_bench::optstudy::ground_truth_throughput;
use chainnet_bench::{print_table, Pipeline};
use chainnet_datagen::problems::{ProblemGenerator, ProblemParams};
use chainnet_obs::Obs;
use chainnet_placement::evaluator::{
    loss_probability, ApproxEvaluator, GnnEvaluator, SimEvaluator,
};
use chainnet_placement::sa::{SaConfig, SimulatedAnnealing};
use chainnet_placement::strategies::{HillClimb, RandomSearch};
use chainnet_qsim::sim::SimConfig;
use serde::Serialize;

#[derive(Debug, Serialize, Clone)]
struct AblationRow {
    variant: String,
    mean_loss_prob: f64,
    mean_secs: f64,
}

fn main() {
    let pipeline = Pipeline::from_env();
    let scale = pipeline.scale.clone();
    eprintln!("[search_ablation] scale = {}", scale.name);
    let datasets = pipeline.datasets();
    let chainnet = pipeline.chainnet(&datasets);

    let sa_cfg = SaConfig::paper_default().with_max_steps(scale.sa_steps);
    let eval_h = scale.eval_sim_horizon;
    let gen = ProblemGenerator::new(ProblemParams::paper_default(scale.device_counts[0]));

    let mut acc: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
    let record = |acc: &mut Vec<(String, Vec<f64>, Vec<f64>)>, name: &str, loss: f64, secs: f64| {
        if let Some(e) = acc.iter_mut().find(|e| e.0 == name) {
            e.1.push(loss);
            e.2.push(secs);
        } else {
            acc.push((name.to_string(), vec![loss], vec![secs]));
        }
    };

    for s in 0..scale.sa_problems {
        let problem = gen.generate(4_000 + s as u64).expect("problem");
        let initial = problem.initial_placement().expect("initial");
        let lam = problem.total_arrival_rate();
        let x0 = ground_truth_throughput(&problem, &initial, eval_h, 555);
        if loss_probability(lam, x0) < 0.02 {
            continue;
        }

        // --- Strategy ablation with the ChainNet evaluator.
        let sa = SimulatedAnnealing::new(sa_cfg.with_seed(s as u64));
        let t0 = std::time::Instant::now();
        let mut ev = GnnEvaluator::new(chainnet.model.clone());
        let res = sa.optimize(&problem, &initial, &mut ev, 1);
        let x = ground_truth_throughput(&problem, &res.best_placement, eval_h, 777);
        record(
            &mut acc,
            "SA + ChainNet",
            loss_probability(lam, x),
            t0.elapsed().as_secs_f64(),
        );

        // Batched neighborhood driver: same surrogate, but each step
        // scores a whole candidate set in one batched forward.
        let t0 = std::time::Instant::now();
        let mut ev = GnnEvaluator::new(chainnet.model.clone());
        let res =
            sa.optimize_neighborhood_observed(&problem, &initial, &mut ev, 1, 8, &Obs::disabled());
        let x = ground_truth_throughput(&problem, &res.best_placement, eval_h, 777);
        record(
            &mut acc,
            "SA(nbhd k=8) + ChainNet",
            loss_probability(lam, x),
            t0.elapsed().as_secs_f64(),
        );

        let t0 = std::time::Instant::now();
        let mut ev = GnnEvaluator::new(chainnet.model.clone());
        let hc = HillClimb::new(sa_cfg.with_seed(s as u64));
        let res = hc.optimize(&problem, &initial, &mut ev);
        let x = ground_truth_throughput(&problem, &res.best_placement, eval_h, 777);
        record(
            &mut acc,
            "HillClimb + ChainNet",
            loss_probability(lam, x),
            t0.elapsed().as_secs_f64(),
        );

        let t0 = std::time::Instant::now();
        let mut ev = GnnEvaluator::new(chainnet.model.clone());
        let rs = RandomSearch::new(sa_cfg.with_seed(s as u64));
        let res = rs.optimize(&problem, &initial, &mut ev);
        let x = ground_truth_throughput(&problem, &res.best_placement, eval_h, 777);
        record(
            &mut acc,
            "RandomWalk + ChainNet",
            loss_probability(lam, x),
            t0.elapsed().as_secs_f64(),
        );

        // --- Evaluator ablation with SA.
        let t0 = std::time::Instant::now();
        let mut ev = ApproxEvaluator::default();
        let res = sa.optimize(&problem, &initial, &mut ev, 1);
        let x = ground_truth_throughput(&problem, &res.best_placement, eval_h, 777);
        record(
            &mut acc,
            "SA + decomposition",
            loss_probability(lam, x),
            t0.elapsed().as_secs_f64(),
        );

        let t0 = std::time::Instant::now();
        let mut ev = SimEvaluator::new(SimConfig::new(eval_h, 99));
        let res = sa.optimize(&problem, &initial, &mut ev, 1);
        let x = ground_truth_throughput(&problem, &res.best_placement, eval_h, 777);
        record(
            &mut acc,
            "SA + simulation",
            loss_probability(lam, x),
            t0.elapsed().as_secs_f64(),
        );

        record(
            &mut acc,
            "initial placement",
            loss_probability(lam, x0),
            0.0,
        );
    }

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let rows: Vec<AblationRow> = acc
        .iter()
        .map(|(name, losses, secs)| AblationRow {
            variant: name.clone(),
            mean_loss_prob: mean(losses),
            mean_secs: mean(secs),
        })
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                format!("{:.3}", r.mean_loss_prob),
                format!("{:.2}", r.mean_secs),
            ]
        })
        .collect();
    print_table(
        "Search design ablation: mean simulated loss probability of the final decision",
        &["variant", "mean loss", "mean secs"],
        &table,
    );
    pipeline.write_result("search_ablation", &rows);
}
