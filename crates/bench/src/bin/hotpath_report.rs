//! Hot-path benchmark report: measures the three PR-5 hot paths — the
//! qsim event loop, the dense matmul kernel, and SA candidate
//! evaluation — and emits a machine-readable `BENCH_PR5.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p chainnet-bench --bin hotpath_report -- \
//!     [--quick] [--baseline <path>] [--out <path>]
//! ```
//!
//! `--quick` shrinks every measurement window (CI smoke mode).
//! `--baseline` points at a JSON file of pre-optimization numbers (the
//! committed `results/bench_pr5_baseline.json`, captured on the seed
//! event loop before the zero-alloc refactor); its `sim` section is
//! merged in as the "before" column. `--capture-baseline` writes the
//! sim section only, for re-baselining on a new reference machine.

use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};
use chainnet_qsim::sim::{SimConfig, Simulator};
use std::time::Instant;

/// A multi-chain, shared-device scenario exercising queueing, drops and
/// multi-fragment routing — the simulator's steady-state hot path.
fn sim_scenario() -> SystemModel {
    let devices = vec![
        Device::new(6.0, 1.0).unwrap(),
        Device::new(4.0, 2.0).unwrap(),
        Device::new(5.0, 1.5).unwrap(),
    ];
    let chains = vec![
        ServiceChain::new(
            0.6,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(2.0, 2.0).unwrap(),
            ],
        )
        .unwrap(),
        ServiceChain::new(
            0.4,
            vec![
                Fragment::new(1.0, 1.5).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(2.0, 0.5).unwrap(),
            ],
        )
        .unwrap(),
    ];
    SystemModel::new(
        devices,
        chains,
        Placement::new(vec![vec![0, 1], vec![1, 2, 0]]),
    )
    .unwrap()
}

/// Events per second of wall clock over `reps` simulator runs.
fn measure_sim_events_per_sec(horizon: f64, reps: usize) -> f64 {
    let model = sim_scenario();
    let cfg = SimConfig::new(horizon, 42);
    // Warm-up run excluded from timing.
    let _ = Simulator::new().run(&model, &cfg).expect("sim");
    let start = Instant::now();
    let mut events = 0u64;
    for _ in 0..reps {
        events += Simulator::new().run(&model, &cfg).expect("sim").events;
    }
    events as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag_value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_PR5.json".to_string());
    let capture_baseline = args.iter().any(|a| a == "--capture-baseline");

    let (horizon, reps) = if quick { (5_000.0, 2) } else { (50_000.0, 6) };
    eprintln!("measuring qsim event loop ({reps} x horizon {horizon}) ...");
    let sim_eps = measure_sim_events_per_sec(horizon, reps);
    eprintln!("  sim.events_per_sec = {sim_eps:.0}");

    if capture_baseline {
        let json = format!(
            "{{\n  \"sim\": {{ \"events_per_sec\": {sim_eps:.1}, \"horizon\": {horizon}, \"reps\": {reps} }}\n}}\n"
        );
        std::fs::write(&out, json).expect("write baseline");
        eprintln!("baseline written to {out}");
        return;
    }

    report::run(quick, sim_eps, flag_value("--baseline"), &out);
}

/// Full-report half: matmul and SA measurements plus JSON assembly.
/// Split out so `--capture-baseline` depends only on the simulator.
mod report {
    use super::{sim_scenario, Instant};
    use chainnet::config::ModelConfig;
    use chainnet::model::ChainNet;
    use chainnet_neural::tensor::Tensor;
    use chainnet_obs::Obs;
    use chainnet_placement::evaluator::{GnnEvaluator, SimEvaluator};
    use chainnet_placement::problem::PlacementProblem;
    use chainnet_placement::sa::{SaConfig, SimulatedAnnealing};
    use chainnet_qsim::sim::SimConfig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, rng: &mut SmallRng) -> Tensor {
        Tensor::matrix(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    }

    /// GFLOP/s of one kernel at a square size.
    fn measure_matmul_gflops(
        n: usize,
        reps: usize,
        kernel: impl Fn(&Tensor, &Tensor) -> Tensor,
    ) -> f64 {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = random_matrix(n, n, &mut rng);
        let b = random_matrix(n, n, &mut rng);
        let _ = kernel(&a, &b); // warm-up
        let start = Instant::now();
        let mut sink = 0.0;
        for _ in 0..reps {
            sink += kernel(&a, &b).data()[0];
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        assert!(sink.is_finite());
        (2.0 * (n * n * n * reps) as f64) / secs / 1e9
    }

    fn sa_problem() -> PlacementProblem {
        let model = sim_scenario();
        PlacementProblem::new(model.devices().to_vec(), model.chains().to_vec()).unwrap()
    }

    /// Evaluations per second of a full SA run scoring `k` candidates
    /// per step.
    fn measure_sa<E: chainnet_placement::evaluator::BatchEvaluator>(
        steps: usize,
        mut evaluator: E,
        k: usize,
    ) -> f64 {
        let problem = sa_problem();
        let initial = problem.initial_placement().expect("feasible");
        let cfg = SaConfig::paper_default().with_max_steps(steps).with_seed(9);
        let sa = SimulatedAnnealing::new(cfg);
        let start = Instant::now();
        let result = sa.optimize_neighborhood_observed(
            &problem,
            &initial,
            &mut evaluator,
            1,
            k,
            &Obs::disabled(),
        );
        assert!(result.best_objective.is_finite());
        evaluator.evaluations() as f64 / start.elapsed().as_secs_f64().max(1e-9)
    }

    pub fn run(quick: bool, sim_eps_after: f64, baseline: Option<String>, out: &str) {
        let obs = Obs::enabled();

        // Matmul: retained naive reference ("before") vs blocked kernel.
        let (n, mm_reps) = if quick { (96, 3) } else { (256, 8) };
        eprintln!("measuring matmul kernels ({mm_reps} x {n}x{n}) ...");
        let naive = measure_matmul_gflops(n, mm_reps, |a, b| a.matmul_naive(b));
        let blocked = measure_matmul_gflops(n, mm_reps, |a, b| a.matmul(b));
        eprintln!("  naive {naive:.3} GFLOP/s, blocked {blocked:.3} GFLOP/s");
        let matmul_ns = {
            let mut rng = SmallRng::seed_from_u64(2);
            let a = random_matrix(n, n, &mut rng);
            let b = random_matrix(n, n, &mut rng);
            let start = Instant::now();
            let c = a.matmul(&b);
            let ns = start.elapsed().as_nanos() as f64;
            assert!(c.data()[0].is_finite());
            ns
        };
        obs.registry.gauge("neural.matmul_ns").set(matmul_ns);
        obs.registry.gauge("sim.events_per_sec").set(sim_eps_after);

        // SA evaluation throughput: simulator backend vs surrogate,
        // sequential vs neighborhood-batched surrogate forward.
        let sa_steps = if quick { 12 } else { 60 };
        eprintln!("measuring SA evaluation throughput ({sa_steps} steps) ...");
        let net = ChainNet::new(ModelConfig::small(), 3);
        let sim_backend = measure_sa(sa_steps, SimEvaluator::new(SimConfig::new(2_000.0, 4)), 1);
        let surrogate_seq = measure_sa(sa_steps, GnnEvaluator::new(net.clone()), 1);
        let surrogate_batched = measure_sa(sa_steps, GnnEvaluator::new(net), 8);
        eprintln!(
            "  sim {sim_backend:.1}, surrogate {surrogate_seq:.1}, batched {surrogate_batched:.1} evals/sec"
        );

        let sim_eps_before = baseline
            .and_then(|p| std::fs::read_to_string(p).ok())
            .and_then(|s| {
                // Minimal extraction: the baseline file is
                // {"sim": {"events_per_sec": <f64>, ...}}.
                let key = "\"events_per_sec\":";
                let at = s.find(key)? + key.len();
                let rest = &s[at..];
                let end = rest.find([',', '}'])?;
                rest[..end].trim().parse::<f64>().ok()
            });

        let before = sim_eps_before
            .map(|v| format!("{v:.1}"))
            .unwrap_or_else(|| "null".to_string());
        let speedup_sim = sim_eps_before
            .map(|v| format!("{:.3}", sim_eps_after / v))
            .unwrap_or_else(|| "null".to_string());
        let json = format!(
            concat!(
                "{{\n",
                "  \"schema\": \"chainnet-bench-pr5/v1\",\n",
                "  \"quick\": {quick},\n",
                "  \"groups\": {{\n",
                "    \"sim_event_loop\": {{\n",
                "      \"unit\": \"events/sec\",\n",
                "      \"before\": {sim_before},\n",
                "      \"after\": {sim_after:.1},\n",
                "      \"speedup\": {sim_speedup}\n",
                "    }},\n",
                "    \"matmul\": {{\n",
                "      \"unit\": \"GFLOP/s\",\n",
                "      \"size\": {n},\n",
                "      \"before\": {naive:.4},\n",
                "      \"after\": {blocked:.4},\n",
                "      \"speedup\": {mm_speedup:.3}\n",
                "    }},\n",
                "    \"sa_evaluation\": {{\n",
                "      \"unit\": \"evals/sec\",\n",
                "      \"simulator_backend\": {sa_sim:.2},\n",
                "      \"before\": {sa_seq:.2},\n",
                "      \"after\": {sa_batched:.2},\n",
                "      \"speedup\": {sa_speedup:.3}\n",
                "    }}\n",
                "  }}\n",
                "}}\n",
            ),
            quick = quick,
            sim_before = before,
            sim_after = sim_eps_after,
            sim_speedup = speedup_sim,
            n = n,
            naive = naive,
            blocked = blocked,
            mm_speedup = blocked / naive,
            sa_sim = sim_backend,
            sa_seq = surrogate_seq,
            sa_batched = surrogate_batched,
            sa_speedup = surrogate_batched / surrogate_seq,
        );
        std::fs::write(out, &json).expect("write report");
        eprintln!("report written to {out}");
        println!("{json}");
    }
}
