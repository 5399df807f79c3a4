//! Layer probes of the traced run: each times one public entry point on
//! fixed inputs. The `*.hotpath`, `*.hotpath_k8` and `*.pr10_shape`
//! probes re-measure the exact scenarios behind BENCH_PR5.json
//! (`hotpath_report`) and BENCH_PR10.json (`train_report`), so those
//! numbers stay comparable.

use crate::common::TimedEval;
use crate::spans::Recorder;
use crate::stats::median;
use crate::Layers;
use chainnet::config::{ModelConfig, TrainConfig};
use chainnet::data::{ChainTargets, LabeledGraph};
use chainnet::graph::PlacementGraph;
use chainnet::model::{ChainNet, Surrogate};
use chainnet::train::Trainer;
use chainnet_datagen::case_study_problem;
use chainnet_neural::scalar::Scalar;
use chainnet_neural::tensor::Tensor;
use chainnet_obs::Obs;
use chainnet_placement::evaluator::GnnEvaluator;
use chainnet_placement::problem::PlacementProblem;
use chainnet_placement::sa::{SaConfig, SimulatedAnnealing};
use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};
use chainnet_qsim::sim::{SimConfig, Simulator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Run every probe and record its metric in `layers`.
pub fn run(rec: &mut Recorder, layers: &mut Layers, model: &ChainNet) -> Result<(), String> {
    let (gf32, bytes32) = rec.span("neural:matmul", None, |_| matmul::<f32>(256, 256, 256, 8));
    let (gf64, _) = rec.span("neural:matmul", None, |_| matmul::<f64>(256, 256, 256, 8));
    layers.set("neural.matmul_gflops.f32", gf32);
    layers.set("neural.matmul_gflops.f64", gf64);
    layers.set("neural.matmul_bytes", bytes32);
    // The forward's own shape: a batch of 8 case-study graphs, 28
    // fragment slots each, hidden width 32, times a (32, 96) gate block.
    let (m, k, n) = (8 * 28, model.config().hidden, 3 * model.config().hidden);
    let (fwd32, fwd_bytes) = rec.span("neural:matmul", None, |_| matmul::<f32>(m, k, n, 400));
    let (fwd64, _) = rec.span("neural:matmul", None, |_| matmul::<f64>(m, k, n, 400));
    layers.set("neural.matmul_gflops.fwd_f32", fwd32);
    layers.set("neural.matmul_gflops.fwd_f64", fwd64);
    layers.set("neural.matmul_bytes.fwd", fwd_bytes);

    let problem = case_study_problem().map_err(|e| e.to_string())?;
    let candidates = case_study_candidates(&problem, model)?;
    let mode = model.config().feature_mode;
    let reps = candidates.len();
    let t = Instant::now();
    let systems: Vec<SystemModel> = rec.span("placement:bind", None, |_| {
        candidates
            .iter()
            .filter_map(|p| problem.bind(p.clone()).ok())
            .collect()
    });
    layers.set(
        "placement.bind_us",
        t.elapsed().as_secs_f64() * 1e6 / reps as f64,
    );
    if systems.len() != reps {
        return Err("a recorded SA candidate does not bind".into());
    }
    let t = Instant::now();
    let graphs: Vec<PlacementGraph> = rec.span("core:graph_build", None, |_| {
        systems
            .iter()
            .map(|s| PlacementGraph::from_model(s, mode))
            .collect()
    });
    layers.set(
        "core.graph_build_us",
        t.elapsed().as_secs_f64() * 1e6 / reps as f64,
    );

    for (b, name) in [
        (1, "core.forward_us.b1"),
        (4, "core.forward_us.b4"),
        (8, "core.forward_us.b8"),
        (32, "core.forward_us.b32"),
    ] {
        let per_graph = rec.span("core:predict_batch", None, |_| {
            forward_us(model, &graphs, b)
        });
        layers.set(name, per_graph);
    }

    let eps = rec.span("qsim:run", None, |_| hotpath_events_per_s());
    layers.set("qsim.events_per_s.hotpath", eps);
    let sa = rec.span("placement:optimize_neighborhood", None, |_| hotpath_sa_k8());
    layers.set("placement.sa_evals_per_s.hotpath_k8", sa);
    let train = rec.span("core:train_batched", None, |_| pr10_train_samples_per_s());
    layers.set("core.train_samples_per_s.pr10_shape", train);
    Ok(())
}

/// GFLOP/s of `Tensor::matmul` at (m, k) × (k, n) over `reps` calls,
/// and the bytes one call reads and writes (A, B and C once each,
/// computed from the tensor sizes).
fn matmul<S: Scalar>(m: usize, k: usize, n: usize, reps: usize) -> (f64, f64) {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut mk = |r: usize, c: usize| -> Tensor<S> {
        Tensor::matrix(
            r,
            c,
            (0..r * c)
                .map(|_| S::from_f64(rng.gen_range(-1.0..1.0)))
                .collect(),
        )
    };
    let a = mk(m, k);
    let b = mk(k, n);
    black_box(a.matmul(&b));
    let mut per_call = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..reps {
            black_box(black_box(&a).matmul(black_box(&b)));
        }
        per_call.push(t.elapsed().as_secs_f64() / reps as f64);
    }
    let flops = 2.0 * (m * k * n) as f64;
    let bytes = ((m * k + k * n + m * n) * std::mem::size_of::<S>()) as f64;
    (flops / median(&per_call) / 1e9, bytes)
}

/// Candidate placements the SA neighborhood driver proposes on the case
/// study (32 of them).
fn case_study_candidates(
    problem: &PlacementProblem,
    model: &ChainNet,
) -> Result<Vec<Placement>, String> {
    let initial = problem.initial_placement().map_err(|e| e.to_string())?;
    let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(4).with_seed(5));
    let mut ev = TimedEval::new(GnnEvaluator::new(model.clone()), true);
    sa.optimize_neighborhood_observed(problem, &initial, &mut ev, 1, 8, &Obs::disabled());
    let seen = ev.seen.unwrap_or_default();
    if seen.len() < 32 {
        return Err(format!("only {} SA candidates recorded", seen.len()));
    }
    Ok(seen.into_iter().take(32).collect())
}

/// Median microseconds per graph of `predict` (b = 1) or
/// `predict_batch` over batches of `b` graphs.
fn forward_us(model: &ChainNet, graphs: &[PlacementGraph], b: usize) -> f64 {
    let mut per_graph = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        if b == 1 {
            for g in graphs {
                black_box(model.predict(black_box(g)));
            }
        } else {
            for chunk in graphs.chunks(b) {
                black_box(model.predict_batch(black_box(chunk)));
            }
        }
        per_graph.push(t.elapsed().as_secs_f64() * 1e6 / graphs.len() as f64);
    }
    median(&per_graph)
}

/// The BENCH_PR5 event-loop scenario: two chains sharing three devices.
fn hotpath_system() -> Result<SystemModel, String> {
    let dev = |m: f64, r: f64| Device::new(m, r).map_err(|e| e.to_string());
    let frag = |m: f64, c: f64| Fragment::new(m, c).map_err(|e| e.to_string());
    let devices = vec![dev(6.0, 1.0)?, dev(4.0, 2.0)?, dev(5.0, 1.5)?];
    let chains = vec![
        ServiceChain::new(0.6, vec![frag(1.0, 1.0)?, frag(2.0, 2.0)?])
            .map_err(|e| e.to_string())?,
        ServiceChain::new(0.4, vec![frag(1.0, 1.5)?, frag(1.0, 1.0)?, frag(2.0, 0.5)?])
            .map_err(|e| e.to_string())?,
    ];
    SystemModel::new(
        devices,
        chains,
        Placement::new(vec![vec![0, 1], vec![1, 2, 0]]),
    )
    .map_err(|e| e.to_string())
}

/// `hotpath_report`'s `sim.events_per_sec`: horizon 50 000, seed 42.
fn hotpath_events_per_s() -> f64 {
    let Ok(model) = hotpath_system() else {
        return f64::NAN;
    };
    let cfg = SimConfig::new(50_000.0, 42);
    let _ = Simulator::new().run(&model, &cfg);
    let t = Instant::now();
    let mut events = 0u64;
    for _ in 0..6 {
        events += Simulator::new().run(&model, &cfg).map_or(0, |r| r.events);
    }
    events as f64 / t.elapsed().as_secs_f64()
}

/// `hotpath_report`'s batched SA rate: GNN evaluator, `ModelConfig::small`,
/// 60 steps, k = 8, on the event-loop scenario's problem.
fn hotpath_sa_k8() -> f64 {
    let Ok(sys) = hotpath_system() else {
        return f64::NAN;
    };
    let Ok(problem) = PlacementProblem::new(sys.devices().to_vec(), sys.chains().to_vec()) else {
        return f64::NAN;
    };
    let Ok(initial) = problem.initial_placement() else {
        return f64::NAN;
    };
    let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(60).with_seed(9));
    let mut ev = GnnEvaluator::new(ChainNet::new(ModelConfig::small(), 3));
    let t = Instant::now();
    let result =
        sa.optimize_neighborhood_observed(&problem, &initial, &mut ev, 1, 8, &Obs::disabled());
    use chainnet_placement::evaluator::Evaluator as _;
    if !result.best_objective.is_finite() {
        return f64::NAN;
    }
    ev.evaluations() as f64 / t.elapsed().as_secs_f64()
}

/// `train_report`'s batched f32 rate: 64 synthetic graphs, 5 epochs,
/// batch 32, hidden 32, 4 iterations.
fn pr10_train_samples_per_s() -> f64 {
    let data = pr10_dataset(64);
    let trainer = Trainer::new(TrainConfig {
        epochs: 5,
        batch_size: 32,
        learning_rate: 1e-3,
        lr_decay: 0.9,
        lr_decay_period: 10,
        seed: 5,
    });
    let mut cfg = ModelConfig::paper_chainnet();
    cfg.hidden = 32;
    cfg.iterations = 4;
    let mut model = ChainNet::new(cfg, 3);
    let t = Instant::now();
    let report = trainer.train_batched::<f32>(&mut model, &data, None, &Obs::disabled());
    let secs = t.elapsed().as_secs_f64();
    if !report.final_train_loss().is_some_and(f64::is_finite) {
        return f64::NAN;
    }
    (data.len() * 5) as f64 / secs
}

/// `train_report`'s heterogeneous synthetic dataset.
fn pr10_dataset(n: usize) -> Vec<LabeledGraph> {
    let placements = [
        vec![vec![0, 1], vec![1, 2, 0]],
        vec![vec![1, 0, 2]],
        vec![vec![0, 1], vec![2, 1], vec![1, 1, 0]],
        vec![vec![2, 2]],
    ];
    (0..n)
        .filter_map(|s| {
            let placement = placements[s % placements.len()].clone();
            let devices = [(20.0, 1.0), (20.0, 2.0), (20.0, 1.5)]
                .iter()
                .map(|&(m, r)| Device::new(m, r).ok())
                .collect::<Option<Vec<_>>>()?;
            let chains = placement
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let frags = (0..p.len())
                        .map(|j| Fragment::new(1.0, 1.0 + 0.3 * j as f64).ok())
                        .collect::<Option<Vec<_>>>()?;
                    ServiceChain::new(0.3 + 0.05 * ((s + i) % 7) as f64, frags).ok()
                })
                .collect::<Option<Vec<_>>>()?;
            let model = SystemModel::new(devices, chains, Placement::new(placement)).ok()?;
            let graph = PlacementGraph::from_model(&model, ModelConfig::small().feature_mode);
            let targets = graph
                .chains
                .iter()
                .map(|c| ChainTargets {
                    throughput: c.arrival_rate * 0.8,
                    latency: c.total_processing * 1.6,
                })
                .collect();
            Some(LabeledGraph { graph, targets })
        })
        .collect()
}
