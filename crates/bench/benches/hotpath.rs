//! Criterion benches for the hot paths: the zero-alloc qsim event loop,
//! the blocked matmul kernel (naive vs blocked, f64 vs f32), SA
//! candidate evaluation (sequential vs the batched neighborhood driver),
//! and the PR-10 batched training step (per-graph f64 tape passes vs one
//! padded multi-graph tape pass in f32/f64). `CRITERION_QUICK=1`
//! shortens every run for CI smoke mode; the machine-readable numbers
//! live in `BENCH_PR5.json` / `BENCH_PR10.json` (see `hotpath_report`
//! and `train_report`).

use chainnet::config::ModelConfig;
use chainnet::graph::PlacementGraph;
use chainnet::graph_batch::GraphBatch;
use chainnet::model::{ChainNet, Surrogate};
use chainnet_neural::params::ParamStore;
use chainnet_neural::scalar::Scalar;
use chainnet_neural::tape::Tape;
use chainnet_neural::tensor::Tensor;
use chainnet_obs::Obs;
use chainnet_placement::evaluator::GnnEvaluator;
use chainnet_placement::problem::PlacementProblem;
use chainnet_placement::sa::{SaConfig, SimulatedAnnealing};
use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};
use chainnet_qsim::sim::{SimConfig, Simulator};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The shared-device multi-chain scenario from `hotpath_report`.
fn scenario() -> SystemModel {
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

fn bench_sim_step_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_sim_events");
    group.sample_size(10);
    let model = scenario();
    let horizon = 10_000.0;
    let cfg = SimConfig::new(horizon, 42);
    let events = Simulator::new().run(&model, &cfg).expect("sim").events;
    group.throughput(Throughput::Elements(events));
    group.bench_function("multi_chain_10k_units", |b| {
        b.iter(|| Simulator::new().run(&model, &cfg).expect("sim"))
    });
    group.finish();
}

fn random_matrix<S: Scalar>(rows: usize, cols: usize, rng: &mut SmallRng) -> Tensor<S> {
    Tensor::matrix(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| S::from_f64(rng.gen_range(-1.0..1.0)))
            .collect(),
    )
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_matmul");
    group.sample_size(10);
    let n = 256;
    let mut rng = SmallRng::seed_from_u64(1);
    let a: Tensor = random_matrix(n, n, &mut rng);
    let b: Tensor = random_matrix(n, n, &mut rng);
    let a32: Tensor<f32> = random_matrix(n, n, &mut rng);
    let b32: Tensor<f32> = random_matrix(n, n, &mut rng);
    // Elements = FLOPs so criterion's element rate reads as FLOP/s.
    group.throughput(Throughput::Elements((2 * n * n * n) as u64));
    group.bench_function("naive_256", |bch| bch.iter(|| a.matmul_naive(&b)));
    group.bench_function("blocked_256", |bch| bch.iter(|| a.matmul(&b)));
    group.bench_function("blocked_256_f32", |bch| bch.iter(|| a32.matmul(&b32)));
    group.finish();
}

/// Heterogeneous mini-batch of placement graphs with synthetic targets,
/// the training-step workload for `train_batched_forward`.
fn train_workload(
    batch: usize,
) -> (
    ChainNet,
    Vec<(PlacementGraph, Vec<chainnet::data::ChainTargets>)>,
) {
    let net = ChainNet::new(ModelConfig::small(), 3);
    let placements = [
        vec![vec![0, 1], vec![1, 2, 0]],
        vec![vec![1, 0, 2]],
        vec![vec![0, 1], vec![2, 1], vec![1, 1, 0]],
        vec![vec![2, 2]],
    ];
    let data = (0..batch)
        .map(|s| {
            let placement = placements[s % placements.len()].clone();
            let devices = vec![
                Device::new(20.0, 1.0).unwrap(),
                Device::new(20.0, 2.0).unwrap(),
                Device::new(20.0, 1.5).unwrap(),
            ];
            let chains = placement
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let frags = (0..p.len())
                        .map(|j| Fragment::new(1.0, 1.0 + 0.3 * j as f64).unwrap())
                        .collect();
                    ServiceChain::new(0.3 + 0.05 * ((s + i) % 7) as f64, frags).unwrap()
                })
                .collect();
            let model = SystemModel::new(devices, chains, Placement::new(placement)).unwrap();
            let graph = PlacementGraph::from_model(&model, ModelConfig::small().feature_mode);
            let targets = graph
                .chains
                .iter()
                .map(|c| chainnet::data::ChainTargets {
                    throughput: c.arrival_rate * 0.8,
                    latency: c.total_processing * 1.6,
                })
                .collect();
            (graph, targets)
        })
        .collect();
    (net, data)
}

/// One batched-training step (forward + backward + grad accumulation) in
/// a given dtype, against the sequential per-graph f64 tape loop it
/// replaces. Throughput is in graphs (samples) per second.
fn bench_train_batched_forward(c: &mut Criterion) {
    let quick = std::env::var_os("CRITERION_QUICK").is_some();
    let batch = if quick { 8 } else { 32 };
    let mut group = c.benchmark_group("hotpath_train_step");
    group.sample_size(10);
    let (mut net, data) = train_workload(batch);
    let graphs: Vec<&PlacementGraph> = data.iter().map(|(g, _)| g).collect();
    let targets: Vec<&[chainnet::data::ChainTargets]> =
        data.iter().map(|(_, t)| t.as_slice()).collect();
    let packed = GraphBatch::pack(&graphs, net.config().target_mode);
    let targets = packed.pack_targets(&graphs, &targets);
    group.throughput(Throughput::Elements(batch as u64));

    group.bench_function("sequential_f64", |b| {
        let mut tape = Tape::new();
        b.iter(|| {
            for (g, t) in &data {
                tape.reset();
                let loss = net.loss_on_graph(&mut tape, g, t);
                tape.backward(loss);
            }
            tape.accumulate_param_grads(net.params_mut());
            net.params_mut().zero_grads();
        })
    });
    group.bench_function("batched_f64", |b| {
        let mut tape = Tape::new();
        let mut store: ParamStore = net.params().cast();
        b.iter(|| {
            tape.reset();
            let loss = net.batched_loss(&mut tape, &store, &packed, &targets);
            tape.backward(loss);
            tape.accumulate_param_grads(&mut store);
            store.zero_grads();
        })
    });
    group.bench_function("batched_f32", |b| {
        let mut tape: Tape<f32> = Tape::new();
        let mut store: ParamStore<f32> = net.params().cast();
        b.iter(|| {
            tape.reset();
            let loss = net.batched_loss(&mut tape, &store, &packed, &targets);
            tape.backward(loss);
            tape.accumulate_param_grads(&mut store);
            store.zero_grads();
        })
    });
    group.finish();
}

fn bench_sa_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_sa_evals");
    group.sample_size(10);
    let model = scenario();
    let problem = PlacementProblem::new(model.devices().to_vec(), model.chains().to_vec()).unwrap();
    let initial = problem.initial_placement().expect("feasible");
    let net = ChainNet::new(ModelConfig::small(), 3);
    let steps = 20;
    let cfg = SaConfig::paper_default().with_max_steps(steps).with_seed(9);
    group.throughput(Throughput::Elements(steps as u64));
    group.bench_function("surrogate_sequential", |b| {
        b.iter(|| {
            let mut evaluator = GnnEvaluator::new(net.clone());
            SimulatedAnnealing::new(cfg).optimize(&problem, &initial, &mut evaluator, 1)
        })
    });
    group.bench_function("surrogate_batched_k8", |b| {
        b.iter(|| {
            let mut evaluator = GnnEvaluator::new(net.clone());
            SimulatedAnnealing::new(cfg).optimize_neighborhood_observed(
                &problem,
                &initial,
                &mut evaluator,
                1,
                8,
                &Obs::disabled(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sim_step_throughput,
    bench_matmul,
    bench_sa_evaluation,
    bench_train_batched_forward
);
criterion_main!(benches);
