//! Batched inference must match the sequential `predict` loop. The SA
//! neighborhood search treats the two paths as interchangeable and its
//! objective reads only throughput, so throughput must be
//! **bit-identical** — any drift, even one ULP, would silently change
//! search trajectories. Latency may differ by the padded forward's one
//! readout reassociation (the fragment mean as a weighted row sum, see
//! `graph_batch.rs`) and is held within `1e-12` relative.

use chainnet::config::{FeatureMode, ModelConfig, TargetMode};
use chainnet::graph::PlacementGraph;
use chainnet::model::{ChainNet, Surrogate};
use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};

fn devices() -> Vec<Device> {
    vec![
        Device::new(20.0, 1.0).unwrap(),
        Device::new(18.0, 2.0).unwrap(),
        Device::new(22.0, 1.5).unwrap(),
    ]
}

fn chains() -> Vec<ServiceChain> {
    vec![
        ServiceChain::new(
            0.5,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 2.0).unwrap(),
            ],
        )
        .unwrap(),
        ServiceChain::new(
            0.3,
            vec![
                Fragment::new(1.0, 0.5).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.5).unwrap(),
            ],
        )
        .unwrap(),
    ]
}

fn graph_for(placement: Vec<Vec<usize>>, mode: FeatureMode) -> PlacementGraph {
    let model = SystemModel::new(devices(), chains(), Placement::new(placement)).unwrap();
    PlacementGraph::from_model(&model, mode)
}

/// An SA-neighborhood-shaped batch: same problem, different placements,
/// all touching the full device set (uniform structure, varied wiring,
/// shared devices exercising the attention path).
fn neighborhood(mode: FeatureMode) -> Vec<PlacementGraph> {
    [
        vec![vec![0, 1], vec![1, 2, 0]],
        vec![vec![1, 0], vec![2, 1, 0]],
        vec![vec![2, 1], vec![0, 1, 2]],
        vec![vec![0, 2], vec![1, 0, 2]],
        vec![vec![1, 2], vec![0, 2, 1]],
    ]
    .into_iter()
    .map(|p| graph_for(p, mode))
    .collect()
}

/// Latency tolerance of the batched path, relative to the sequential
/// prediction.
const LATENCY_REL_TOL: f64 = 1e-12;

fn assert_matches_sequential(
    batched: &[Vec<chainnet::PerfPrediction>],
    net: &ChainNet,
    graphs: &[PlacementGraph],
) {
    assert_eq!(batched.len(), graphs.len());
    for (b, graph) in graphs.iter().enumerate() {
        let seq = net.predict(graph);
        assert_eq!(batched[b].len(), seq.len());
        for (i, (got, want)) in batched[b].iter().zip(&seq).enumerate() {
            assert_eq!(
                got.throughput.to_bits(),
                want.throughput.to_bits(),
                "graph {b} chain {i} throughput: {} vs {}",
                got.throughput,
                want.throughput
            );
            let rel = (got.latency - want.latency).abs() / want.latency.abs().max(1e-300);
            assert!(
                rel <= LATENCY_REL_TOL,
                "graph {b} chain {i} latency: {} vs {} (rel {rel:.3e})",
                got.latency,
                want.latency
            );
        }
    }
}

#[test]
fn batched_matches_sequential_ratio_mode() {
    let net = ChainNet::new(ModelConfig::small(), 7);
    let graphs = neighborhood(net.config().feature_mode);
    assert_matches_sequential(&net.predict_batch(&graphs), &net, &graphs);
}

#[test]
fn batched_matches_sequential_absolute_original_mode() {
    let cfg = ModelConfig::small()
        .with_feature_mode(FeatureMode::Original)
        .with_target_mode(TargetMode::Absolute);
    let net = ChainNet::new(cfg, 13);
    let graphs = neighborhood(cfg.feature_mode);
    assert_matches_sequential(&net.predict_batch(&graphs), &net, &graphs);
}

#[test]
fn batched_matches_sequential_paper_config() {
    let net = ChainNet::new(ModelConfig::paper_chainnet(), 3);
    let graphs = neighborhood(net.config().feature_mode);
    assert_matches_sequential(&net.predict_batch(&graphs), &net, &graphs);
}

/// Placements using different device subsets produce different local
/// device counts; the padded path must handle them in one forward and
/// still return correct, ordered results.
#[test]
fn mixed_device_counts_match_sequential_on_padded_path() {
    let net = ChainNet::new(ModelConfig::small(), 7);
    let mode = net.config().feature_mode;
    let graphs = vec![
        graph_for(vec![vec![0, 1], vec![1, 2, 0]], mode),
        // Only devices 0 and 1 used: two local devices, not three.
        graph_for(vec![vec![0, 1], vec![1, 0, 1]], mode),
        graph_for(vec![vec![2, 0], vec![0, 1, 2]], mode),
    ];
    assert_matches_sequential(&net.predict_batch(&graphs), &net, &graphs);
}

/// A second problem with a different chain count (3 vs 2) and different
/// step counts per chain (1, 4, 2 vs 2, 3) on four devices.
fn other_problem_graph(placement: Vec<Vec<usize>>, mode: FeatureMode) -> PlacementGraph {
    let mut devs = devices();
    devs.push(Device::new(16.0, 1.2).unwrap());
    let frags = |demands: &[f64]| -> Vec<Fragment> {
        demands
            .iter()
            .map(|&d| Fragment::new(1.0, d).unwrap())
            .collect()
    };
    let chains = vec![
        ServiceChain::new(0.4, frags(&[0.8])).unwrap(),
        ServiceChain::new(0.2, frags(&[0.5, 1.0, 0.7, 1.2])).unwrap(),
        ServiceChain::new(0.35, frags(&[1.1, 0.6])).unwrap(),
    ];
    let model = SystemModel::new(devs, chains, Placement::new(placement)).unwrap();
    PlacementGraph::from_model(&model, mode)
}

/// Graphs of two different problems interleaved in one batch: every
/// slot dimension (chains, steps per chain, devices, attention width)
/// is padded, a case the batched path never saw before it shared the
/// training forward.
#[test]
fn cross_problem_batch_matches_sequential() {
    for (cfg, seed) in [
        (ModelConfig::small(), 5),
        (
            ModelConfig::small()
                .with_feature_mode(FeatureMode::Original)
                .with_target_mode(TargetMode::Absolute),
            9,
        ),
    ] {
        let net = ChainNet::new(cfg, seed);
        let mode = cfg.feature_mode;
        let graphs = vec![
            other_problem_graph(vec![vec![3], vec![0, 1, 3, 2], vec![1, 0]], mode),
            graph_for(vec![vec![0, 1], vec![1, 2, 0]], mode),
            other_problem_graph(vec![vec![0], vec![0, 0, 1, 1], vec![2, 2]], mode),
            graph_for(vec![vec![2, 2], vec![2, 1, 1]], mode),
            other_problem_graph(vec![vec![1], vec![2, 3, 0, 1], vec![3, 3]], mode),
        ];
        assert_matches_sequential(&net.predict_batch(&graphs), &net, &graphs);
    }
}

#[test]
fn empty_and_singleton_batches() {
    let net = ChainNet::new(ModelConfig::small(), 7);
    assert!(net.predict_batch(&[]).is_empty());
    let graphs = [graph_for(
        vec![vec![0, 1], vec![1, 2, 0]],
        net.config().feature_mode,
    )];
    assert_matches_sequential(&net.predict_batch(&graphs), &net, &graphs);
}
