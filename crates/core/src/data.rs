//! Labeled samples: placement graphs paired with simulator ground truth.

use crate::config::TargetMode;
use crate::graph::PlacementGraph;
use serde::{Deserialize, Serialize};

/// Ground-truth performance of one service chain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChainTargets {
    /// System throughput `X_i`.
    pub throughput: f64,
    /// Mean end-to-end latency `L_i`.
    pub latency: f64,
}

/// A labeled sample: one placement graph with per-chain ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledGraph {
    /// The input graph.
    pub graph: PlacementGraph,
    /// Per-chain targets, aligned with `graph.chains`.
    pub targets: Vec<ChainTargets>,
}

/// Floor used when a chain had no completions (latency unobserved): the
/// latency ratio target degenerates to 1 (no queueing observed).
const RATIO_EPS: f64 = 1e-6;

/// Convert natural-unit targets into the model's learning space.
///
/// * [`TargetMode::Absolute`] — identity.
/// * [`TargetMode::Ratio`] — `(X_i/λ_i, Σt_p/L_i)`, both clamped to
///   `[RATIO_EPS, 1]` as the paper's Table II prescribes (the ratios are
///   strictly between 0 and 1 in steady state).
pub fn targets_to_learning_space(
    mode: TargetMode,
    graph: &PlacementGraph,
    chain: usize,
    t: ChainTargets,
) -> (f64, f64) {
    match mode {
        TargetMode::Absolute => (t.throughput, t.latency),
        TargetMode::Ratio => {
            let c = &graph.chains[chain];
            let tput_ratio = (t.throughput / c.arrival_rate).clamp(0.0, 1.0);
            let lat_ratio = if t.latency > 0.0 {
                (c.total_processing / t.latency).clamp(RATIO_EPS, 1.0)
            } else {
                1.0
            };
            (tput_ratio, lat_ratio)
        }
    }
}

/// Convert model outputs in learning space back to natural units.
pub fn outputs_to_natural_units(
    mode: TargetMode,
    graph: &PlacementGraph,
    chain: usize,
    tput_out: f64,
    lat_out: f64,
) -> (f64, f64) {
    match mode {
        TargetMode::Absolute => (tput_out, lat_out),
        TargetMode::Ratio => {
            let c = &graph.chains[chain];
            let x = tput_out.clamp(0.0, 1.0) * c.arrival_rate;
            let l = c.total_processing / lat_out.clamp(RATIO_EPS, 1.0);
            (x, l)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FeatureMode;
    use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};

    fn graph() -> PlacementGraph {
        let devices = vec![
            Device::new(10.0, 1.0).unwrap(),
            Device::new(10.0, 1.0).unwrap(),
        ];
        let chains = vec![ServiceChain::new(
            0.5,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 3.0).unwrap(),
            ],
        )
        .unwrap()];
        let model = SystemModel::new(devices, chains, Placement::new(vec![vec![0, 1]])).unwrap();
        PlacementGraph::from_model(&model, FeatureMode::Modified)
    }

    #[test]
    fn ratio_round_trip() {
        let g = graph();
        let t = ChainTargets {
            throughput: 0.4,
            latency: 8.0,
        };
        let (tr, lr) = targets_to_learning_space(TargetMode::Ratio, &g, 0, t);
        assert!((tr - 0.8).abs() < 1e-12); // 0.4 / 0.5
        assert!((lr - 0.5).abs() < 1e-12); // (1 + 3) / 8
        let (x, l) = outputs_to_natural_units(TargetMode::Ratio, &g, 0, tr, lr);
        assert!((x - 0.4).abs() < 1e-12);
        assert!((l - 8.0).abs() < 1e-12);
    }

    #[test]
    fn absolute_mode_is_identity() {
        let g = graph();
        let t = ChainTargets {
            throughput: 0.4,
            latency: 8.0,
        };
        let (tr, lr) = targets_to_learning_space(TargetMode::Absolute, &g, 0, t);
        assert_eq!((tr, lr), (0.4, 8.0));
    }

    #[test]
    fn ratio_clamps_degenerate_latency() {
        let g = graph();
        let t = ChainTargets {
            throughput: 0.0,
            latency: 0.0,
        };
        let (tr, lr) = targets_to_learning_space(TargetMode::Ratio, &g, 0, t);
        assert_eq!(tr, 0.0);
        assert_eq!(lr, 1.0);
    }

    #[test]
    fn ratio_clamps_super_unit_throughput() {
        let g = graph();
        let t = ChainTargets {
            throughput: 0.7, // > lambda due to noise
            latency: 4.0,
        };
        let (tr, _) = targets_to_learning_space(TargetMode::Ratio, &g, 0, t);
        assert_eq!(tr, 1.0);
    }
}
