//! Heterogeneous graph representation of a placement decision
//! (Algorithm 1) and the Table II feature construction.
//!
//! A placement graph has three node types — service, fragment, device —
//! and two edge types: *placement* edges (fragment → device) and
//! *workflow* edges (device → next fragment). Service nodes are isolated
//! hypernodes tracking their chain's execution sequence. The graph is
//! partitioned into *execution steps* (fragment node + device node +
//! placement edge), the basic unit of ChainNet's message passing.

use crate::config::FeatureMode;
use chainnet_qsim::model::SystemModel;
use serde::{Deserialize, Serialize};

/// One execution step of a chain: a fragment node bound to a device node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepNode {
    /// Fragment-node input features (Table II, mode-dependent).
    pub frag_feat: Vec<f64>,
    /// Local index into [`PlacementGraph::devices`].
    pub device: usize,
    /// Mean processing time `t_{p_{i,j}}` of this fragment at its device.
    pub processing_time: f64,
    /// Memory demand `m_{i,j}` of the fragment.
    pub mem: f64,
}

/// One service chain with its execution sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainGraph {
    /// Arrival rate `λ_i`.
    pub arrival_rate: f64,
    /// Total mean processing time `Σ_j t_{p_{i,j}}` (needed to invert the
    /// latency-ratio target).
    pub total_processing: f64,
    /// Service-node input features.
    pub service_feat: Vec<f64>,
    /// Execution steps in order (`E_1 → … → E_{T_i}`).
    pub steps: Vec<StepNode>,
}

/// A used device and the execution steps that include it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceNode {
    /// Index of the device in the original [`SystemModel`].
    pub global_idx: usize,
    /// Device-node input features.
    pub feat: Vec<f64>,
    /// `(chain, frag)` of every execution step on this device; its length
    /// is `F_k` in the paper.
    pub steps: Vec<(usize, usize)>,
}

/// The heterogeneous graph of a placement decision (Algorithm 1).
///
/// # Examples
///
/// ```
/// use chainnet::config::FeatureMode;
/// use chainnet::graph::PlacementGraph;
/// use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};
///
/// # fn main() -> Result<(), chainnet_qsim::QsimError> {
/// let devices = vec![Device::new(10.0, 1.0)?, Device::new(10.0, 1.0)?];
/// let chains = vec![ServiceChain::new(
///     0.5,
///     vec![Fragment::new(1.0, 1.0)?, Fragment::new(1.0, 2.0)?],
/// )?];
/// let model = SystemModel::new(devices, chains, Placement::new(vec![vec![0, 1]]))?;
/// let graph = PlacementGraph::from_model(&model, FeatureMode::Modified);
/// // C + ΣT_i + d = 1 + 2 + 2 nodes; ΣT_i + (ΣT_i - C) = 2 + 1 edges.
/// assert_eq!(graph.num_nodes(), 5);
/// assert_eq!(graph.num_edges(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementGraph {
    /// Feature mode the graph was built with.
    pub feature_mode: FeatureMode,
    /// Per-chain subgraphs (execution sequences).
    pub chains: Vec<ChainGraph>,
    /// Used devices only (`d <= D` of the paper).
    pub devices: Vec<DeviceNode>,
}

impl PlacementGraph {
    /// Build the graph representation of `model`'s placement (Algorithm 1)
    /// with features per Table II.
    pub fn from_model(model: &SystemModel, mode: FeatureMode) -> Self {
        let used = model.placement().used_devices();
        // Map global device index -> local index.
        #[expect(
            clippy::expect_used,
            reason = "used_devices() lists every device the placement references"
        )]
        let local_of = |g: usize| used.iter().position(|&u| u == g).expect("used device");

        // Pre-compute Δt_k and Δm_k per used device.
        let delta_t: Vec<f64> = used
            .iter()
            .map(|&k| model.device_total_processing(k))
            .collect();
        let delta_m: Vec<f64> = used
            .iter()
            .map(|&k| model.device_static_memory(k))
            .collect();

        let mut devices: Vec<DeviceNode> = used
            .iter()
            .enumerate()
            .map(|(local, &g)| {
                let cap = model.devices()[g].memory;
                let feat = match mode {
                    FeatureMode::Original => vec![cap],
                    FeatureMode::Modified => vec![delta_m[local] / cap],
                };
                DeviceNode {
                    global_idx: g,
                    feat,
                    steps: Vec::new(),
                }
            })
            .collect();

        let chains: Vec<ChainGraph> = model
            .chains()
            .iter()
            .enumerate()
            .map(|(i, chain)| {
                let lambda = chain.arrival_rate;
                let total_processing: f64 =
                    (0..chain.len()).map(|j| model.processing_time(i, j)).sum();
                let steps: Vec<StepNode> = (0..chain.len())
                    .map(|j| {
                        let g = model.placement().device_of(i, j);
                        let local = local_of(g);
                        devices[local].steps.push((i, j));
                        let tp = model.processing_time(i, j);
                        let mem = chain.fragments[j].mem;
                        let cap = model.devices()[g].memory;
                        let frag_feat = match mode {
                            FeatureMode::Original => vec![tp, mem],
                            FeatureMode::Modified => vec![
                                tp * lambda,
                                if delta_t[local] > 0.0 {
                                    tp / delta_t[local]
                                } else {
                                    0.0
                                },
                                mem / cap,
                            ],
                        };
                        StepNode {
                            frag_feat,
                            device: local,
                            processing_time: tp,
                            mem,
                        }
                    })
                    .collect();
                let service_feat = match mode {
                    FeatureMode::Original => vec![lambda],
                    FeatureMode::Modified => vec![1.0],
                };
                ChainGraph {
                    arrival_rate: lambda,
                    total_processing,
                    service_feat,
                    steps,
                }
            })
            .collect();

        Self {
            feature_mode: mode,
            chains,
            devices,
        }
    }

    /// Number of service chains `C`.
    pub fn num_chains(&self) -> usize {
        self.chains.len()
    }

    /// Total number of fragments `Σ_i T_i`.
    pub fn num_fragments(&self) -> usize {
        self.chains.iter().map(|c| c.steps.len()).sum()
    }

    /// Number of used devices `d`.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Total node count `C + Σ T_i + d`.
    pub fn num_nodes(&self) -> usize {
        self.num_chains() + self.num_fragments() + self.num_devices()
    }

    /// Total edge count: `Σ T_i` placement edges plus `Σ (T_i - 1)`
    /// workflow edges.
    pub fn num_edges(&self) -> usize {
        2 * self.num_fragments() - self.num_chains()
    }

    /// `F_k` of the paper: execution steps sharing local device `k`.
    pub fn device_step_count(&self, local: usize) -> usize {
        self.devices[local].steps.len()
    }
}

/// A homogeneous (single node type) view of a placement graph, used by the
/// GIN and GAT baselines.
///
/// Nodes 0..S are service nodes (isolated, as in the paper), the next F
/// are fragments, the last d are devices. Edges are the placement and
/// workflow edges, symmetrized so ordinary message passing can proceed in
/// both directions. Node features are `[one-hot type || padded features]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HomoGraph {
    /// Per-node input features (constant width).
    pub node_feats: Vec<Vec<f64>>,
    /// Symmetric adjacency lists.
    pub adj: Vec<Vec<usize>>,
    /// For each chain, the node ids of its fragment nodes in order.
    pub chain_fragments: Vec<Vec<usize>>,
    /// For each chain, the node id of its service node.
    pub service_nodes: Vec<usize>,
}

impl HomoGraph {
    /// Width of node feature vectors: 3 type bits + 3 padded feature slots.
    pub const FEAT_DIM: usize = 6;

    /// Build the homogeneous view of `graph`.
    pub fn from_placement(graph: &PlacementGraph) -> Self {
        let s = graph.num_chains();
        let f = graph.num_fragments();
        let d = graph.num_devices();
        let n = s + f + d;

        let pad = |type_idx: usize, feats: &[f64]| -> Vec<f64> {
            let mut v = vec![0.0; Self::FEAT_DIM];
            v[type_idx] = 1.0;
            for (slot, &x) in v[3..].iter_mut().zip(feats) {
                *slot = x;
            }
            v
        };

        let mut node_feats = Vec::with_capacity(n);
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut chain_fragments = Vec::with_capacity(s);
        let service_nodes: Vec<usize> = (0..s).collect();

        for chain in &graph.chains {
            node_feats.push(pad(0, &chain.service_feat));
        }
        // Fragment nodes, chain by chain.
        let mut frag_base = s;
        let mut frag_ids: Vec<Vec<usize>> = Vec::with_capacity(s);
        for chain in &graph.chains {
            let ids: Vec<usize> = (0..chain.steps.len()).map(|j| frag_base + j).collect();
            frag_base += chain.steps.len();
            for step in &chain.steps {
                node_feats.push(pad(1, &step.frag_feat));
            }
            frag_ids.push(ids);
        }
        for dev in &graph.devices {
            node_feats.push(pad(2, &dev.feat));
        }
        let dev_node = |local: usize| s + f + local;

        for (i, chain) in graph.chains.iter().enumerate() {
            for (j, step) in chain.steps.iter().enumerate() {
                let frag = frag_ids[i][j];
                let dev = dev_node(step.device);
                // Placement edge fragment -> device (symmetrized).
                adj[frag].push(dev);
                adj[dev].push(frag);
                // Workflow edge device -> next fragment (symmetrized).
                if j + 1 < chain.steps.len() {
                    let next = frag_ids[i][j + 1];
                    adj[dev].push(next);
                    adj[next].push(dev);
                }
            }
            chain_fragments.push(frag_ids[i].clone());
        }

        Self {
            node_feats,
            adj,
            chain_fragments,
            service_nodes,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_feats.len()
    }

    /// Number of (directed) adjacency entries; twice the undirected edges.
    pub fn num_adj_entries(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain};

    /// The Fig. 4 example: two chains (2 and 3 fragments) on three devices.
    fn fig4_model() -> SystemModel {
        let devices = vec![
            Device::new(50.0, 1.0).unwrap(),
            Device::new(50.0, 2.0).unwrap(),
            Device::new(50.0, 4.0).unwrap(),
        ];
        let chains = vec![
            ServiceChain::new(
                0.5,
                vec![
                    Fragment::new(1.0, 1.0).unwrap(),
                    Fragment::new(1.0, 2.0).unwrap(),
                ],
            )
            .unwrap(),
            ServiceChain::new(
                0.25,
                vec![
                    Fragment::new(1.0, 1.0).unwrap(),
                    Fragment::new(1.0, 1.0).unwrap(),
                    Fragment::new(1.0, 2.0).unwrap(),
                ],
            )
            .unwrap(),
        ];
        // Chain 1: devices 0 -> 1; chain 2: devices 1 -> 2 -> 0.
        let placement = Placement::new(vec![vec![0, 1], vec![1, 2, 0]]);
        SystemModel::new(devices, chains, placement).unwrap()
    }

    #[test]
    fn fig4_node_and_edge_counts() {
        let graph = PlacementGraph::from_model(&fig4_model(), FeatureMode::Modified);
        // "We create a total of ten nodes": 2 services + 5 fragments + 3 devices.
        assert_eq!(graph.num_nodes(), 10);
        assert_eq!(graph.num_chains(), 2);
        assert_eq!(graph.num_fragments(), 5);
        assert_eq!(graph.num_devices(), 3);
        // 5 placement + 3 workflow edges.
        assert_eq!(graph.num_edges(), 8);
    }

    #[test]
    fn shared_device_has_multiple_steps() {
        let graph = PlacementGraph::from_model(&fig4_model(), FeatureMode::Modified);
        // Device 1 hosts fragment (0,1) and fragment (1,0): F_k = 2.
        let local = graph
            .devices
            .iter()
            .position(|d| d.global_idx == 1)
            .unwrap();
        assert_eq!(graph.device_step_count(local), 2);
        assert!(graph.devices[local].steps.contains(&(0, 1)));
        assert!(graph.devices[local].steps.contains(&(1, 0)));
    }

    #[test]
    fn original_features_are_raw_quantities() {
        let model = fig4_model();
        let graph = PlacementGraph::from_model(&model, FeatureMode::Original);
        assert_eq!(graph.chains[0].service_feat, vec![0.5]);
        // Fragment (0,0) on device 0: t_p = 1/1 = 1, m = 1.
        assert_eq!(graph.chains[0].steps[0].frag_feat, vec![1.0, 1.0]);
        // Device 0 feature = capacity.
        let d0 = graph.devices.iter().find(|d| d.global_idx == 0).unwrap();
        assert_eq!(d0.feat, vec![50.0]);
    }

    #[test]
    fn modified_features_follow_table_ii() {
        let model = fig4_model();
        let graph = PlacementGraph::from_model(&model, FeatureMode::Modified);
        // Service feature becomes 1.
        assert_eq!(graph.chains[0].service_feat, vec![1.0]);
        let step = &graph.chains[0].steps[0]; // t_p = 1 on device 0
                                              // t_p * λ = 1 * 0.5.
        assert!((step.frag_feat[0] - 0.5).abs() < 1e-12);
        // Device 0 hosts (0,0) [t_p=1] and (1,2) [t_p=2/1=2] -> Δt = 3.
        assert!((step.frag_feat[1] - 1.0 / 3.0).abs() < 1e-12);
        // m / M = 1/50.
        assert!((step.frag_feat[2] - 0.02).abs() < 1e-12);
        // Device feature Δm/M = 2/50.
        let d0 = graph.devices.iter().find(|d| d.global_idx == 0).unwrap();
        assert!((d0.feat[0] - 0.04).abs() < 1e-12);
    }

    #[test]
    fn total_processing_sums_steps() {
        let graph = PlacementGraph::from_model(&fig4_model(), FeatureMode::Modified);
        // Chain 0: t_p = 1/1 + 2/2 = 2.
        assert!((graph.chains[0].total_processing - 2.0).abs() < 1e-12);
        // Chain 1: 1/2 + 1/4 + 2/1 = 2.75.
        assert!((graph.chains[1].total_processing - 2.75).abs() < 1e-12);
    }

    #[test]
    fn unused_devices_are_excluded() {
        let devices = vec![
            Device::new(10.0, 1.0).unwrap(),
            Device::new(10.0, 1.0).unwrap(),
            Device::new(10.0, 1.0).unwrap(),
        ];
        let chains = vec![ServiceChain::new(1.0, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap()];
        let model = SystemModel::new(devices, chains, Placement::new(vec![vec![2]])).unwrap();
        let graph = PlacementGraph::from_model(&model, FeatureMode::Modified);
        assert_eq!(graph.num_devices(), 1);
        assert_eq!(graph.devices[0].global_idx, 2);
    }

    #[test]
    fn homogeneous_view_counts() {
        let graph = PlacementGraph::from_model(&fig4_model(), FeatureMode::Modified);
        let homo = HomoGraph::from_placement(&graph);
        assert_eq!(homo.num_nodes(), 10);
        // 8 undirected edges -> 16 adjacency entries.
        assert_eq!(homo.num_adj_entries(), 16);
        // Service nodes are isolated.
        for &sidx in &homo.service_nodes {
            assert!(homo.adj[sidx].is_empty());
        }
        // Each chain's fragment list matches its length.
        assert_eq!(homo.chain_fragments[0].len(), 2);
        assert_eq!(homo.chain_fragments[1].len(), 3);
    }

    #[test]
    fn homogeneous_features_have_type_bits() {
        let graph = PlacementGraph::from_model(&fig4_model(), FeatureMode::Modified);
        let homo = HomoGraph::from_placement(&graph);
        // Node 0 is a service node: type one-hot (1,0,0).
        assert_eq!(&homo.node_feats[0][..3], &[1.0, 0.0, 0.0]);
        // Last node is a device: (0,0,1).
        let last = homo.node_feats.last().unwrap();
        assert_eq!(&last[..3], &[0.0, 0.0, 1.0]);
        for f in &homo.node_feats {
            assert_eq!(f.len(), HomoGraph::FEAT_DIM);
        }
    }

    #[test]
    fn serde_round_trip() {
        let graph = PlacementGraph::from_model(&fig4_model(), FeatureMode::Modified);
        let json = serde_json::to_string(&graph).unwrap();
        let back: PlacementGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(graph, back);
    }
}
