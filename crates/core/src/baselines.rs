//! Baseline GNN surrogates: graph isomorphism network (GIN, Xu et al.)
//! and graph attention network (GAT, Veličković et al.), run over the
//! homogeneous view of the placement graph.
//!
//! Readout follows the only workable choice for this graph family: since
//! service nodes are isolated (the paper connects them to nothing), each
//! chain's prediction is read from the **mean of its fragment-node
//! embeddings**, fed to MLP heads. Unlike the paper — which trains one
//! baseline model per metric — our baselines share a trunk with two heads
//! trained jointly; this multi-task setup if anything *helps* the
//! baselines, making ChainNet's advantage conservative (see DESIGN.md).

use crate::config::{ModelConfig, TargetMode};
use crate::data::{outputs_to_natural_units, targets_to_learning_space, ChainTargets};
use crate::graph::{HomoGraph, PlacementGraph};
use crate::model::{PerfPrediction, Surrogate};
use chainnet_neural::layers::{Activation, Linear, Mlp};
use chainnet_neural::params::{ParamId, ParamStore};
use chainnet_neural::tape::{Tape, Var};
use chainnet_neural::tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which baseline architecture a [`BaselineGnn`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BaselineKind {
    /// Graph isomorphism network: sum aggregation + MLP update.
    Gin,
    /// Graph attention network: additive attention over neighbors.
    Gat,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GinLayer {
    mlp: Mlp,
    /// Learnable ε (1-element tensor).
    eps: ParamId,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct GatHead {
    /// Feature transform (hidden/heads × hidden).
    w: ParamId,
    /// Attention vector (1 × 2·hidden/heads).
    a: ParamId,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GatLayer {
    heads: Vec<GatHead>,
}

/// A GIN or GAT surrogate with the same prediction heads and target
/// transforms as ChainNet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineGnn {
    name: String,
    kind: BaselineKind,
    config: ModelConfig,
    store: ParamStore,
    encoder: Linear,
    gin_layers: Vec<GinLayer>,
    gat_layers: Vec<GatLayer>,
    mlp_tput: Mlp,
    mlp_latency: Mlp,
}

impl BaselineGnn {
    /// Create a baseline with Glorot-initialized weights. `config.iterations`
    /// is the layer count (8 for GAT, 12 for GIN in Table IV).
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `attention_heads` (GAT).
    pub fn new(kind: BaselineKind, config: ModelConfig, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let h = config.hidden;
        let encoder = Linear::new(&mut store, "enc", HomoGraph::FEAT_DIM, h, &mut rng);
        let mut gin_layers = Vec::new();
        let mut gat_layers = Vec::new();
        match kind {
            BaselineKind::Gin => {
                for l in 0..config.iterations {
                    let mlp = Mlp::new(
                        &mut store,
                        &format!("gin{l}"),
                        &[h, h, h],
                        Activation::Relu,
                        &mut rng,
                    );
                    let eps = store.add_zeros(format!("gin{l}.eps"), 1);
                    gin_layers.push(GinLayer { mlp, eps });
                }
            }
            BaselineKind::Gat => {
                assert!(
                    h.is_multiple_of(config.attention_heads),
                    "hidden must divide by attention heads"
                );
                let hd = h / config.attention_heads;
                for l in 0..config.iterations {
                    let heads = (0..config.attention_heads)
                        .map(|i| GatHead {
                            w: store.add_glorot(format!("gat{l}.{i}.w"), hd, h, &mut rng),
                            a: store.add_glorot(format!("gat{l}.{i}.a"), 1, 2 * hd, &mut rng),
                        })
                        .collect();
                    gat_layers.push(GatLayer { heads });
                }
            }
        }
        let mlp_tput = Mlp::new(
            &mut store,
            "mlp_tput",
            &[h, h, 1],
            Activation::Relu,
            &mut rng,
        );
        let mlp_latency = Mlp::new(
            &mut store,
            "mlp_latency",
            &[h, h, 1],
            Activation::Relu,
            &mut rng,
        );
        let name = match kind {
            BaselineKind::Gin => "GIN",
            BaselineKind::Gat => "GAT",
        };
        Self {
            name: name.to_string(),
            kind,
            config,
            store,
            encoder,
            gin_layers,
            gat_layers,
            mlp_tput,
            mlp_latency,
        }
    }

    /// Rename the model (e.g. `GIN*` for the raw-feature variant).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The architecture kind.
    pub fn kind(&self) -> BaselineKind {
        self.kind
    }

    fn gin_forward(&self, tape: &mut Tape, homo: &HomoGraph, mut h: Vec<Var>) -> Vec<Var> {
        for layer in &self.gin_layers {
            let eps = tape.param(&self.store, layer.eps);
            let one = tape.leaf(Tensor::scalar(1.0));
            let eps_p1 = tape.add(eps, one);
            let mut next = Vec::with_capacity(h.len());
            for (v, neigh) in homo.adj.iter().enumerate() {
                // (1 + eps) * h_v via a length-1 weighted sum.
                let selfed = tape.weighted_sum(eps_p1, &[h[v]]);
                let agg = if neigh.is_empty() {
                    selfed
                } else {
                    // Sum of neighbors = mean * count.
                    let items: Vec<Var> = neigh.iter().map(|&u| h[u]).collect();
                    let mean = tape.mean_vecs(&items);
                    let sum = tape.affine(mean, items.len() as f64, 0.0);
                    tape.add(selfed, sum)
                };
                next.push(layer.mlp.forward(tape, &self.store, agg));
            }
            h = next;
        }
        h
    }

    fn gat_forward(&self, tape: &mut Tape, homo: &HomoGraph, mut h: Vec<Var>) -> Vec<Var> {
        let last = self.gat_layers.len().saturating_sub(1);
        for (li, layer) in self.gat_layers.iter().enumerate() {
            let mut per_head: Vec<Vec<Var>> = Vec::with_capacity(layer.heads.len());
            for head in &layer.heads {
                let w = tape.param(&self.store, head.w);
                let a = tape.param(&self.store, head.a);
                // Transform all node features once.
                let wh: Vec<Var> = h.iter().map(|&x| tape.matvec(w, x)).collect();
                let mut out = Vec::with_capacity(h.len());
                for (v, neigh) in homo.adj.iter().enumerate() {
                    // Self-loop plus neighbors.
                    let mut nbrs: Vec<usize> = Vec::with_capacity(neigh.len() + 1);
                    nbrs.push(v);
                    nbrs.extend_from_slice(neigh);
                    let scores: Vec<Var> = nbrs
                        .iter()
                        .map(|&u| {
                            let cat = tape.concat(&[wh[v], wh[u]]);
                            let s = tape.matvec(a, cat);
                            tape.leaky_relu(s, self.config.leaky_slope)
                        })
                        .collect();
                    let stacked = tape.stack_scalars(&scores);
                    let alpha = tape.softmax(stacked);
                    let items: Vec<Var> = nbrs.iter().map(|&u| wh[u]).collect();
                    out.push(tape.weighted_sum(alpha, &items));
                }
                per_head.push(out);
            }
            // Concat heads per node, nonlinearity between layers.
            let mut next = Vec::with_capacity(h.len());
            for v in 0..h.len() {
                let parts: Vec<Var> = per_head.iter().map(|ho| ho[v]).collect();
                let cat = tape.concat(&parts);
                next.push(if li < last { tape.tanh(cat) } else { cat });
            }
            h = next;
        }
        h
    }

    /// Forward pass returning per-chain raw outputs in learning space.
    pub fn forward(&self, tape: &mut Tape, graph: &PlacementGraph) -> Vec<(Var, Var)> {
        let homo = HomoGraph::from_placement(graph);
        let h0: Vec<Var> = homo
            .node_feats
            .iter()
            .map(|f| {
                let x = tape.leaf(Tensor::from_vec(f.clone()));
                self.encoder.forward(tape, &self.store, x)
            })
            .collect();
        let h = match self.kind {
            BaselineKind::Gin => self.gin_forward(tape, &homo, h0),
            BaselineKind::Gat => self.gat_forward(tape, &homo, h0),
        };
        homo.chain_fragments
            .iter()
            .map(|frag_ids| {
                let items: Vec<Var> = frag_ids.iter().map(|&id| h[id]).collect();
                let readout = tape.mean_vecs(&items);
                let t_raw = self.mlp_tput.forward(tape, &self.store, readout);
                let l_raw = self.mlp_latency.forward(tape, &self.store, readout);
                match self.config.target_mode {
                    TargetMode::Ratio => (tape.sigmoid(t_raw), tape.sigmoid(l_raw)),
                    TargetMode::Absolute => (t_raw, l_raw),
                }
            })
            .collect()
    }
}

impl Surrogate for BaselineGnn {
    fn name(&self) -> &str {
        &self.name
    }

    fn config(&self) -> &ModelConfig {
        &self.config
    }

    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    #[expect(
        clippy::expect_used,
        reason = "SystemModel validation rejects graphs with zero chains"
    )]
    fn loss_on_graph(
        &self,
        tape: &mut Tape,
        graph: &PlacementGraph,
        targets: &[ChainTargets],
    ) -> Var {
        assert_eq!(graph.num_chains(), targets.len(), "target count mismatch");
        let outputs = self.forward(tape, graph);
        let mut total: Option<Var> = None;
        for (i, (t_out, l_out)) in outputs.into_iter().enumerate() {
            let (t_gt, l_gt) =
                targets_to_learning_space(self.config.target_mode, graph, i, targets[i]);
            let t_leaf = tape.leaf(Tensor::scalar(t_gt));
            let l_leaf = tape.leaf(Tensor::scalar(l_gt));
            let t_err = tape.squared_error(t_out, t_leaf);
            let l_err = tape.squared_error(l_out, l_leaf);
            let s = tape.add(t_err, l_err);
            total = Some(match total {
                Some(acc) => tape.add(acc, s),
                None => s,
            });
        }
        total.expect("graph has at least one chain")
    }

    fn predict(&self, graph: &PlacementGraph) -> Vec<PerfPrediction> {
        let mut tape = Tape::new();
        let outputs = self.forward(&mut tape, graph);
        outputs
            .into_iter()
            .enumerate()
            .map(|(i, (t, l))| {
                let t_val = tape.value(t).item();
                let l_val = tape.value(l).item();
                let (throughput, latency) =
                    outputs_to_natural_units(self.config.target_mode, graph, i, t_val, l_val);
                PerfPrediction {
                    throughput,
                    latency,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};

    fn model() -> SystemModel {
        let devices = vec![
            Device::new(20.0, 1.0).unwrap(),
            Device::new(20.0, 2.0).unwrap(),
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
            ServiceChain::new(0.2, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap(),
        ];
        let placement = Placement::new(vec![vec![0, 1], vec![1]]);
        SystemModel::new(devices, chains, placement).unwrap()
    }

    fn cfg() -> ModelConfig {
        ModelConfig::small()
    }

    #[test]
    fn gin_predicts_per_chain() {
        let net = BaselineGnn::new(BaselineKind::Gin, cfg(), 1);
        let graph = PlacementGraph::from_model(&model(), cfg().feature_mode);
        let preds = net.predict(&graph);
        assert_eq!(preds.len(), 2);
        assert!(preds[0].throughput <= 0.5 + 1e-9);
    }

    #[test]
    fn gat_predicts_per_chain() {
        let net = BaselineGnn::new(BaselineKind::Gat, cfg(), 1);
        let graph = PlacementGraph::from_model(&model(), cfg().feature_mode);
        let preds = net.predict(&graph);
        assert_eq!(preds.len(), 2);
        for p in preds {
            assert!(p.throughput.is_finite() && p.latency.is_finite());
        }
    }

    #[test]
    fn gradients_flow_in_both_baselines() {
        for kind in [BaselineKind::Gin, BaselineKind::Gat] {
            let mut net = BaselineGnn::new(kind, cfg(), 2);
            let graph = PlacementGraph::from_model(&model(), cfg().feature_mode);
            let targets = vec![
                ChainTargets {
                    throughput: 0.4,
                    latency: 3.0,
                },
                ChainTargets {
                    throughput: 0.2,
                    latency: 1.0,
                },
            ];
            let mut tape = Tape::new();
            let loss = net.loss_on_graph(&mut tape, &graph, &targets);
            tape.backward(loss);
            tape.accumulate_param_grads(net.params_mut());
            assert!(
                net.params().grad_norm() > 0.0,
                "{kind:?} received no gradient"
            );
        }
    }

    #[test]
    fn gin_training_step_reduces_loss() {
        use chainnet_neural::optim::Adam;
        let mut net = BaselineGnn::new(BaselineKind::Gin, cfg(), 3);
        let graph = PlacementGraph::from_model(&model(), cfg().feature_mode);
        let targets = vec![
            ChainTargets {
                throughput: 0.4,
                latency: 3.0,
            },
            ChainTargets {
                throughput: 0.2,
                latency: 1.0,
            },
        ];
        let loss_of = |net: &BaselineGnn| {
            let mut tape = Tape::new();
            let l = net.loss_on_graph(&mut tape, &graph, &targets);
            tape.value(l).item()
        };
        let before = loss_of(&net);
        let mut adam = Adam::new(0.01);
        for _ in 0..15 {
            let mut tape = Tape::new();
            let loss = net.loss_on_graph(&mut tape, &graph, &targets);
            tape.backward(loss);
            tape.accumulate_param_grads(net.params_mut());
            adam.step(net.params_mut());
        }
        assert!(loss_of(&net) < before);
    }

    #[test]
    fn layer_counts_match_config() {
        let gin = BaselineGnn::new(BaselineKind::Gin, ModelConfig::paper_gin(), 0);
        assert_eq!(gin.gin_layers.len(), 12);
        let gat = BaselineGnn::new(BaselineKind::Gat, ModelConfig::paper_gat(), 0);
        assert_eq!(gat.gat_layers.len(), 8);
        assert_eq!(gat.gat_layers[0].heads.len(), 2);
    }

    #[test]
    fn names_reflect_kind() {
        assert_eq!(BaselineGnn::new(BaselineKind::Gin, cfg(), 0).name(), "GIN");
        let starred = BaselineGnn::new(BaselineKind::Gat, cfg(), 0).with_name("GAT*");
        assert_eq!(starred.name(), "GAT*");
    }
}
