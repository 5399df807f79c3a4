//! The ChainNet model: customized message passing over execution
//! sequences (Section V) with graph-attention aggregation for devices
//! shared by multiple chains (Section VI-A), and concurrent throughput /
//! latency prediction heads (Eq. 12).

use crate::config::{ModelConfig, TargetMode};
use crate::data::{outputs_to_natural_units, targets_to_learning_space, ChainTargets};
use crate::graph::PlacementGraph;
use crate::graph_batch::GraphBatch;
use chainnet_neural::layers::{Activation, GruCell, Linear, Mlp};
use chainnet_neural::params::{ParamId, ParamStore};
/// The autodiff tape [`Surrogate`] forwards record on, re-exported so a
/// caller that keeps one across [`Surrogate::predict_batch_with`] calls
/// can name it.
pub use chainnet_neural::tape::Tape;
use chainnet_neural::tape::Var;
use chainnet_neural::tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Natural-unit prediction for one service chain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfPrediction {
    /// Predicted system throughput `X_i`.
    pub throughput: f64,
    /// Predicted end-to-end latency `L_i`.
    pub latency: f64,
}

/// A trained (or trainable) surrogate that maps placement graphs to
/// per-chain performance predictions.
///
/// Implemented by [`ChainNet`] and the GIN/GAT baselines; the trainer and
/// the optimizer are generic over this trait.
pub trait Surrogate {
    /// Human-readable model name.
    fn name(&self) -> &str;

    /// The model configuration.
    fn config(&self) -> &ModelConfig;

    /// Trainable parameters.
    fn params(&self) -> &ParamStore;

    /// Mutable access to trainable parameters (for the optimizer).
    fn params_mut(&mut self) -> &mut ParamStore;

    /// Build the joint MSE loss (Eq. 13 numerator terms) of one graph on
    /// the tape, in learning space. Returns the *sum* over chains of
    /// `(X̂ - X)² + (L̂ - L)²`; the trainer divides by `2Q`.
    fn loss_on_graph(
        &self,
        tape: &mut Tape,
        graph: &PlacementGraph,
        targets: &[ChainTargets],
    ) -> Var;

    /// Predict per-chain performance in natural units.
    fn predict(&self, graph: &PlacementGraph) -> Vec<PerfPrediction>;

    /// Predict a whole batch of graphs at once, returning one prediction
    /// vector per graph, in input order.
    ///
    /// This is [`Surrogate::predict_batch_with`] on a fresh tape.
    fn predict_batch(&self, graphs: &[PlacementGraph]) -> Vec<Vec<PerfPrediction>> {
        self.predict_batch_with(&mut Tape::new(), graphs)
    }

    /// [`Surrogate::predict_batch`] on a caller-owned tape, which the
    /// forward [`reset`](Tape::reset)s before use. A search that scores
    /// many batches passes the same tape every time, so after the first
    /// forward its buffers are reused instead of reallocated; the
    /// predictions do not depend on what the tape held before.
    ///
    /// The default implementation ignores the tape and loops over
    /// [`Surrogate::predict`]; models with a batched forward pass
    /// (ChainNet) override it to evaluate all graphs in stacked matrix
    /// operations. Implementations must return throughput
    /// **bit-identical** to the sequential loop — the SA objective reads
    /// only throughput, and the neighborhood search depends on batched
    /// and sequential scoring being interchangeable — and latency within
    /// `1e-12` relative of it.
    fn predict_batch_with(
        &self,
        _tape: &mut Tape,
        graphs: &[PlacementGraph],
    ) -> Vec<Vec<PerfPrediction>> {
        graphs.iter().map(|g| self.predict(g)).collect()
    }
}

/// One attention head for shared-device message aggregation (Eqs. 14–16).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct AttentionHead {
    /// Scoring matrix `W` applied to `[h_k || m_t]` (hidden × 3·hidden).
    pub(crate) w_score: ParamId,
    /// Scoring vector `a` (hidden).
    pub(crate) a: ParamId,
    /// Value transform applied to each message (2·hidden/heads × 2·hidden).
    pub(crate) w_msg: ParamId,
}

/// The ChainNet surrogate model.
///
/// # Examples
///
/// ```
/// use chainnet::config::ModelConfig;
/// use chainnet::graph::PlacementGraph;
/// use chainnet::model::{ChainNet, Surrogate};
/// use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};
///
/// # fn main() -> Result<(), chainnet_qsim::QsimError> {
/// let cfg = ModelConfig::small();
/// let net = ChainNet::new(cfg, 0);
/// let devices = vec![Device::new(10.0, 1.0)?, Device::new(10.0, 1.0)?];
/// let chains = vec![ServiceChain::new(
///     0.5,
///     vec![Fragment::new(1.0, 1.0)?, Fragment::new(1.0, 1.0)?],
/// )?];
/// let model = SystemModel::new(devices, chains, Placement::new(vec![vec![0, 1]]))?;
/// let graph = PlacementGraph::from_model(&model, cfg.feature_mode);
/// let preds = net.predict(&graph);
/// assert_eq!(preds.len(), 1);
/// assert!(preds[0].throughput >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainNet {
    name: String,
    pub(crate) config: ModelConfig,
    pub(crate) store: ParamStore,
    pub(crate) enc_service: Linear,
    pub(crate) enc_frag: Linear,
    pub(crate) enc_dev: Linear,
    pub(crate) phi_c: GruCell,
    pub(crate) phi_f: GruCell,
    pub(crate) phi_d: GruCell,
    pub(crate) attention: Vec<AttentionHead>,
    pub(crate) mlp_tput: Mlp,
    pub(crate) mlp_latency: Mlp,
}

impl ChainNet {
    /// Create a ChainNet with Glorot-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if `config.hidden` is not divisible by `2·attention_heads`
    /// (each head outputs `2·hidden / heads` features so that the
    /// concatenated aggregate matches the 2·hidden message width).
    pub fn new(config: ModelConfig, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let h = config.hidden;
        let msg = 2 * h;
        assert!(
            msg.is_multiple_of(config.attention_heads),
            "2*hidden must be divisible by attention heads"
        );
        let head_out = msg / config.attention_heads;

        let enc_service = Linear::new(
            &mut store,
            "enc_service",
            config.feature_mode.service_dim(),
            h,
            &mut rng,
        );
        let enc_frag = Linear::new(
            &mut store,
            "enc_frag",
            config.feature_mode.fragment_dim(),
            h,
            &mut rng,
        );
        let enc_dev = Linear::new(
            &mut store,
            "enc_dev",
            config.feature_mode.device_dim(),
            h,
            &mut rng,
        );
        let phi_c = GruCell::new(&mut store, "phi_c", msg, h, &mut rng);
        let phi_f = GruCell::new(&mut store, "phi_f", msg, h, &mut rng);
        let phi_d = GruCell::new(&mut store, "phi_d", msg, h, &mut rng);
        let attention = (0..config.attention_heads)
            .map(|i| AttentionHead {
                w_score: store.add_glorot(format!("att{i}.w_score"), h, h + msg, &mut rng),
                a: store.add_glorot(format!("att{i}.a"), 1, h, &mut rng),
                w_msg: store.add_glorot(format!("att{i}.w_msg"), head_out, msg, &mut rng),
            })
            .collect();
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

        Self {
            name: "ChainNet".to_string(),
            config,
            store,
            enc_service,
            enc_frag,
            enc_dev,
            phi_c,
            phi_f,
            phi_d,
            attention,
            mlp_tput,
            mlp_latency,
        }
    }

    /// Rename the model (used by the ablation variants).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Attention aggregation `f_multi` over device messages (Eqs. 14–16).
    /// Scores use `e = a^T LeakyReLU(W [h_k || m_t])`; weights are
    /// softmax-normalized; each head emits `Σ_t α_t W_msg m_t` and head
    /// outputs are concatenated back to message width.
    fn aggregate_device_messages(&self, tape: &mut Tape, h_dev: Var, msgs: &[Var]) -> Var {
        debug_assert!(msgs.len() > 1);
        let mut head_outputs = Vec::with_capacity(self.attention.len());
        for head in &self.attention {
            let w_score = tape.param(&self.store, head.w_score);
            let a = tape.param(&self.store, head.a);
            let w_msg = tape.param(&self.store, head.w_msg);
            let scores: Vec<Var> = msgs
                .iter()
                .map(|&m| {
                    let cat = tape.concat(&[h_dev, m]);
                    let lin = tape.matvec(w_score, cat);
                    let act = tape.leaky_relu(lin, self.config.leaky_slope);
                    // a is stored as a 1×h matrix; matvec yields the scalar.
                    tape.matvec(a, act)
                })
                .collect();
            let stacked = tape.stack_scalars(&scores);
            let weights = tape.softmax(stacked);
            let transformed: Vec<Var> = msgs.iter().map(|&m| tape.matvec(w_msg, m)).collect();
            head_outputs.push(tape.weighted_sum(weights, &transformed));
        }
        tape.concat(&head_outputs)
    }

    /// Natural-unit prediction for chain `i` of `graph` from its
    /// learning-space outputs.
    fn natural_units(
        &self,
        graph: &PlacementGraph,
        i: usize,
        t_val: f64,
        l_val: f64,
    ) -> PerfPrediction {
        let (throughput, latency) =
            outputs_to_natural_units(self.config.target_mode, graph, i, t_val, l_val);
        PerfPrediction {
            throughput,
            latency,
        }
    }

    /// Run the full forward pass (Algorithm 2), returning per-chain raw
    /// outputs `(throughput, latency)` in learning space.
    pub fn forward(&self, tape: &mut Tape, graph: &PlacementGraph) -> Vec<(Var, Var)> {
        let store = &self.store;
        // Line 1: initialize embeddings from input features.
        let mut h_service: Vec<Var> = graph
            .chains
            .iter()
            .map(|c| {
                let x = tape.leaf(Tensor::from_vec(c.service_feat.clone()));
                self.enc_service.forward(tape, store, x)
            })
            .collect();
        let mut h_frag: Vec<Vec<Var>> = graph
            .chains
            .iter()
            .map(|c| {
                c.steps
                    .iter()
                    .map(|s| {
                        let x = tape.leaf(Tensor::from_vec(s.frag_feat.clone()));
                        self.enc_frag.forward(tape, store, x)
                    })
                    .collect()
            })
            .collect();
        let mut h_dev: Vec<Var> = graph
            .devices
            .iter()
            .map(|d| {
                let x = tape.leaf(Tensor::from_vec(d.feat.clone()));
                self.enc_dev.forward(tape, store, x)
            })
            .collect();

        // Lines 2-16: N message-passing iterations.
        for _ in 0..self.config.iterations {
            // Snapshot h_j^{(n-1)}: messages must reference pre-update
            // fragment embeddings (Eqs. 6 and 10).
            let frag_prev = h_frag.clone();
            // Per-step service embeddings h_i^{(n),j} for device messages.
            let mut step_service: Vec<Vec<Var>> = graph
                .chains
                .iter()
                .map(|c| Vec::with_capacity(c.steps.len()))
                .collect();

            // Lines 3-11: traverse each execution sequence.
            for (i, chain) in graph.chains.iter().enumerate() {
                let mut h_i = h_service[i];
                for (j, step) in chain.steps.iter().enumerate() {
                    // Eq. 6: m_C = [h_j^(n-1) || h_k^(n-1)].
                    let m_c = tape.concat(&[frag_prev[i][j], h_dev[step.device]]);
                    // Eq. 4: recurrent service update.
                    h_i = self.phi_c.forward(tape, store, m_c, h_i);
                    step_service[i].push(h_i);
                    // Eq. 8: m_F = [h_i^(n),j || h_k^(n-1)].
                    let m_f = tape.concat(&[h_i, h_dev[step.device]]);
                    // Eq. 7: fragment update.
                    h_frag[i][j] = self.phi_f.forward(tape, store, m_f, frag_prev[i][j]);
                }
                // Eq. 5: carry the final embedding to the next iteration.
                h_service[i] = h_i;
            }

            // Lines 12-15: device updates, after all chains.
            for (k, dev) in graph.devices.iter().enumerate() {
                let msgs: Vec<Var> = dev
                    .steps
                    .iter()
                    .map(|&(i, j)| {
                        // Eq. 10: m_D = [h_i^(n),j || h_j^(n-1)].
                        tape.concat(&[step_service[i][j], frag_prev[i][j]])
                    })
                    .collect();
                let m_d = if msgs.len() == 1 {
                    msgs[0]
                } else {
                    // Eqs. 14-16: attention over execution steps.
                    self.aggregate_device_messages(tape, h_dev[k], &msgs)
                };
                // Eq. 9.
                h_dev[k] = self.phi_d.forward(tape, store, m_d, h_dev[k]);
            }
        }

        // Line 17 / Eq. 12: prediction heads.
        graph
            .chains
            .iter()
            .enumerate()
            .map(|(i, _chain)| {
                let tput_latent = h_service[i];
                let lat_latent = match self.config.target_mode {
                    // Generalized design: average of fragment embeddings.
                    TargetMode::Ratio => tape.mean_vecs(&h_frag[i]),
                    // Non-generalized design: sum (mean scaled by T_i).
                    TargetMode::Absolute => {
                        let mean = tape.mean_vecs(&h_frag[i]);
                        tape.affine(mean, h_frag[i].len() as f64, 0.0)
                    }
                };
                let t_raw = self.mlp_tput.forward(tape, store, tput_latent);
                let l_raw = self.mlp_latency.forward(tape, store, lat_latent);
                match self.config.target_mode {
                    // Ratios live in (0,1): squash with a sigmoid.
                    TargetMode::Ratio => (tape.sigmoid(t_raw), tape.sigmoid(l_raw)),
                    TargetMode::Absolute => (t_raw, l_raw),
                }
            })
            .collect()
    }
}

impl Surrogate for ChainNet {
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
                self.natural_units(graph, i, tape.value(t).item(), tape.value(l).item())
            })
            .collect()
    }

    /// Batched inference through the padded [`ChainNet::batched_forward`]
    /// that training also runs: one tape forward over the whole batch,
    /// for graphs of any shape (different chain, step, or device counts
    /// mix freely). Throughput is bit-identical to [`Surrogate::predict`];
    /// latency agrees to within `1e-12` relative (see
    /// `tests/batched_inference.rs`).
    fn predict_batch_with(
        &self,
        tape: &mut Tape,
        graphs: &[PlacementGraph],
    ) -> Vec<Vec<PerfPrediction>> {
        if graphs.is_empty() {
            return Vec::new();
        }
        let refs: Vec<&PlacementGraph> = graphs.iter().collect();
        let batch = GraphBatch::pack(&refs, self.config.target_mode);
        tape.reset();
        let outputs = self.batched_forward(tape, &self.store, &batch);
        graphs
            .iter()
            .enumerate()
            .map(|(b, graph)| {
                outputs[..graph.num_chains()]
                    .iter()
                    .enumerate()
                    .map(|(i, &(t, l))| {
                        let (t_val, l_val) = (tape.value(t).data()[b], tape.value(l).data()[b]);
                        self.natural_units(graph, i, t_val, l_val)
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FeatureMode;
    use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};

    fn shared_device_model() -> SystemModel {
        let devices = vec![
            Device::new(20.0, 1.0).unwrap(),
            Device::new(20.0, 2.0).unwrap(),
            Device::new(20.0, 1.5).unwrap(),
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
                0.3,
                vec![
                    Fragment::new(1.0, 0.5).unwrap(),
                    Fragment::new(1.0, 1.0).unwrap(),
                    Fragment::new(1.0, 1.5).unwrap(),
                ],
            )
            .unwrap(),
        ];
        // Device 1 is shared by both chains.
        let placement = Placement::new(vec![vec![0, 1], vec![1, 2, 0]]);
        SystemModel::new(devices, chains, placement).unwrap()
    }

    fn small_net() -> ChainNet {
        ChainNet::new(ModelConfig::small(), 7)
    }

    #[test]
    fn forward_emits_one_output_pair_per_chain() {
        let net = small_net();
        let graph = PlacementGraph::from_model(&shared_device_model(), net.config.feature_mode);
        let mut tape = Tape::new();
        let out = net.forward(&mut tape, &graph);
        assert_eq!(out.len(), 2);
        for (t, l) in out {
            assert_eq!(tape.value(t).len(), 1);
            assert_eq!(tape.value(l).len(), 1);
        }
    }

    #[test]
    fn ratio_outputs_are_in_unit_interval() {
        let net = small_net();
        let graph = PlacementGraph::from_model(&shared_device_model(), net.config.feature_mode);
        let mut tape = Tape::new();
        for (t, l) in net.forward(&mut tape, &graph) {
            let tv = tape.value(t).item();
            let lv = tape.value(l).item();
            assert!((0.0..=1.0).contains(&tv), "tput ratio {tv}");
            assert!((0.0..=1.0).contains(&lv), "lat ratio {lv}");
        }
    }

    #[test]
    fn predictions_in_natural_units_respect_arrival_rate() {
        let net = small_net();
        let graph = PlacementGraph::from_model(&shared_device_model(), net.config.feature_mode);
        let preds = net.predict(&graph);
        assert!(preds[0].throughput <= 0.5 + 1e-9);
        assert!(preds[1].throughput <= 0.3 + 1e-9);
        // Latency at least the total processing time (ratio <= 1).
        assert!(preds[0].latency >= graph.chains[0].total_processing - 1e-9);
    }

    #[test]
    fn forward_is_deterministic() {
        let net = small_net();
        let graph = PlacementGraph::from_model(&shared_device_model(), net.config.feature_mode);
        let a = net.predict(&graph);
        let b = net.predict(&graph);
        assert_eq!(a, b);
    }

    #[test]
    fn loss_is_finite_and_nonnegative() {
        let net = small_net();
        let graph = PlacementGraph::from_model(&shared_device_model(), net.config.feature_mode);
        let targets = vec![
            ChainTargets {
                throughput: 0.45,
                latency: 4.0,
            },
            ChainTargets {
                throughput: 0.2,
                latency: 6.0,
            },
        ];
        let mut tape = Tape::new();
        let loss = net.loss_on_graph(&mut tape, &graph, &targets);
        let v = tape.value(loss).item();
        assert!(v.is_finite() && v >= 0.0);
    }

    #[test]
    fn gradients_reach_every_parameter_group() {
        let mut net = small_net();
        let graph = PlacementGraph::from_model(&shared_device_model(), net.config.feature_mode);
        let targets = vec![
            ChainTargets {
                throughput: 0.45,
                latency: 4.0,
            },
            ChainTargets {
                throughput: 0.2,
                latency: 6.0,
            },
        ];
        let mut tape = Tape::new();
        let loss = net.loss_on_graph(&mut tape, &graph, &targets);
        tape.backward(loss);
        let store = net.params_mut();
        tape.accumulate_param_grads(store);
        let with_grad = store
            .ids()
            .filter(|&id| store.grad(id).data().iter().any(|&g| g != 0.0))
            .count();
        // Every tensor should be touched: encoders, three GRUs, attention
        // (device 1 is shared), both MLPs.
        assert_eq!(with_grad, store.len(), "all parameters receive gradient");
    }

    #[test]
    fn one_training_step_reduces_loss() {
        use chainnet_neural::optim::Adam;
        let mut net = small_net();
        let graph = PlacementGraph::from_model(&shared_device_model(), net.config.feature_mode);
        let targets = vec![
            ChainTargets {
                throughput: 0.45,
                latency: 4.0,
            },
            ChainTargets {
                throughput: 0.2,
                latency: 6.0,
            },
        ];
        let loss_value = |net: &ChainNet| {
            let mut tape = Tape::new();
            let l = net.loss_on_graph(&mut tape, &graph, &targets);
            tape.value(l).item()
        };
        let before = loss_value(&net);
        let mut adam = Adam::new(0.01);
        for _ in 0..20 {
            let mut tape = Tape::new();
            let loss = net.loss_on_graph(&mut tape, &graph, &targets);
            tape.backward(loss);
            tape.accumulate_param_grads(net.params_mut());
            adam.step(net.params_mut());
        }
        let after = loss_value(&net);
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    fn absolute_mode_predicts_unbounded_targets() {
        let cfg = ModelConfig::small()
            .with_feature_mode(FeatureMode::Original)
            .with_target_mode(TargetMode::Absolute);
        let net = ChainNet::new(cfg, 3);
        let graph = PlacementGraph::from_model(&shared_device_model(), cfg.feature_mode);
        let preds = net.predict(&graph);
        // No constraint ties absolute outputs to lambda; just finiteness.
        for p in preds {
            assert!(p.throughput.is_finite());
            assert!(p.latency.is_finite());
        }
    }

    /// Whether one loss on `model` gives any attention parameter of a
    /// fresh network a nonzero gradient.
    fn attention_receives_gradient(model: &SystemModel) -> bool {
        let mut net = small_net();
        let graph = PlacementGraph::from_model(model, net.config.feature_mode);
        let target = ChainTargets {
            throughput: 0.3,
            latency: 4.0,
        };
        let targets = vec![target; graph.num_chains()];
        let mut tape = Tape::new();
        let loss = net.loss_on_graph(&mut tape, &graph, &targets);
        tape.backward(loss);
        tape.accumulate_param_grads(net.params_mut());
        net.attention
            .iter()
            .flat_map(|head| [head.w_score, head.a, head.w_msg])
            .any(|id| net.params().grad(id).data().iter().any(|&g| g != 0.0))
    }

    #[test]
    fn attention_is_exercised_by_shared_devices() {
        // With a shared device the attention parameters must receive
        // gradient.
        assert!(attention_receives_gradient(&shared_device_model()));
    }

    #[test]
    fn no_attention_records_without_shared_devices() {
        // Without a shared device attention never runs, so its parameters
        // receive no gradient.
        let devices = vec![
            Device::new(10.0, 1.0).unwrap(),
            Device::new(10.0, 1.0).unwrap(),
        ];
        let chains = vec![ServiceChain::new(
            0.5,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
            ],
        )
        .unwrap()];
        let unshared = SystemModel::new(devices, chains, Placement::new(vec![vec![0, 1]])).unwrap();
        assert!(!attention_receives_gradient(&unshared));
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let net = small_net();
        let graph = PlacementGraph::from_model(&shared_device_model(), net.config.feature_mode);
        let json = serde_json::to_string(&net).unwrap();
        let back: ChainNet = serde_json::from_str(&json).unwrap();
        assert_eq!(net.predict(&graph), back.predict(&graph));
    }
}
