//! Mini-batch packing of placement heterographs and the batched forward.
//!
//! [`GraphBatch`] packs `B` placement graphs into one padded, masked
//! batch: every algorithm slot of ChainNet's forward pass (per-chain
//! service state, per-step fragment state, per-device state) becomes a
//! `(B, h)` matrix with one row per graph, padded to the maximum
//! chain/step/device counts across the batch. [`ChainNet::batched_forward`]
//! then runs Algorithm 2 *on the tape* with the row-batched ops
//! (`matmul_bt`, `select_rows`, `masked_softmax_rows`,
//! `weighted_sum_rows`), so each GRU step, attention head, and readout is
//! a few large matmuls instead of `B` small matvecs. It is the one
//! batched forward: training reduces its outputs to a masked loss
//! ([`ChainNet::batched_loss`]) and inference reads them row by row
//! ([`crate::model::Surrogate::predict_batch`]), for graphs of any shape.
//!
//! # Padding and masking scheme
//!
//! * **Chain slots** `i < C_max` and **step slots** `(i, j)` with
//!   `j < T_max(i)`: graphs with fewer chains or shorter chains
//!   contribute zero feature rows. Recurrent updates are *blended* with
//!   `select_rows([updated, previous], pad)` so padded rows carry their
//!   old state instead of garbage — valid rows take the GRU output
//!   verbatim, keeping their arithmetic bit-identical to the sequential
//!   tape (the matmul kernels share one accumulation-order contract).
//! * **Device slots** `k < D_max`, attention width `T_max(k)`: each
//!   graph's execution-step list for device `k` is padded to the widest
//!   in the batch. Padded score entries are masked out of the softmax
//!   ([`chainnet_neural::tape::Tape::masked_softmax_rows`]) and receive
//!   weight exactly `0`, so they cannot perturb valid rows. Graphs where
//!   the device hosts a single step bypass attention row-wise (the
//!   sequential path's `msgs.len() == 1` branch) via another
//!   `select_rows` blend.
//! * **Loss masking**: per-chain outputs of padded rows are routed to a
//!   zero leaf before the squared error (targets, packed separately by
//!   [`GraphBatch::pack_targets`], are zero there too), so the batch
//!   loss is the *sum over real chains only* — the same Eq. 13 numerator
//!   the sequential [`crate::model::Surrogate::loss_on_graph`] builds,
//!   and the trainer's `1/(2Q)` scale uses [`GraphBatch::total_chains`].
//!
//! The only intentional numeric deviation from the sequential tape is
//! the latency readout: the per-chain fragment mean becomes one
//! `weighted_sum_rows` with weights `1/T_i` (`Ratio` mode) or `1`
//! (`Absolute` mode, where the sequential path computes `(Σv/T)·T`),
//! which reassociates the division by `T_i`. Throughput outputs are
//! therefore bit-identical to the sequential forward, and latency
//! outputs agree to within rounding (the tests bound it at `1e-12`
//! relative for predictions and `1e-9` for losses and gradients).

use crate::config::{FeatureMode, TargetMode};
use crate::data::{targets_to_learning_space, ChainTargets};
use crate::graph::PlacementGraph;
use crate::model::{AttentionHead, ChainNet};
use chainnet_neural::params::ParamStore;
use chainnet_neural::scalar::Scalar;
use chainnet_neural::tape::{Tape, Var};
use chainnet_neural::tensor::Shape;

/// A batch of `B` placement graphs packed into padded, masked slot
/// matrices, ready for [`ChainNet::batched_forward`].
///
/// Packing is dtype-agnostic: features are stored as `f64` and cast to
/// the tape's scalar when the input leaves are created.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphBatch {
    /// Number of graphs `B`.
    batch_size: usize,
    /// Feature mode shared by every graph in the batch.
    feature_mode: FeatureMode,
    /// Target mode the latency-readout weights were computed for.
    target_mode: TargetMode,
    /// Step slots per chain slot: `T_max(i)`, length `C_max`.
    steps_per_chain: Vec<usize>,
    /// Attention width per device slot: `T_max(k)`, length `D_max`.
    steps_per_device: Vec<usize>,
    /// Flat step-slot index base: `flat(i, j) = step_offset[i] + j`.
    step_offset: Vec<usize>,
    /// Stacked service features, `[i] -> (B * service_dim)` row-major.
    service_feats: Vec<Vec<f64>>,
    /// Stacked fragment features, `[flat(i, j)] -> (B * fragment_dim)`.
    frag_feats: Vec<Vec<f64>>,
    /// Stacked device features, `[k] -> (B * device_dim)`.
    dev_feats: Vec<Vec<f64>>,
    /// Device slot of step `(i, j)` per graph, `[flat] -> B` choices
    /// (dummy `0` on padded rows).
    step_device: Vec<Vec<u32>>,
    /// Step-padding blend per step slot, `[flat] -> B`: `0` = real step
    /// (take the GRU update), `1` = padding (keep the previous state).
    step_pad: Vec<Vec<u32>>,
    /// Chain padding per chain slot, `[i] -> B`: `0` = real, `1` = padded.
    chain_pad: Vec<Vec<u32>>,
    /// Flat step slot feeding message `t` of device slot `k` per graph,
    /// `[k][t] -> B` choices (dummy `0` on padded rows).
    dev_step_src: Vec<Vec<Vec<u32>>>,
    /// Attention softmax mask, `[k] -> (B * T_max(k))` row-major:
    /// `true` where graph `b` really has a `t`-th step on device `k`.
    dev_attn_mask: Vec<Vec<bool>>,
    /// Attention-vs-single-message blend, `[k] -> B`: `0` = the device is
    /// shared (aggregate with attention), `1` = single step (Eq. 10
    /// verbatim).
    dev_m_choice: Vec<Vec<u32>>,
    /// Device padding blend, `[k] -> B`: `0` = update, `1` = keep.
    dev_pad: Vec<Vec<u32>>,
    /// Latency-readout weights, `[i] -> (B * T_max(i))`: `1/T_i` per
    /// valid step in `Ratio` mode, `1` in `Absolute` mode, `0` on padding.
    lat_weights: Vec<Vec<f64>>,
    /// Total number of real chains `Q` across the batch (the Eq. 13
    /// denominator is `2Q`).
    total_chains: usize,
}

impl GraphBatch {
    /// Pack `graphs` into one padded batch for a model whose latency
    /// readout follows `target_mode`.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty or the graphs disagree on the feature
    /// mode.
    pub fn pack(graphs: &[&PlacementGraph], target_mode: TargetMode) -> Self {
        assert!(!graphs.is_empty(), "GraphBatch::pack on an empty batch");
        let bsz = graphs.len();
        let feature_mode = graphs[0].feature_mode;
        for g in graphs {
            assert_eq!(
                g.feature_mode, feature_mode,
                "mixed feature modes in one batch"
            );
        }

        let c_max = graphs.iter().map(|g| g.chains.len()).max().unwrap_or(0);
        let d_max = graphs.iter().map(|g| g.devices.len()).max().unwrap_or(0);
        let steps_per_chain: Vec<usize> = (0..c_max)
            .map(|i| {
                graphs
                    .iter()
                    .map(|g| g.chains.get(i).map_or(0, |c| c.steps.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let steps_per_device: Vec<usize> = (0..d_max)
            .map(|k| {
                graphs
                    .iter()
                    .map(|g| g.devices.get(k).map_or(0, |d| d.steps.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let step_offset: Vec<usize> = steps_per_chain
            .iter()
            .scan(0usize, |acc, &t| {
                let base = *acc;
                *acc += t;
                Some(base)
            })
            .collect();

        let sdim = feature_mode.service_dim();
        let fdim = feature_mode.fragment_dim();
        let ddim = feature_mode.device_dim();

        // Stack one feature row per graph per slot; padded rows stay zero.
        let mut service_feats = vec![vec![0.0; bsz * sdim]; c_max];
        let total_steps: usize = steps_per_chain.iter().sum();
        let mut frag_feats = vec![vec![0.0; bsz * fdim]; total_steps];
        let mut dev_feats = vec![vec![0.0; bsz * ddim]; d_max];
        let mut step_device = vec![vec![0u32; bsz]; total_steps];
        let mut step_pad = vec![vec![1u32; bsz]; total_steps];
        let mut chain_pad = vec![vec![1u32; bsz]; c_max];
        let mut lat_weights: Vec<Vec<f64>> = steps_per_chain
            .iter()
            .map(|&t| vec![0.0; bsz * t])
            .collect();
        let mut total_chains = 0usize;

        for (b, graph) in graphs.iter().enumerate() {
            total_chains += graph.chains.len();
            for (i, chain) in graph.chains.iter().enumerate() {
                chain_pad[i][b] = 0;
                service_feats[i][b * sdim..(b + 1) * sdim].copy_from_slice(&chain.service_feat);
                let t_i = chain.steps.len();
                let step_w = match target_mode {
                    TargetMode::Ratio => 1.0 / t_i as f64,
                    // Sequential Absolute mode scales the mean back by
                    // T_i, i.e. a plain masked sum.
                    TargetMode::Absolute => 1.0,
                };
                for (j, step) in chain.steps.iter().enumerate() {
                    let flat = step_offset[i] + j;
                    frag_feats[flat][b * fdim..(b + 1) * fdim].copy_from_slice(&step.frag_feat);
                    step_device[flat][b] = step.device as u32;
                    step_pad[flat][b] = 0;
                    lat_weights[i][b * steps_per_chain[i] + j] = step_w;
                }
            }
            for (k, dev) in graph.devices.iter().enumerate() {
                dev_feats[k][b * ddim..(b + 1) * ddim].copy_from_slice(&dev.feat);
            }
        }

        let mut dev_step_src: Vec<Vec<Vec<u32>>> = steps_per_device
            .iter()
            .map(|&t| vec![vec![0u32; bsz]; t])
            .collect();
        let mut dev_attn_mask: Vec<Vec<bool>> = steps_per_device
            .iter()
            .map(|&t| vec![false; bsz * t])
            .collect();
        let mut dev_m_choice = vec![vec![1u32; bsz]; d_max];
        let mut dev_pad = vec![vec![1u32; bsz]; d_max];
        for (b, graph) in graphs.iter().enumerate() {
            for (k, dev) in graph.devices.iter().enumerate() {
                dev_pad[k][b] = 0;
                if dev.steps.len() > 1 {
                    dev_m_choice[k][b] = 0;
                }
                for (t, &(i, j)) in dev.steps.iter().enumerate() {
                    dev_step_src[k][t][b] = (step_offset[i] + j) as u32;
                    dev_attn_mask[k][b * steps_per_device[k] + t] = true;
                }
            }
        }

        Self {
            batch_size: bsz,
            feature_mode,
            target_mode,
            steps_per_chain,
            steps_per_device,
            step_offset,
            service_feats,
            frag_feats,
            dev_feats,
            step_device,
            step_pad,
            chain_pad,
            dev_step_src,
            dev_attn_mask,
            dev_m_choice,
            dev_pad,
            lat_weights,
            total_chains,
        }
    }

    /// Convert the per-chain `targets` of the graphs this batch was
    /// packed from (same graphs, same order) to learning space, laid out
    /// on the batch's chain slots for [`ChainNet::batched_loss`].
    ///
    /// # Panics
    ///
    /// Panics if `graphs` or `targets` is not aligned with the batch
    /// (outer and per-chain lengths).
    pub fn pack_targets(
        &self,
        graphs: &[&PlacementGraph],
        targets: &[&[ChainTargets]],
    ) -> BatchTargets {
        assert_eq!(graphs.len(), self.batch_size, "graph count mismatch");
        assert_eq!(graphs.len(), targets.len(), "graph/target count mismatch");
        let c_max = self.num_chain_slots();
        let mut tput = vec![vec![0.0; self.batch_size]; c_max];
        let mut lat = vec![vec![0.0; self.batch_size]; c_max];
        for (b, (graph, tgts)) in graphs.iter().zip(targets).enumerate() {
            assert_eq!(graph.num_chains(), tgts.len(), "target count mismatch");
            for (i, &t) in tgts.iter().enumerate() {
                let (t_gt, l_gt) = targets_to_learning_space(self.target_mode, graph, i, t);
                tput[i][b] = t_gt;
                lat[i][b] = l_gt;
            }
        }
        BatchTargets { tput, lat }
    }

    /// Number of graphs in the batch.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Total number of real (unpadded) chains `Q` across the batch.
    pub fn total_chains(&self) -> usize {
        self.total_chains
    }

    /// Number of chain slots `C_max` after padding.
    pub fn num_chain_slots(&self) -> usize {
        self.steps_per_chain.len()
    }

    /// Number of device slots `D_max` after padding.
    pub fn num_device_slots(&self) -> usize {
        self.steps_per_device.len()
    }
}

/// Learning-space targets of a [`GraphBatch`], one `B`-vector per chain
/// slot (zero on padded rows), from [`GraphBatch::pack_targets`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchTargets {
    /// Throughput targets, `[i] -> B`.
    tput: Vec<Vec<f64>>,
    /// Latency targets, `[i] -> B`.
    lat: Vec<Vec<f64>>,
}

/// The padding blend `select_rows([updated, previous], keep)`: row `b`
/// takes `updated` where `keep[b] == 0` and `previous` otherwise. When no
/// row keeps its previous state the blend is `updated` itself and no copy
/// is recorded. `updated` feeds nothing but the blend, so skipping the
/// copy changes no value and no parameter gradient.
fn blend<S: Scalar>(tape: &mut Tape<S>, updated: Var, previous: Var, keep: &[u32]) -> Var {
    if keep.iter().all(|&c| c == 0) {
        updated
    } else {
        tape.select_rows(&[updated, previous], keep)
    }
}

/// Create a `(rows, cols)` leaf from packed `f64` data, cast to `S`.
fn leaf_matrix<S: Scalar>(tape: &mut Tape<S>, rows: usize, cols: usize, data: &[f64]) -> Var {
    tape.leaf_from_iter(
        Shape::matrix(rows, cols),
        data.iter().map(|&x| S::from_f64(x)),
    )
}

impl ChainNet {
    /// Batched Eq. 13 numerator: the sum over every real chain of the
    /// batch of `(X̂ - X)² + (L̂ - L)²` in learning space, reduced on the
    /// tape from [`ChainNet::batched_forward`] with padded rows masked
    /// out. The trainer divides by `2Q` with [`GraphBatch::total_chains`].
    ///
    /// A `B = 1` batch reproduces
    /// [`crate::model::Surrogate::loss_on_graph`] to within rounding of
    /// the latency mean, and any `B > 1` batch matches the sum of
    /// sequential per-graph losses at the same tolerance.
    ///
    /// # Panics
    ///
    /// Panics as [`ChainNet::batched_forward`] does, or if `targets` was
    /// packed for a batch with a different chain-slot layout.
    #[expect(
        clippy::expect_used,
        reason = "pack() rejects empty batches and SystemModel validation rejects graphs with zero chains"
    )]
    pub fn batched_loss<S: Scalar>(
        &self,
        tape: &mut Tape<S>,
        store: &ParamStore<S>,
        batch: &GraphBatch,
        targets: &BatchTargets,
    ) -> Var {
        assert_eq!(
            targets.tput.len(),
            batch.num_chain_slots(),
            "targets packed for a different batch"
        );
        let bsz = batch.batch_size;
        let outputs = self.batched_forward(tape, store, batch);
        let zero_b1 = tape.leaf_from_iter(Shape::matrix(bsz, 1), std::iter::repeat_n(S::ZERO, bsz));
        let mut total: Option<Var> = None;
        for (i, (t_out, l_out)) in outputs.into_iter().enumerate() {
            // Padded rows contribute (0 - 0)^2 = 0 to the reduction.
            let t_m = blend(tape, t_out, zero_b1, &batch.chain_pad[i]);
            let l_m = blend(tape, l_out, zero_b1, &batch.chain_pad[i]);
            let t_gt = leaf_matrix(tape, bsz, 1, &targets.tput[i]);
            let l_gt = leaf_matrix(tape, bsz, 1, &targets.lat[i]);
            let t_err = tape.squared_error(t_m, t_gt);
            let l_err = tape.squared_error(l_m, l_gt);
            let s = tape.add(t_err, l_err);
            total = Some(match total {
                Some(acc) => tape.add(acc, s),
                None => s,
            });
        }
        total.expect("batch has at least one chain slot")
    }

    /// Run Algorithm 2 on the tape for a whole padded batch, returning
    /// per chain slot `i` the learning-space `(throughput, latency)`
    /// outputs as `(B, 1)` nodes; row `b` belongs to graph `b`, and rows
    /// of graphs without an `i`-th chain hold meaningless values.
    ///
    /// For each real row the arithmetic follows the sequential
    /// [`ChainNet::forward`] op for op (see the module docs for the one
    /// readout deviation). `store` may be the model's own store or a
    /// dtype-cast copy with the same parameter layout
    /// ([`ParamStore::cast`]).
    ///
    /// # Panics
    ///
    /// Panics if the batch was packed with a different feature or target
    /// mode than this model's configuration.
    pub fn batched_forward<S: Scalar>(
        &self,
        tape: &mut Tape<S>,
        store: &ParamStore<S>,
        batch: &GraphBatch,
    ) -> Vec<(Var, Var)> {
        assert_eq!(
            batch.feature_mode, self.config.feature_mode,
            "batch feature mode differs from the model's"
        );
        assert_eq!(
            batch.target_mode, self.config.target_mode,
            "batch target mode differs from the model's"
        );
        let bsz = batch.batch_size;
        let c_max = batch.num_chain_slots();
        let d_max = batch.num_device_slots();
        let sdim = batch.feature_mode.service_dim();
        let fdim = batch.feature_mode.fragment_dim();
        let ddim = batch.feature_mode.device_dim();

        // Line 1: encode input features, one (B, h) matrix per slot.
        let mut h_service: Vec<Var> = (0..c_max)
            .map(|i| {
                let x = leaf_matrix(tape, bsz, sdim, &batch.service_feats[i]);
                self.enc_service.forward_rows(tape, store, x)
            })
            .collect();
        let mut h_frag: Vec<Vec<Var>> = (0..c_max)
            .map(|i| {
                (0..batch.steps_per_chain[i])
                    .map(|j| {
                        let flat = batch.step_offset[i] + j;
                        let x = leaf_matrix(tape, bsz, fdim, &batch.frag_feats[flat]);
                        self.enc_frag.forward_rows(tape, store, x)
                    })
                    .collect()
            })
            .collect();
        let mut h_dev: Vec<Var> = (0..d_max)
            .map(|k| {
                let x = leaf_matrix(tape, bsz, ddim, &batch.dev_feats[k]);
                self.enc_dev.forward_rows(tape, store, x)
            })
            .collect();

        // Lines 2-16: N message-passing iterations.
        for _n in 0..self.config.iterations {
            // Snapshot h_j^{(n-1)} (Eqs. 6 and 10).
            let frag_prev = h_frag.clone();
            let mut step_service: Vec<Vec<Var>> = batch
                .steps_per_chain
                .iter()
                .map(|&len| Vec::with_capacity(len))
                .collect();

            // Lines 3-11: traverse each execution sequence.
            for i in 0..c_max {
                let mut h_i = h_service[i];
                for j in 0..batch.steps_per_chain[i] {
                    let flat = batch.step_offset[i] + j;
                    // Each graph gathers its own placement's device row.
                    let dev_rows = tape.select_rows(&h_dev, &batch.step_device[flat]);
                    // Eq. 6: m_C = [h_j^(n-1) || h_k^(n-1)].
                    let m_c = tape.concat_cols(&[frag_prev[i][j], dev_rows]);
                    // Eq. 4, blended so padded rows keep their state.
                    let c_cand = self.phi_c.forward_rows(tape, store, m_c, h_i);
                    h_i = blend(tape, c_cand, h_i, &batch.step_pad[flat]);
                    step_service[i].push(h_i);
                    // Eq. 8: m_F = [h_i^(n),j || h_k^(n-1)].
                    let m_f = tape.concat_cols(&[h_i, dev_rows]);
                    // Eq. 7, blended like Eq. 4.
                    let f_cand = self.phi_f.forward_rows(tape, store, m_f, frag_prev[i][j]);
                    h_frag[i][j] = blend(tape, f_cand, frag_prev[i][j], &batch.step_pad[flat]);
                }
                // Eq. 5.
                h_service[i] = h_i;
            }

            // Flat step-slot views for the per-device gathers.
            let step_service_flat: Vec<Var> = step_service.iter().flatten().copied().collect();
            let frag_prev_flat: Vec<Var> = frag_prev.iter().flatten().copied().collect();

            // Lines 12-15: device updates, after all chains.
            for (k, h_k) in h_dev.iter_mut().enumerate() {
                let t_max = batch.steps_per_device[k];
                // Eq. 10: m_D = [h_i^(n),j || h_j^(n-1)] per step slot.
                let msgs: Vec<Var> = (0..t_max)
                    .map(|t| {
                        let s = tape.select_rows(&step_service_flat, &batch.dev_step_src[k][t]);
                        let f = tape.select_rows(&frag_prev_flat, &batch.dev_step_src[k][t]);
                        tape.concat_cols(&[s, f])
                    })
                    .collect();
                let m_d = if t_max == 1 {
                    msgs[0]
                } else {
                    // Eqs. 14-16 for the shared rows; single-step rows
                    // take their lone message verbatim.
                    let m_att =
                        self.aggregate_rows(tape, store, *h_k, &msgs, &batch.dev_attn_mask[k]);
                    blend(tape, m_att, msgs[0], &batch.dev_m_choice[k])
                };
                // Eq. 9, blended so device-padding rows keep their state.
                let d_cand = self.phi_d.forward_rows(tape, store, m_d, *h_k);
                *h_k = blend(tape, d_cand, *h_k, &batch.dev_pad[k]);
            }
        }

        // Line 17 / Eq. 12: prediction heads.
        (0..c_max)
            .map(|i| {
                let lat_w = leaf_matrix(tape, bsz, batch.steps_per_chain[i], &batch.lat_weights[i]);
                // Masked fragment mean (Ratio) or sum (Absolute): one
                // weighted_sum_rows replaces mean_vecs + affine.
                let lat_latent = tape.weighted_sum_rows(lat_w, &h_frag[i]);
                let t_raw = self.mlp_tput.forward_rows(tape, store, h_service[i]);
                let l_raw = self.mlp_latency.forward_rows(tape, store, lat_latent);
                match self.config.target_mode {
                    TargetMode::Ratio => (tape.sigmoid(t_raw), tape.sigmoid(l_raw)),
                    TargetMode::Absolute => (t_raw, l_raw),
                }
            })
            .collect()
    }

    /// Row-batched attention aggregation `f_multi` (Eqs. 14-16): the
    /// tape-op mirror of [`ChainNet::aggregate_device_messages`], scoring
    /// all `B` graphs per step slot in one matmul and normalizing with a
    /// masked softmax so padded step slots get weight exactly zero.
    fn aggregate_rows<S: Scalar>(
        &self,
        tape: &mut Tape<S>,
        store: &ParamStore<S>,
        h_dev_k: Var,
        msgs: &[Var],
        mask: &[bool],
    ) -> Var {
        let slope = S::from_f64(self.config.leaky_slope);
        let mut head_outputs = Vec::with_capacity(self.attention.len());
        for head in &self.attention {
            let AttentionHead { w_score, a, w_msg } = *head;
            let w_score = tape.param(store, w_score);
            let a = tape.param(store, a);
            let w_msg = tape.param(store, w_msg);
            let scores: Vec<Var> = msgs
                .iter()
                .map(|&m| {
                    let cat = tape.concat_cols(&[h_dev_k, m]);
                    let lin = tape.matmul_bt(cat, w_score);
                    let act = tape.leaky_relu(lin, slope);
                    // a is stored as a 1×h matrix; matmul_bt yields (B, 1).
                    tape.matmul_bt(act, a)
                })
                .collect();
            let stacked = tape.concat_cols(&scores);
            let weights = tape.masked_softmax_rows(stacked, mask);
            let transformed: Vec<Var> = msgs.iter().map(|&m| tape.matmul_bt(m, w_msg)).collect();
            head_outputs.push(tape.weighted_sum_rows(weights, &transformed));
        }
        tape.concat_cols(&head_outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::Surrogate;
    use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};

    fn graph_of(placement: Vec<Vec<usize>>, lambdas: &[f64]) -> PlacementGraph {
        let devices = vec![
            Device::new(20.0, 1.0).unwrap(),
            Device::new(20.0, 2.0).unwrap(),
            Device::new(20.0, 1.5).unwrap(),
        ];
        let chains = lambdas
            .iter()
            .zip(&placement)
            .map(|(&l, p)| {
                let frags = (0..p.len())
                    .map(|j| Fragment::new(1.0, 1.0 + j as f64 * 0.5).unwrap())
                    .collect();
                ServiceChain::new(l, frags).unwrap()
            })
            .collect();
        let model = SystemModel::new(devices, chains, Placement::new(placement)).unwrap();
        PlacementGraph::from_model(&model, ModelConfig::small().feature_mode)
    }

    fn targets_for(graph: &PlacementGraph, seed: f64) -> Vec<ChainTargets> {
        graph
            .chains
            .iter()
            .enumerate()
            .map(|(i, c)| ChainTargets {
                throughput: c.arrival_rate * (0.7 + 0.05 * seed + 0.02 * i as f64),
                latency: c.total_processing * (1.5 + 0.1 * seed),
            })
            .collect()
    }

    /// Mixed-structure batch: different chain counts, step counts, and
    /// used-device counts, with shared devices exercising attention.
    fn mixed_batch() -> Vec<(PlacementGraph, Vec<ChainTargets>)> {
        let graphs = vec![
            graph_of(vec![vec![0, 1], vec![1, 2, 0]], &[0.5, 0.3]),
            graph_of(vec![vec![1, 1, 2]], &[0.4]),
            graph_of(vec![vec![0, 1], vec![1, 2, 0], vec![2]], &[0.5, 0.3, 0.2]),
            graph_of(vec![vec![0, 0]], &[0.6]),
        ];
        graphs
            .into_iter()
            .enumerate()
            .map(|(s, g)| {
                let t = targets_for(&g, s as f64);
                (g, t)
            })
            .collect()
    }

    fn sequential_loss_sum(net: &ChainNet, data: &[(PlacementGraph, Vec<ChainTargets>)]) -> f64 {
        let mut tape = Tape::new();
        let mut total = 0.0;
        for (g, t) in data {
            tape.reset();
            let l = net.loss_on_graph(&mut tape, g, t);
            total += tape.value(l).item();
        }
        total
    }

    #[test]
    fn pack_counts_padding_and_chains() {
        let data = mixed_batch();
        let graphs: Vec<&PlacementGraph> = data.iter().map(|(g, _)| g).collect();
        let batch = GraphBatch::pack(&graphs, TargetMode::Ratio);
        assert_eq!(batch.batch_size(), 4);
        assert_eq!(batch.num_chain_slots(), 3);
        assert_eq!(batch.steps_per_chain, vec![3, 3, 1]);
        assert_eq!(batch.total_chains(), 2 + 1 + 3 + 1);
        // Graph 3 uses only device 0; its rows are padded in slots 1, 2.
        assert_eq!(batch.dev_pad[1][3], 1);
        assert_eq!(batch.dev_pad[2][3], 1);
        assert_eq!(batch.dev_pad[0][3], 0);
    }

    #[test]
    fn batched_loss_matches_sequential_sum_f64() {
        let net = ChainNet::new(ModelConfig::small(), 7);
        let data = mixed_batch();
        let graphs: Vec<&PlacementGraph> = data.iter().map(|(g, _)| g).collect();
        let tgts: Vec<&[ChainTargets]> = data.iter().map(|(_, t)| t.as_slice()).collect();
        let batch = GraphBatch::pack(&graphs, net.config.target_mode);
        let targets = batch.pack_targets(&graphs, &tgts);
        let mut tape = Tape::new();
        let loss = net.batched_loss(&mut tape, &net.store, &batch, &targets);
        let batched = tape.value(loss).item();
        let sequential = sequential_loss_sum(&net, &data);
        let rel = (batched - sequential).abs() / sequential.abs().max(1e-30);
        assert!(
            rel < 1e-9,
            "batched {batched} vs sequential {sequential} (rel {rel:.3e})"
        );
    }

    #[test]
    fn batched_loss_single_graph_matches_loss_on_graph() {
        let net = ChainNet::new(ModelConfig::small(), 11);
        let g = graph_of(vec![vec![0, 1], vec![1, 2, 0]], &[0.5, 0.3]);
        let t = targets_for(&g, 0.0);
        let batch = GraphBatch::pack(&[&g], net.config.target_mode);
        let targets = batch.pack_targets(&[&g], &[t.as_slice()]);
        let mut tape = Tape::new();
        let loss = net.batched_loss(&mut tape, &net.store, &batch, &targets);
        let batched = tape.value(loss).item();
        let mut seq_tape = Tape::new();
        let seq = net.loss_on_graph(&mut seq_tape, &g, &t);
        let sequential = seq_tape.value(seq).item();
        let rel = (batched - sequential).abs() / sequential.abs().max(1e-30);
        assert!(
            rel < 1e-12,
            "B=1 batched {batched} vs sequential {sequential} (rel {rel:.3e})"
        );
    }

    #[test]
    fn batched_gradients_match_sequential_accumulation() {
        let mut net = ChainNet::new(ModelConfig::small(), 13);
        let data = mixed_batch();

        // Sequential reference: accumulate per-sample gradients.
        let mut tape = Tape::new();
        for (g, t) in &data {
            tape.reset();
            let l = net.loss_on_graph(&mut tape, g, t);
            tape.backward(l);
            tape.accumulate_param_grads(net.params_mut());
        }
        let reference: Vec<Vec<f64>> = net
            .params()
            .ids()
            .map(|id| net.params().grad(id).data().to_vec())
            .collect();
        net.params_mut().zero_grads();

        // Batched: one tape, one backward.
        let graphs: Vec<&PlacementGraph> = data.iter().map(|(g, _)| g).collect();
        let tgts: Vec<&[ChainTargets]> = data.iter().map(|(_, t)| t.as_slice()).collect();
        let batch = GraphBatch::pack(&graphs, net.config.target_mode);
        let targets = batch.pack_targets(&graphs, &tgts);
        let mut btape = Tape::new();
        let loss = net.batched_loss(&mut btape, &net.store, &batch, &targets);
        btape.backward(loss);
        btape.accumulate_param_grads(net.params_mut());

        let mut checked = 0usize;
        for (pi, id) in net.params().ids().enumerate() {
            for (j, (&g, &r)) in net
                .params()
                .grad(id)
                .data()
                .iter()
                .zip(&reference[pi])
                .enumerate()
            {
                let scale = r.abs().max(1.0);
                assert!(
                    (g - r).abs() / scale < 1e-9,
                    "param {pi} [{j}]: batched {g} vs sequential {r}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
        // Every parameter group receives gradient through the batch.
        let with_grad = net
            .params()
            .ids()
            .filter(|&id| net.params().grad(id).data().iter().any(|&g| g != 0.0))
            .count();
        assert_eq!(with_grad, net.params().len());
    }

    #[test]
    fn f32_batched_loss_tracks_f64_within_single_precision() {
        let net = ChainNet::new(ModelConfig::small(), 17);
        let data = mixed_batch();
        let graphs: Vec<&PlacementGraph> = data.iter().map(|(g, _)| g).collect();
        let tgts: Vec<&[ChainTargets]> = data.iter().map(|(_, t)| t.as_slice()).collect();
        let batch = GraphBatch::pack(&graphs, net.config.target_mode);
        let targets = batch.pack_targets(&graphs, &tgts);

        let mut tape64 = Tape::new();
        let l64 = net.batched_loss(&mut tape64, &net.store, &batch, &targets);
        let v64 = tape64.value(l64).item();

        let store32: ParamStore<f32> = net.store.cast();
        let mut tape32 = Tape::<f32>::new();
        let l32 = net.batched_loss(&mut tape32, &store32, &batch, &targets);
        let v32 = f64::from(tape32.value(l32).item());

        let rel = (v64 - v32).abs() / v64.abs().max(1e-30);
        assert!(rel < 1e-4, "f64 {v64} vs f32 {v32} (rel {rel:.3e})");
    }

    #[test]
    fn uniform_structure_batch_is_bit_identical_per_row_to_sequential() {
        // Same skeleton, different placements: every row's forward up to
        // the readout shares the sequential tape's accumulation order, so
        // the *loss totals* agree to within the documented readout
        // rounding even at tight tolerance.
        let net = ChainNet::new(ModelConfig::small(), 19);
        let data: Vec<(PlacementGraph, Vec<ChainTargets>)> = [
            vec![vec![0, 1], vec![1, 2, 0]],
            vec![vec![1, 0], vec![0, 2, 1]],
            vec![vec![2, 1], vec![1, 0, 2]],
        ]
        .into_iter()
        .enumerate()
        .map(|(s, p)| {
            let g = graph_of(p, &[0.5, 0.3]);
            let t = targets_for(&g, s as f64);
            (g, t)
        })
        .collect();
        let graphs: Vec<&PlacementGraph> = data.iter().map(|(g, _)| g).collect();
        let tgts: Vec<&[ChainTargets]> = data.iter().map(|(_, t)| t.as_slice()).collect();
        let batch = GraphBatch::pack(&graphs, net.config.target_mode);
        let targets = batch.pack_targets(&graphs, &tgts);
        let mut tape = Tape::new();
        let loss = net.batched_loss(&mut tape, &net.store, &batch, &targets);
        let batched = tape.value(loss).item();
        let sequential = sequential_loss_sum(&net, &data);
        let rel = (batched - sequential).abs() / sequential.abs().max(1e-30);
        assert!(rel < 1e-12, "rel {rel:.3e}");
    }
}
