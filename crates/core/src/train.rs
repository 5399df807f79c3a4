//! Mini-batch training loop implementing Eq. 13: joint MSE over predicted
//! throughput and latency across all chains of a batch, with Adam and the
//! Table IV step-decay learning-rate schedule.

use crate::config::TrainConfig;
use crate::data::LabeledGraph;
use crate::graph::PlacementGraph;
use crate::graph_batch::GraphBatch;
use crate::metrics::ApeCollector;
use crate::model::{ChainNet, Surrogate};
use chainnet_ckpt::{CkptError, CkptStore};
use chainnet_neural::optim::{Adam, StepDecay};
use chainnet_neural::params::ParamStore;
use chainnet_neural::scalar::Scalar;
use chainnet_neural::tape::Tape;
use chainnet_obs::Obs;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Schema version written by [`Trainer::train_checkpointed`]. Bump on
/// any change to [`TrainCheckpoint`]'s layout.
pub const TRAIN_CKPT_SCHEMA: u32 = 1;

/// Bucket bounds for the `train.epoch_seconds` histogram (seconds).
const EPOCH_SECONDS_BUCKETS: &[f64] = &[0.01, 0.1, 1.0, 10.0, 60.0, 600.0];

/// Bucket bounds for the `train.grad_norm` histogram (L2 norm of the
/// concatenated gradient after each batch).
const GRAD_NORM_BUCKETS: &[f64] = &[0.01, 0.1, 1.0, 10.0, 100.0, 1000.0];

/// Structured event emitted once per observed epoch.
#[derive(Debug, Clone, Copy, Serialize)]
struct EpochEvent {
    kind: &'static str,
    epoch: usize,
    train_loss: f64,
    val_loss: Option<f64>,
    lr: f64,
    wall_seconds: f64,
}

/// Divergence-guard settings for [`Trainer::train_guarded`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Clip the concatenated gradient to this L2 norm before each
    /// optimizer step. Non-positive or infinite values disable clipping.
    pub max_grad_norm: f64,
    /// Abort with [`TrainError::Diverged`] after this many *consecutive*
    /// epochs trip the guard (a clean epoch resets the count).
    pub max_trips: usize,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            max_grad_norm: 100.0,
            max_trips: 3,
        }
    }
}

/// Typed failure of a guarded training run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TrainError {
    /// The divergence guard tripped on `max_trips` consecutive epochs;
    /// the model holds the last known-good parameters.
    Diverged {
        /// Epoch on which the final trip occurred.
        epoch: usize,
        /// Total number of trips over the whole run.
        trips: u64,
    },
    /// The training set was empty.
    EmptyTrainingSet,
    /// A checkpoint could not be written, read, or matched to this run.
    Checkpoint(CkptError),
}

impl From<CkptError> for TrainError {
    fn from(e: CkptError) -> Self {
        TrainError::Checkpoint(e)
    }
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Diverged { epoch, trips } => write!(
                f,
                "training diverged: guard tripped {trips} time(s), \
                 giving up at epoch {epoch}; model rolled back to the \
                 last finite checkpoint"
            ),
            Self::EmptyTrainingSet => write!(f, "training set is empty"),
            Self::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

/// Complete resumable state of a (guarded) training run, written after
/// clean epochs and after rolled-back (tripped) epochs at the
/// configured cadence. Restoring every field — including the shuffle
/// permutation and the raw RNG state — is what makes a killed-and-
/// resumed run bit-identical to an uninterrupted one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Trainer configuration the run was started with (validated on
    /// resume).
    pub config: TrainConfig,
    /// Guard configuration the run was started with (validated on
    /// resume).
    pub guard: GuardConfig,
    /// Number of training samples (validated on resume).
    pub num_samples: usize,
    /// First epoch still to run.
    pub epoch_next: usize,
    /// Model parameters after the last completed epoch.
    pub params: ParamStore,
    /// Adam moment estimates and step counter.
    pub adam: Adam,
    /// Raw xoshiro256++ state of the shuffle RNG.
    pub rng: [u64; 4],
    /// The sample permutation (shuffled cumulatively in place).
    pub order: Vec<usize>,
    /// Divergence-guard rollback target (last known-good parameters).
    pub last_good: ParamStore,
    /// Consecutive tripped epochs so far.
    pub consecutive_trips: usize,
    /// Total tripped epochs over the whole run.
    pub total_trips: u64,
    /// Per-epoch history accumulated so far.
    pub history: TrainReport,
}

impl std::error::Error for TrainError {}

/// Loss values recorded after one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean training loss (Eq. 13) over the epoch.
    pub train_loss: f64,
    /// Validation loss, when a validation set was supplied.
    pub val_loss: Option<f64>,
    /// Learning rate used during the epoch.
    pub lr: f64,
}

/// Full training history (the data behind Fig. 13).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Per-epoch statistics in order.
    pub history: Vec<EpochStats>,
    /// Set when the run wound down early because cooperative
    /// cancellation (`obs.cancel`, e.g. a SIGTERM handler) was
    /// requested. The history up to the cancellation point is complete,
    /// and — for checkpointed runs — a final checkpoint was flushed at
    /// the epoch boundary so `--resume` continues exactly where the
    /// interrupted run stopped.
    #[serde(default)]
    pub interrupted: bool,
}

impl TrainReport {
    /// The final training loss.
    pub fn final_train_loss(&self) -> Option<f64> {
        self.history.last().map(|e| e.train_loss)
    }

    /// The final validation loss.
    pub fn final_val_loss(&self) -> Option<f64> {
        self.history.last().and_then(|e| e.val_loss)
    }
}

/// Trains any [`Surrogate`] on labeled placement graphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Create a trainer.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Mean Eq.-13 loss of `model` over `data`, without touching gradients.
    pub fn evaluate_loss<S: Surrogate + ?Sized>(&self, model: &S, data: &[LabeledGraph]) -> f64 {
        let mut total = 0.0;
        let mut chains = 0usize;
        // One pooled tape for the whole pass; reset recycles buffers.
        let mut tape = Tape::new();
        for sample in data {
            tape.reset();
            let loss = model.loss_on_graph(&mut tape, &sample.graph, &sample.targets);
            total += tape.value(loss).item();
            chains += sample.graph.num_chains();
        }
        if chains == 0 {
            0.0
        } else {
            total / (2.0 * chains as f64)
        }
    }

    /// Collect APEs of natural-unit predictions over `data`.
    pub fn evaluate_ape<S: Surrogate + ?Sized>(
        &self,
        model: &S,
        data: &[LabeledGraph],
    ) -> ApeCollector {
        let mut collector = ApeCollector::new();
        for sample in data {
            let preds = model.predict(&sample.graph);
            for (p, t) in preds.iter().zip(&sample.targets) {
                collector.push(p.throughput, t.throughput, p.latency, t.latency);
            }
        }
        collector
    }

    /// Train `model` on `train`, optionally tracking a validation loss
    /// each epoch (used by the ablation study's Fig. 13 curves).
    pub fn train<S: Surrogate>(
        &self,
        model: &mut S,
        train: &[LabeledGraph],
        val: Option<&[LabeledGraph]>,
    ) -> TrainReport {
        self.train_observed(model, train, val, &Obs::disabled())
    }

    /// Like [`Trainer::train`], additionally recording metrics and
    /// per-epoch events into `obs` when it is enabled:
    ///
    /// * `train.epoch_seconds` histogram (RAII-timed wall clock per
    ///   epoch) and `train.samples_per_sec` gauge;
    /// * `train.loss` / `train.val_loss` gauges tracking the latest
    ///   epoch;
    /// * `train.grad_norm` histogram, observed after each mini-batch;
    /// * `train.epochs` and `train.batches` counters.
    ///
    /// With a disabled `obs` this is exactly [`Trainer::train`].
    pub fn train_observed<S: Surrogate>(
        &self,
        model: &mut S,
        train: &[LabeledGraph],
        val: Option<&[LabeledGraph]>,
        obs: &Obs,
    ) -> TrainReport {
        assert!(!train.is_empty(), "training set is empty");
        let grad_norm = obs
            .is_enabled()
            .then(|| obs.registry.histogram("train.grad_norm", GRAD_NORM_BUCKETS));
        let cfg = self.config;
        let mut adam = Adam::new(cfg.learning_rate);
        let schedule = StepDecay {
            lr0: cfg.learning_rate,
            factor: cfg.lr_decay,
            period: cfg.lr_decay_period,
        };
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut report = TrainReport::default();
        // One pooled tape reused across every sample of every epoch:
        // Tape::reset recycles forward/gradient buffers, so steady-state
        // training steps perform no tape allocations.
        let mut tape = Tape::new();
        tape.set_tracer(obs.tracer.clone());

        for epoch in 0..cfg.epochs {
            // Cooperative cancellation at the epoch boundary, mirroring
            // the guarded/checkpointed path: the history so far is
            // complete and `interrupted` records the early exit.
            if obs.cancel.is_set() {
                report.interrupted = true;
                break;
            }
            let _epoch_span = obs.tracer.span("train.epoch");
            let epoch_timer = obs.is_enabled().then(|| {
                obs.registry
                    .histogram("train.epoch_seconds", EPOCH_SECONDS_BUCKETS)
                    .start_timer()
            });
            let lr = schedule.lr_at(epoch as u64);
            adam.set_lr(lr);
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut epoch_chains = 0usize;
            let mut epoch_batches = 0u64;

            for batch in order.chunks(cfg.batch_size.max(1)) {
                let _step_span = obs.tracer.span("train.step");
                // Q = number of chains in this batch (Eq. 13 denominator).
                let q: usize = batch.iter().map(|&i| train[i].graph.num_chains()).sum();
                let scale = 1.0 / (2.0 * q.max(1) as f64);
                for &i in batch {
                    let sample = &train[i];
                    tape.reset();
                    let fwd_span = obs.tracer.span("neural.forward");
                    let raw = model.loss_on_graph(&mut tape, &sample.graph, &sample.targets);
                    fwd_span.close();
                    let scaled = tape.affine(raw, scale, 0.0);
                    tape.backward(scaled);
                    tape.accumulate_param_grads(model.params_mut());
                    epoch_loss += tape.value(raw).item();
                }
                epoch_chains += q;
                epoch_batches += 1;
                if let Some(h) = &grad_norm {
                    h.observe(model.params_mut().grad_norm());
                }
                adam.step(model.params_mut());
            }

            let train_loss = epoch_loss / (2.0 * epoch_chains.max(1) as f64);
            let val_loss = val.map(|v| self.evaluate_loss(model, v));
            if let Some(timer) = epoch_timer {
                let wall = timer.elapsed_secs();
                timer.stop();
                let reg = &obs.registry;
                reg.counter("train.epochs").inc();
                reg.counter("train.batches").add(epoch_batches);
                reg.gauge("train.samples_per_sec")
                    .set(train.len() as f64 / wall.max(1e-9));
                reg.gauge("train.loss").set(train_loss);
                if let Some(v) = val_loss {
                    reg.gauge("train.val_loss").set(v);
                }
                obs.events.emit(
                    "train",
                    &EpochEvent {
                        kind: "epoch",
                        epoch,
                        train_loss,
                        val_loss,
                        lr,
                        wall_seconds: wall,
                    },
                );
            }
            report.history.push(EpochStats {
                epoch,
                train_loss,
                val_loss,
                lr,
            });
        }
        report
    }

    /// Batched counterpart of [`Trainer::train_observed`] for
    /// [`ChainNet`], generic over the training dtype `Sc` (`f32` for
    /// SIMD-width throughput, `f64` to match the sequential numerics):
    /// every mini-batch is packed into one padded [`GraphBatch`] and
    /// runs as a *single* tape forward/backward
    /// ([`ChainNet::batched_loss`]), so a batch of `B` graphs costs a
    /// few `(B, ·)` matmuls instead of `B` per-graph tape passes.
    ///
    /// The schedule, seed, shuffle order, chunking, and `1/(2Q)` loss
    /// scale are identical to `train_observed`; the per-epoch losses
    /// differ only by the documented latency-readout rounding (and by
    /// single-precision rounding when `Sc = f32`). The model's `f64`
    /// weights are cast into `Sc` once up front; they are written back
    /// after every epoch when a validation set is supplied (so
    /// [`Trainer::evaluate_loss`] sees current weights) and always after
    /// the final epoch.
    ///
    /// Metrics mirror `train_observed` (`train.epoch_seconds`,
    /// `train.samples_per_sec`, `train.loss`, `train.val_loss`,
    /// `train.grad_norm`, `train.epochs`, `train.batches`), plus the
    /// `train.batch_size` gauge recording the packed batch width.
    pub fn train_batched<Sc: Scalar>(
        &self,
        model: &mut ChainNet,
        train: &[LabeledGraph],
        val: Option<&[LabeledGraph]>,
        obs: &Obs,
    ) -> TrainReport {
        assert!(!train.is_empty(), "training set is empty");
        let grad_norm = obs
            .is_enabled()
            .then(|| obs.registry.histogram("train.grad_norm", GRAD_NORM_BUCKETS));
        let cfg = self.config;
        let mut store: ParamStore<Sc> = model.params().cast();
        let mut adam: Adam<Sc> = Adam::new(cfg.learning_rate);
        let schedule = StepDecay {
            lr0: cfg.learning_rate,
            factor: cfg.lr_decay,
            period: cfg.lr_decay_period,
        };
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut report = TrainReport::default();
        let mut tape: Tape<Sc> = Tape::new();
        tape.set_tracer(obs.tracer.clone());
        let target_mode = model.config().target_mode;

        for epoch in 0..cfg.epochs {
            if obs.cancel.is_set() {
                report.interrupted = true;
                break;
            }
            let _epoch_span = obs.tracer.span("train.epoch");
            let epoch_timer = obs.is_enabled().then(|| {
                obs.registry
                    .histogram("train.epoch_seconds", EPOCH_SECONDS_BUCKETS)
                    .start_timer()
            });
            let lr = schedule.lr_at(epoch as u64);
            adam.set_lr(lr);
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut epoch_chains = 0usize;
            let mut epoch_batches = 0u64;

            for chunk in order.chunks(cfg.batch_size.max(1)) {
                let _step_span = obs.tracer.span("train.step");
                let graphs: Vec<&PlacementGraph> = chunk.iter().map(|&i| &train[i].graph).collect();
                let targets: Vec<&[crate::data::ChainTargets]> =
                    chunk.iter().map(|&i| train[i].targets.as_slice()).collect();
                let batch = GraphBatch::pack(&graphs, target_mode);
                let targets = batch.pack_targets(&graphs, &targets);
                // Q = number of real chains in this batch (Eq. 13).
                let scale = 1.0 / (2.0 * batch.total_chains().max(1) as f64);
                tape.reset();
                let fwd_span = obs.tracer.span("neural.forward");
                let raw = model.batched_loss(&mut tape, &store, &batch, &targets);
                fwd_span.close();
                let scaled = tape.affine(raw, Sc::from_f64(scale), Sc::ZERO);
                tape.backward(scaled);
                tape.accumulate_param_grads(&mut store);
                epoch_loss += tape.value(raw).item().to_f64();
                epoch_chains += batch.total_chains();
                epoch_batches += 1;
                if let Some(h) = &grad_norm {
                    h.observe(store.grad_norm());
                }
                adam.step(&mut store);
            }

            let train_loss = epoch_loss / (2.0 * epoch_chains.max(1) as f64);
            let val_loss = val.map(|v| {
                model.params_mut().assign_values_cast(&store);
                self.evaluate_loss(model, v)
            });
            if let Some(timer) = epoch_timer {
                let wall = timer.elapsed_secs();
                timer.stop();
                let reg = &obs.registry;
                reg.counter("train.epochs").inc();
                reg.counter("train.batches").add(epoch_batches);
                reg.gauge("train.samples_per_sec")
                    .set(train.len() as f64 / wall.max(1e-9));
                reg.gauge("train.batch_size")
                    .set(cfg.batch_size.max(1) as f64);
                reg.gauge("train.loss").set(train_loss);
                if let Some(v) = val_loss {
                    reg.gauge("train.val_loss").set(v);
                }
                obs.events.emit(
                    "train",
                    &EpochEvent {
                        kind: "epoch",
                        epoch,
                        train_loss,
                        val_loss,
                        lr,
                        wall_seconds: wall,
                    },
                );
            }
            report.history.push(EpochStats {
                epoch,
                train_loss,
                val_loss,
                lr,
            });
        }
        model.params_mut().assign_values_cast(&store);
        report
    }

    /// Like [`Trainer::train`], but with a divergence guard: non-finite
    /// losses, gradients, or parameters roll the model back to the last
    /// known-good snapshot instead of silently corrupting it.
    ///
    /// # Errors
    ///
    /// [`TrainError::Diverged`] after `guard.max_trips` consecutive
    /// tripped epochs (the model is left on the last good parameters),
    /// or [`TrainError::EmptyTrainingSet`].
    pub fn train_guarded<S: Surrogate>(
        &self,
        model: &mut S,
        train: &[LabeledGraph],
        val: Option<&[LabeledGraph]>,
        guard: &GuardConfig,
    ) -> Result<TrainReport, TrainError> {
        self.train_guarded_observed(model, train, val, guard, &Obs::disabled())
    }

    /// Observed variant of [`Trainer::train_guarded`].
    ///
    /// Each epoch runs the usual mini-batch loop, but before every
    /// optimizer step the batch loss, the accumulated gradients, and —
    /// after the step — the parameters themselves are checked for
    /// NaN/inf. Gradients are clipped to `guard.max_grad_norm` (L2).
    /// A failed check *trips* the guard: the epoch is abandoned, the
    /// parameters are rolled back to the snapshot taken after the last
    /// clean epoch (or the initial weights), the Adam moments are reset,
    /// and the `train.divergence_trips` counter is incremented. After
    /// `guard.max_trips` consecutive trips the run aborts with
    /// [`TrainError::Diverged`]; a clean epoch resets the streak.
    ///
    /// Tripped epochs contribute no [`EpochStats`], so the report's
    /// history may be shorter than `config.epochs`.
    ///
    /// # Errors
    ///
    /// See [`Trainer::train_guarded`].
    pub fn train_guarded_observed<S: Surrogate>(
        &self,
        model: &mut S,
        train: &[LabeledGraph],
        val: Option<&[LabeledGraph]>,
        guard: &GuardConfig,
        obs: &Obs,
    ) -> Result<TrainReport, TrainError> {
        self.run_guarded(model, train, val, guard, None, obs)
    }

    /// [`Trainer::train_checkpointed_observed`] without instrumentation.
    ///
    /// # Errors
    ///
    /// See [`Trainer::train_checkpointed_observed`].
    #[allow(clippy::too_many_arguments)]
    pub fn train_checkpointed<S: Surrogate>(
        &self,
        model: &mut S,
        train: &[LabeledGraph],
        val: Option<&[LabeledGraph]>,
        guard: &GuardConfig,
        store: &CkptStore,
        every: usize,
        resume: bool,
    ) -> Result<TrainReport, TrainError> {
        self.train_checkpointed_observed(
            model,
            train,
            val,
            guard,
            store,
            every,
            resume,
            &Obs::disabled(),
        )
    }

    /// Guarded training with crash-safe on-disk checkpoints.
    ///
    /// Every `every` epochs (and always after the final epoch) the
    /// complete resumable state — parameters, Adam moments, RNG state,
    /// shuffle permutation, guard counters, history — is written
    /// durably through `store` as a [`TrainCheckpoint`]. Tripped
    /// (rolled-back) epochs also checkpoint at the cadence, so the
    /// divergence fallback is the on-disk last-good as well.
    ///
    /// With `resume` the run restarts from the most recent verified
    /// checkpoint instead of epoch 0 and — because the workspace RNG
    /// is deterministic — produces **bit-identical** final parameters
    /// and history to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`TrainError::Checkpoint`] on cadence 0, save/load failures, a
    /// missing checkpoint under `resume`, or a checkpoint recorded for
    /// a different config/dataset; otherwise as
    /// [`Trainer::train_guarded`].
    #[allow(clippy::too_many_arguments)]
    pub fn train_checkpointed_observed<S: Surrogate>(
        &self,
        model: &mut S,
        train: &[LabeledGraph],
        val: Option<&[LabeledGraph]>,
        guard: &GuardConfig,
        store: &CkptStore,
        every: usize,
        resume: bool,
        obs: &Obs,
    ) -> Result<TrainReport, TrainError> {
        self.run_guarded(model, train, val, guard, Some((store, every, resume)), obs)
    }

    fn run_guarded<S: Surrogate>(
        &self,
        model: &mut S,
        train: &[LabeledGraph],
        val: Option<&[LabeledGraph]>,
        guard: &GuardConfig,
        ckpt: Option<(&CkptStore, usize, bool)>,
        obs: &Obs,
    ) -> Result<TrainReport, TrainError> {
        if train.is_empty() {
            return Err(TrainError::EmptyTrainingSet);
        }
        // An infinite clip threshold and a non-positive one both disable
        // clipping, but the JSON checkpoint payload cannot represent
        // non-finite floats; normalize so the guard round-trips on resume.
        let normalized;
        let guard = if ckpt.is_some() && !guard.max_grad_norm.is_finite() {
            normalized = GuardConfig {
                max_grad_norm: 0.0,
                ..*guard
            };
            &normalized
        } else {
            guard
        };
        let grad_norm = obs
            .is_enabled()
            .then(|| obs.registry.histogram("train.grad_norm", GRAD_NORM_BUCKETS));
        let cfg = self.config;
        let mut adam = Adam::new(cfg.learning_rate);
        let schedule = StepDecay {
            lr0: cfg.learning_rate,
            factor: cfg.lr_decay,
            period: cfg.lr_decay_period,
        };
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut report = TrainReport::default();

        // Last known-good snapshot; the initial weights qualify.
        let mut last_good = model.params().clone();
        let mut consecutive_trips = 0usize;
        let mut total_trips = 0u64;
        let mut start_epoch = 0usize;

        if let Some((store, every, resume)) = ckpt {
            if every == 0 {
                return Err(TrainError::Checkpoint(CkptError::InvalidCadence));
            }
            if resume {
                let (_seq, ck) = store.resume_latest_state::<TrainCheckpoint>()?;
                self.validate_checkpoint(&ck, guard, train.len())?;
                *model.params_mut() = ck.params;
                model.params_mut().zero_grads();
                adam = ck.adam;
                rng = SmallRng::from_state(ck.rng);
                order = ck.order;
                last_good = ck.last_good;
                consecutive_trips = ck.consecutive_trips;
                total_trips = ck.total_trips;
                report = ck.history;
                start_epoch = ck.epoch_next;
            }
        }

        // One pooled tape reused across every sample of every epoch (see
        // train_observed).
        let mut tape = Tape::new();

        for epoch in start_epoch..cfg.epochs {
            // Cooperative cancellation: wind down at the epoch boundary.
            // The state at the top of epoch `e` (pre-shuffle RNG, order)
            // is bit-identical to the end-of-epoch `e-1` state, so the
            // flushed checkpoint reuses sequence number `e` and a later
            // `--resume` replays the exact trajectory the uninterrupted
            // run would have taken.
            if obs.cancel.is_set() {
                // The checkpointed history stays clean: `interrupted`
                // describes this process's exit, not the state on disk.
                if let Some((store, _, _)) = ckpt {
                    if epoch > 0 {
                        let state = TrainCheckpoint {
                            config: cfg,
                            guard: *guard,
                            num_samples: train.len(),
                            epoch_next: epoch,
                            params: model.params().clone(),
                            adam: adam.clone(),
                            rng: rng.state(),
                            order: order.clone(),
                            last_good: last_good.clone(),
                            consecutive_trips,
                            total_trips,
                            history: report.clone(),
                        };
                        store.save_state(epoch as u64, &state)?;
                    }
                }
                report.interrupted = true;
                return Ok(report);
            }
            let epoch_timer = obs.is_enabled().then(|| {
                obs.registry
                    .histogram("train.epoch_seconds", EPOCH_SECONDS_BUCKETS)
                    .start_timer()
            });
            let lr = schedule.lr_at(epoch as u64);
            adam.set_lr(lr);
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut epoch_chains = 0usize;
            let mut epoch_batches = 0u64;
            let mut tripped = false;

            'batches: for batch in order.chunks(cfg.batch_size.max(1)) {
                let q: usize = batch.iter().map(|&i| train[i].graph.num_chains()).sum();
                let scale = 1.0 / (2.0 * q.max(1) as f64);
                for &i in batch {
                    let sample = &train[i];
                    tape.reset();
                    let raw = model.loss_on_graph(&mut tape, &sample.graph, &sample.targets);
                    let raw_value = tape.value(raw).item();
                    if !raw_value.is_finite() {
                        tripped = true;
                        break 'batches;
                    }
                    let scaled = tape.affine(raw, scale, 0.0);
                    tape.backward(scaled);
                    tape.accumulate_param_grads(model.params_mut());
                    epoch_loss += raw_value;
                }
                epoch_chains += q;
                epoch_batches += 1;
                let pre_clip = model.params_mut().clip_grad_norm(guard.max_grad_norm);
                if !pre_clip.is_finite() {
                    tripped = true;
                    break 'batches;
                }
                if let Some(h) = &grad_norm {
                    h.observe(pre_clip);
                }
                adam.step(model.params_mut());
                if !model.params_mut().values_all_finite() {
                    tripped = true;
                    break 'batches;
                }
            }

            if tripped {
                consecutive_trips += 1;
                total_trips += 1;
                if obs.is_enabled() {
                    obs.registry.counter("train.divergence_trips").inc();
                }
                *model.params_mut() = last_good.clone();
                model.params_mut().zero_grads();
                // Adam's moment estimates were fed non-finite or oversized
                // gradients; restart them alongside the weights.
                adam = Adam::new(cfg.learning_rate);
                adam.set_lr(lr);
                if consecutive_trips >= guard.max_trips.max(1) {
                    return Err(TrainError::Diverged {
                        epoch,
                        trips: total_trips,
                    });
                }
                // Checkpoint the rolled-back state at the cadence so the
                // on-disk last-good tracks the in-memory one.
                if let Some((store, every, _)) = ckpt {
                    if (epoch + 1) % every == 0 || epoch + 1 == cfg.epochs {
                        let state = TrainCheckpoint {
                            config: cfg,
                            guard: *guard,
                            num_samples: train.len(),
                            epoch_next: epoch + 1,
                            params: model.params().clone(),
                            adam: adam.clone(),
                            rng: rng.state(),
                            order: order.clone(),
                            last_good: last_good.clone(),
                            consecutive_trips,
                            total_trips,
                            history: report.clone(),
                        };
                        store.save_state((epoch + 1) as u64, &state)?;
                    }
                }
                continue;
            }

            consecutive_trips = 0;
            last_good = model.params().clone();
            let train_loss = epoch_loss / (2.0 * epoch_chains.max(1) as f64);
            let val_loss = val.map(|v| self.evaluate_loss(model, v));
            if let Some(timer) = epoch_timer {
                let wall = timer.elapsed_secs();
                timer.stop();
                let reg = &obs.registry;
                reg.counter("train.epochs").inc();
                reg.counter("train.batches").add(epoch_batches);
                reg.gauge("train.samples_per_sec")
                    .set(train.len() as f64 / wall.max(1e-9));
                reg.gauge("train.loss").set(train_loss);
                if let Some(v) = val_loss {
                    reg.gauge("train.val_loss").set(v);
                }
                obs.events.emit(
                    "train",
                    &EpochEvent {
                        kind: "epoch",
                        epoch,
                        train_loss,
                        val_loss,
                        lr,
                        wall_seconds: wall,
                    },
                );
            }
            report.history.push(EpochStats {
                epoch,
                train_loss,
                val_loss,
                lr,
            });
            if let Some((store, every, _)) = ckpt {
                if (epoch + 1) % every == 0 || epoch + 1 == cfg.epochs {
                    let state = TrainCheckpoint {
                        config: cfg,
                        guard: *guard,
                        num_samples: train.len(),
                        epoch_next: epoch + 1,
                        params: model.params().clone(),
                        adam: adam.clone(),
                        rng: rng.state(),
                        order: order.clone(),
                        last_good: last_good.clone(),
                        consecutive_trips,
                        total_trips,
                        history: report.clone(),
                    };
                    store.save_state((epoch + 1) as u64, &state)?;
                }
            }
        }
        Ok(report)
    }

    fn validate_checkpoint(
        &self,
        ck: &TrainCheckpoint,
        guard: &GuardConfig,
        num_samples: usize,
    ) -> Result<(), TrainError> {
        let reason = if ck.config != self.config {
            Some("trainer configuration differs from the checkpointed run")
        } else if ck.guard != *guard {
            Some("guard configuration differs from the checkpointed run")
        } else if ck.num_samples != num_samples || ck.order.len() != num_samples {
            Some("training-set size differs from the checkpointed run")
        } else if ck.epoch_next > self.config.epochs {
            Some("checkpoint is ahead of the configured epoch count")
        } else {
            None
        };
        match reason {
            Some(r) => Err(TrainError::Checkpoint(CkptError::ResumeMismatch {
                reason: r.to_string(),
            })),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, TrainConfig};
    use crate::data::{ChainTargets, LabeledGraph};
    use crate::graph::PlacementGraph;
    use crate::model::ChainNet;
    use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};

    fn toy_dataset(n: usize) -> Vec<LabeledGraph> {
        // Same topology, varying arrival rate; targets follow a smooth
        // synthetic law so a tiny model can fit them.
        (0..n)
            .map(|s| {
                let lambda = 0.2 + 0.6 * (s as f64 / n as f64);
                let devices = vec![
                    Device::new(10.0, 1.0).unwrap(),
                    Device::new(10.0, 2.0).unwrap(),
                ];
                let chains = vec![ServiceChain::new(
                    lambda,
                    vec![
                        Fragment::new(1.0, 1.0).unwrap(),
                        Fragment::new(1.0, 1.0).unwrap(),
                    ],
                )
                .unwrap()];
                let model =
                    SystemModel::new(devices, chains, Placement::new(vec![vec![0, 1]])).unwrap();
                let graph = PlacementGraph::from_model(&model, ModelConfig::small().feature_mode);
                let targets = vec![ChainTargets {
                    throughput: lambda * (1.0 - 0.3 * lambda),
                    latency: 1.5 / (1.0 - 0.5 * lambda),
                }];
                LabeledGraph { graph, targets }
            })
            .collect()
    }

    #[test]
    fn training_reduces_loss_on_toy_data() {
        let data = toy_dataset(16);
        let mut model = ChainNet::new(ModelConfig::small(), 11);
        let trainer = Trainer::new(TrainConfig {
            epochs: 15,
            batch_size: 8,
            learning_rate: 5e-3,
            lr_decay: 0.9,
            lr_decay_period: 10,
            seed: 1,
        });
        let before = trainer.evaluate_loss(&model, &data);
        let report = trainer.train(&mut model, &data, None);
        let after = trainer.evaluate_loss(&model, &data);
        assert!(after < before, "loss {before} -> {after}");
        assert_eq!(report.history.len(), 15);
        assert!(report.final_train_loss().unwrap() < before);
    }

    #[test]
    fn train_batched_f64_tracks_sequential_training() {
        let data = toy_dataset(16);
        let cfg = TrainConfig {
            epochs: 15,
            batch_size: 8,
            learning_rate: 5e-3,
            lr_decay: 0.9,
            lr_decay_period: 10,
            seed: 1,
        };
        let trainer = Trainer::new(cfg);

        let mut seq_model = ChainNet::new(ModelConfig::small(), 11);
        let seq = trainer.train(&mut seq_model, &data, None);

        let mut bat_model = ChainNet::new(ModelConfig::small(), 11);
        let before = trainer.evaluate_loss(&bat_model, &data);
        let bat = trainer.train_batched::<f64>(
            &mut bat_model,
            &data,
            None,
            &chainnet_obs::Obs::disabled(),
        );
        let after = trainer.evaluate_loss(&bat_model, &data);

        assert!(after < before, "batched loss {before} -> {after}");
        assert_eq!(bat.history.len(), seq.history.len());
        // First epoch: same shuffle, same batches, deviation bounded by
        // the documented latency-readout rounding (amplified over the
        // epoch's optimizer steps).
        let (s0, b0) = (seq.history[0].train_loss, bat.history[0].train_loss);
        let rel = (s0 - b0).abs() / s0.abs().max(1e-30);
        assert!(rel < 1e-6, "epoch 0: sequential {s0} vs batched {b0}");
        // Whole runs land in the same neighbourhood.
        let (sf, bf) = (
            seq.final_train_loss().unwrap(),
            bat.final_train_loss().unwrap(),
        );
        let rel = (sf - bf).abs() / sf.abs().max(1e-30);
        assert!(rel < 1e-2, "final: sequential {sf} vs batched {bf}");
    }

    #[test]
    fn train_batched_f32_reduces_loss_and_tracks_validation() {
        let data = toy_dataset(16);
        let val = toy_dataset(4);
        let mut model = ChainNet::new(ModelConfig::small(), 7);
        let trainer = Trainer::new(TrainConfig {
            epochs: 10,
            batch_size: 4,
            learning_rate: 5e-3,
            lr_decay: 0.9,
            lr_decay_period: 10,
            seed: 3,
        });
        let before = trainer.evaluate_loss(&model, &data);
        let report = trainer.train_batched::<f32>(
            &mut model,
            &data,
            Some(&val),
            &chainnet_obs::Obs::disabled(),
        );
        let after = trainer.evaluate_loss(&model, &data);
        assert!(after < before, "f32 batched loss {before} -> {after}");
        assert_eq!(report.history.len(), 10);
        assert!(report.history.iter().all(|e| e.val_loss.is_some()));
        assert!(model.params().values_all_finite());
    }

    #[test]
    fn train_batched_handles_heterogeneous_structures() {
        // Mixed chain counts / lengths / device usage in one dataset, so
        // batches pack graphs of different shapes together.
        let mut data = toy_dataset(6);
        for (s, placement) in [
            vec![vec![0, 1], vec![1, 0]],
            vec![vec![0, 0, 1]],
            vec![vec![1], vec![0, 1], vec![1, 1]],
        ]
        .into_iter()
        .enumerate()
        {
            let devices = vec![
                Device::new(10.0, 1.0).unwrap(),
                Device::new(10.0, 2.0).unwrap(),
            ];
            let chains = placement
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let frags = (0..p.len())
                        .map(|_| Fragment::new(1.0, 1.0).unwrap())
                        .collect();
                    ServiceChain::new(0.3 + 0.1 * (s + i) as f64, frags).unwrap()
                })
                .collect();
            let model = SystemModel::new(devices, chains, Placement::new(placement)).unwrap();
            let graph = PlacementGraph::from_model(&model, ModelConfig::small().feature_mode);
            let targets = graph
                .chains
                .iter()
                .map(|c| ChainTargets {
                    throughput: c.arrival_rate * 0.8,
                    latency: c.total_processing * 1.6,
                })
                .collect();
            data.push(LabeledGraph { graph, targets });
        }
        let mut model = ChainNet::new(ModelConfig::small(), 5);
        let trainer = Trainer::new(TrainConfig {
            epochs: 8,
            batch_size: 4,
            learning_rate: 5e-3,
            lr_decay: 0.9,
            lr_decay_period: 10,
            seed: 9,
        });
        let before = trainer.evaluate_loss(&model, &data);
        trainer.train_batched::<f32>(&mut model, &data, None, &chainnet_obs::Obs::disabled());
        let after = trainer.evaluate_loss(&model, &data);
        assert!(
            after < before,
            "heterogeneous batched loss {before} -> {after}"
        );
    }

    #[test]
    fn validation_loss_is_tracked() {
        let data = toy_dataset(8);
        let (train, val) = data.split_at(6);
        let mut model = ChainNet::new(ModelConfig::small(), 5);
        let trainer = Trainer::new(TrainConfig {
            epochs: 3,
            batch_size: 4,
            learning_rate: 1e-3,
            lr_decay: 0.9,
            lr_decay_period: 10,
            seed: 2,
        });
        let report = trainer.train(&mut model, train, Some(val));
        assert!(report.history.iter().all(|e| e.val_loss.is_some()));
    }

    #[test]
    fn lr_decays_during_training() {
        let data = toy_dataset(4);
        let mut model = ChainNet::new(ModelConfig::small(), 5);
        let trainer = Trainer::new(TrainConfig {
            epochs: 12,
            batch_size: 4,
            learning_rate: 1e-3,
            lr_decay: 0.5,
            lr_decay_period: 10,
            seed: 3,
        });
        let report = trainer.train(&mut model, &data, None);
        assert!((report.history[0].lr - 1e-3).abs() < 1e-12);
        assert!((report.history[11].lr - 5e-4).abs() < 1e-12);
    }

    #[test]
    fn ape_evaluation_counts_chains() {
        let data = toy_dataset(5);
        let model = ChainNet::new(ModelConfig::small(), 5);
        let trainer = Trainer::new(TrainConfig::small());
        let apes = trainer.evaluate_ape(&model, &data);
        assert_eq!(apes.throughput.len(), 5);
        assert_eq!(apes.latency.len(), 5);
    }

    #[test]
    fn observed_training_matches_plain_and_records_metrics() {
        let data = toy_dataset(10);
        let (train, val) = data.split_at(8);
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 4,
            learning_rate: 1e-3,
            lr_decay: 0.9,
            lr_decay_period: 10,
            seed: 7,
        };
        let trainer = Trainer::new(cfg);
        let mut plain_model = ChainNet::new(ModelConfig::small(), 13);
        let plain = trainer.train(&mut plain_model, train, Some(val));
        let obs = Obs::enabled();
        let mut observed_model = ChainNet::new(ModelConfig::small(), 13);
        let observed = trainer.train_observed(&mut observed_model, train, Some(val), &obs);
        // Instrumentation must not perturb training.
        assert_eq!(plain, observed);
        assert_eq!(plain_model, observed_model);
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counters["train.epochs"], 4);
        assert_eq!(snap.counters["train.batches"], 8); // 2 batches x 4 epochs
        assert_eq!(snap.histograms["train.epoch_seconds"].count, 4);
        assert_eq!(snap.histograms["train.grad_norm"].count, 8);
        assert!(snap.gauges["train.samples_per_sec"] > 0.0);
        let last = observed.history.last().unwrap();
        assert_eq!(snap.gauges["train.loss"], last.train_loss);
        assert_eq!(snap.gauges["train.val_loss"], last.val_loss.unwrap());
    }

    #[test]
    #[should_panic(expected = "training set is empty")]
    fn empty_training_set_panics() {
        let mut model = ChainNet::new(ModelConfig::small(), 5);
        Trainer::new(TrainConfig::small()).train(&mut model, &[], None);
    }

    /// Wraps a healthy surrogate and poisons a window of `loss_on_graph`
    /// calls with a NaN-scaled loss, to exercise the divergence guard.
    struct Poisoned {
        inner: ChainNet,
        calls: std::cell::Cell<usize>,
        poison_from: usize,
        poison_count: usize,
    }

    impl Poisoned {
        fn new(inner: ChainNet, poison_from: usize, poison_count: usize) -> Self {
            Self {
                inner,
                calls: std::cell::Cell::new(0),
                poison_from,
                poison_count,
            }
        }
    }

    impl Surrogate for Poisoned {
        fn name(&self) -> &str {
            "poisoned"
        }
        fn config(&self) -> &ModelConfig {
            self.inner.config()
        }
        fn params(&self) -> &chainnet_neural::params::ParamStore {
            self.inner.params()
        }
        fn params_mut(&mut self) -> &mut chainnet_neural::params::ParamStore {
            self.inner.params_mut()
        }
        fn loss_on_graph(
            &self,
            tape: &mut Tape,
            graph: &PlacementGraph,
            targets: &[ChainTargets],
        ) -> chainnet_neural::tape::Var {
            let raw = self.inner.loss_on_graph(tape, graph, targets);
            let n = self.calls.get();
            self.calls.set(n + 1);
            if n >= self.poison_from && n < self.poison_from + self.poison_count {
                tape.affine(raw, f64::NAN, 0.0)
            } else {
                raw
            }
        }
        fn predict(&self, graph: &PlacementGraph) -> Vec<crate::model::PerfPrediction> {
            self.inner.predict(graph)
        }
    }

    #[test]
    fn guarded_training_matches_plain_when_nothing_trips() {
        let data = toy_dataset(12);
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 4,
            learning_rate: 1e-3,
            lr_decay: 0.9,
            lr_decay_period: 10,
            seed: 11,
        };
        let trainer = Trainer::new(cfg);
        let mut plain_model = ChainNet::new(ModelConfig::small(), 17);
        let plain = trainer.train(&mut plain_model, &data, None);
        let mut guarded_model = ChainNet::new(ModelConfig::small(), 17);
        // An infinite clip threshold makes the guard purely diagnostic.
        let guard = GuardConfig {
            max_grad_norm: f64::INFINITY,
            max_trips: 3,
        };
        let guarded = trainer
            .train_guarded(&mut guarded_model, &data, None, &guard)
            .unwrap();
        assert_eq!(plain, guarded);
        assert_eq!(plain_model, guarded_model);
    }

    #[test]
    fn guarded_training_survives_a_transient_nan_loss() {
        let data = toy_dataset(16);
        let cfg = TrainConfig {
            epochs: 8,
            batch_size: 8,
            learning_rate: 5e-3,
            lr_decay: 0.9,
            lr_decay_period: 10,
            seed: 13,
        };
        let trainer = Trainer::new(cfg);
        // Poison one forward pass in the middle of epoch 2 (2 batches of
        // 8 samples per epoch => calls 32..48 are epoch 2).
        let mut model = Poisoned::new(ChainNet::new(ModelConfig::small(), 19), 36, 1);
        let obs = Obs::enabled();
        let report = trainer
            .train_guarded_observed(&mut model, &data, None, &GuardConfig::default(), &obs)
            .expect("a single transient NaN must not abort training");
        // The tripped epoch is dropped from history; the rest completed.
        assert_eq!(report.history.len(), 7);
        assert!(model.params().values_all_finite());
        assert!(report.final_train_loss().unwrap().is_finite());
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counters["train.divergence_trips"], 1);
    }

    #[test]
    fn guarded_training_aborts_and_rolls_back_under_persistent_nan() {
        let data = toy_dataset(8);
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 4,
            learning_rate: 1e-3,
            lr_decay: 0.9,
            lr_decay_period: 10,
            seed: 17,
        };
        let trainer = Trainer::new(cfg);
        // Every forward pass is poisoned: no epoch can ever complete.
        let mut model = Poisoned::new(ChainNet::new(ModelConfig::small(), 23), 0, usize::MAX);
        let initial = model.params().clone();
        let guard = GuardConfig {
            max_grad_norm: 100.0,
            max_trips: 3,
        };
        let obs = Obs::enabled();
        let err = trainer
            .train_guarded_observed(&mut model, &data, None, &guard, &obs)
            .unwrap_err();
        assert_eq!(err, TrainError::Diverged { epoch: 2, trips: 3 });
        // Rolled back: with no clean epoch, the last good checkpoint is
        // the initial weights (grads zeroed by the rollback).
        let mut expected = initial;
        expected.zero_grads();
        assert_eq!(model.params(), &expected);
        assert!(model.params().values_all_finite());
        assert_eq!(
            obs.registry.snapshot().counters["train.divergence_trips"],
            3
        );
        assert!(err.to_string().contains("diverged"));
    }

    #[test]
    fn guarded_training_rejects_empty_training_set() {
        let mut model = ChainNet::new(ModelConfig::small(), 5);
        let err = Trainer::new(TrainConfig::small())
            .train_guarded(&mut model, &[], None, &GuardConfig::default())
            .unwrap_err();
        assert_eq!(err, TrainError::EmptyTrainingSet);
    }

    fn ckpt_tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chainnet-train-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn diag_guard() -> GuardConfig {
        GuardConfig {
            max_grad_norm: f64::INFINITY,
            max_trips: 3,
        }
    }

    fn ckpt_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 6,
            batch_size: 4,
            learning_rate: 2e-3,
            lr_decay: 0.9,
            lr_decay_period: 10,
            seed: 29,
        }
    }

    #[test]
    fn checkpointed_training_matches_plain_guarded() {
        let data = toy_dataset(10);
        let trainer = Trainer::new(ckpt_cfg());
        let mut plain_model = ChainNet::new(ModelConfig::small(), 31);
        let plain = trainer
            .train_guarded(&mut plain_model, &data, None, &diag_guard())
            .unwrap();

        let dir = ckpt_tmp_dir("matches");
        let store = CkptStore::open(&dir, "train", TRAIN_CKPT_SCHEMA).unwrap();
        let mut ckpt_model = ChainNet::new(ModelConfig::small(), 31);
        let ckpted = trainer
            .train_checkpointed(
                &mut ckpt_model,
                &data,
                None,
                &diag_guard(),
                &store,
                2,
                false,
            )
            .unwrap();
        assert_eq!(plain, ckpted);
        assert_eq!(plain_model, ckpt_model);
        // Cadence 2 over 6 epochs: checkpoints after epochs 2, 4, 6.
        assert_eq!(store.list().unwrap(), vec![2, 4, 6]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_and_resumed_training_is_bit_identical() {
        let data = toy_dataset(10);
        let trainer = Trainer::new(ckpt_cfg());

        // Uninterrupted checkpointed run: the reference result.
        let dir_full = ckpt_tmp_dir("full");
        let store_full = CkptStore::open(&dir_full, "train", TRAIN_CKPT_SCHEMA).unwrap();
        let mut full_model = ChainNet::new(ModelConfig::small(), 37);
        let full = trainer
            .train_checkpointed(
                &mut full_model,
                &data,
                None,
                &diag_guard(),
                &store_full,
                1,
                false,
            )
            .unwrap();

        // Simulate a SIGKILL after epoch 3: a fresh directory holding
        // only the checkpoints that existed at that moment is exactly
        // the state a killed process leaves behind.
        let dir_cut = ckpt_tmp_dir("cut");
        std::fs::create_dir_all(&dir_cut).unwrap();
        for seq in [1u64, 2, 3] {
            std::fs::copy(
                store_full.path_of(seq),
                dir_cut.join(store_full.path_of(seq).file_name().unwrap()),
            )
            .unwrap();
        }
        let store_cut = CkptStore::open(&dir_cut, "train", TRAIN_CKPT_SCHEMA).unwrap();
        // The model passed in is a *fresh* one: everything that matters
        // must come from the checkpoint.
        let mut resumed_model = ChainNet::new(ModelConfig::small(), 999);
        let resumed = trainer
            .train_checkpointed(
                &mut resumed_model,
                &data,
                None,
                &diag_guard(),
                &store_cut,
                1,
                true,
            )
            .unwrap();

        assert_eq!(full, resumed);
        assert_eq!(full_model.params(), resumed_model.params());
        // Byte-level identity of the serialized parameters.
        assert_eq!(
            serde_json::to_string(full_model.params()).unwrap(),
            serde_json::to_string(resumed_model.params()).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir_full);
        let _ = std::fs::remove_dir_all(&dir_cut);
    }

    #[test]
    fn resume_of_completed_run_returns_final_state() {
        let data = toy_dataset(8);
        let trainer = Trainer::new(ckpt_cfg());
        let dir = ckpt_tmp_dir("complete");
        let store = CkptStore::open(&dir, "train", TRAIN_CKPT_SCHEMA).unwrap();
        let mut model = ChainNet::new(ModelConfig::small(), 41);
        let full = trainer
            .train_checkpointed(&mut model, &data, None, &diag_guard(), &store, 2, false)
            .unwrap();
        let mut resumed_model = ChainNet::new(ModelConfig::small(), 999);
        let resumed = trainer
            .train_checkpointed(
                &mut resumed_model,
                &data,
                None,
                &diag_guard(),
                &store,
                2,
                true,
            )
            .unwrap();
        assert_eq!(full, resumed);
        assert_eq!(model.params(), resumed_model.params());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_latest_checkpoint_falls_back_and_still_matches() {
        let data = toy_dataset(10);
        let trainer = Trainer::new(ckpt_cfg());
        let dir_full = ckpt_tmp_dir("corrupt-ref");
        let store_full = CkptStore::open(&dir_full, "train", TRAIN_CKPT_SCHEMA).unwrap();
        let mut full_model = ChainNet::new(ModelConfig::small(), 43);
        let full = trainer
            .train_checkpointed(
                &mut full_model,
                &data,
                None,
                &diag_guard(),
                &store_full,
                1,
                false,
            )
            .unwrap();

        // Interrupted at epoch 4, with the epoch-4 checkpoint bit-flipped
        // (e.g. a torn disk): resume must quarantine it, fall back to
        // epoch 3, and still converge to the identical final state.
        let dir_cut = ckpt_tmp_dir("corrupt-cut");
        std::fs::create_dir_all(&dir_cut).unwrap();
        for seq in [1u64, 2, 3, 4] {
            std::fs::copy(
                store_full.path_of(seq),
                dir_cut.join(store_full.path_of(seq).file_name().unwrap()),
            )
            .unwrap();
        }
        let store_cut = CkptStore::open(&dir_cut, "train", TRAIN_CKPT_SCHEMA).unwrap();
        let bad = store_cut.path_of(4);
        let mut bytes = std::fs::read(&bad).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&bad, &bytes).unwrap();

        let mut resumed_model = ChainNet::new(ModelConfig::small(), 999);
        let resumed = trainer
            .train_checkpointed(
                &mut resumed_model,
                &data,
                None,
                &diag_guard(),
                &store_cut,
                1,
                true,
            )
            .unwrap();
        assert_eq!(full, resumed);
        assert_eq!(full_model.params(), resumed_model.params());
        // The bad file was quarantined for inspection; the resumed run
        // then re-wrote a fresh, valid epoch-4 checkpoint in its place.
        assert!(dir_cut.join("train-00000004.ckpt.corrupt").exists());
        let rewritten = std::fs::read(&bad).unwrap();
        assert!(chainnet_ckpt::decode(&rewritten).is_ok());
        let _ = std::fs::remove_dir_all(&dir_full);
        let _ = std::fs::remove_dir_all(&dir_cut);
    }

    #[test]
    fn checkpoint_cadence_zero_is_a_typed_error() {
        let data = toy_dataset(4);
        let dir = ckpt_tmp_dir("zero");
        let store = CkptStore::open(&dir, "train", TRAIN_CKPT_SCHEMA).unwrap();
        let mut model = ChainNet::new(ModelConfig::small(), 5);
        let err = Trainer::new(ckpt_cfg())
            .train_checkpointed(&mut model, &data, None, &diag_guard(), &store, 0, false)
            .unwrap_err();
        assert_eq!(err, TrainError::Checkpoint(CkptError::InvalidCadence));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_checkpoint_is_a_typed_error() {
        let data = toy_dataset(4);
        let dir = ckpt_tmp_dir("nockpt");
        let store = CkptStore::open(&dir, "train", TRAIN_CKPT_SCHEMA).unwrap();
        let mut model = ChainNet::new(ModelConfig::small(), 5);
        let err = Trainer::new(ckpt_cfg())
            .train_checkpointed(&mut model, &data, None, &diag_guard(), &store, 1, true)
            .unwrap_err();
        assert!(matches!(
            err,
            TrainError::Checkpoint(CkptError::NoCheckpoint { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_changed_config_is_a_mismatch() {
        let data = toy_dataset(6);
        let dir = ckpt_tmp_dir("mismatch");
        let store = CkptStore::open(&dir, "train", TRAIN_CKPT_SCHEMA).unwrap();
        let mut model = ChainNet::new(ModelConfig::small(), 5);
        Trainer::new(ckpt_cfg())
            .train_checkpointed(&mut model, &data, None, &diag_guard(), &store, 2, false)
            .unwrap();
        let mut other_cfg = ckpt_cfg();
        other_cfg.seed = 999;
        let err = Trainer::new(other_cfg)
            .train_checkpointed(&mut model, &data, None, &diag_guard(), &store, 2, true)
            .unwrap_err();
        assert!(matches!(
            err,
            TrainError::Checkpoint(CkptError::ResumeMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
