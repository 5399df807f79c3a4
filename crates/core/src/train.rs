//! Mini-batch training loop implementing Eq. 13: joint MSE over predicted
//! throughput and latency across all chains of a batch, with Adam and the
//! Table IV step-decay learning-rate schedule.
//!
//! Every run goes through one epoch loop, [`Trainer::fit`]. What differs
//! between runs is a parameter of that loop, not a separate entry point:
//!
//! * the **step kind** — [`PerGraph`] runs one tape pass per sample of
//!   any [`Surrogate`] in `f64`; [`Packed`] packs each mini-batch of a
//!   [`ChainNet`] into one padded [`GraphBatch`] tape pass in `f32` or
//!   `f64`;
//! * the optional **divergence guard** ([`TrainPlan::guard`]);
//! * the optional **checkpoint sink** ([`TrainPlan::checkpoint`]).

use crate::config::TrainConfig;
use crate::data::{ChainTargets, LabeledGraph};
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

/// Schema version of [`TrainCheckpoint`] payloads. Bump on any change
/// to its layout that older payloads cannot be read into.
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

/// Divergence-guard settings ([`TrainPlan::guard`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Clip the concatenated gradient to this L2 norm before each
    /// optimizer step. Non-positive or non-finite values disable
    /// clipping.
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

/// Where and how often a run checkpoints ([`TrainPlan::checkpoint`]).
#[derive(Debug, Clone, Copy)]
pub struct CheckpointPlan<'a> {
    /// Durable store the [`TrainCheckpoint`]s are written through.
    pub store: &'a CkptStore,
    /// Save after every `every`-th epoch (and always after the last).
    /// Zero is [`CkptError::InvalidCadence`].
    pub every: usize,
    /// Restart from the most recent verified checkpoint in `store`
    /// instead of epoch 0.
    pub resume: bool,
}

/// The options of one training run; the default is a plain run with no
/// guard and no checkpoints.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainPlan<'a> {
    /// Divergence guard. Before every optimizer step the batch loss,
    /// the accumulated gradients and — after the step — the parameters
    /// are checked for NaN/inf, and gradients are clipped to
    /// `max_grad_norm` (L2). A failed check *trips* the guard: the epoch
    /// is abandoned, the parameters roll back to the snapshot taken
    /// after the last clean epoch (or the initial weights), the Adam
    /// moments restart, and `train.divergence_trips` counts the trip.
    /// After `max_trips` consecutive trips the run stops with
    /// [`TrainError::Diverged`]. Tripped epochs add no [`EpochStats`].
    ///
    /// `None` skips every check, the clip and the snapshot.
    pub guard: Option<GuardConfig>,
    /// Crash-safe checkpoints. The complete resumable state —
    /// parameters, Adam moments, RNG state, shuffle permutation, guard
    /// counters, history — is written as a [`TrainCheckpoint`] at the
    /// cadence, after clean and rolled-back epochs alike, and once more
    /// at the epoch boundary where a cancelled run stops. Resuming
    /// produces **bit-identical** parameters and history to an
    /// uninterrupted run.
    pub checkpoint: Option<CheckpointPlan<'a>>,
}

/// Typed failure of a training run.
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

impl std::error::Error for TrainError {}

/// The step kind a [`TrainCheckpoint`] was written by. A checkpoint only
/// resumes a run of the same kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepKind {
    /// [`PerGraph`] (`f64`).
    PerGraph,
    /// [`Packed<f32>`].
    PackedF32,
    /// [`Packed<f64>`].
    PackedF64,
}

/// Payloads written before step kinds existed came from per-graph runs.
impl Default for StepKind {
    fn default() -> Self {
        Self::PerGraph
    }
}

/// Complete resumable state of a training run, in the step's dtype `Sc`.
/// Restoring every field — including the shuffle permutation and the raw
/// RNG state — is what makes a killed-and-resumed run bit-identical to
/// an uninterrupted one. `f32` stores survive the JSON payload exactly:
/// each value widens to `f64` and casts back to the same `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainCheckpoint<Sc: Scalar = f64> {
    /// Step kind of the run (validated on resume).
    #[serde(default)]
    pub step: StepKind,
    /// Trainer configuration the run was started with (validated on
    /// resume).
    pub config: TrainConfig,
    /// Guard configuration the run was started with (validated on
    /// resume).
    pub guard: Option<GuardConfig>,
    /// Number of training samples (validated on resume).
    pub num_samples: usize,
    /// First epoch still to run.
    pub epoch_next: usize,
    /// The step's parameters after the last completed epoch.
    pub params: ParamStore<Sc>,
    /// Adam moment estimates and step counter.
    pub adam: Adam<Sc>,
    /// Raw xoshiro256++ state of the shuffle RNG.
    pub rng: [u64; 4],
    /// The sample permutation (shuffled cumulatively in place).
    pub order: Vec<usize>,
    /// Divergence-guard rollback target (last known-good parameters);
    /// `None` for unguarded runs.
    pub last_good: Option<ParamStore<Sc>>,
    /// Consecutive tripped epochs so far.
    pub consecutive_trips: usize,
    /// Total tripped epochs over the whole run.
    pub total_trips: u64,
    /// Per-epoch history accumulated so far.
    pub history: TrainReport,
}

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

mod step {
    use super::*;

    /// One kind of optimizer step: how a mini-batch becomes gradients in
    /// a parameter store the epoch loop can update, check and roll back.
    pub trait TrainStep {
        /// Dtype of the store the loop updates.
        type Sc: Scalar;
        /// Tag recorded in checkpoints.
        const KIND: StepKind;
        /// The parameters the optimizer updates.
        fn store(&mut self) -> &mut ParamStore<Self::Sc>;
        /// Forward and backward the samples `chunk` of `data` on `tape`,
        /// scaled by `1/(2Q)`, accumulating gradients into
        /// [`TrainStep::store`] and each raw loss into `loss` (in sample
        /// order). Returns `Q`, or `None` as soon as a loss is non-finite
        /// when `guarded`.
        fn batch(
            &mut self,
            tape: &mut Tape<Self::Sc>,
            data: &[LabeledGraph],
            chunk: &[usize],
            obs: &Obs,
            guarded: bool,
            loss: &mut f64,
        ) -> Option<usize>;
        /// Make the model's own weights current (before validation and
        /// when the run ends).
        fn sync(&mut self);
        /// The model, for [`Trainer::evaluate_loss`] after a sync.
        fn model(&self) -> &dyn Surrogate;
    }
}
use step::TrainStep;

/// Step kind: one tape pass per sample, for any [`Surrogate`], in `f64`
/// on the model's own parameter store.
pub struct PerGraph<'m, S: Surrogate> {
    model: &'m mut S,
}

impl<'m, S: Surrogate> PerGraph<'m, S> {
    /// Train `model` one graph at a time.
    pub fn new(model: &'m mut S) -> Self {
        Self { model }
    }
}

impl<S: Surrogate> TrainStep for PerGraph<'_, S> {
    type Sc = f64;
    const KIND: StepKind = StepKind::PerGraph;

    fn store(&mut self) -> &mut ParamStore {
        self.model.params_mut()
    }

    fn batch(
        &mut self,
        tape: &mut Tape,
        data: &[LabeledGraph],
        chunk: &[usize],
        obs: &Obs,
        guarded: bool,
        loss: &mut f64,
    ) -> Option<usize> {
        // Q = number of chains in this batch (Eq. 13 denominator).
        let q: usize = chunk.iter().map(|&i| data[i].graph.num_chains()).sum();
        let scale = 1.0 / (2.0 * q.max(1) as f64);
        for &i in chunk {
            let sample = &data[i];
            tape.reset();
            let fwd_span = obs.tracer.span("neural.forward");
            let raw = self
                .model
                .loss_on_graph(tape, &sample.graph, &sample.targets);
            fwd_span.close();
            let raw_value = tape.value(raw).item();
            if guarded && !raw_value.is_finite() {
                return None;
            }
            let scaled = tape.affine(raw, scale, 0.0);
            tape.backward(scaled);
            tape.accumulate_param_grads(self.model.params_mut());
            *loss += raw_value;
        }
        Some(q)
    }

    fn sync(&mut self) {}

    fn model(&self) -> &dyn Surrogate {
        &*self.model
    }
}

/// Step kind for [`ChainNet`]: every mini-batch is packed into one
/// padded [`GraphBatch`] and runs as a *single* tape forward/backward
/// ([`ChainNet::batched_loss`]) in dtype `Sc` (`f32` for SIMD-width
/// throughput, `f64` to match the per-graph numerics), so a batch of `B`
/// graphs costs a few `(B, ·)` matmuls instead of `B` tape passes.
///
/// The model's `f64` weights are cast into an `Sc` store once; they are
/// written back before each validation pass and when the run ends. The
/// per-epoch losses differ from [`PerGraph`] only by the documented
/// latency-readout rounding (and single-precision rounding for `f32`).
pub struct Packed<'m, Sc: Scalar> {
    model: &'m mut ChainNet,
    store: ParamStore<Sc>,
}

impl<'m, Sc: Scalar> Packed<'m, Sc> {
    /// Train `model` one packed mini-batch at a time in dtype `Sc`.
    pub fn new(model: &'m mut ChainNet) -> Self {
        Self {
            store: model.params().cast(),
            model,
        }
    }
}

impl<Sc: Scalar> TrainStep for Packed<'_, Sc> {
    type Sc = Sc;
    // `Scalar` is implemented for `f32` and `f64` only.
    const KIND: StepKind = if std::mem::size_of::<Sc>() == std::mem::size_of::<f32>() {
        StepKind::PackedF32
    } else {
        StepKind::PackedF64
    };

    fn store(&mut self) -> &mut ParamStore<Sc> {
        &mut self.store
    }

    fn batch(
        &mut self,
        tape: &mut Tape<Sc>,
        data: &[LabeledGraph],
        chunk: &[usize],
        obs: &Obs,
        guarded: bool,
        loss: &mut f64,
    ) -> Option<usize> {
        let graphs: Vec<&PlacementGraph> = chunk.iter().map(|&i| &data[i].graph).collect();
        let targets: Vec<&[ChainTargets]> =
            chunk.iter().map(|&i| data[i].targets.as_slice()).collect();
        let batch = GraphBatch::pack(&graphs, self.model.config().target_mode);
        let targets = batch.pack_targets(&graphs, &targets);
        // Q = number of real chains in this batch (Eq. 13).
        let q = batch.total_chains();
        let scale = 1.0 / (2.0 * q.max(1) as f64);
        tape.reset();
        let fwd_span = obs.tracer.span("neural.forward");
        let raw = self.model.batched_loss(tape, &self.store, &batch, &targets);
        fwd_span.close();
        let raw_value = tape.value(raw).item().to_f64();
        if guarded && !raw_value.is_finite() {
            return None;
        }
        let scaled = tape.affine(raw, Sc::from_f64(scale), Sc::ZERO);
        tape.backward(scaled);
        tape.accumulate_param_grads(&mut self.store);
        *loss += raw_value;
        Some(q)
    }

    fn sync(&mut self) {
        self.model.params_mut().assign_values_cast(&self.store);
    }

    fn model(&self) -> &dyn Surrogate {
        &*self.model
    }
}

/// What a checkpoint must agree on to resume a run.
struct RunId {
    step: StepKind,
    config: TrainConfig,
    guard: Option<GuardConfig>,
    num_samples: usize,
}

impl RunId {
    fn validate<Sc: Scalar>(&self, ck: &TrainCheckpoint<Sc>) -> Result<(), TrainError> {
        let reason = if ck.step != self.step {
            Some("step kind (--dtype) differs from the checkpointed run")
        } else if ck.config != self.config {
            Some("trainer configuration differs from the checkpointed run")
        } else if ck.guard != self.guard {
            Some("guard configuration differs from the checkpointed run")
        } else if ck.num_samples != self.num_samples || ck.order.len() != self.num_samples {
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

/// Everything the epoch loop carries between epochs besides the step's
/// parameters — exactly what a checkpoint stores with them.
struct LoopState<Sc: Scalar> {
    adam: Adam<Sc>,
    rng: SmallRng,
    order: Vec<usize>,
    last_good: Option<ParamStore<Sc>>,
    consecutive_trips: usize,
    total_trips: u64,
    report: TrainReport,
}

impl<Sc: Scalar> LoopState<Sc> {
    /// Write this state and `params` through `ck` as the checkpoint
    /// before epoch `epoch_next`.
    fn save(
        &self,
        ck: &CheckpointPlan<'_>,
        id: &RunId,
        epoch_next: usize,
        params: &ParamStore<Sc>,
    ) -> Result<(), TrainError> {
        let state = TrainCheckpoint {
            step: id.step,
            config: id.config,
            guard: id.guard,
            num_samples: id.num_samples,
            epoch_next,
            params: params.clone(),
            adam: self.adam.clone(),
            rng: self.rng.state(),
            order: self.order.clone(),
            last_good: self.last_good.clone(),
            consecutive_trips: self.consecutive_trips,
            total_trips: self.total_trips,
            history: self.report.clone(),
        };
        ck.store.save_state(epoch_next as u64, &state)?;
        Ok(())
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

    /// Train `model` one graph at a time, optionally tracking a
    /// validation loss each epoch (used by the ablation study's Fig. 13
    /// curves). A plain [`Trainer::fit`] run of [`PerGraph`]; an empty
    /// training set gives an empty history.
    pub fn train<S: Surrogate>(
        &self,
        model: &mut S,
        train: &[LabeledGraph],
        val: Option<&[LabeledGraph]>,
    ) -> TrainReport {
        // With no guard and no checkpoint the only failure is an empty
        // training set.
        self.fit(
            PerGraph::new(model),
            train,
            val,
            &TrainPlan::default(),
            &Obs::disabled(),
        )
        .unwrap_or_default()
    }

    /// Train `model` one packed mini-batch at a time in dtype `Sc`: a
    /// plain [`Trainer::fit`] run of [`Packed`], recording into `obs`. An
    /// empty training set gives an empty history.
    pub fn train_batched<Sc: Scalar>(
        &self,
        model: &mut ChainNet,
        train: &[LabeledGraph],
        val: Option<&[LabeledGraph]>,
        obs: &Obs,
    ) -> TrainReport {
        self.fit(
            Packed::<Sc>::new(model),
            train,
            val,
            &TrainPlan::default(),
            obs,
        )
        .unwrap_or_default()
    }

    /// Train with `step` ([`PerGraph`] or [`Packed`]) under `plan`:
    /// shuffle, step-decay learning rate and Adam over mini-batches of
    /// `config.batch_size`, with the plan's optional divergence guard
    /// and checkpoints, recording into `obs` when it is enabled:
    ///
    /// * `train.epoch` spans, one `train.step` span per mini-batch, and
    ///   the step's `neural.forward` / `neural.backward` spans;
    /// * `train.epoch_seconds` histogram (RAII-timed wall clock per
    ///   epoch) and `train.samples_per_sec` gauge;
    /// * `train.loss` / `train.val_loss` gauges tracking the latest
    ///   epoch;
    /// * `train.grad_norm` histogram, observed after each mini-batch
    ///   (before clipping);
    /// * `train.epochs` and `train.batches` counters, the
    ///   `train.divergence_trips` counter, and for [`Packed`] the
    ///   `train.batch_size` gauge;
    /// * one `train` event per epoch.
    ///
    /// Instrumentation never changes the arithmetic, and neither does a
    /// guard whose clip is disabled on a healthy run. The step's model
    /// holds the final (or, after [`TrainError::Diverged`], the last
    /// known-good) weights on return.
    ///
    /// # Errors
    ///
    /// [`TrainError::EmptyTrainingSet`]; [`TrainError::Diverged`] after
    /// `guard.max_trips` consecutive tripped epochs;
    /// [`TrainError::Checkpoint`] on cadence 0, save/load failures, a
    /// missing checkpoint under `resume`, or a checkpoint recorded for
    /// a different step kind, config, guard or dataset.
    pub fn fit<T: TrainStep>(
        &self,
        mut step: T,
        train: &[LabeledGraph],
        val: Option<&[LabeledGraph]>,
        plan: &TrainPlan<'_>,
        obs: &Obs,
    ) -> Result<TrainReport, TrainError> {
        if train.is_empty() {
            return Err(TrainError::EmptyTrainingSet);
        }
        let result = self.run(&mut step, train, val, plan, obs);
        step.sync();
        result
    }

    /// The epoch loop behind [`Trainer::fit`].
    fn run<T: TrainStep>(
        &self,
        step: &mut T,
        train: &[LabeledGraph],
        val: Option<&[LabeledGraph]>,
        plan: &TrainPlan<'_>,
        obs: &Obs,
    ) -> Result<TrainReport, TrainError> {
        let cfg = self.config;
        // A non-finite clip threshold disables clipping exactly as 0
        // does, but a JSON checkpoint cannot represent it; normalize so
        // the guard round-trips on resume.
        let guard = plan.guard.map(|g| GuardConfig {
            max_grad_norm: if g.max_grad_norm.is_finite() {
                g.max_grad_norm
            } else {
                0.0
            },
            ..g
        });
        let guarded = guard.is_some();
        let id = RunId {
            step: T::KIND,
            config: cfg,
            guard,
            num_samples: train.len(),
        };
        let grad_norm = obs
            .is_enabled()
            .then(|| obs.registry.histogram("train.grad_norm", GRAD_NORM_BUCKETS));
        let schedule = StepDecay {
            lr0: cfg.learning_rate,
            factor: cfg.lr_decay,
            period: cfg.lr_decay_period,
        };
        let mut st = LoopState {
            adam: Adam::new(cfg.learning_rate),
            rng: SmallRng::seed_from_u64(cfg.seed),
            order: (0..train.len()).collect(),
            // Last known-good snapshot; the initial weights qualify.
            last_good: guard.map(|_| step.store().clone()),
            consecutive_trips: 0,
            total_trips: 0,
            report: TrainReport::default(),
        };
        // One pooled tape reused across every batch of every epoch:
        // Tape::reset recycles forward/gradient buffers, so steady-state
        // training steps perform no tape allocations.
        let mut tape = Tape::new();
        tape.set_tracer(obs.tracer.clone());
        let mut start_epoch = 0;
        if let Some(ck) = &plan.checkpoint {
            if ck.every == 0 {
                return Err(TrainError::Checkpoint(CkptError::InvalidCadence));
            }
            if ck.resume {
                let (_seq, saved) = ck.store.resume_latest_state::<TrainCheckpoint<T::Sc>>()?;
                id.validate(&saved)?;
                *step.store() = saved.params;
                step.store().zero_grads();
                st = LoopState {
                    adam: saved.adam,
                    rng: SmallRng::from_state(saved.rng),
                    order: saved.order,
                    last_good: saved.last_good,
                    consecutive_trips: saved.consecutive_trips,
                    total_trips: saved.total_trips,
                    report: saved.history,
                };
                start_epoch = saved.epoch_next;
            }
        }

        for epoch in start_epoch..cfg.epochs {
            // Cooperative cancellation at the epoch boundary. The state
            // at the top of epoch `e` (pre-shuffle RNG, order) is
            // bit-identical to the end-of-epoch `e-1` state, so the
            // flushed checkpoint reuses sequence number `e` and a later
            // resume replays the exact trajectory the uninterrupted run
            // would have taken. The checkpointed history stays clean:
            // `interrupted` describes this process's exit, not the state
            // on disk.
            if obs.cancel.is_set() {
                if let Some(ck) = plan.checkpoint.as_ref().filter(|_| epoch > 0) {
                    st.save(ck, &id, epoch, step.store())?;
                }
                st.report.interrupted = true;
                return Ok(st.report);
            }
            let _epoch_span = obs.tracer.span("train.epoch");
            let epoch_timer = obs.is_enabled().then(|| {
                obs.registry
                    .histogram("train.epoch_seconds", EPOCH_SECONDS_BUCKETS)
                    .start_timer()
            });
            let lr = schedule.lr_at(epoch as u64);
            st.adam.set_lr(lr);
            st.order.shuffle(&mut st.rng);
            let mut epoch_loss = 0.0;
            let mut epoch_chains = 0usize;
            let mut epoch_batches = 0u64;
            let mut tripped = false;

            for chunk in st.order.chunks(cfg.batch_size.max(1)) {
                let _step_span = obs.tracer.span("train.step");
                let Some(q) = step.batch(&mut tape, train, chunk, obs, guarded, &mut epoch_loss)
                else {
                    tripped = true;
                    break;
                };
                epoch_chains += q;
                epoch_batches += 1;
                let store = step.store();
                let norm = match &guard {
                    Some(g) => {
                        let pre_clip = store.clip_grad_norm(g.max_grad_norm);
                        if !pre_clip.is_finite() {
                            tripped = true;
                            break;
                        }
                        Some(pre_clip)
                    }
                    None => grad_norm.as_ref().map(|_| store.grad_norm()),
                };
                if let (Some(h), Some(n)) = (&grad_norm, norm) {
                    h.observe(n);
                }
                st.adam.step(store);
                if guarded && !store.values_all_finite() {
                    tripped = true;
                    break;
                }
            }

            if tripped {
                st.consecutive_trips += 1;
                st.total_trips += 1;
                if obs.is_enabled() {
                    obs.registry.counter("train.divergence_trips").inc();
                }
                let store = step.store();
                if let Some(good) = &st.last_good {
                    *store = good.clone();
                }
                store.zero_grads();
                // Adam's moment estimates were fed non-finite or
                // oversized gradients; restart them alongside the weights.
                st.adam = Adam::new(cfg.learning_rate);
                st.adam.set_lr(lr);
                let max_trips = guard.map_or(1, |g| g.max_trips.max(1));
                if st.consecutive_trips >= max_trips {
                    return Err(TrainError::Diverged {
                        epoch,
                        trips: st.total_trips,
                    });
                }
            } else {
                st.consecutive_trips = 0;
                if let Some(good) = &mut st.last_good {
                    good.clone_from(step.store());
                }
                let train_loss = epoch_loss / (2.0 * epoch_chains.max(1) as f64);
                let val_loss = val.map(|v| {
                    step.sync();
                    self.evaluate_loss(step.model(), v)
                });
                if let Some(timer) = epoch_timer {
                    let wall = timer.elapsed_secs();
                    timer.stop();
                    let reg = &obs.registry;
                    reg.counter("train.epochs").inc();
                    reg.counter("train.batches").add(epoch_batches);
                    reg.gauge("train.samples_per_sec")
                        .set(train.len() as f64 / wall.max(1e-9));
                    if T::KIND != StepKind::PerGraph {
                        reg.gauge("train.batch_size")
                            .set(cfg.batch_size.max(1) as f64);
                    }
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
                st.report.history.push(EpochStats {
                    epoch,
                    train_loss,
                    val_loss,
                    lr,
                });
            }
            // Rolled-back epochs checkpoint at the cadence too, so the
            // on-disk last-good tracks the in-memory one.
            if let Some(ck) = &plan.checkpoint {
                if (epoch + 1) % ck.every == 0 || epoch + 1 == cfg.epochs {
                    st.save(ck, &id, epoch + 1, step.store())?;
                }
            }
        }
        Ok(st.report)
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

    const KINDS: [StepKind; 3] = [StepKind::PerGraph, StepKind::PackedF64, StepKind::PackedF32];

    /// [`Trainer::fit`] with the step of `kind` on a [`ChainNet`].
    fn fit_kind(
        trainer: &Trainer,
        kind: StepKind,
        model: &mut ChainNet,
        train: &[LabeledGraph],
        val: Option<&[LabeledGraph]>,
        plan: &TrainPlan<'_>,
        obs: &Obs,
    ) -> Result<TrainReport, TrainError> {
        match kind {
            StepKind::PerGraph => trainer.fit(PerGraph::new(model), train, val, plan, obs),
            StepKind::PackedF64 => trainer.fit(Packed::<f64>::new(model), train, val, plan, obs),
            StepKind::PackedF32 => trainer.fit(Packed::<f32>::new(model), train, val, plan, obs),
        }
    }

    fn guarded(guard: GuardConfig) -> TrainPlan<'static> {
        TrainPlan {
            guard: Some(guard),
            checkpoint: None,
        }
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
        let unclipped = GuardConfig {
            max_grad_norm: 0.0,
            max_trips: 3,
        };
        for kind in KINDS {
            let mut plain_model = ChainNet::new(ModelConfig::small(), 13);
            let plain = fit_kind(
                &trainer,
                kind,
                &mut plain_model,
                train,
                Some(val),
                &TrainPlan::default(),
                &Obs::disabled(),
            )
            .unwrap();
            for guard in [None, Some(unclipped)] {
                for checkpointed in [false, true] {
                    let tag = format!("observed-{kind:?}-{}-{checkpointed}", guard.is_some());
                    let dir = ckpt_tmp_dir(&tag);
                    let store = CkptStore::open(&dir, "train", TRAIN_CKPT_SCHEMA).unwrap();
                    let plan = TrainPlan {
                        guard,
                        checkpoint: checkpointed.then_some(CheckpointPlan {
                            store: &store,
                            every: 2,
                            resume: false,
                        }),
                    };
                    let obs = Obs::enabled().with_tracer(chainnet_obs::Tracer::enabled());
                    let mut observed_model = ChainNet::new(ModelConfig::small(), 13);
                    let observed = fit_kind(
                        &trainer,
                        kind,
                        &mut observed_model,
                        train,
                        Some(val),
                        &plan,
                        &obs,
                    )
                    .unwrap();
                    // Instrumentation, an unclipped guard and checkpoints
                    // must not perturb training.
                    assert_eq!(plain, observed, "{tag}");
                    assert_eq!(plain_model, observed_model, "{tag}");
                    let snap = obs.registry.snapshot();
                    assert_eq!(snap.counters["train.epochs"], 4, "{tag}");
                    // 2 batches x 4 epochs
                    assert_eq!(snap.counters["train.batches"], 8, "{tag}");
                    assert_eq!(snap.histograms["train.epoch_seconds"].count, 4, "{tag}");
                    assert_eq!(snap.histograms["train.grad_norm"].count, 8, "{tag}");
                    assert!(snap.gauges["train.samples_per_sec"] > 0.0, "{tag}");
                    let last = observed.history.last().unwrap();
                    assert_eq!(snap.gauges["train.loss"], last.train_loss, "{tag}");
                    assert_eq!(snap.gauges["train.val_loss"], last.val_loss.unwrap());
                    assert_eq!(
                        snap.gauges.get("train.batch_size").copied(),
                        (kind != StepKind::PerGraph).then_some(4.0),
                        "{tag}"
                    );
                    let trace = obs.tracer.take();
                    trace.validate().unwrap();
                    let stats = trace.phase_stats();
                    assert_eq!(stats["train.epoch"].count, 4, "{tag}");
                    assert_eq!(stats["train.step"].count, 8, "{tag}");
                    assert!(stats["neural.forward"].count >= 8, "{tag}");
                    assert_eq!(
                        stats["neural.forward"].count, stats["neural.backward"].count,
                        "{tag}"
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
    }

    #[test]
    fn empty_training_set_is_a_typed_error() {
        let trainer = Trainer::new(TrainConfig::small());
        let dir = ckpt_tmp_dir("empty");
        let store = CkptStore::open(&dir, "train", TRAIN_CKPT_SCHEMA).unwrap();
        let plans = [
            TrainPlan::default(),
            guarded(GuardConfig::default()),
            TrainPlan {
                guard: Some(GuardConfig::default()),
                checkpoint: Some(CheckpointPlan {
                    store: &store,
                    every: 1,
                    resume: false,
                }),
            },
        ];
        for kind in KINDS {
            for plan in &plans {
                let mut model = ChainNet::new(ModelConfig::small(), 5);
                let err = fit_kind(
                    &trainer,
                    kind,
                    &mut model,
                    &[],
                    None,
                    plan,
                    &Obs::disabled(),
                )
                .unwrap_err();
                assert_eq!(err, TrainError::EmptyTrainingSet, "{kind:?}");
            }
        }
        // The wrappers report an empty history instead of failing.
        let mut model = ChainNet::new(ModelConfig::small(), 5);
        assert_eq!(trainer.train(&mut model, &[], None), TrainReport::default());
        for report in [
            trainer.train_batched::<f32>(&mut model, &[], None, &Obs::disabled()),
            trainer.train_batched::<f64>(&mut model, &[], None, &Obs::disabled()),
        ] {
            assert_eq!(report, TrainReport::default());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Wraps a healthy surrogate and poisons a window of `loss_on_graph`
    /// calls with a NaN-scaled loss, to exercise the divergence guard.
    struct Poisoned {
        inner: ChainNet,
        #[expect(
            clippy::disallowed_types,
            reason = "test-only: counts calls through the `&self` Surrogate API"
        )]
        calls: std::cell::Cell<usize>,
        poison_from: usize,
        poison_count: usize,
    }

    impl Poisoned {
        fn new(inner: ChainNet, poison_from: usize, poison_count: usize) -> Self {
            Self {
                inner,
                #[expect(
                    clippy::disallowed_types,
                    reason = "test-only: counts calls through the `&self` Surrogate API"
                )]
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
            .fit(
                PerGraph::new(&mut guarded_model),
                &data,
                None,
                &guarded(guard),
                &Obs::disabled(),
            )
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
            .fit(
                PerGraph::new(&mut model),
                &data,
                None,
                &guarded(GuardConfig::default()),
                &obs,
            )
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
            .fit(
                PerGraph::new(&mut model),
                &data,
                None,
                &guarded(guard),
                &obs,
            )
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
    fn guard_rolls_back_every_step_kind_on_a_nan_target() {
        // One sample with a NaN throughput target poisons whichever
        // batch holds it, in every epoch.
        let mut data = toy_dataset(8);
        data[5].targets[0].throughput = f64::NAN;
        let trainer = Trainer::new(TrainConfig {
            epochs: 10,
            batch_size: 4,
            learning_rate: 1e-3,
            lr_decay: 0.9,
            lr_decay_period: 10,
            seed: 17,
        });
        let guard = GuardConfig {
            max_grad_norm: 100.0,
            max_trips: 3,
        };
        for kind in KINDS {
            let mut model = ChainNet::new(ModelConfig::small(), 23);
            let mut expected = model.params().clone();
            if kind == StepKind::PackedF32 {
                // The packed f32 step holds the weights in single
                // precision; the initial weights come back rounded.
                expected.assign_values_cast(&expected.cast::<f32>());
            }
            let obs = Obs::enabled();
            let err = fit_kind(
                &trainer,
                kind,
                &mut model,
                &data,
                None,
                &guarded(guard),
                &obs,
            )
            .unwrap_err();
            assert_eq!(err, TrainError::Diverged { epoch: 2, trips: 3 }, "{kind:?}");
            assert_eq!(model.params(), &expected, "{kind:?}");
            assert_eq!(
                obs.registry.snapshot().counters["train.divergence_trips"],
                3
            );
        }
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

    /// The diagnostic guard plus checkpoints through `store`.
    fn ckpt_plan(store: &CkptStore, every: usize, resume: bool) -> TrainPlan<'_> {
        TrainPlan {
            guard: Some(diag_guard()),
            checkpoint: Some(CheckpointPlan {
                store,
                every,
                resume,
            }),
        }
    }

    /// A fresh store holding copies of `seqs` from `from`: the state a
    /// process killed after the last of them leaves behind.
    fn cut_store(from: &CkptStore, tag: &str, seqs: &[u64]) -> CkptStore {
        let dir = ckpt_tmp_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        for &seq in seqs {
            std::fs::copy(
                from.path_of(seq),
                dir.join(from.path_of(seq).file_name().unwrap()),
            )
            .unwrap();
        }
        CkptStore::open(&dir, "train", TRAIN_CKPT_SCHEMA).unwrap()
    }

    #[test]
    fn checkpointed_training_matches_plain_guarded() {
        let data = toy_dataset(10);
        let trainer = Trainer::new(ckpt_cfg());
        let mut plain_model = ChainNet::new(ModelConfig::small(), 31);
        let plain = trainer
            .fit(
                PerGraph::new(&mut plain_model),
                &data,
                None,
                &guarded(diag_guard()),
                &Obs::disabled(),
            )
            .unwrap();

        let dir = ckpt_tmp_dir("matches");
        let store = CkptStore::open(&dir, "train", TRAIN_CKPT_SCHEMA).unwrap();
        let mut ckpt_model = ChainNet::new(ModelConfig::small(), 31);
        let ckpted = trainer
            .fit(
                PerGraph::new(&mut ckpt_model),
                &data,
                None,
                &ckpt_plan(&store, 2, false),
                &Obs::disabled(),
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
        for kind in KINDS {
            // Uninterrupted checkpointed run: the reference result.
            let dir_full = ckpt_tmp_dir(&format!("full-{kind:?}"));
            let store_full = CkptStore::open(&dir_full, "train", TRAIN_CKPT_SCHEMA).unwrap();
            let mut full_model = ChainNet::new(ModelConfig::small(), 37);
            let full = fit_kind(
                &trainer,
                kind,
                &mut full_model,
                &data,
                None,
                &ckpt_plan(&store_full, 1, false),
                &Obs::disabled(),
            )
            .unwrap();

            // Simulate a SIGKILL after epoch 3.
            let store_cut = cut_store(&store_full, &format!("cut-{kind:?}"), &[1, 2, 3]);
            // The model passed in is a *fresh* one: everything that
            // matters must come from the checkpoint.
            let mut resumed_model = ChainNet::new(ModelConfig::small(), 999);
            let resumed = fit_kind(
                &trainer,
                kind,
                &mut resumed_model,
                &data,
                None,
                &ckpt_plan(&store_cut, 1, true),
                &Obs::disabled(),
            )
            .unwrap();

            assert_eq!(full, resumed, "{kind:?}");
            assert_eq!(full_model.params(), resumed_model.params(), "{kind:?}");
            // Byte-level identity of the serialized parameters.
            assert_eq!(
                serde_json::to_string(full_model.params()).unwrap(),
                serde_json::to_string(resumed_model.params()).unwrap()
            );
            let _ = std::fs::remove_dir_all(&dir_full);
            let _ = std::fs::remove_dir_all(store_cut.dir());
        }
    }

    #[test]
    fn resume_of_completed_run_returns_final_state() {
        let data = toy_dataset(8);
        let trainer = Trainer::new(ckpt_cfg());
        let dir = ckpt_tmp_dir("complete");
        let store = CkptStore::open(&dir, "train", TRAIN_CKPT_SCHEMA).unwrap();
        let mut model = ChainNet::new(ModelConfig::small(), 41);
        let full = trainer
            .fit(
                PerGraph::new(&mut model),
                &data,
                None,
                &ckpt_plan(&store, 2, false),
                &Obs::disabled(),
            )
            .unwrap();
        let mut resumed_model = ChainNet::new(ModelConfig::small(), 999);
        let resumed = trainer
            .fit(
                PerGraph::new(&mut resumed_model),
                &data,
                None,
                &ckpt_plan(&store, 2, true),
                &Obs::disabled(),
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
        for kind in KINDS {
            let dir_full = ckpt_tmp_dir(&format!("corrupt-ref-{kind:?}"));
            let store_full = CkptStore::open(&dir_full, "train", TRAIN_CKPT_SCHEMA).unwrap();
            let mut full_model = ChainNet::new(ModelConfig::small(), 43);
            let full = fit_kind(
                &trainer,
                kind,
                &mut full_model,
                &data,
                None,
                &ckpt_plan(&store_full, 1, false),
                &Obs::disabled(),
            )
            .unwrap();

            // Interrupted at epoch 4, with the epoch-4 checkpoint
            // bit-flipped (e.g. a torn disk): resume must quarantine it,
            // fall back to epoch 3, and still converge to the identical
            // final state.
            let store_cut = cut_store(&store_full, &format!("corrupt-cut-{kind:?}"), &[1, 2, 3, 4]);
            let bad = store_cut.path_of(4);
            let mut bytes = std::fs::read(&bad).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&bad, &bytes).unwrap();

            let mut resumed_model = ChainNet::new(ModelConfig::small(), 999);
            let resumed = fit_kind(
                &trainer,
                kind,
                &mut resumed_model,
                &data,
                None,
                &ckpt_plan(&store_cut, 1, true),
                &Obs::disabled(),
            )
            .unwrap();
            assert_eq!(full, resumed, "{kind:?}");
            assert_eq!(full_model.params(), resumed_model.params(), "{kind:?}");
            // The bad file was quarantined for inspection; the resumed
            // run then re-wrote a fresh, valid epoch-4 checkpoint in its
            // place.
            assert!(store_cut.dir().join("train-00000004.ckpt.corrupt").exists());
            let rewritten = std::fs::read(&bad).unwrap();
            assert!(chainnet_ckpt::decode(&rewritten).is_ok());
            let _ = std::fs::remove_dir_all(&dir_full);
            let _ = std::fs::remove_dir_all(store_cut.dir());
        }
    }

    #[test]
    fn checkpoint_cadence_zero_is_a_typed_error() {
        let data = toy_dataset(4);
        let dir = ckpt_tmp_dir("zero");
        let store = CkptStore::open(&dir, "train", TRAIN_CKPT_SCHEMA).unwrap();
        let mut model = ChainNet::new(ModelConfig::small(), 5);
        let err = Trainer::new(ckpt_cfg())
            .fit(
                PerGraph::new(&mut model),
                &data,
                None,
                &ckpt_plan(&store, 0, false),
                &Obs::disabled(),
            )
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
            .fit(
                PerGraph::new(&mut model),
                &data,
                None,
                &ckpt_plan(&store, 1, true),
                &Obs::disabled(),
            )
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
        let mut other_cfg = ckpt_cfg();
        other_cfg.seed = 999;
        for kind in KINDS {
            let dir = ckpt_tmp_dir(&format!("mismatch-{kind:?}"));
            let store = CkptStore::open(&dir, "train", TRAIN_CKPT_SCHEMA).unwrap();
            let mut model = ChainNet::new(ModelConfig::small(), 5);
            let trainer = Trainer::new(ckpt_cfg());
            fit_kind(
                &trainer,
                kind,
                &mut model,
                &data,
                None,
                &ckpt_plan(&store, 2, false),
                &Obs::disabled(),
            )
            .unwrap();
            let resume = ckpt_plan(&store, 2, true);
            let mut changed_guard = resume;
            changed_guard.guard = Some(GuardConfig::default());
            let other_kind = KINDS.into_iter().find(|&k| k != kind).unwrap();
            for (what, trainer, step, plan) in [
                ("config", Trainer::new(other_cfg), kind, resume),
                ("guard", trainer, kind, changed_guard),
                ("step kind", trainer, other_kind, resume),
            ] {
                let err = fit_kind(
                    &trainer,
                    step,
                    &mut model,
                    &data,
                    None,
                    &plan,
                    &Obs::disabled(),
                )
                .unwrap_err();
                assert!(
                    matches!(
                        err,
                        TrainError::Checkpoint(CkptError::ResumeMismatch { .. })
                    ),
                    "{kind:?}: changed {what} gave {err:?}"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn payload_without_step_resumes_as_per_graph() {
        let data = toy_dataset(10);
        let trainer = Trainer::new(ckpt_cfg());
        let dir_full = ckpt_tmp_dir("nostep-full");
        let store_full = CkptStore::open(&dir_full, "train", TRAIN_CKPT_SCHEMA).unwrap();
        let mut full_model = ChainNet::new(ModelConfig::small(), 47);
        let full = trainer
            .fit(
                PerGraph::new(&mut full_model),
                &data,
                None,
                &ckpt_plan(&store_full, 1, false),
                &Obs::disabled(),
            )
            .unwrap();

        // Rewrite the epoch-3 payload in the layout written before step
        // kinds existed: no `step` field, the guard and the last-good
        // store as plain objects.
        let payload: serde_json::Value = store_full.load_state(3).unwrap().unwrap();
        let serde_json::Value::Map(fields) = payload else {
            panic!("checkpoint payload is not an object");
        };
        assert!(fields.iter().any(|(k, _)| k == "step"));
        let old: Vec<(String, serde_json::Value)> =
            fields.into_iter().filter(|(k, _)| k != "step").collect();
        let dir_old = ckpt_tmp_dir("nostep-old");
        let store_old = CkptStore::open(&dir_old, "train", TRAIN_CKPT_SCHEMA).unwrap();
        store_old
            .save_state(3, &serde_json::Value::Map(old))
            .unwrap();

        let restored: TrainCheckpoint = store_old.load_state(3).unwrap().unwrap();
        assert_eq!(restored.step, StepKind::PerGraph);
        assert_eq!(
            restored.guard,
            Some(GuardConfig {
                max_grad_norm: 0.0,
                max_trips: 3,
            })
        );
        let mut resumed_model = ChainNet::new(ModelConfig::small(), 999);
        let resumed = trainer
            .fit(
                PerGraph::new(&mut resumed_model),
                &data,
                None,
                &ckpt_plan(&store_old, 1, true),
                &Obs::disabled(),
            )
            .unwrap();
        assert_eq!(full, resumed);
        assert_eq!(full_model.params(), resumed_model.params());
        // The same payload does not resume a packed run.
        let mut packed_model = ChainNet::new(ModelConfig::small(), 999);
        let err = trainer
            .fit(
                Packed::<f32>::new(&mut packed_model),
                &data,
                None,
                &ckpt_plan(&store_old, 1, true),
                &Obs::disabled(),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            TrainError::Checkpoint(CkptError::ResumeMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir_full);
        let _ = std::fs::remove_dir_all(&dir_old);
    }
}
