//! Simulated-annealing placement search (Section VII): fragment-relocation
//! moves with swap-back of displaced fragments, geometric cooling, and
//! multi-trial restarts from a common initial placement.

use crate::error::PlacementError;
use crate::evaluator::BatchEvaluator;
use crate::problem::PlacementProblem;
use chainnet_ckpt::{CkptError, CkptStore};
use chainnet_obs::Obs;
use chainnet_qsim::model::Placement;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::time::Instant;

/// Telemetry record emitted once per completed trial on the `sa` component.
#[derive(Debug, Clone, Copy, Serialize)]
struct SaTrialEvent {
    kind: &'static str,
    trial: usize,
    proposals: u64,
    accepted: u64,
    improvements: usize,
    best_objective: f64,
    elapsed_secs: f64,
}

/// Configuration of the annealing search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaConfig {
    /// Search steps per trial (100 in the paper's experiments).
    pub max_steps: usize,
    /// Initial temperature `τ_0`.
    pub initial_temp: f64,
    /// Geometric cooling rate `γ ∈ (0, 1)` (0.9 in the paper).
    pub cooling: f64,
    /// RNG seed; trial `t` uses `seed + t`.
    pub seed: u64,
    /// Attempts at generating a feasible candidate before a step is
    /// skipped (counts as a non-improving step).
    pub max_move_attempts: usize,
    /// Hard cap on objective evaluations across the whole search; when
    /// hit, the search stops mid-trial and returns the best-so-far with
    /// [`TerminationReason::MaxEvaluations`]. The cap is checked before
    /// each step, so a step scoring k candidates can pass it by at most
    /// k − 1 (by none at k = 1). `None` (default) is unlimited.
    #[serde(default)]
    pub max_evaluations: Option<u64>,
    /// Wall-clock deadline in seconds for the whole search; when hit,
    /// the search stops mid-trial and returns the best-so-far with
    /// [`TerminationReason::WallClock`]. `None` (default) is unlimited.
    #[serde(default)]
    pub max_wall_secs: Option<f64>,
}

impl SaConfig {
    /// The paper's search settings: 100 steps, cooling 0.9.
    pub fn paper_default() -> Self {
        Self {
            max_steps: 100,
            initial_temp: 0.5,
            cooling: 0.9,
            seed: 0,
            max_move_attempts: 32,
            max_evaluations: None,
            max_wall_secs: None,
        }
    }

    /// Override the seed (builder-style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the step budget (builder-style).
    #[must_use]
    pub fn with_max_steps(mut self, steps: usize) -> Self {
        self.max_steps = steps;
        self
    }

    /// Cap total objective evaluations (builder-style).
    #[must_use]
    pub fn with_max_evaluations(mut self, evals: u64) -> Self {
        self.max_evaluations = Some(evals);
        self
    }

    /// Set a wall-clock deadline in seconds (builder-style). Non-finite
    /// or non-positive values are ignored.
    #[must_use]
    pub fn with_max_wall_secs(mut self, secs: f64) -> Self {
        self.max_wall_secs = Some(secs);
        self
    }
}

impl Default for SaConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Why a multi-trial search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TerminationReason {
    /// Every requested trial ran to its full step count.
    #[default]
    Completed,
    /// The [`SaConfig::max_evaluations`] cap was reached.
    MaxEvaluations,
    /// The [`SaConfig::max_wall_secs`] deadline passed.
    WallClock,
    /// Cooperative cancellation (`obs.cancel`, typically a
    /// SIGTERM/SIGINT handler) was requested; the search stopped at the
    /// next step boundary and returned the best-so-far.
    Cancelled,
}

impl std::fmt::Display for TerminationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Completed => "completed",
            Self::MaxEvaluations => "evaluation cap reached",
            Self::WallClock => "wall-clock deadline reached",
            Self::Cancelled => "cancelled",
        })
    }
}

/// One recorded search step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaStep {
    /// 0-based step index within the trial.
    pub step: usize,
    /// Objective of the candidate proposed this step.
    pub candidate_objective: f64,
    /// Objective of the current decision after the accept/reject choice.
    pub current_objective: f64,
    /// Best objective seen so far in this trial.
    pub best_objective: f64,
    /// Whether the candidate was accepted.
    pub accepted: bool,
    /// Wall-clock seconds since the trial started.
    pub elapsed_secs: f64,
}

/// A new best-so-far decision found during a trial, with the step index
/// and wall-clock instant it appeared (used by the post-processed curves
/// of Figs. 14c-d and 15).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaImprovement {
    /// 0-based step index within the trial.
    pub step: usize,
    /// Seconds since the trial started.
    pub elapsed_secs: f64,
    /// The new best placement.
    pub placement: Placement,
    /// Its objective value under the search evaluator.
    pub objective: f64,
}

/// The outcome of one trial (one cooling trajectory).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaTrial {
    /// Per-step trajectory (Fig. 14a plots these curves).
    pub steps: Vec<SaStep>,
    /// Every strict improvement of the best-so-far decision, in order.
    pub improvements: Vec<SaImprovement>,
    /// Best placement found in this trial.
    pub best_placement: Placement,
    /// Its objective value.
    pub best_objective: f64,
    /// Wall-clock seconds the trial took.
    pub elapsed_secs: f64,
    /// Candidate evaluations that failed (the candidate was treated as
    /// rejected and the search continued).
    #[serde(default)]
    pub eval_failures: u64,
}

/// The outcome of a multi-trial search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaResult {
    /// All trials, in execution order.
    pub trials: Vec<SaTrial>,
    /// Best placement across trials.
    pub best_placement: Placement,
    /// Its objective value.
    pub best_objective: f64,
    /// Objective of the shared initial placement.
    pub initial_objective: f64,
    /// Total objective evaluations consumed.
    pub evaluations: u64,
    /// Total wall-clock seconds.
    pub elapsed_secs: f64,
    /// Why the search stopped. Budget-bounded searches still return the
    /// best decision found so far.
    #[serde(default)]
    pub termination_reason: TerminationReason,
}

/// Schema version of serialized [`SaCheckpoint`] payloads; bump on any
/// layout change so stale checkpoints are skipped instead of misread.
pub const SA_CKPT_SCHEMA: u32 = 1;

/// The complete resumable state of a checkpointed multi-trial search.
///
/// Holds both search-level state (best-so-far decision, completed
/// trials, cumulative evaluation count) and mid-trial state (current
/// decision, temperature, raw RNG words), so a search killed between
/// steps resumes on the exact annealing trajectory. `step_next == 0`
/// marks a trial boundary: trial [`SaCheckpoint::trial`] has not
/// consumed any randomness yet and is restarted from its seed.
///
/// Wall-clock fields (`elapsed_secs` of trials, steps and improvements)
/// are stored as 0: a checkpoint is a function of the search inputs
/// alone, so two runs of one search write byte-identical checkpoints.
/// Work restored from a checkpoint therefore reports zero elapsed time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaCheckpoint {
    /// Configuration of the checkpointed search (must match at resume).
    pub config: SaConfig,
    /// Requested trial count (must match at resume).
    pub trials: usize,
    /// Candidates per step, k (must match at resume; 0 reads as 1).
    /// Payloads written before this field existed come from
    /// single-proposal searches and decode as 0, i.e. k = 1.
    #[serde(default)]
    pub neighborhood: usize,
    /// The shared initial placement (must match at resume).
    pub initial: Placement,
    /// Objective of the initial placement (never re-evaluated at resume).
    pub initial_objective: f64,
    /// Objective evaluations consumed so far, across all processes.
    pub evaluations: u64,
    /// Best placement across all completed work.
    pub best: Placement,
    /// Its objective value.
    pub best_objective: f64,
    /// Fully (or budget-) completed trials, in execution order.
    pub completed: Vec<SaTrial>,
    /// 0-based index of the in-flight trial.
    pub trial: usize,
    /// Next step of the in-flight trial; 0 means the trial has not
    /// started and the mid-trial fields below are placeholders.
    pub step_next: usize,
    /// Raw xoshiro256++ state of the in-flight trial's RNG.
    pub rng: [u64; 4],
    /// Current decision of the in-flight trial.
    pub current: Placement,
    /// Its objective value.
    pub current_objective: f64,
    /// Best placement of the in-flight trial.
    pub trial_best: Placement,
    /// Its objective value.
    pub trial_best_objective: f64,
    /// Current temperature of the in-flight trial.
    pub temp: f64,
    /// Steps recorded so far in the in-flight trial.
    pub steps: Vec<SaStep>,
    /// Improvements recorded so far in the in-flight trial.
    pub improvements: Vec<SaImprovement>,
    /// Failed candidate evaluations so far in the in-flight trial.
    pub eval_failures: u64,
}

/// Clamp non-finite objectives to `f64::MIN` before persisting. They
/// arise only from failed evaluations (recorded as `-inf`); the
/// vendored JSON layer maps non-finite floats to `null`, which would
/// not round-trip. `f64::MIN` orders identically against every real
/// objective, so resumed accept/reject decisions are unchanged.
fn finite_or_min(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        f64::MIN
    }
}

/// The one wall-clock read in this crate. Every budget watchdog and
/// telemetry timer routes through here so determinism review has a
/// single audited site; elapsed time bounds runtime and feeds metrics
/// but never feeds search results.
#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock budget watchdog / telemetry timer (never feeds results)"
)]
fn wall_timer() -> Instant {
    Instant::now()
}

// The `sanitize_*` helpers prepare trajectory records for a
// checkpoint: non-finite objectives clamped, wall-clock fields zeroed.

fn sanitize_step(s: &SaStep) -> SaStep {
    SaStep {
        candidate_objective: finite_or_min(s.candidate_objective),
        current_objective: finite_or_min(s.current_objective),
        best_objective: finite_or_min(s.best_objective),
        elapsed_secs: 0.0,
        ..*s
    }
}

fn sanitize_improvement(i: &SaImprovement) -> SaImprovement {
    SaImprovement {
        objective: finite_or_min(i.objective),
        elapsed_secs: 0.0,
        ..i.clone()
    }
}

fn sanitize_trial(t: &SaTrial) -> SaTrial {
    SaTrial {
        steps: t.steps.iter().map(sanitize_step).collect(),
        improvements: t.improvements.iter().map(sanitize_improvement).collect(),
        best_placement: t.best_placement.clone(),
        best_objective: finite_or_min(t.best_objective),
        elapsed_secs: 0.0,
        eval_failures: t.eval_failures,
    }
}

/// In-flight state of one annealing trial: its RNG, next step index,
/// accept/reject state and trajectory so far. Every driver walks a
/// trial through [`SimulatedAnnealing::step`], and a checkpoint stores
/// exactly these fields, so a resumed trial continues the same RNG and
/// decision sequence.
struct TrialCore {
    rng: SmallRng,
    next_step: usize,
    start: Instant,
    current: Placement,
    current_obj: f64,
    best: Placement,
    best_obj: f64,
    temp: f64,
    steps: Vec<SaStep>,
    improvements: Vec<SaImprovement>,
    eval_failures: u64,
    /// Batched evaluator calls in this process (telemetry only; not
    /// checkpointed).
    batch_evals: u64,
}

impl TrialCore {
    fn fresh(
        initial: &Placement,
        initial_objective: f64,
        config: &SaConfig,
        trial_seed: u64,
    ) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(trial_seed),
            next_step: 0,
            start: wall_timer(),
            current: initial.clone(),
            current_obj: initial_objective,
            best: initial.clone(),
            best_obj: initial_objective,
            temp: config.initial_temp,
            steps: Vec::with_capacity(config.max_steps),
            improvements: Vec::new(),
            eval_failures: 0,
            batch_evals: 0,
        }
    }

    /// The in-flight trial of a mid-trial checkpoint.
    fn resume(ck: SaCheckpoint) -> Self {
        Self {
            rng: SmallRng::from_state(ck.rng),
            next_step: ck.step_next,
            start: wall_timer(),
            current: ck.current,
            current_obj: ck.current_objective,
            best: ck.trial_best,
            best_obj: ck.trial_best_objective,
            temp: ck.temp,
            steps: ck.steps,
            improvements: ck.improvements,
            eval_failures: ck.eval_failures,
            batch_evals: 0,
        }
    }

    fn into_trial(self) -> SaTrial {
        SaTrial {
            steps: self.steps,
            improvements: self.improvements,
            best_placement: self.best,
            best_objective: self.best_obj,
            elapsed_secs: self.start.elapsed().as_secs_f64(),
            eval_failures: self.eval_failures,
        }
    }
}

/// Where the trial loop persists resumable state: `()` stores nothing
/// (its error type is [`Infallible`], so searches without a store
/// cannot fail); [`StoreSink`] writes to a [`CkptStore`].
trait CheckpointSink {
    type Error;
    /// Persist the checkpoint `f` builds, if one is due with `step`
    /// steps of the in-flight trial done.
    fn save(&mut self, step: usize, f: impl FnOnce() -> SaCheckpoint) -> Result<(), Self::Error>;
}

impl CheckpointSink for () {
    type Error = Infallible;
    fn save(&mut self, _: usize, _: impl FnOnce() -> SaCheckpoint) -> Result<(), Infallible> {
        Ok(())
    }
}

struct StoreSink<'a> {
    store: &'a CkptStore,
    every: usize,
    max_steps: usize,
    next_seq: u64,
}

impl CheckpointSink for StoreSink<'_> {
    type Error = PlacementError;
    /// Due at every trial boundary (`step == 0`) and every `every`
    /// steps mid-trial; the boundary save covers a trial's final step.
    fn save(&mut self, step: usize, f: impl FnOnce() -> SaCheckpoint) -> Result<(), Self::Error> {
        if step == 0 || (step.is_multiple_of(self.every) && step < self.max_steps) {
            self.store.save_state(self.next_seq, &f())?;
            self.next_seq += 1;
        }
        Ok(())
    }
}

/// Search-level progress of a multi-trial search: everything but the
/// in-flight trial.
struct Progress {
    initial_objective: f64,
    eval_offset: u64,
    completed: Vec<SaTrial>,
    best: Placement,
    best_obj: f64,
}

impl Progress {
    fn fresh(initial: &Placement, initial_objective: f64) -> Self {
        Self {
            initial_objective,
            eval_offset: 0,
            completed: Vec::new(),
            best: initial.clone(),
            best_obj: initial_objective,
        }
    }

    /// Record a finished trial, keeping the best decision.
    fn push(&mut self, trial: SaTrial) {
        if trial.best_objective > self.best_obj {
            self.best = trial.best_placement.clone();
            self.best_obj = trial.best_objective;
        }
        self.completed.push(trial);
    }

    fn into_result(self, evals: u64, start: Instant, reason: TerminationReason) -> SaResult {
        SaResult {
            trials: self.completed,
            best_placement: self.best,
            best_objective: self.best_obj,
            initial_objective: self.initial_objective,
            evaluations: self.eval_offset + evals,
            elapsed_secs: start.elapsed().as_secs_f64(),
            termination_reason: reason,
        }
    }
}

/// The simulated-annealing search driver.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimulatedAnnealing {
    config: SaConfig,
}

impl SimulatedAnnealing {
    /// Create a driver with the given configuration.
    pub fn new(config: SaConfig) -> Self {
        Self { config }
    }

    /// The search configuration.
    pub fn config(&self) -> &SaConfig {
        &self.config
    }

    /// Generate a candidate move per Section VII: relocate one random
    /// fragment of a random chain to a device not already used by that
    /// chain, swapping back `b` random displaced fragments. Returns `None`
    /// if no feasible candidate is found within the attempt budget.
    pub fn propose(
        &self,
        problem: &PlacementProblem,
        placement: &Placement,
        rng: &mut SmallRng,
    ) -> Option<Placement> {
        let d = problem.num_devices();
        'attempts: for _ in 0..self.config.max_move_attempts {
            let c = rng.gen_range(0..placement.num_chains());
            let j = rng.gen_range(0..placement.chain_len(c));
            let k = placement.device_of(c, j);
            let route = placement.chain_route(c);
            let candidates: Vec<usize> = (0..d).filter(|k2| !route.contains(k2)).collect();
            let Some(&k2) = candidates.as_slice().choose(rng) else {
                continue;
            };
            let mut next = placement.clone();
            next.set_device(c, j, k2);

            // Fragments of *other* chains currently on k2 may be swapped
            // back to k.
            let others: Vec<(usize, usize)> = placement
                .iter()
                .filter(|&(i, _, kk)| kk == k2 && i != c)
                .map(|(i, jj, _)| (i, jj))
                .collect();
            if !others.is_empty() {
                let b = rng.gen_range(0..=others.len());
                let mut shuffled = others;
                shuffled.shuffle(rng);
                for &(i, jj) in shuffled.iter().take(b) {
                    // Swapping would duplicate a device within chain i?
                    if next.chain_route(i).contains(&k) {
                        continue 'attempts;
                    }
                    next.set_device(i, jj, k);
                }
            }
            if problem.is_feasible(&next) {
                return Some(next);
            }
        }
        None
    }

    /// The trial seed of trial `t`.
    fn trial_seed(&self, t: usize) -> u64 {
        self.config.seed.wrapping_add(t as u64)
    }

    /// Run one single-proposal trial from `initial` (assumed feasible),
    /// ignoring the search budget of [`SaConfig`]. A failed candidate
    /// evaluation is a rejected move (recorded with a `-inf` candidate
    /// objective and counted in [`SaTrial::eval_failures`]).
    pub fn run_trial(
        &self,
        problem: &PlacementProblem,
        initial: &Placement,
        initial_objective: f64,
        evaluator: &mut dyn BatchEvaluator,
        trial_seed: u64,
    ) -> SaTrial {
        let mut core = TrialCore::fresh(initial, initial_objective, &self.config, trial_seed);
        let off = Obs::disabled();
        let Ok(_) = self.run_steps(problem, evaluator, 1, &mut core, None, &off, |_, _| {
            Ok::<(), Infallible>(())
        });
        core.into_trial()
    }

    /// Run the remaining steps of `core`'s trial and hand the state
    /// after each step to `after_step` (with the process's evaluation
    /// count), where mid-trial checkpoints hook in. With a `budget` —
    /// the search's start instant and the evaluations of earlier
    /// processes — the search budget is checked before each step:
    /// cancellation beats the deadline, which beats the evaluation cap.
    /// Returns why the trial stopped early, if it did.
    #[allow(clippy::too_many_arguments)]
    fn run_steps<E>(
        &self,
        problem: &PlacementProblem,
        evaluator: &mut dyn BatchEvaluator,
        neighborhood: usize,
        core: &mut TrialCore,
        budget: Option<(Instant, u64)>,
        obs: &Obs,
        mut after_step: impl FnMut(&TrialCore, u64) -> Result<(), E>,
    ) -> Result<Option<TerminationReason>, E> {
        let (wall, cap) = (self.config.max_wall_secs, self.config.max_evaluations);
        while core.next_step < self.config.max_steps {
            if let Some((start, eval_offset)) = budget {
                let evals = eval_offset + evaluator.evaluations();
                let stop = if obs.cancel.is_set() {
                    Some(TerminationReason::Cancelled)
                } else if wall.is_some_and(|s| s >= 0.0 && start.elapsed().as_secs_f64() >= s) {
                    Some(TerminationReason::WallClock)
                } else if cap.is_some_and(|cap| evals >= cap) {
                    Some(TerminationReason::MaxEvaluations)
                } else {
                    None
                };
                if stop.is_some() {
                    return Ok(stop);
                }
            }
            self.step(problem, evaluator, neighborhood, core, obs);
            after_step(core, evaluator.evaluations())?;
        }
        Ok(None)
    }

    /// One annealing step: propose up to `neighborhood` candidates from
    /// the current decision, score them in one
    /// [`BatchEvaluator::total_throughput_batch`] call, and run the
    /// Metropolis accept/reject test against the best evaluable
    /// candidate (ties keep the earliest proposal). Failed candidates
    /// count in [`SaTrial::eval_failures`]; a step with no feasible
    /// proposal, or whose whole neighborhood fails, is a rejected step.
    ///
    /// The RNG call order — the proposals, then a Metropolis draw only
    /// when the chosen candidate does not improve — is the bit-identity
    /// contract across drivers and checkpoint resumes; do not reorder.
    fn step(
        &self,
        problem: &PlacementProblem,
        evaluator: &mut dyn BatchEvaluator,
        neighborhood: usize,
        core: &mut TrialCore,
        obs: &Obs,
    ) {
        let _iter_span = obs.tracer.span("sa.iteration");
        let mut candidates = Vec::with_capacity(neighborhood);
        for _ in 0..neighborhood {
            if let Some(c) = self.propose(problem, &core.current, &mut core.rng) {
                candidates.push(c);
            }
        }
        let (candidate_objective, accepted) = if candidates.is_empty() {
            (core.current_obj, false)
        } else {
            let batch_span = obs.tracer.span("sa.batch_eval");
            let scores = evaluator.total_throughput_batch(problem, &candidates);
            batch_span.close();
            core.batch_evals += 1;
            core.eval_failures += scores.iter().filter(|r| r.is_err()).count() as u64;
            let mut chosen: Option<(usize, f64)> = None;
            for (idx, score) in scores.iter().enumerate() {
                if let Ok(obj) = score {
                    if chosen.is_none_or(|(_, top)| *obj > top) {
                        chosen = Some((idx, *obj));
                    }
                }
            }
            match chosen {
                Some((idx, obj)) => {
                    let accept = obj > core.current_obj || {
                        let p = ((obj - core.current_obj) / core.temp.max(1e-12)).exp();
                        core.rng.gen::<f64>() < p
                    };
                    if accept {
                        core.current = candidates.swap_remove(idx);
                        core.current_obj = obj;
                        if obj > core.best_obj {
                            core.best = core.current.clone();
                            core.best_obj = obj;
                            core.improvements.push(SaImprovement {
                                step: core.next_step,
                                elapsed_secs: core.start.elapsed().as_secs_f64(),
                                placement: core.best.clone(),
                                objective: core.best_obj,
                            });
                        }
                    }
                    (obj, accept)
                }
                // Graceful degradation: an unevaluable neighborhood is
                // a rejected step; decision and best-so-far stay intact.
                None => (f64::NEG_INFINITY, false),
            }
        };
        core.temp *= self.config.cooling;
        core.steps.push(SaStep {
            step: core.next_step,
            candidate_objective,
            current_objective: core.current_obj,
            best_objective: core.best_obj,
            accepted,
            elapsed_secs: core.start.elapsed().as_secs_f64(),
        });
        core.next_step += 1;
    }

    /// Run `trials` independent trials from the same initial placement
    /// (the paper's multi-start scheme) and keep the best decision.
    pub fn optimize(
        &self,
        problem: &PlacementProblem,
        initial: &Placement,
        evaluator: &mut dyn BatchEvaluator,
        trials: usize,
    ) -> SaResult {
        self.optimize_observed(problem, initial, evaluator, trials, &Obs::disabled())
    }

    /// [`optimize`](Self::optimize) with search telemetry recorded into
    /// `obs`: the single-proposal (k = 1) case of
    /// [`optimize_neighborhood_observed`](Self::optimize_neighborhood_observed),
    /// which lists the signals.
    pub fn optimize_observed(
        &self,
        problem: &PlacementProblem,
        initial: &Placement,
        evaluator: &mut dyn BatchEvaluator,
        trials: usize,
        obs: &Obs,
    ) -> SaResult {
        self.optimize_neighborhood_observed(problem, initial, evaluator, trials, 1, obs)
    }

    /// Run `trials` annealing trials in which each step proposes up to
    /// `neighborhood` (k) candidates from the current decision, scores
    /// them all in **one** [`BatchEvaluator::total_throughput_batch`]
    /// call (one batched surrogate forward pass for [`GnnEvaluator`]),
    /// and runs the Metropolis accept/reject test against the
    /// best-scoring one. k = 0 is treated as 1, the paper's
    /// single-proposal search. The search stops early, returning the
    /// best-so-far, on cancellation (`obs.cancel`) or when the
    /// [`SaConfig`] budget runs out.
    ///
    /// With an enabled `obs`, every search records the `sa.*` counters
    /// and gauges of `crates/obs/README.md` and one `sa_trial` event per
    /// trial, aggregated after each trial, plus `sa.trial`,
    /// `sa.iteration` and `sa.batch_eval` spans.
    ///
    /// # RNG contract
    ///
    /// A step consumes k proposals, then at most one Metropolis draw.
    /// k = 1 is the single-proposal schedule of
    /// [`optimize`](Self::optimize), bit for bit; other k walk their own
    /// trajectories. Every trajectory is deterministic in
    /// `(config.seed, k)` and identical across batched and
    /// per-candidate evaluator backends, because [`GnnEvaluator`]'s
    /// batch path is bit-identical to its sequential path.
    ///
    /// [`GnnEvaluator`]: crate::evaluator::GnnEvaluator
    pub fn optimize_neighborhood_observed(
        &self,
        problem: &PlacementProblem,
        initial: &Placement,
        evaluator: &mut dyn BatchEvaluator,
        trials: usize,
        neighborhood: usize,
        obs: &Obs,
    ) -> SaResult {
        let Ok(result) = self.anneal(
            problem,
            initial,
            evaluator,
            trials,
            neighborhood,
            None,
            &mut (),
            obs,
        );
        result
    }

    /// [`optimize_neighborhood_observed`](Self::optimize_neighborhood_observed)
    /// with crash-safe checkpointing: the complete search state —
    /// best-so-far placement, current/best objectives, temperature, raw
    /// RNG words, and the cumulative evaluation count — is persisted to
    /// `store` every `every` steps and at every trial boundary, so a
    /// search killed at any point and rerun with `resume = true`
    /// continues the exact annealing trajectory and lands on a
    /// bit-identical best placement.
    ///
    /// The initial placement is evaluated exactly once per search, in
    /// the first process; resumed processes restore its stored
    /// objective. Wall-clock budgets restart at resume (time spent in a
    /// killed process is not carried over), while the evaluation cap
    /// counts evaluations across all processes.
    ///
    /// # Errors
    ///
    /// [`CkptError::InvalidCadence`] when `every == 0`;
    /// [`CkptError::NoCheckpoint`] when `resume` is set but `store`
    /// holds no usable checkpoint; [`CkptError::ResumeMismatch`] when
    /// the latest checkpoint belongs to a different configuration,
    /// neighborhood size, trial count, or initial placement; and any
    /// I/O failure while saving.
    #[allow(clippy::too_many_arguments)]
    pub fn optimize_checkpointed_observed(
        &self,
        problem: &PlacementProblem,
        initial: &Placement,
        evaluator: &mut dyn BatchEvaluator,
        trials: usize,
        neighborhood: usize,
        store: &CkptStore,
        every: usize,
        resume: bool,
        obs: &Obs,
    ) -> Result<SaResult, PlacementError> {
        if every == 0 {
            return Err(PlacementError::Checkpoint(CkptError::InvalidCadence));
        }
        let mut sink = StoreSink {
            store,
            every,
            max_steps: self.config.max_steps,
            next_seq: 1,
        };
        let resume_from = if resume {
            let (seq, ck) = store.resume_latest_state::<SaCheckpoint>()?;
            self.validate_sa_checkpoint(&ck, trials, neighborhood, initial)?;
            sink.next_seq = seq + 1;
            Some(ck)
        } else {
            None
        };
        self.anneal(
            problem,
            initial,
            evaluator,
            trials,
            neighborhood,
            resume_from,
            &mut sink,
            obs,
        )
    }

    /// The one multi-trial annealing loop behind every search entry
    /// point: runs trials from a fresh start or from `resume_from`,
    /// persisting mid-trial and trial-boundary checkpoints to `sink`.
    #[allow(clippy::too_many_arguments)]
    fn anneal<S: CheckpointSink>(
        &self,
        problem: &PlacementProblem,
        initial: &Placement,
        evaluator: &mut dyn BatchEvaluator,
        trials: usize,
        neighborhood: usize,
        resume_from: Option<SaCheckpoint>,
        sink: &mut S,
        obs: &Obs,
    ) -> Result<SaResult, S::Error> {
        let start = wall_timer();
        evaluator.set_tracer(obs.tracer.clone());
        let k = neighborhood.max(1);
        let (mut progress, mut mid) = match resume_from {
            Some(mut ck) => {
                let progress = Progress {
                    initial_objective: ck.initial_objective,
                    eval_offset: ck.evaluations,
                    completed: std::mem::take(&mut ck.completed),
                    best: ck.best.clone(),
                    best_obj: ck.best_objective,
                };
                (progress, (ck.step_next > 0).then(|| TrialCore::resume(ck)))
            }
            // Graceful degradation: if even the initial placement cannot
            // be evaluated, the search still runs — any successfully
            // evaluated candidate beats `-inf`.
            None => {
                let objective = evaluator.total_throughput(problem, initial);
                (
                    Progress::fresh(initial, objective.unwrap_or(f64::NEG_INFINITY)),
                    None,
                )
            }
        };
        let initial_objective = progress.initial_objective;
        let budget = Some((start, progress.eval_offset));
        let mut termination_reason = TerminationReason::Completed;
        let mut proposals_total = 0u64;
        let mut accepted_total = 0u64;
        // Every completed (or budget-stopped) trial is in `progress`, so
        // its length is the index of the next trial to run.
        for t in progress.completed.len()..trials {
            let mut core = mid.take().unwrap_or_else(|| {
                TrialCore::fresh(initial, initial_objective, &self.config, self.trial_seed(t))
            });
            let trial_span = obs.tracer.span("sa.trial");
            let stopped = self.run_steps(
                problem,
                evaluator,
                k,
                &mut core,
                budget,
                obs,
                |core, evals| {
                    let evals = progress.eval_offset + evals;
                    sink.save(core.next_step, || {
                        self.checkpoint_state(initial, trials, k, &progress, evals, t, core)
                    })
                },
            )?;
            trial_span.close();
            let batch_evals = core.batch_evals;
            progress.push(core.into_trial());
            if obs.is_enabled() {
                let trial = &progress.completed[progress.completed.len() - 1];
                let proposals = trial.steps.len() as u64;
                let accepted = trial.steps.iter().filter(|s| s.accepted).count() as u64;
                proposals_total += proposals;
                accepted_total += accepted;
                obs.registry.counter("sa.trials").inc();
                obs.registry.counter("sa.proposals").add(proposals);
                obs.registry.counter("sa.accepted").add(accepted);
                obs.registry.counter("sa.batch_evals").add(batch_evals);
                if trial.eval_failures > 0 {
                    obs.registry
                        .counter("sa.eval_failures")
                        .add(trial.eval_failures);
                }
                if proposals_total > 0 {
                    obs.registry
                        .gauge("sa.accept_rate")
                        .set(accepted_total as f64 / proposals_total as f64);
                }
                obs.registry
                    .gauge("sa.best_objective")
                    .set(progress.best_obj);
                obs.registry.gauge("sa.temperature").set(
                    self.config.initial_temp * self.config.cooling.powi(trial.steps.len() as i32),
                );
                obs.events.emit(
                    "sa",
                    &SaTrialEvent {
                        kind: "sa_trial",
                        trial: t,
                        proposals,
                        accepted,
                        improvements: trial.improvements.len(),
                        best_objective: trial.best_objective,
                        elapsed_secs: trial.elapsed_secs,
                    },
                );
            }
            if let Some(reason) = stopped {
                termination_reason = reason;
            }
            // Trial-boundary checkpoint (step_next == 0): always saved,
            // so a completed search leaves a final `trial == trials`
            // record and a resume returns the stored result directly.
            // A cancelled or budget-stopped search flushes the same shape.
            let evals = progress.eval_offset + evaluator.evaluations();
            sink.save(0, || {
                let next_seed = self.trial_seed(t + 1);
                let next = TrialCore::fresh(initial, initial_objective, &self.config, next_seed);
                self.checkpoint_state(initial, trials, k, &progress, evals, t + 1, &next)
            })?;
            if termination_reason != TerminationReason::Completed {
                break;
            }
        }

        let process_evals = evaluator.evaluations();
        let result = progress.into_result(process_evals, start, termination_reason);
        if obs.is_enabled() {
            obs.registry.counter("sa.evaluations").add(process_evals);
            if result.elapsed_secs > 0.0 {
                obs.registry
                    .gauge("sa.evals_per_sec")
                    .set(process_evals as f64 / result.elapsed_secs);
            }
        }
        Ok(result)
    }

    /// Snapshot the full search state into a [`SaCheckpoint`], clamping
    /// non-finite objectives so the payload round-trips through JSON.
    /// `trial` is the in-flight trial and `core` its state.
    #[allow(clippy::too_many_arguments)]
    fn checkpoint_state(
        &self,
        initial: &Placement,
        trials: usize,
        neighborhood: usize,
        progress: &Progress,
        evaluations: u64,
        trial: usize,
        core: &TrialCore,
    ) -> SaCheckpoint {
        SaCheckpoint {
            config: self.config,
            trials,
            neighborhood,
            initial: initial.clone(),
            initial_objective: finite_or_min(progress.initial_objective),
            evaluations,
            best: progress.best.clone(),
            best_objective: finite_or_min(progress.best_obj),
            completed: progress.completed.iter().map(sanitize_trial).collect(),
            trial,
            step_next: core.next_step,
            rng: core.rng.state(),
            current: core.current.clone(),
            current_objective: finite_or_min(core.current_obj),
            trial_best: core.best.clone(),
            trial_best_objective: finite_or_min(core.best_obj),
            temp: core.temp,
            steps: core.steps.iter().map(sanitize_step).collect(),
            improvements: core.improvements.iter().map(sanitize_improvement).collect(),
            eval_failures: core.eval_failures,
        }
    }

    /// Reject a checkpoint that does not belong to this exact search:
    /// resuming it would silently change the annealing trajectory.
    fn validate_sa_checkpoint(
        &self,
        ck: &SaCheckpoint,
        trials: usize,
        neighborhood: usize,
        initial: &Placement,
    ) -> Result<(), PlacementError> {
        let mismatch = |reason: &str| {
            PlacementError::Checkpoint(CkptError::ResumeMismatch {
                reason: reason.to_string(),
            })
        };
        if ck.config != self.config {
            return Err(mismatch(
                "search configuration differs from the checkpointed run",
            ));
        }
        if ck.neighborhood.max(1) != neighborhood.max(1) {
            return Err(mismatch(
                "neighborhood size differs from the checkpointed run",
            ));
        }
        if ck.trials != trials {
            return Err(mismatch("trial count differs from the checkpointed run"));
        }
        if ck.initial != *initial {
            return Err(mismatch(
                "initial placement differs from the checkpointed run",
            ));
        }
        if ck.trial > trials || (ck.trial == trials && ck.step_next != 0) {
            return Err(mismatch("checkpoint is beyond the requested trial count"));
        }
        if ck.step_next > self.config.max_steps {
            return Err(mismatch("checkpoint is beyond the configured step count"));
        }
        Ok(())
    }

    /// Run single-proposal trials until `budget_secs` of wall clock is
    /// exhausted (the fixed-time comparison of Section VIII-C4a). At
    /// least one trial always completes.
    pub fn optimize_for(
        &self,
        problem: &PlacementProblem,
        initial: &Placement,
        evaluator: &mut dyn BatchEvaluator,
        budget_secs: f64,
    ) -> SaResult {
        let start = wall_timer();
        let objective = evaluator.total_throughput(problem, initial);
        let mut progress = Progress::fresh(initial, objective.unwrap_or(f64::NEG_INFINITY));
        for t in 0.. {
            let x0 = progress.initial_objective;
            progress.push(self.run_trial(problem, initial, x0, evaluator, self.trial_seed(t)));
            if start.elapsed().as_secs_f64() >= budget_secs {
                break;
            }
        }
        // Exhausting the requested time budget *is* this entry point's
        // normal completion.
        progress.into_result(evaluator.evaluations(), start, TerminationReason::Completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{Evaluator, SimEvaluator};
    use chainnet_qsim::model::{Device, Fragment, ServiceChain};
    use chainnet_qsim::sim::SimConfig;

    /// A problem with one obviously bad and one obviously good device.
    fn lopsided_problem() -> PlacementProblem {
        let devices = vec![
            Device::new(3.0, 0.2).unwrap(),  // slow, tiny buffer
            Device::new(50.0, 3.0).unwrap(), // fast, large buffer
            Device::new(50.0, 3.0).unwrap(),
        ];
        let chains = vec![ServiceChain::new(
            1.0,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
            ],
        )
        .unwrap()];
        PlacementProblem::new(devices, chains).unwrap()
    }

    #[test]
    fn proposals_stay_feasible() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default());
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            if let Some(cand) = sa.propose(&p, &init, &mut rng) {
                assert!(p.is_feasible(&cand));
            }
        }
    }

    #[test]
    fn proposals_change_the_placement() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default());
        let mut rng = SmallRng::seed_from_u64(2);
        let cand = sa.propose(&p, &init, &mut rng).unwrap();
        assert_ne!(cand, init);
    }

    #[test]
    fn search_improves_a_bad_start() {
        let p = lopsided_problem();
        // Worst start: both fragments forced through the slow device pair.
        let bad = Placement::new(vec![vec![0, 1]]);
        assert!(p.is_feasible(&bad));
        let mut ev = SimEvaluator::new(SimConfig::new(2_000.0, 3));
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(40).with_seed(4));
        let res = sa.optimize(&p, &bad, &mut ev, 2);
        assert!(
            res.best_objective > res.initial_objective,
            "best {} vs initial {}",
            res.best_objective,
            res.initial_objective
        );
        // The slow device 0 should be avoided in the best placement.
        assert!(!res.best_placement.chain_route(0).contains(&0));
    }

    #[test]
    fn best_objective_is_monotone_within_trial() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let mut ev = SimEvaluator::new(SimConfig::new(1_000.0, 5));
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(30));
        let res = sa.optimize(&p, &init, &mut ev, 1);
        let steps = &res.trials[0].steps;
        for w in steps.windows(2) {
            assert!(w[1].best_objective >= w[0].best_objective);
        }
    }

    #[test]
    fn trial_count_and_steps_respected() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let mut ev = SimEvaluator::new(SimConfig::new(500.0, 6));
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(10));
        let res = sa.optimize(&p, &init, &mut ev, 3);
        assert_eq!(res.trials.len(), 3);
        assert!(res.trials.iter().all(|t| t.steps.len() == 10));
        // 1 initial + up to 30 candidate evaluations.
        assert!(res.evaluations <= 31);
    }

    #[test]
    fn fixed_time_runs_at_least_one_trial() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let mut ev = SimEvaluator::new(SimConfig::new(200.0, 7));
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(5));
        let res = sa.optimize_for(&p, &init, &mut ev, 0.0);
        assert_eq!(res.trials.len(), 1);
    }

    /// An in-memory event sink shared with the test.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(bytes);
            Ok(bytes.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// An enabled context with a tracer and an in-memory event log.
    fn full_obs() -> (Obs, SharedBuf) {
        let buf = SharedBuf::default();
        let obs = Obs::enabled()
            .with_tracer(chainnet_obs::Tracer::enabled())
            .with_events(chainnet_obs::EventLog::to_writer(Box::new(buf.clone())));
        (obs, buf)
    }

    /// Every SA run, whatever its k, records the same signal set.
    fn assert_sa_signal_set(obs: &Obs, events: &SharedBuf, res: &SaResult, cfg: &SaConfig) {
        let snap = obs.registry.snapshot();
        let proposals: u64 = res.trials.iter().map(|t| t.steps.len() as u64).sum();
        let accepted = res
            .trials
            .iter()
            .flat_map(|t| &t.steps)
            .filter(|s| s.accepted)
            .count() as u64;
        assert_eq!(snap.counters["sa.trials"], res.trials.len() as u64);
        assert_eq!(snap.counters["sa.proposals"], proposals);
        assert_eq!(snap.counters["sa.accepted"], accepted);
        assert_eq!(snap.counters["sa.evaluations"], res.evaluations);
        // One batch call per step that produced at least one proposal.
        let batches = snap.counters["sa.batch_evals"];
        assert!((1..=proposals).contains(&batches), "batches {batches}");
        assert_eq!(
            snap.gauges["sa.accept_rate"],
            accepted as f64 / proposals as f64
        );
        assert_eq!(snap.gauges["sa.best_objective"], res.best_objective);
        let last_steps = res.trials.last().map_or(0, |t| t.steps.len()) as i32;
        let expected_temp = cfg.initial_temp * cfg.cooling.powi(last_steps);
        assert!((snap.gauges["sa.temperature"] - expected_temp).abs() < 1e-12);
        let log = String::from_utf8(events.0.lock().unwrap().clone()).unwrap();
        let trial_events = log.lines().filter(|l| l.contains(r#""kind":"sa_trial""#));
        assert_eq!(trial_events.count(), res.trials.len());
        let trace = obs.tracer.take();
        trace.validate().unwrap();
        let stats = trace.phase_stats();
        assert_eq!(stats["sa.trial"].count, res.trials.len() as u64);
        assert_eq!(stats["sa.iteration"].count, proposals);
        assert_eq!(stats["sa.batch_eval"].count, batches);
    }

    #[test]
    fn observed_search_matches_plain_and_records_metrics() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(12));
        let mut ev1 = SimEvaluator::new(SimConfig::new(500.0, 9));
        let mut ev2 = SimEvaluator::new(SimConfig::new(500.0, 9));
        let plain = sa.optimize(&p, &init, &mut ev1, 2);
        let (obs, events) = full_obs();
        let observed = sa.optimize_observed(&p, &init, &mut ev2, 2, &obs);
        // Instrumentation must not perturb the search.
        assert_eq!(plain.best_placement, observed.best_placement);
        assert_eq!(plain.best_objective, observed.best_objective);
        assert_eq!(plain.evaluations, observed.evaluations);
        assert_eq!(obs.registry.snapshot().counters["sa.proposals"], 24);
        assert_sa_signal_set(&obs, &events, &observed, sa.config());
    }

    #[test]
    fn traced_search_is_bit_identical_and_records_causal_spans() {
        use chainnet_obs::Tracer;
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(6));
        let mut ev1 = SimEvaluator::new(SimConfig::new(300.0, 11));
        let mut ev2 = SimEvaluator::new(SimConfig::new(300.0, 11));
        let plain = sa.optimize_neighborhood_observed(&p, &init, &mut ev1, 2, 3, &Obs::disabled());
        let obs = Obs::enabled().with_tracer(Tracer::enabled());
        let traced = sa.optimize_neighborhood_observed(&p, &init, &mut ev2, 2, 3, &obs);
        // Span tracing must not perturb the trajectory in any way.
        assert_eq!(plain.best_placement, traced.best_placement);
        assert_eq!(plain.best_objective, traced.best_objective);
        assert_eq!(plain.evaluations, traced.evaluations);
        // Per-step trajectory must be bit-identical under tracing
        // (`elapsed_secs` is wall clock, so it differs between any two
        // runs — compare the decision fields).
        assert_eq!(plain.trials[0].steps.len(), traced.trials[0].steps.len());
        for (a, b) in plain.trials[0].steps.iter().zip(&traced.trials[0].steps) {
            assert_eq!(a.candidate_objective, b.candidate_objective);
            assert_eq!(a.current_objective, b.current_objective);
            assert_eq!(a.best_objective, b.best_objective);
            assert_eq!(a.accepted, b.accepted);
        }
        let trace = obs.tracer.take();
        trace.validate().unwrap();
        let stats = trace.phase_stats();
        assert_eq!(stats["sa.trial"].count, 2);
        assert_eq!(stats["sa.iteration"].count, 12);
        // Iterations are children of trials, batch evals of iterations.
        let trial_ids: Vec<u64> = trace
            .spans
            .iter()
            .filter(|s| s.name == "sa.trial")
            .map(|s| s.id)
            .collect();
        for s in trace.spans.iter().filter(|s| s.name == "sa.iteration") {
            assert!(trial_ids.contains(&s.parent));
        }
    }

    #[test]
    fn search_with_budget_exceeding_needs_runs_to_completion() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let cfg = SaConfig::paper_default()
            .with_max_steps(8)
            .with_max_evaluations(10_000)
            .with_max_wall_secs(3_600.0);
        let mut ev = SimEvaluator::new(SimConfig::new(200.0, 1));
        let res = SimulatedAnnealing::new(cfg).optimize(&p, &init, &mut ev, 2);
        assert_eq!(res.termination_reason, TerminationReason::Completed);
        assert_eq!(res.trials.len(), 2);
    }

    #[test]
    fn evaluation_cap_stops_early_with_best_so_far() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let cfg = SaConfig::paper_default()
            .with_max_steps(50)
            .with_max_evaluations(7);
        for k in [1, 4] {
            let mut ev = SimEvaluator::new(SimConfig::new(200.0, 2));
            let res = SimulatedAnnealing::new(cfg).optimize_neighborhood_observed(
                &p,
                &init,
                &mut ev,
                5,
                k,
                &Obs::disabled(),
            );
            assert_eq!(res.termination_reason, TerminationReason::MaxEvaluations);
            // The cap is checked before each step: a k-candidate step
            // overshoots it by at most k - 1.
            assert!(res.evaluations < 7 + k as u64, "k {k}: {}", res.evaluations);
            assert!(res.trials.len() < 5);
            assert!(res.best_objective >= res.initial_objective);
            assert!(p.is_feasible(&res.best_placement));
        }
    }

    #[test]
    fn wall_clock_deadline_stops_early_with_best_so_far() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let cfg = SaConfig::paper_default()
            .with_max_steps(50)
            .with_max_wall_secs(0.0);
        for k in [1, 4] {
            let mut ev = SimEvaluator::new(SimConfig::new(200.0, 3));
            let res = SimulatedAnnealing::new(cfg).optimize_neighborhood_observed(
                &p,
                &init,
                &mut ev,
                3,
                k,
                &Obs::disabled(),
            );
            assert_eq!(res.termination_reason, TerminationReason::WallClock);
            // Deadline already passed: only the initial evaluation
            // happened, and the initial placement is returned as
            // best-so-far.
            assert_eq!(res.evaluations, 1);
            assert_eq!(res.best_placement, init);
        }
    }

    #[test]
    fn search_survives_a_nan_rigged_surrogate_via_fallback() {
        use crate::evaluator::{GnnEvaluator, ResilientEvaluator};
        use chainnet::config::ModelConfig;
        use chainnet::graph::PlacementGraph;
        use chainnet::model::{ChainNet, PerfPrediction, Surrogate};
        use chainnet_obs::Obs;

        /// A surrogate whose predictions are rigged to NaN.
        struct NanRigged(ChainNet);
        impl Surrogate for NanRigged {
            fn name(&self) -> &str {
                "nan-rigged"
            }
            fn config(&self) -> &ModelConfig {
                self.0.config()
            }
            fn params(&self) -> &chainnet_neural::params::ParamStore {
                self.0.params()
            }
            fn params_mut(&mut self) -> &mut chainnet_neural::params::ParamStore {
                self.0.params_mut()
            }
            fn loss_on_graph(
                &self,
                tape: &mut chainnet_neural::tape::Tape,
                graph: &PlacementGraph,
                targets: &[chainnet::data::ChainTargets],
            ) -> chainnet_neural::tape::Var {
                self.0.loss_on_graph(tape, graph, targets)
            }
            fn predict(&self, graph: &PlacementGraph) -> Vec<PerfPrediction> {
                self.0
                    .predict(graph)
                    .into_iter()
                    .map(|mut p| {
                        p.throughput = f64::NAN;
                        p
                    })
                    .collect()
            }
        }

        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let obs = Obs::enabled();
        let rigged = GnnEvaluator::new(NanRigged(ChainNet::new(ModelConfig::small(), 7)));
        let mut ev = ResilientEvaluator::new_observed(
            rigged,
            SimEvaluator::new(SimConfig::new(500.0, 4)),
            obs.clone(),
        );
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(10));
        let res = sa.optimize_observed(&p, &init, &mut ev, 1, &obs);
        // The search completed on fallback evaluations alone: the best
        // decision is valid and every evaluation was answered.
        assert_eq!(res.termination_reason, TerminationReason::Completed);
        assert!(res.best_objective.is_finite());
        assert!(res.best_objective > 0.0);
        assert!(p.is_feasible(&res.best_placement));
        assert!(ev.fallback_evals() > 0);
        let snap = obs.registry.snapshot();
        assert!(snap.counters["sa.fallback_evals"] > 0);
        // Every candidate was answered by the fallback, so the SA loop
        // itself saw no failures.
        assert_eq!(res.trials[0].eval_failures, 0);
    }

    #[test]
    fn search_skips_failing_candidates_without_a_fallback() {
        use crate::error::PlacementError;

        /// Fails on every candidate except the very first evaluation.
        struct FailAfterFirst {
            count: u64,
        }
        impl Evaluator for FailAfterFirst {
            fn name(&self) -> &str {
                "fail-after-first"
            }
            fn total_throughput(
                &mut self,
                _problem: &PlacementProblem,
                _placement: &Placement,
            ) -> Result<f64, PlacementError> {
                self.count += 1;
                if self.count == 1 {
                    Ok(0.5)
                } else {
                    Err(PlacementError::NonFiniteObjective {
                        evaluator: "fail-after-first".into(),
                        value: f64::NAN,
                    })
                }
            }
            fn evaluations(&self) -> u64 {
                self.count
            }
        }
        impl BatchEvaluator for FailAfterFirst {}

        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let mut ev = FailAfterFirst { count: 0 };
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(10));
        let res = sa.optimize(&p, &init, &mut ev, 1);
        // All candidates failed: the initial placement survives as best.
        assert_eq!(res.best_placement, init);
        assert_eq!(res.best_objective, 0.5);
        assert!(res.trials[0].eval_failures > 0);
        assert!(res.trials[0].steps.iter().all(|s| !s.accepted));
    }

    /// A fresh (removed-if-present) per-process temp dir for checkpoints.
    fn ckpt_tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chainnet-sa-ckpt-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Zero out all wall-clock fields: everything else in a search
    /// result must be bit-identical across kill/resume boundaries.
    fn strip_time(mut r: SaResult) -> SaResult {
        r.elapsed_secs = 0.0;
        for t in &mut r.trials {
            t.elapsed_secs = 0.0;
            for s in &mut t.steps {
                s.elapsed_secs = 0.0;
            }
            for i in &mut t.improvements {
                i.elapsed_secs = 0.0;
            }
        }
        r
    }

    /// Copy checkpoints `1..=upto` from one store's dir to another's,
    /// simulating exactly what a killed process leaves behind.
    fn copy_ckpt_prefix(src: &chainnet_ckpt::CkptStore, dst: &chainnet_ckpt::CkptStore, upto: u64) {
        for seq in src.list().unwrap() {
            if seq <= upto {
                std::fs::copy(src.path_of(seq), dst.path_of(seq)).unwrap();
            }
        }
    }

    #[test]
    fn checkpointed_search_matches_plain_and_writes_at_cadence() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(12));
        let mut ev1 = SimEvaluator::new(SimConfig::new(500.0, 9));
        let mut ev2 = SimEvaluator::new(SimConfig::new(500.0, 9));
        let plain = sa.optimize(&p, &init, &mut ev1, 2);
        let dir = ckpt_tmp_dir("plain");
        let obs = Obs::enabled();
        let store =
            chainnet_ckpt::CkptStore::open_observed(&dir, "sa", SA_CKPT_SCHEMA, &obs).unwrap();
        let ckpt = sa
            .optimize_checkpointed_observed(&p, &init, &mut ev2, 2, 1, &store, 5, false, &obs)
            .unwrap();
        assert_eq!(strip_time(plain), strip_time(ckpt));
        // Two mid-trial saves (steps 5 and 10) plus one boundary save
        // per trial.
        assert_eq!(store.list().unwrap(), vec![1, 2, 3, 4, 5, 6]);
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counters["ckpt.writes"], 6);
        assert_eq!(snap.counters["sa.trials"], 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_and_resumed_search_is_bit_identical() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(12).with_seed(3));
        let off = Obs::disabled();
        for k in [1, 4] {
            let dir_full = ckpt_tmp_dir(&format!("kill-full-k{k}"));
            let dir_cut = ckpt_tmp_dir(&format!("kill-cut-k{k}"));
            let full_store =
                chainnet_ckpt::CkptStore::open(&dir_full, "sa", SA_CKPT_SCHEMA).unwrap();
            let mut ev_full = SimEvaluator::new(SimConfig::new(500.0, 11));
            let full = sa
                .optimize_checkpointed_observed(
                    &p,
                    &init,
                    &mut ev_full,
                    2,
                    k,
                    &full_store,
                    3,
                    false,
                    &off,
                )
                .unwrap();

            // A kill mid-trial-1 leaves checkpoints 1..=4 behind (three
            // mid-trial saves at steps 3/6/9, one boundary for trial 0).
            let cut_store = chainnet_ckpt::CkptStore::open(&dir_cut, "sa", SA_CKPT_SCHEMA).unwrap();
            copy_ckpt_prefix(&full_store, &cut_store, 4);
            let mut ev_cut = SimEvaluator::new(SimConfig::new(500.0, 11));
            let resumed = sa
                .optimize_checkpointed_observed(
                    &p,
                    &init,
                    &mut ev_cut,
                    2,
                    k,
                    &cut_store,
                    3,
                    true,
                    &off,
                )
                .unwrap();

            assert_eq!(full.evaluations, resumed.evaluations);
            assert_eq!(strip_time(full), strip_time(resumed));
            let _ = std::fs::remove_dir_all(&dir_full);
            let _ = std::fs::remove_dir_all(&dir_cut);
        }
    }

    #[test]
    fn corrupt_latest_checkpoint_falls_back_and_still_matches() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(10).with_seed(5));
        let off = Obs::disabled();
        for k in [1, 4] {
            let dir_full = ckpt_tmp_dir(&format!("corrupt-full-k{k}"));
            let dir_cut = ckpt_tmp_dir(&format!("corrupt-cut-k{k}"));
            let full_store =
                chainnet_ckpt::CkptStore::open(&dir_full, "sa", SA_CKPT_SCHEMA).unwrap();
            let mut ev_full = SimEvaluator::new(SimConfig::new(500.0, 13));
            let full = sa
                .optimize_checkpointed_observed(
                    &p,
                    &init,
                    &mut ev_full,
                    1,
                    k,
                    &full_store,
                    2,
                    false,
                    &off,
                )
                .unwrap();

            let cut_store = chainnet_ckpt::CkptStore::open(&dir_cut, "sa", SA_CKPT_SCHEMA).unwrap();
            copy_ckpt_prefix(&full_store, &cut_store, 3);
            // Flip one payload bit in the newest surviving checkpoint.
            let newest = cut_store.path_of(3);
            let mut bytes = std::fs::read(&newest).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            std::fs::write(&newest, &bytes).unwrap();

            let mut ev_cut = SimEvaluator::new(SimConfig::new(500.0, 13));
            let resumed = sa
                .optimize_checkpointed_observed(
                    &p,
                    &init,
                    &mut ev_cut,
                    1,
                    k,
                    &cut_store,
                    2,
                    true,
                    &off,
                )
                .unwrap();
            // The corrupt file was quarantined and the run fell back to
            // checkpoint 2 — still landing on the identical result.
            assert_eq!(strip_time(full), strip_time(resumed));
            let quarantined = dir_cut.join("sa-00000003.ckpt.corrupt");
            assert!(quarantined.exists(), "corrupt checkpoint not quarantined");
            let _ = std::fs::remove_dir_all(&dir_full);
            let _ = std::fs::remove_dir_all(&dir_cut);
        }
    }

    /// A checkpoint written before `SaCheckpoint::neighborhood` existed
    /// (no such field in the payload) came from a single-proposal
    /// search: it resumes as k = 1 and is refused for any other k.
    #[test]
    fn payload_without_neighborhood_resumes_as_single_proposal() {
        use crate::error::PlacementError;
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(8).with_seed(9));
        let off = Obs::disabled();
        let dir_full = ckpt_tmp_dir("legacy-full");
        let dir_cut = ckpt_tmp_dir("legacy-cut");
        let full_store = chainnet_ckpt::CkptStore::open(&dir_full, "sa", SA_CKPT_SCHEMA).unwrap();
        let mut ev_full = SimEvaluator::new(SimConfig::new(500.0, 19));
        let full = sa
            .optimize_checkpointed_observed(
                &p,
                &init,
                &mut ev_full,
                2,
                1,
                &full_store,
                3,
                false,
                &off,
            )
            .unwrap();

        // Keep checkpoints 1..=2 (mid-trial 0) and strip the field from
        // the newest, re-sealing it in a valid envelope.
        let cut_store = chainnet_ckpt::CkptStore::open(&dir_cut, "sa", SA_CKPT_SCHEMA).unwrap();
        copy_ckpt_prefix(&full_store, &cut_store, 2);
        let bytes = std::fs::read(cut_store.path_of(2)).unwrap();
        let (_, payload) = chainnet_ckpt::decode(&bytes).unwrap();
        let payload = std::str::from_utf8(payload).unwrap();
        assert!(payload.contains(r#""neighborhood":1,"#));
        let legacy = payload.replace(r#""neighborhood":1,"#, "");
        cut_store.save(2, legacy.as_bytes()).unwrap();
        let (_, decoded) = cut_store
            .load_latest_state::<SaCheckpoint>()
            .unwrap()
            .unwrap();
        assert_eq!(decoded.neighborhood, 0);

        let mut ev = SimEvaluator::new(SimConfig::new(500.0, 19));
        let err = sa
            .optimize_checkpointed_observed(&p, &init, &mut ev, 2, 4, &cut_store, 3, true, &off)
            .unwrap_err();
        assert!(matches!(
            err,
            PlacementError::Checkpoint(chainnet_ckpt::CkptError::ResumeMismatch { .. })
        ));
        let mut ev_cut = SimEvaluator::new(SimConfig::new(500.0, 19));
        let resumed = sa
            .optimize_checkpointed_observed(&p, &init, &mut ev_cut, 2, 1, &cut_store, 3, true, &off)
            .unwrap();
        assert_eq!(strip_time(full), strip_time(resumed));
        let _ = std::fs::remove_dir_all(&dir_full);
        let _ = std::fs::remove_dir_all(&dir_cut);
    }

    #[test]
    fn resume_of_completed_search_returns_final_state() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(8).with_seed(7));
        let dir = ckpt_tmp_dir("completed");
        let store = chainnet_ckpt::CkptStore::open(&dir, "sa", SA_CKPT_SCHEMA).unwrap();
        let mut ev1 = SimEvaluator::new(SimConfig::new(500.0, 17));
        let first = sa
            .optimize_checkpointed_observed(
                &p,
                &init,
                &mut ev1,
                2,
                1,
                &store,
                4,
                false,
                &Obs::disabled(),
            )
            .unwrap();
        // No work left: the resumed run restores the stored result
        // without consuming a single evaluation.
        let mut ev2 = SimEvaluator::new(SimConfig::new(500.0, 17));
        let resumed = sa
            .optimize_checkpointed_observed(
                &p,
                &init,
                &mut ev2,
                2,
                1,
                &store,
                4,
                true,
                &Obs::disabled(),
            )
            .unwrap();
        assert_eq!(ev2.evaluations(), 0);
        assert_eq!(first.evaluations, resumed.evaluations);
        assert_eq!(first.best_placement, resumed.best_placement);
        assert_eq!(first.best_objective, resumed.best_objective);
        assert_eq!(strip_time(first).trials, strip_time(resumed).trials);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_cadence_zero_is_a_typed_error() {
        use crate::error::PlacementError;
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default());
        let dir = ckpt_tmp_dir("cadence");
        let store = chainnet_ckpt::CkptStore::open(&dir, "sa", SA_CKPT_SCHEMA).unwrap();
        let mut ev = SimEvaluator::new(SimConfig::new(200.0, 1));
        let err = sa
            .optimize_checkpointed_observed(
                &p,
                &init,
                &mut ev,
                1,
                1,
                &store,
                0,
                false,
                &Obs::disabled(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            PlacementError::Checkpoint(chainnet_ckpt::CkptError::InvalidCadence)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_checkpoint_is_a_typed_error() {
        use crate::error::PlacementError;
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default());
        let dir = ckpt_tmp_dir("empty");
        let store = chainnet_ckpt::CkptStore::open(&dir, "sa", SA_CKPT_SCHEMA).unwrap();
        let mut ev = SimEvaluator::new(SimConfig::new(200.0, 1));
        let err = sa
            .optimize_checkpointed_observed(
                &p,
                &init,
                &mut ev,
                1,
                1,
                &store,
                5,
                true,
                &Obs::disabled(),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            PlacementError::Checkpoint(chainnet_ckpt::CkptError::NoCheckpoint { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_changed_config_is_a_mismatch() {
        use crate::error::PlacementError;
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(6).with_seed(1));
        let other =
            SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(6).with_seed(2));
        let off = Obs::disabled();
        for k in [1, 4] {
            let dir = ckpt_tmp_dir(&format!("mismatch-k{k}"));
            let store = chainnet_ckpt::CkptStore::open(&dir, "sa", SA_CKPT_SCHEMA).unwrap();
            let mut ev = SimEvaluator::new(SimConfig::new(200.0, 2));
            sa.optimize_checkpointed_observed(&p, &init, &mut ev, 1, k, &store, 3, false, &off)
                .unwrap();
            // Same store, different seed, or same seed and a different
            // neighborhood size: resuming would silently change the
            // trajectory, so it must be refused.
            for (driver, resume_k) in [(&other, k), (&sa, 5 - k)] {
                let mut ev2 = SimEvaluator::new(SimConfig::new(200.0, 2));
                let err = driver
                    .optimize_checkpointed_observed(
                        &p, &init, &mut ev2, 1, resume_k, &store, 3, true, &off,
                    )
                    .unwrap_err();
                assert!(matches!(
                    err,
                    PlacementError::Checkpoint(chainnet_ckpt::CkptError::ResumeMismatch { .. })
                ));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn neighborhood_search_improves_a_bad_start() {
        let p = lopsided_problem();
        let bad = Placement::new(vec![vec![0, 1]]);
        let mut ev = SimEvaluator::new(SimConfig::new(1_000.0, 3));
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(15).with_seed(4));
        let res = sa.optimize_neighborhood_observed(&p, &bad, &mut ev, 1, 4, &Obs::disabled());
        assert!(res.best_objective > res.initial_objective);
        assert!(p.is_feasible(&res.best_placement));
        assert_eq!(res.trials[0].steps.len(), 15);
    }

    #[test]
    fn neighborhood_search_is_deterministic() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(10).with_seed(2));
        let mut ev1 = SimEvaluator::new(SimConfig::new(500.0, 8));
        let mut ev2 = SimEvaluator::new(SimConfig::new(500.0, 8));
        let a = sa.optimize_neighborhood_observed(&p, &init, &mut ev1, 2, 3, &Obs::disabled());
        let b = sa.optimize_neighborhood_observed(&p, &init, &mut ev2, 2, 3, &Obs::disabled());
        assert_eq!(a.best_placement, b.best_placement);
        assert_eq!(a.best_objective, b.best_objective);
        assert_eq!(a.evaluations, b.evaluations);
    }

    /// The batched surrogate backend and a sequential-only backend must
    /// walk the exact same trajectory: the batch path is bit-identical
    /// per candidate, and the driver consumes RNG identically.
    #[test]
    fn neighborhood_trajectory_identical_across_batched_and_sequential_backends() {
        use crate::evaluator::{BatchEvaluator, GnnEvaluator};
        use chainnet::config::ModelConfig;
        use chainnet::model::ChainNet;

        /// A GnnEvaluator stripped of its batch override: scores each
        /// candidate with a separate sequential forward pass.
        struct SequentialOnly(GnnEvaluator<ChainNet>);
        impl Evaluator for SequentialOnly {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn total_throughput(
                &mut self,
                problem: &PlacementProblem,
                placement: &Placement,
            ) -> Result<f64, PlacementError> {
                self.0.total_throughput(problem, placement)
            }
            fn evaluations(&self) -> u64 {
                self.0.evaluations()
            }
        }
        impl BatchEvaluator for SequentialOnly {}

        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let net = ChainNet::new(ModelConfig::small(), 21);
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(12).with_seed(6));
        let mut batched = GnnEvaluator::new(net.clone());
        let mut sequential = SequentialOnly(GnnEvaluator::new(net));
        let a = sa.optimize_neighborhood_observed(&p, &init, &mut batched, 2, 4, &Obs::disabled());
        let b =
            sa.optimize_neighborhood_observed(&p, &init, &mut sequential, 2, 4, &Obs::disabled());
        assert_eq!(a.best_placement, b.best_placement);
        assert_eq!(a.best_objective.to_bits(), b.best_objective.to_bits());
        assert_eq!(a.evaluations, b.evaluations);
        for (ta, tb) in a.trials.iter().zip(&b.trials) {
            for (sa_step, sb_step) in ta.steps.iter().zip(&tb.steps) {
                assert_eq!(
                    sa_step.candidate_objective.to_bits(),
                    sb_step.candidate_objective.to_bits()
                );
                assert_eq!(sa_step.accepted, sb_step.accepted);
            }
        }
    }

    #[test]
    fn neighborhood_search_records_batch_metrics() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let mut ev = SimEvaluator::new(SimConfig::new(500.0, 9));
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(8));
        let (obs, events) = full_obs();
        let res = sa.optimize_neighborhood_observed(&p, &init, &mut ev, 2, 3, &obs);
        assert_eq!(obs.registry.snapshot().counters["sa.proposals"], 16);
        assert_sa_signal_set(&obs, &events, &res, sa.config());
    }

    #[test]
    fn same_seed_reproduces_search() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(15));
        let mut ev1 = SimEvaluator::new(SimConfig::new(500.0, 8));
        let mut ev2 = SimEvaluator::new(SimConfig::new(500.0, 8));
        let a = sa.optimize(&p, &init, &mut ev1, 1);
        let b = sa.optimize(&p, &init, &mut ev2, 1);
        assert_eq!(a.best_placement, b.best_placement);
        assert_eq!(a.best_objective, b.best_objective);
    }
}
