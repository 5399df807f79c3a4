//! Objective-function evaluators: the search maximizes total throughput
//! `X_total(p)` (Eq. 2), estimated either by queueing simulation (the
//! paper's baseline search) or by a GNN surrogate (ChainNet's search).

use crate::error::PlacementError;
use crate::problem::PlacementProblem;
use chainnet::graph::PlacementGraph;
use chainnet::model::{Surrogate, Tape};
use chainnet_obs::{Obs, Tracer};
use chainnet_qsim::approx::{solve, ApproxConfig};
use chainnet_qsim::model::Placement;
use chainnet_qsim::sim::{SimConfig, Simulator};
use chainnet_qsim::QsimError;

/// Estimates `X_total(p)` for candidate placements.
pub trait Evaluator {
    /// Human-readable evaluator name ("simulation", model name, …).
    fn name(&self) -> &str;

    /// Estimated total throughput of `placement` for `problem`.
    ///
    /// Infeasible placements are never passed here: the search only
    /// proposes feasible candidates.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] when the estimate cannot be produced
    /// — a structurally invalid binding, a simulation failure, or a
    /// non-finite prediction. Search drivers treat a failed candidate
    /// as rejected and keep going; wrap evaluators in a
    /// [`ResilientEvaluator`] to retry and fall back instead.
    fn total_throughput(
        &mut self,
        problem: &PlacementProblem,
        placement: &Placement,
    ) -> Result<f64, PlacementError>;

    /// Number of objective evaluations performed so far.
    fn evaluations(&self) -> u64;

    /// Install a span tracer for self-profiling. Evaluators that do
    /// interesting work record phase spans (`neural.forward`,
    /// `neural.matmul`) under the driver's `sa.*` spans; the default is
    /// a no-op, and tracing never changes any computed value. Wrappers
    /// forward the tracer to their inner evaluators.
    fn set_tracer(&mut self, _tracer: Tracer) {}
}

/// An [`Evaluator`] that can score a whole set of candidate placements at
/// once. Every SA entry point
/// ([`SimulatedAnnealing`](crate::sa::SimulatedAnnealing)) scores each
/// step's k candidates in one call — a one-element batch for the
/// single-proposal search — letting surrogate backends amortize a single
/// batched forward pass over the neighborhood. Evaluators that cannot
/// batch opt in with an empty `impl BatchEvaluator for X {}`.
///
/// The provided default simply loops over
/// [`Evaluator::total_throughput`]; [`GnnEvaluator`] overrides it with
/// [`Surrogate::predict_batch`], whose throughput is bit-identical to the
/// loop. The objective is a sum of throughputs, so callers may treat the
/// two paths as interchangeable.
pub trait BatchEvaluator: Evaluator {
    /// Estimate `X_total` for each placement, in input order. Per-candidate
    /// failures are per-slot `Err`s; one bad candidate never poisons the
    /// rest of the batch.
    fn total_throughput_batch(
        &mut self,
        problem: &PlacementProblem,
        placements: &[Placement],
    ) -> Vec<Result<f64, PlacementError>> {
        placements
            .iter()
            .map(|p| self.total_throughput(problem, p))
            .collect()
    }
}

impl BatchEvaluator for SimEvaluator {}
impl BatchEvaluator for ApproxEvaluator {}

/// Ground-truth evaluator backed by the discrete-event simulator. The
/// same seed is reused for every evaluation so the objective is a
/// deterministic function of the placement.
#[derive(Debug, Clone)]
pub struct SimEvaluator {
    config: SimConfig,
    count: u64,
}

impl SimEvaluator {
    /// Create a simulator-backed evaluator.
    pub fn new(config: SimConfig) -> Self {
        Self { config, count: 0 }
    }

    /// The simulation configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }
}

impl Evaluator for SimEvaluator {
    fn name(&self) -> &str {
        "simulation"
    }

    /// # Errors
    ///
    /// Structural binding errors propagate. A run that exhausts its
    /// simulation budget degrades gracefully: the best-effort partial
    /// statistics still rank candidates, so their truncated throughput
    /// is returned instead of an error.
    fn total_throughput(
        &mut self,
        problem: &PlacementProblem,
        placement: &Placement,
    ) -> Result<f64, PlacementError> {
        self.count += 1;
        let model = problem.bind(placement.clone())?;
        match Simulator::new().run(&model, &self.config) {
            Ok(result) => Ok(result.total_throughput),
            Err(QsimError::BudgetExceeded { partial, .. }) => Ok(partial.total_throughput),
            Err(e) => Err(e.into()),
        }
    }

    fn evaluations(&self) -> u64 {
        self.count
    }
}

/// Surrogate evaluator backed by any trained [`Surrogate`] (ChainNet, GIN
/// or GAT): builds the placement graph with the model's feature mode and
/// sums the predicted per-chain throughputs.
///
/// The evaluator owns one tape that every batched forward resets and
/// reuses, so a search's forwards after the first allocate no tape
/// storage.
#[derive(Debug, Clone)]
pub struct GnnEvaluator<S> {
    model: S,
    count: u64,
    tracer: Tracer,
    tape: Tape,
}

impl<S: Surrogate> GnnEvaluator<S> {
    /// Wrap a trained surrogate model.
    pub fn new(model: S) -> Self {
        Self {
            model,
            count: 0,
            tracer: Tracer::disabled(),
            tape: Tape::new(),
        }
    }

    /// Access the wrapped model.
    pub fn model(&self) -> &S {
        &self.model
    }
}

impl<S: Surrogate> Evaluator for GnnEvaluator<S> {
    fn name(&self) -> &str {
        self.model.name()
    }

    /// # Errors
    ///
    /// Structural binding errors propagate, and a non-finite prediction
    /// (a diverged or corrupted surrogate) is reported as
    /// [`PlacementError::NonFiniteObjective`] rather than poisoning the
    /// search's best-so-far bookkeeping.
    fn total_throughput(
        &mut self,
        problem: &PlacementProblem,
        placement: &Placement,
    ) -> Result<f64, PlacementError> {
        self.count += 1;
        let model = problem.bind(placement.clone())?;
        let graph = PlacementGraph::from_model(&model, self.model.config().feature_mode);
        let fwd_span = self.tracer.span("neural.forward");
        let preds = self.model.predict(&graph);
        fwd_span.close();
        let total: f64 = preds.iter().map(|p| p.throughput).sum();
        if total.is_finite() {
            Ok(total)
        } else {
            Err(PlacementError::NonFiniteObjective {
                evaluator: self.model.name().to_string(),
                value: total,
            })
        }
    }

    fn evaluations(&self) -> u64 {
        self.count
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }
}

impl<S: Surrogate> BatchEvaluator for GnnEvaluator<S> {
    /// One batched surrogate forward pass over the whole candidate set
    /// (throughput bit-identical to the per-candidate loop — see
    /// [`Surrogate::predict_batch`]). Candidates that fail to bind get a
    /// per-slot error; the rest are still evaluated together.
    // lint:zero_alloc
    fn total_throughput_batch(
        &mut self,
        problem: &PlacementProblem,
        placements: &[Placement],
    ) -> Vec<Result<f64, PlacementError>> {
        self.count += placements.len() as u64;
        let mode = self.model.config().feature_mode;
        let mut graphs = Vec::with_capacity(placements.len());
        let bind_errs: Vec<Option<PlacementError>> = placements
            .iter()
            // lint:allow(alloc_hygiene): bind takes the placement by
            // value, so one small assignment-vec clone per candidate
            // is the API minimum
            .map(|p| match problem.bind(p.clone()) {
                Ok(model) => {
                    // lint:allow(alloc_hygiene): graphs is pre-reserved
                    // to placements.len() above; this push cannot
                    // reallocate
                    graphs.push(PlacementGraph::from_model(&model, mode));
                    None
                }
                Err(e) => Some(e.into()),
            })
            // lint:allow(alloc_hygiene): one bind-error vec per batch,
            // amortized over the whole candidate set
            .collect();
        // The batched forward over every bound candidate; the span keeps
        // its historical name so traces stay comparable across versions.
        let matmul_span = self.tracer.span("neural.matmul");
        let batch_preds = self.model.predict_batch_with(&mut self.tape, &graphs);
        matmul_span.close();
        let mut totals = batch_preds
            .into_iter()
            .map(|preds| preds.iter().map(|p| p.throughput).sum::<f64>());
        bind_errs
            .into_iter()
            .map(|err| match err {
                Some(e) => Err(e),
                None => {
                    // One prediction per bound graph, in order; a missing
                    // slot cannot happen but degrades to a typed error.
                    let total = totals.next().unwrap_or(f64::NAN);
                    if total.is_finite() {
                        Ok(total)
                    } else {
                        Err(PlacementError::NonFiniteObjective {
                            // lint:allow(alloc_hygiene): cold error
                            // path — a non-finite objective aborts the
                            // search anyway
                            evaluator: self.model.name().to_string(),
                            value: total,
                        })
                    }
                }
            })
            // lint:allow(alloc_hygiene): the batch's result vec — the
            // function's return value, one allocation per batch
            .collect()
    }
}

/// Analytic evaluator backed by the fixed-point decomposition
/// approximation ([`chainnet_qsim::approx`]): orders of magnitude faster
/// than simulation, coarser than a trained surrogate. Useful as a
/// zero-training baseline for the search.
#[derive(Debug, Clone, Default)]
pub struct ApproxEvaluator {
    config: ApproxConfig,
    count: u64,
}

impl ApproxEvaluator {
    /// Create an analytic evaluator.
    pub fn new(config: ApproxConfig) -> Self {
        Self { config, count: 0 }
    }
}

impl Evaluator for ApproxEvaluator {
    fn name(&self) -> &str {
        "decomposition"
    }

    /// # Errors
    ///
    /// Structural binding errors propagate; a non-finite fixed point
    /// (the decomposition failing to converge to a number) is reported
    /// as [`PlacementError::NonFiniteObjective`].
    fn total_throughput(
        &mut self,
        problem: &PlacementProblem,
        placement: &Placement,
    ) -> Result<f64, PlacementError> {
        self.count += 1;
        let model = problem.bind(placement.clone())?;
        let total = solve(&model, &self.config).total_throughput;
        if total.is_finite() {
            Ok(total)
        } else {
            Err(PlacementError::NonFiniteObjective {
                evaluator: "decomposition".to_string(),
                value: total,
            })
        }
    }

    fn evaluations(&self) -> u64 {
        self.count
    }
}

/// Graceful-degradation wrapper: evaluate with `primary`, retry once on
/// failure, then fall back to `fallback` (typically an analytic or
/// simulator evaluator backing a possibly-corrupt surrogate). Fallback
/// evaluations are counted and, with an enabled [`Obs`], recorded on the
/// `sa.fallback_evals` counter.
#[derive(Debug, Clone)]
pub struct ResilientEvaluator<P, F> {
    primary: P,
    fallback: F,
    obs: Obs,
    name: String,
    retries: u64,
    fallback_evals: u64,
}

impl<P: Evaluator, F: Evaluator> ResilientEvaluator<P, F> {
    /// Wrap `primary` with a `fallback`, without telemetry.
    pub fn new(primary: P, fallback: F) -> Self {
        Self::new_observed(primary, fallback, Obs::disabled())
    }

    /// Like [`ResilientEvaluator::new`], recording `sa.fallback_evals`
    /// into `obs` whenever the fallback is consulted.
    pub fn new_observed(primary: P, fallback: F, obs: Obs) -> Self {
        let name = format!("resilient({} -> {})", primary.name(), fallback.name());
        Self {
            primary,
            fallback,
            obs,
            name,
            retries: 0,
            fallback_evals: 0,
        }
    }

    /// The wrapped primary evaluator.
    pub fn primary(&self) -> &P {
        &self.primary
    }

    /// The wrapped fallback evaluator.
    pub fn fallback(&self) -> &F {
        &self.fallback
    }

    /// How many times a failed primary evaluation succeeded on retry.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// How many evaluations were answered by the fallback.
    pub fn fallback_evals(&self) -> u64 {
        self.fallback_evals
    }
}

impl<P: Evaluator, F: Evaluator> Evaluator for ResilientEvaluator<P, F> {
    fn name(&self) -> &str {
        &self.name
    }

    /// # Errors
    ///
    /// Fails only when the primary fails twice *and* the fallback also
    /// fails for the same candidate.
    fn total_throughput(
        &mut self,
        problem: &PlacementProblem,
        placement: &Placement,
    ) -> Result<f64, PlacementError> {
        if let Ok(x) = self.primary.total_throughput(problem, placement) {
            return Ok(x);
        }
        // Retry once: transient failures (e.g. a wall-clock budget trip
        // under load) can clear; deterministic ones fail fast again.
        if let Ok(x) = self.primary.total_throughput(problem, placement) {
            self.retries += 1;
            return Ok(x);
        }
        self.fallback_evals += 1;
        if self.obs.is_enabled() {
            self.obs.registry.counter("sa.fallback_evals").inc();
        }
        self.fallback.total_throughput(problem, placement)
    }

    fn evaluations(&self) -> u64 {
        self.primary.evaluations() + self.fallback.evaluations()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.primary.set_tracer(tracer.clone());
        self.fallback.set_tracer(tracer);
    }
}

// Batch calls go through the default per-candidate loop so the
// retry-then-fall-back policy applies to each candidate individually.
impl<P: Evaluator, F: Evaluator> BatchEvaluator for ResilientEvaluator<P, F> {}

/// Loss probability of a placement given its total throughput (Eq. 18).
pub fn loss_probability(total_arrival_rate: f64, total_throughput: f64) -> f64 {
    ((total_arrival_rate - total_throughput) / total_arrival_rate).clamp(0.0, 1.0)
}

/// Relative loss reduction of an optimized placement vs. the initial one
/// (Eq. 19). Returns 0 when the initial placement already has zero loss.
/// Clamped to `[-1, 1]`: with simulated (noisy) throughputs the raw ratio
/// can explode when the initial loss is tiny, which would let a single
/// lightly-loaded problem dominate a mean.
pub fn relative_loss_reduction(
    total_arrival_rate: f64,
    initial_throughput: f64,
    optimized_throughput: f64,
) -> f64 {
    let denom = total_arrival_rate - initial_throughput;
    if denom <= 0.0 {
        0.0
    } else {
        ((optimized_throughput - initial_throughput) / denom).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainnet::config::ModelConfig;
    use chainnet::model::ChainNet;
    use chainnet_qsim::model::{Device, Fragment, ServiceChain};

    fn problem() -> PlacementProblem {
        let devices = vec![
            Device::new(10.0, 1.0).unwrap(),
            Device::new(10.0, 2.0).unwrap(),
        ];
        let chains = vec![ServiceChain::new(
            0.5,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
            ],
        )
        .unwrap()];
        PlacementProblem::new(devices, chains).unwrap()
    }

    #[test]
    fn sim_evaluator_counts_and_estimates() {
        let p = problem();
        let placement = Placement::new(vec![vec![0, 1]]);
        let mut ev = SimEvaluator::new(SimConfig::new(5_000.0, 1));
        let x = ev.total_throughput(&p, &placement).unwrap();
        assert!(x > 0.0 && x <= 0.55);
        assert_eq!(ev.evaluations(), 1);
    }

    #[test]
    fn sim_evaluator_is_deterministic() {
        let p = problem();
        let placement = Placement::new(vec![vec![0, 1]]);
        let mut ev = SimEvaluator::new(SimConfig::new(2_000.0, 7));
        let a = ev.total_throughput(&p, &placement).unwrap();
        let b = ev.total_throughput(&p, &placement).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sim_evaluator_degrades_to_partial_stats_on_budget_trip() {
        let p = problem();
        let placement = Placement::new(vec![vec![0, 1]]);
        // A tiny event cap trips on every run; the evaluator still
        // produces a usable (truncated-window) estimate.
        let mut ev = SimEvaluator::new(SimConfig::new(1_000_000.0, 1).with_max_events(2_000));
        let x = ev.total_throughput(&p, &placement).unwrap();
        assert!(x.is_finite() && x >= 0.0);
    }

    #[test]
    fn gnn_evaluator_wraps_surrogate() {
        let p = problem();
        let placement = Placement::new(vec![vec![0, 1]]);
        let net = ChainNet::new(ModelConfig::small(), 9);
        let mut ev = GnnEvaluator::new(net);
        let x = ev.total_throughput(&p, &placement).unwrap();
        assert!((0.0..=0.5 + 1e-9).contains(&x));
        assert_eq!(ev.evaluations(), 1);
        assert_eq!(ev.name(), "ChainNet");
    }

    #[test]
    fn gnn_batch_matches_sequential_bitwise() {
        let p = problem();
        let placements = vec![
            Placement::new(vec![vec![0, 1]]),
            Placement::new(vec![vec![1, 0]]),
        ];
        let net = ChainNet::new(ModelConfig::small(), 9);
        let mut seq = GnnEvaluator::new(net.clone());
        let mut bat = GnnEvaluator::new(net);
        let batched = bat.total_throughput_batch(&p, &placements);
        for (placement, b) in placements.iter().zip(&batched) {
            let s = seq.total_throughput(&p, placement).unwrap();
            assert_eq!(s.to_bits(), b.as_ref().unwrap().to_bits());
        }
        // Batched calls count one evaluation per candidate.
        assert_eq!(bat.evaluations(), 2);
    }

    #[test]
    fn gnn_batch_isolates_unbindable_candidates() {
        let p = problem();
        let placements = vec![
            Placement::new(vec![vec![0, 1]]),
            // Device index out of range: cannot bind.
            Placement::new(vec![vec![0, 7]]),
            Placement::new(vec![vec![1, 0]]),
        ];
        let mut ev = GnnEvaluator::new(ChainNet::new(ModelConfig::small(), 9));
        let out = ev.total_throughput_batch(&p, &placements);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
        assert!(out[2].is_ok());
        assert_eq!(ev.evaluations(), 3);
    }

    #[test]
    fn default_batch_impl_loops_over_candidates() {
        let p = problem();
        let placements = vec![
            Placement::new(vec![vec![0, 1]]),
            Placement::new(vec![vec![1, 0]]),
        ];
        let mut ev = SimEvaluator::new(SimConfig::new(1_000.0, 3));
        let batched = ev.total_throughput_batch(&p, &placements);
        let mut fresh = SimEvaluator::new(SimConfig::new(1_000.0, 3));
        for (placement, b) in placements.iter().zip(&batched) {
            let s = fresh.total_throughput(&p, placement).unwrap();
            assert_eq!(s, *b.as_ref().unwrap());
        }
        assert_eq!(ev.evaluations(), 2);
    }

    #[test]
    fn approx_evaluator_ranks_like_simulation() {
        let p = problem();
        let good = Placement::new(vec![vec![1, 0]]); // fast device first
        let bad = Placement::new(vec![vec![0, 1]]);
        let mut approx = ApproxEvaluator::default();
        let (xa_good, xa_bad) = (
            approx.total_throughput(&p, &good).unwrap(),
            approx.total_throughput(&p, &bad).unwrap(),
        );
        assert_eq!(approx.evaluations(), 2);
        // Both stations underloaded: throughput near lambda either way,
        // but the evaluator must stay within the offered rate.
        assert!(xa_good <= 0.5 + 1e-9 && xa_bad <= 0.5 + 1e-9);
        assert!(xa_good > 0.0 && xa_bad > 0.0);
    }

    /// Always fails, as a rigged "corrupted surrogate" stand-in.
    struct AlwaysFails {
        count: u64,
    }

    impl Evaluator for AlwaysFails {
        fn name(&self) -> &str {
            "always-fails"
        }
        fn total_throughput(
            &mut self,
            _problem: &PlacementProblem,
            _placement: &Placement,
        ) -> Result<f64, PlacementError> {
            self.count += 1;
            Err(PlacementError::NonFiniteObjective {
                evaluator: "always-fails".into(),
                value: f64::NAN,
            })
        }
        fn evaluations(&self) -> u64 {
            self.count
        }
    }

    #[test]
    fn resilient_evaluator_falls_back_after_one_retry() {
        let p = problem();
        let placement = Placement::new(vec![vec![0, 1]]);
        let obs = chainnet_obs::Obs::enabled();
        let mut ev = ResilientEvaluator::new_observed(
            AlwaysFails { count: 0 },
            SimEvaluator::new(SimConfig::new(1_000.0, 3)),
            obs.clone(),
        );
        let x = ev.total_throughput(&p, &placement).unwrap();
        assert!(x.is_finite() && x > 0.0);
        // Primary tried twice (initial + one retry), fallback once.
        assert_eq!(ev.primary().evaluations(), 2);
        assert_eq!(ev.fallback().evaluations(), 1);
        assert_eq!(ev.fallback_evals(), 1);
        assert_eq!(ev.retries(), 0);
        assert_eq!(obs.registry.snapshot().counters["sa.fallback_evals"], 1);
        assert!(ev.name().contains("always-fails") && ev.name().contains("simulation"));
    }

    #[test]
    fn resilient_evaluator_passes_healthy_primary_through() {
        let p = problem();
        let placement = Placement::new(vec![vec![0, 1]]);
        let mut plain = SimEvaluator::new(SimConfig::new(1_000.0, 5));
        let expected = plain.total_throughput(&p, &placement).unwrap();
        let mut ev = ResilientEvaluator::new(
            SimEvaluator::new(SimConfig::new(1_000.0, 5)),
            ApproxEvaluator::default(),
        );
        let x = ev.total_throughput(&p, &placement).unwrap();
        assert_eq!(x, expected);
        assert_eq!(ev.fallback_evals(), 0);
        assert_eq!(ev.fallback().evaluations(), 0);
    }

    #[test]
    fn loss_probability_formula() {
        assert!((loss_probability(2.0, 1.5) - 0.25).abs() < 1e-12);
        assert_eq!(loss_probability(2.0, 2.5), 0.0); // clamped
    }

    #[test]
    fn relative_reduction_formula() {
        // Initial X = 1.0 of λ = 2.0 (loss 0.5); optimized X = 1.8
        // (loss 0.1): reduction = (1.8 - 1.0) / (2.0 - 1.0) = 0.8.
        assert!((relative_loss_reduction(2.0, 1.0, 1.8) - 0.8).abs() < 1e-12);
        assert_eq!(relative_loss_reduction(2.0, 2.0, 2.0), 0.0);
    }
}
