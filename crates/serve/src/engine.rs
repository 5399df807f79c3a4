//! The deterministic serving core: a single-threaded engine that owns
//! the nominal topology, the accumulated fault state, the warm
//! surrogate, and the last-known-good placement, and answers requests
//! through the robustness ladder (full budget-bounded SA → neighborhood
//! repair → cached placement).
//!
//! The engine is transport-agnostic: the daemon layer
//! ([`crate::daemon`]) feeds it [`Request`]s one at a time from a
//! bounded queue, so every mutation of serving state happens on one
//! thread in request order. Determinism caveat: per-request deadlines
//! translate into wall-clock search budgets, so answers under deadline
//! pressure may legitimately differ across runs; without deadlines the
//! engine is deterministic in the request sequence and its seed.

use crate::error::ServeError;
use crate::protocol::{DegradationLevel, Outcome, RejectKind, Request, RequestBody, Response};
use chainnet::model::ChainNet;
use chainnet_ckpt::{CkptError, CkptStore};
use chainnet_obs::Obs;
use chainnet_placement::evaluator::{
    loss_probability, ApproxEvaluator, BatchEvaluator, GnnEvaluator, ResilientEvaluator,
    SimEvaluator,
};
use chainnet_placement::problem::PlacementProblem;
use chainnet_placement::sa::{SaConfig, SaResult, SimulatedAnnealing};
use chainnet_qsim::faults::{FaultEvent, FaultKind};
use chainnet_qsim::model::Placement;
use chainnet_qsim::sim::SimConfig;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Schema version of serialized [`ServeState`] payloads; bump on any
/// layout change so stale checkpoints are quarantined, not misread.
pub const SERVE_CKPT_SCHEMA: u32 = 1;

/// Histogram buckets for `serve.request_seconds` /
/// `serve.queue_wait_seconds` (sub-millisecond to multi-second).
pub const REQUEST_SECONDS_BUCKETS: &[f64] =
    &[1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0];

/// Tuning knobs of the serving engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Base RNG seed; request `n` searches with `seed + n`.
    pub seed: u64,
    /// Steps per SA trial for the full-search rung.
    pub sa_steps: usize,
    /// Independent SA trials for the full-search rung.
    pub trials: usize,
    /// Neighborhood size of the repair rung (batched proposals per step).
    pub neighborhood: usize,
    /// Steps of the repair rung's bounded local search.
    pub repair_steps: usize,
    /// Minimum remaining deadline (milliseconds) to even attempt the
    /// full-search rung; below this the engine degrades immediately.
    pub min_full_search_ms: u64,
    /// Fraction of the remaining deadline handed to the search as its
    /// wall-clock budget (the rest is headroom for serialization).
    pub deadline_safety: f64,
    /// Persist serving state every this many handled placement
    /// requests (fault and topology changes always persist).
    pub checkpoint_every: u64,
    /// Horizon of the simulation fallback evaluator (used only when no
    /// surrogate is loaded and the analytic evaluator fails).
    pub fallback_horizon: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            sa_steps: 60,
            trials: 2,
            neighborhood: 4,
            repair_steps: 12,
            min_full_search_ms: 10,
            deadline_safety: 0.8,
            checkpoint_every: 64,
            fallback_horizon: 200.0,
        }
    }
}

/// A cached placement with the objective it was last scored at.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedPlacement {
    /// The placement.
    pub placement: Placement,
    /// Total-throughput objective under the serving evaluator.
    pub objective: f64,
}

/// A device-indexed multiplicative factor (serialized fault state).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FactorEntry {
    /// Device or chain index.
    pub idx: usize,
    /// Multiplier currently in effect.
    pub factor: f64,
}

/// The durable serving state: everything needed to resume answering
/// after a crash, persisted via `chainnet-ckpt` atomic writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeState {
    /// Schema version ([`SERVE_CKPT_SCHEMA`]).
    pub schema: u32,
    /// The installed nominal topology, if any.
    pub nominal: Option<PlacementProblem>,
    /// Devices currently crashed (sorted, deduplicated).
    pub crashed: Vec<usize>,
    /// Active service-rate degradations by device.
    pub degraded: Vec<FactorEntry>,
    /// Active arrival-rate bursts by chain.
    pub bursts: Vec<FactorEntry>,
    /// Last-known-good placement for the current effective topology.
    pub last_good: Option<CachedPlacement>,
    /// Placement requests handled over the state's lifetime (drives
    /// the per-request search seed, so it survives restarts).
    pub requests_handled: u64,
    /// Fault events applied over the state's lifetime.
    pub faults_applied: u64,
}

impl Default for ServeState {
    fn default() -> Self {
        Self {
            schema: SERVE_CKPT_SCHEMA,
            nominal: None,
            crashed: Vec::new(),
            degraded: Vec::new(),
            bursts: Vec::new(),
            last_good: None,
            requests_handled: 0,
            faults_applied: 0,
        }
    }
}

/// The serving engine. See the module docs for the threading and
/// determinism contract.
pub struct Engine {
    config: EngineConfig,
    obs: Obs,
    state: ServeState,
    surrogate: Option<ChainNet>,
    store: Option<CkptStore>,
    next_seq: u64,
    dirty_places: u64,
}

impl Engine {
    /// A fresh engine with no topology, no surrogate, no persistence.
    pub fn new(config: EngineConfig, obs: Obs) -> Self {
        Self {
            config,
            obs,
            state: ServeState::default(),
            surrogate: None,
            store: None,
            next_seq: 1,
            dirty_places: 0,
        }
    }

    /// Keep trained ChainNet weights warm: placements are scored by the
    /// surrogate (with the analytic evaluator as the resilient
    /// fallback) instead of the analytic model alone.
    #[must_use]
    pub fn with_surrogate(mut self, model: ChainNet) -> Self {
        self.surrogate = Some(model);
        self
    }

    /// Attach a checkpoint store for durable serving state.
    #[must_use]
    pub fn with_store(mut self, store: CkptStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Restore serving state from the newest verified checkpoint in the
    /// attached store. Returns `true` when state was restored, `false`
    /// when the store holds no checkpoint yet (a fresh start).
    ///
    /// # Errors
    ///
    /// Propagates store failures other than "no checkpoint", including
    /// [`CkptError::ResumeMismatch`] for a state written under a
    /// different schema version.
    pub fn resume(&mut self) -> Result<bool, ServeError> {
        let Some(store) = &self.store else {
            return Ok(false);
        };
        match store.load_latest_state::<ServeState>() {
            Ok(Some((seq, state))) => {
                if state.schema != SERVE_CKPT_SCHEMA {
                    return Err(ServeError::Checkpoint(CkptError::ResumeMismatch {
                        reason: format!(
                            "serve state schema {} != supported {SERVE_CKPT_SCHEMA}",
                            state.schema
                        ),
                    }));
                }
                store.note_resume();
                self.next_seq = seq + 1;
                self.state = state;
                Ok(true)
            }
            Ok(None) => Ok(false),
            Err(e) => Err(ServeError::Checkpoint(e)),
        }
    }

    /// Read-only view of the serving state.
    pub fn state(&self) -> &ServeState {
        &self.state
    }

    /// The engine's observability context.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Persist the current serving state now (used by the daemon on
    /// graceful shutdown and after mutations).
    ///
    /// # Errors
    ///
    /// Propagates checkpoint-store failures; a no-op without a store.
    pub fn flush(&mut self) -> Result<(), ServeError> {
        if let Some(store) = &self.store {
            store.save_state(self.next_seq, &self.state)?;
            self.next_seq += 1;
            self.dirty_places = 0;
        }
        Ok(())
    }

    /// Handle one request received at `received`. Always returns a
    /// response (errors become typed rejections); transport I/O is the
    /// only thing that can still go wrong after this returns.
    pub fn handle(&mut self, req: &Request, received: Instant) -> Response {
        let span = self.obs.tracer.span("serve.request");
        let timer = self.obs.is_enabled().then(|| {
            self.obs
                .registry
                .histogram("serve.request_seconds", REQUEST_SECONDS_BUCKETS)
                .start_timer()
        });
        if self.obs.is_enabled() {
            self.obs.registry.counter("serve.requests_total").inc();
        }
        let outcome = match self.dispatch(req, received) {
            Ok(outcome) => outcome,
            Err(e) => {
                let kind = match &e {
                    ServeError::DeadlineExceeded { .. } => {
                        if self.obs.is_enabled() {
                            self.obs
                                .registry
                                .counter("serve.deadline_exceeded_total")
                                .inc();
                        }
                        RejectKind::DeadlineExceeded
                    }
                    ServeError::Overloaded { .. } => RejectKind::Overloaded,
                    ServeError::InvalidRequest(_) | ServeError::Fault(_) => RejectKind::Invalid,
                    ServeError::NoTopology => RejectKind::NoTopology,
                    ServeError::NoPlacement => RejectKind::NoPlacement,
                    ServeError::Placement(_)
                    | ServeError::Checkpoint(_)
                    | ServeError::Io(_)
                    | ServeError::Worker(_) => RejectKind::Internal,
                };
                Outcome::Rejected {
                    kind,
                    error: e.to_string(),
                }
            }
        };
        if let Some(t) = timer {
            t.stop();
        }
        if self.obs.is_enabled() {
            self.obs.registry.counter("serve.responses_total").inc();
        }
        span.close();
        Response {
            id: req.id,
            outcome,
        }
    }

    fn dispatch(&mut self, req: &Request, received: Instant) -> Result<Outcome, ServeError> {
        let remaining = Self::remaining(req.deadline_ms, received)?;
        match &req.body {
            RequestBody::Ping => Ok(Outcome::Pong),
            RequestBody::Shutdown => Ok(Outcome::ShuttingDown),
            RequestBody::Stats => Ok(Outcome::Stats {
                snapshot: self.obs.registry.snapshot(),
                requests_handled: self.state.requests_handled,
                crashed_devices: self.state.crashed.len(),
                has_cached_placement: self.state.last_good.is_some(),
                topology_installed: self.state.nominal.is_some(),
                workers: Vec::new(),
            }),
            RequestBody::Topology { problem } => self.install_topology(problem),
            RequestBody::Fault { event } => self.apply_fault(event),
            RequestBody::Place { hint } => {
                self.place(hint.as_ref(), remaining, received, req.deadline_ms)
            }
        }
    }

    /// Time left before `deadline_ms` elapses, or a typed error if it
    /// already has. `None` deadlines never expire.
    fn remaining(
        deadline_ms: Option<u64>,
        received: Instant,
    ) -> Result<Option<Duration>, ServeError> {
        let Some(ms) = deadline_ms else {
            return Ok(None);
        };
        let deadline = Duration::from_millis(ms);
        let elapsed = received.elapsed();
        if elapsed >= deadline {
            return Err(ServeError::DeadlineExceeded { deadline_ms: ms });
        }
        Ok(Some(deadline - elapsed))
    }

    fn install_topology(&mut self, problem: &PlacementProblem) -> Result<Outcome, ServeError> {
        // Re-validate: the fields are public, so a JSON topology may
        // violate the structural invariants `PlacementProblem::new`
        // enforces.
        let problem = PlacementProblem::new(problem.devices.clone(), problem.chains.clone())
            .map_err(|e| ServeError::InvalidRequest(e.to_string()))?;
        let devices = problem.num_devices();
        let chains = problem.num_chains();
        self.state.nominal = Some(problem);
        self.state.crashed.clear();
        self.state.degraded.clear();
        self.state.bursts.clear();
        self.state.last_good = None;
        // Seed the cache with the ranking-score greedy placement so
        // even the first tight-deadline request has a cached answer.
        if let Some(nominal) = &self.state.nominal {
            if let Ok(initial) = nominal.initial_placement() {
                let mut approx = ApproxEvaluator::default();
                let objective = chainnet_placement::evaluator::Evaluator::total_throughput(
                    &mut approx,
                    nominal,
                    &initial,
                )
                .unwrap_or(f64::NEG_INFINITY);
                self.state.last_good = Some(CachedPlacement {
                    placement: initial,
                    objective,
                });
            }
        }
        self.flush()?;
        Ok(Outcome::TopologyInstalled { devices, chains })
    }

    /// Current effective topology: nominal devices/chains with the
    /// accumulated fault state applied. Device and chain indices are
    /// stable — a crashed device stays in the list with (effectively)
    /// zero memory, so no fragment can be placed on it.
    fn effective_problem(&self) -> Result<PlacementProblem, ServeError> {
        let nominal = self.state.nominal.as_ref().ok_or(ServeError::NoTopology)?;
        let mut eff = nominal.clone();
        for entry in &self.state.degraded {
            if let Some(d) = eff.devices.get_mut(entry.idx) {
                d.service_rate *= entry.factor;
            }
        }
        for &k in &self.state.crashed {
            if let Some(d) = eff.devices.get_mut(k) {
                d.memory = f64::MIN_POSITIVE;
            }
        }
        for entry in &self.state.bursts {
            if let Some(c) = eff.chains.get_mut(entry.idx) {
                c.arrival_rate *= entry.factor;
            }
        }
        Ok(eff)
    }

    fn apply_fault(&mut self, event: &FaultEvent) -> Result<Outcome, ServeError> {
        let span = self.obs.tracer.span("serve.fault");
        let result = self.apply_fault_inner(event);
        span.close();
        result
    }

    fn apply_fault_inner(&mut self, event: &FaultEvent) -> Result<Outcome, ServeError> {
        let nominal = self.state.nominal.as_ref().ok_or(ServeError::NoTopology)?;
        let (num_devices, num_chains) = (nominal.num_devices(), nominal.num_chains());
        apply_fault_to_parts(
            event,
            num_devices,
            num_chains,
            &mut self.state.crashed,
            &mut self.state.degraded,
            &mut self.state.bursts,
        )?;
        self.state.faults_applied += 1;
        if self.obs.is_enabled() {
            self.obs.registry.counter("serve.fault_events").inc();
            self.obs
                .registry
                .gauge("serve.crashed_devices")
                .set(self.state.crashed.len() as f64);
        }

        // Incremental re-optimization: only the chains the event
        // touches are moved (greedy relocation off crashed devices),
        // followed by a bounded neighborhood polish — never a cold
        // restart of the full search.
        let affected = self.affected_chains(&event.kind);
        let repaired = self.incremental_repair(&affected)?;
        self.flush()?;
        Ok(Outcome::FaultApplied {
            affected_chains: affected.len(),
            repaired,
        })
    }

    /// Chains whose current (cached) routes the event touches.
    fn affected_chains(&self, kind: &FaultKind) -> Vec<usize> {
        let Some(cached) = &self.state.last_good else {
            return Vec::new();
        };
        match *kind {
            FaultKind::DeviceCrash { device }
            | FaultKind::DeviceRecover { device }
            | FaultKind::ServiceDegrade { device, .. }
            | FaultKind::ServiceRestore { device } => (0..cached.placement.num_chains())
                .filter(|&c| cached.placement.chain_route(c).contains(&device))
                .collect(),
            FaultKind::ArrivalBurst { chain, .. } | FaultKind::ArrivalCalm { chain } => {
                if chain < cached.placement.num_chains() {
                    vec![chain]
                } else {
                    Vec::new()
                }
            }
            _ => Vec::new(),
        }
    }

    /// Repair the cached placement after a fault: greedily relocate the
    /// affected chains' fragments off crashed devices, then polish with
    /// a bounded neighborhood search. Returns whether a repair ran.
    fn incremental_repair(&mut self, affected: &[usize]) -> Result<bool, ServeError> {
        let Some(cached) = self.state.last_good.clone() else {
            return Ok(false);
        };
        let eff = self.effective_problem()?;
        let span = self.obs.tracer.span("serve.repair");
        let base = if eff.is_feasible(&cached.placement) {
            Some(cached.placement.clone())
        } else {
            self.relocate_off_crashed(&eff, &cached.placement, affected)
        };
        let outcome = match base {
            Some(base) => {
                // Bounded polish around the repaired placement; the SA
                // seed is derived from the fault counter so repairs are
                // deterministic in the event sequence.
                let config = SaConfig {
                    max_steps: self.config.repair_steps,
                    seed: self
                        .config
                        .seed
                        .wrapping_add(0x5eed_fa17)
                        .wrapping_add(self.state.faults_applied),
                    ..SaConfig::paper_default()
                };
                let result = self.search(config, &eff, &base, 1, self.config.neighborhood);
                let (placement, objective) = if result.best_objective.is_finite() {
                    (result.best_placement, result.best_objective)
                } else {
                    // Polish failed to score anything: keep the greedy
                    // relocation with a conservative score.
                    let obj = self.score(&eff, &base).unwrap_or(f64::NEG_INFINITY);
                    (base, obj)
                };
                self.state.last_good = Some(CachedPlacement {
                    placement,
                    objective,
                });
                if self.obs.is_enabled() {
                    self.obs.registry.counter("serve.repairs").inc();
                    self.obs
                        .registry
                        .counter("serve.repair_chains")
                        .add(affected.len() as u64);
                }
                Ok(true)
            }
            None => {
                // Nothing feasible reachable by relocation (e.g. too
                // many devices down). The stale cache stays — a Cached
                // answer is still better than none, and the degradation
                // level tells the client how much to trust it.
                Ok(false)
            }
        };
        span.close();
        outcome
    }

    /// Greedily move the affected chains' fragments off crashed devices
    /// to the feasible device with the most free memory. Only touches
    /// the affected chains. Returns `None` if no feasible relocation
    /// exists.
    fn relocate_off_crashed(
        &self,
        eff: &PlacementProblem,
        base: &Placement,
        affected: &[usize],
    ) -> Option<Placement> {
        let mut next = base.clone();
        // Free memory per device under the current (partial) placement.
        let mut used = vec![0.0_f64; eff.num_devices()];
        for (c, j, k) in base.iter() {
            if let Some(frag) = eff.chains.get(c).and_then(|ch| ch.fragments.get(j)) {
                used[k] += frag.mem;
            }
        }
        for &c in affected {
            let route: Vec<usize> = next.chain_route(c).to_vec();
            for (j, &k) in route.iter().enumerate() {
                if self.state.crashed.binary_search(&k).is_err() {
                    continue;
                }
                let frag_mem = eff.chains.get(c).and_then(|ch| ch.fragments.get(j))?.mem;
                // Candidate devices: alive, not already in this chain's
                // route, with room for the fragment.
                let current_route: Vec<usize> = next.chain_route(c).to_vec();
                let mut best: Option<(usize, f64)> = None;
                for (k2, dev) in eff.devices.iter().enumerate() {
                    if self.state.crashed.binary_search(&k2).is_ok() || current_route.contains(&k2)
                    {
                        continue;
                    }
                    let free = dev.memory - used[k2];
                    if free >= frag_mem && best.map(|(_, bf)| free > bf).unwrap_or(true) {
                        best = Some((k2, free));
                    }
                }
                let (k2, _) = best?;
                next.set_device(c, j, k2);
                used[k] -= frag_mem;
                used[k2] += frag_mem;
            }
        }
        eff.is_feasible(&next).then_some(next)
    }

    /// Simulation config for the last-resort fallback evaluator; a bad
    /// configured horizon degrades to the default instead of panicking.
    fn sim_config(&self) -> SimConfig {
        SimConfig::try_new(self.config.fallback_horizon, self.config.seed)
            .or_else(|_| SimConfig::try_new(200.0, self.config.seed))
            .unwrap_or_else(|_| SimConfig::new(200.0, self.config.seed))
    }

    /// One SA search from `start` through the serving evaluator stack:
    /// the surrogate backed by the analytic evaluator when a surrogate
    /// is loaded, else the analytic evaluator backed by simulation.
    fn search(
        &self,
        config: SaConfig,
        eff: &PlacementProblem,
        start: &Placement,
        trials: usize,
        neighborhood: usize,
    ) -> SaResult {
        let sa = SimulatedAnnealing::new(config);
        let mut ev: Box<dyn BatchEvaluator> = match &self.surrogate {
            Some(model) => Box::new(ResilientEvaluator::new_observed(
                GnnEvaluator::new(model.clone()),
                ApproxEvaluator::default(),
                self.obs.clone(),
            )),
            None => Box::new(ResilientEvaluator::new_observed(
                ApproxEvaluator::default(),
                SimEvaluator::new(self.sim_config()),
                self.obs.clone(),
            )),
        };
        sa.optimize_neighborhood_observed(eff, start, &mut *ev, trials, neighborhood, &self.obs)
    }

    /// Score one placement with the serving evaluator stack.
    fn score(&self, eff: &PlacementProblem, placement: &Placement) -> Option<f64> {
        use chainnet_placement::evaluator::Evaluator as _;
        let mut ev = match &self.surrogate {
            Some(model) => {
                let mut gnn = GnnEvaluator::new(model.clone());
                return gnn.total_throughput(eff, placement).ok();
            }
            None => ApproxEvaluator::default(),
        };
        ev.total_throughput(eff, placement).ok()
    }

    fn place(
        &mut self,
        hint: Option<&Placement>,
        remaining: Option<Duration>,
        received: Instant,
        deadline_ms: Option<u64>,
    ) -> Result<Outcome, ServeError> {
        let eff = self.effective_problem()?;
        let request_n = self.state.requests_handled;
        self.state.requests_handled += 1;

        // Choose the starting placement: client hint if feasible, else
        // last-known-good (repaired if needed), else greedy initial.
        let start = hint
            .filter(|p| eff.is_feasible(p))
            .cloned()
            .or_else(|| {
                self.state.last_good.as_ref().and_then(|c| {
                    if eff.is_feasible(&c.placement) {
                        Some(c.placement.clone())
                    } else {
                        let all: Vec<usize> = (0..c.placement.num_chains()).collect();
                        self.relocate_off_crashed(&eff, &c.placement, &all)
                    }
                })
            })
            .or_else(|| eff.initial_placement().ok());

        // Rung 1: full budget-bounded SA, if the deadline leaves room.
        let full_allowed = remaining
            .map(|d| d >= Duration::from_millis(self.config.min_full_search_ms))
            .unwrap_or(true);
        if let Some(start_placement) = &start {
            if full_allowed {
                let span = self.obs.tracer.span("serve.search");
                let budget_secs = remaining
                    .map(|d| d.as_secs_f64() * self.config.deadline_safety.clamp(0.05, 1.0));
                let config = SaConfig {
                    max_steps: self.config.sa_steps,
                    seed: self.config.seed.wrapping_add(request_n),
                    max_wall_secs: budget_secs,
                    ..SaConfig::paper_default()
                };
                let result = self.search(config, &eff, start_placement, self.config.trials, 1);
                span.close();
                if result.best_objective.is_finite() && eff.is_feasible(&result.best_placement) {
                    // Deadline re-check: a full search that blew the
                    // deadline despite its budget is a typed miss, not a
                    // late success.
                    Self::remaining(deadline_ms, received)?;
                    return self.finish_place(
                        &eff,
                        result.best_placement,
                        result.best_objective,
                        DegradationLevel::FullSearch,
                        result.evaluations,
                    );
                }
            }
        }

        // Rung 2: bounded local repair around the starting placement.
        if let Some(start_placement) = &start {
            if Self::remaining(deadline_ms, received).is_ok() {
                let config = SaConfig {
                    max_steps: self.config.repair_steps,
                    seed: self.config.seed.wrapping_add(request_n) ^ 0x10ca1,
                    max_wall_secs: remaining
                        .map(|d| d.as_secs_f64() * self.config.deadline_safety.clamp(0.05, 1.0)),
                    ..SaConfig::paper_default()
                };
                let result =
                    self.search(config, &eff, start_placement, 1, self.config.neighborhood);
                if result.best_objective.is_finite()
                    && eff.is_feasible(&result.best_placement)
                    && Self::remaining(deadline_ms, received).is_ok()
                {
                    return self.finish_place(
                        &eff,
                        result.best_placement,
                        result.best_objective,
                        DegradationLevel::LocalRepair,
                        result.evaluations,
                    );
                }
            }
        }

        // Rung 3: the cached last-known-good placement, as-is. Served
        // even past the deadline only if the deadline still has time;
        // otherwise the typed deadline rejection already fired above.
        Self::remaining(deadline_ms, received)?;
        let cached = self
            .state
            .last_good
            .clone()
            .ok_or(ServeError::NoPlacement)?;
        self.finish_place(
            &eff,
            cached.placement,
            cached.objective,
            DegradationLevel::Cached,
            0,
        )
    }

    /// Common tail of a successful placement: update the cache, record
    /// degradation metrics, checkpoint at the cadence, build the
    /// response outcome.
    fn finish_place(
        &mut self,
        eff: &PlacementProblem,
        placement: Placement,
        objective: f64,
        degradation: DegradationLevel,
        evaluations: u64,
    ) -> Result<Outcome, ServeError> {
        if degradation != DegradationLevel::Cached
            && self
                .state
                .last_good
                .as_ref()
                .map(|c| objective > c.objective || !eff.is_feasible(&c.placement))
                .unwrap_or(true)
        {
            self.state.last_good = Some(CachedPlacement {
                placement: placement.clone(),
                objective,
            });
            self.dirty_places += 1;
        }
        if self.obs.is_enabled() {
            if degradation != DegradationLevel::FullSearch {
                self.obs.registry.counter("serve.degraded_total").inc();
            }
            self.obs
                .registry
                .gauge("serve.degradation_level")
                .set(degradation.rank() as f64);
        }
        if self.dirty_places >= self.config.checkpoint_every.max(1) {
            self.flush()?;
        }
        let loss = loss_probability(eff.total_arrival_rate(), objective);
        Ok(Outcome::Placed {
            placement,
            objective,
            loss,
            degradation,
            evaluations,
        })
    }
}

/// Apply one fault event to a materialized fault state (`crashed` /
/// `degraded` / `bursts`), idempotently, with full validation against
/// the topology's dimensions. Shared between the single-process
/// [`Engine`] and the supervisor, so both sides agree exactly on what a
/// fault means and which events are invalid.
///
/// Idempotence follows FaultSchedule normalization semantics: a crash
/// of a crashed device, or a restore at nominal, is a no-op, not an
/// error.
///
/// # Errors
///
/// [`ServeError::InvalidRequest`] when the event references a device or
/// chain outside the topology, carries a non-finite or non-positive
/// factor, or uses a fault vocabulary this build does not know.
pub fn apply_fault_to_parts(
    event: &FaultEvent,
    num_devices: usize,
    num_chains: usize,
    crashed: &mut Vec<usize>,
    degraded: &mut Vec<FactorEntry>,
    bursts: &mut Vec<FactorEntry>,
) -> Result<(), ServeError> {
    let check_device = |k: usize| -> Result<(), ServeError> {
        if k >= num_devices {
            return Err(ServeError::InvalidRequest(format!(
                "device {k} out of range (topology has {num_devices} devices)"
            )));
        }
        Ok(())
    };
    let check_chain = |c: usize| -> Result<(), ServeError> {
        if c >= num_chains {
            return Err(ServeError::InvalidRequest(format!(
                "chain {c} out of range (topology has {num_chains} chains)"
            )));
        }
        Ok(())
    };
    let check_factor = |f: f64| -> Result<(), ServeError> {
        if !f.is_finite() || f <= 0.0 {
            return Err(ServeError::InvalidRequest(format!(
                "factor must be finite and positive, got {f}"
            )));
        }
        Ok(())
    };
    match event.kind {
        FaultKind::DeviceCrash { device } => {
            check_device(device)?;
            if let Err(pos) = crashed.binary_search(&device) {
                crashed.insert(pos, device);
            }
        }
        FaultKind::DeviceRecover { device } => {
            check_device(device)?;
            if let Ok(pos) = crashed.binary_search(&device) {
                crashed.remove(pos);
            }
        }
        FaultKind::ServiceDegrade { device, factor } => {
            check_device(device)?;
            check_factor(factor)?;
            match degraded.iter_mut().find(|e| e.idx == device) {
                Some(e) => e.factor = factor,
                None => degraded.push(FactorEntry {
                    idx: device,
                    factor,
                }),
            }
        }
        FaultKind::ServiceRestore { device } => {
            check_device(device)?;
            degraded.retain(|e| e.idx != device);
        }
        FaultKind::ArrivalBurst { chain, factor } => {
            check_chain(chain)?;
            check_factor(factor)?;
            match bursts.iter_mut().find(|e| e.idx == chain) {
                Some(e) => e.factor = factor,
                None => bursts.push(FactorEntry { idx: chain, factor }),
            }
        }
        FaultKind::ArrivalCalm { chain } => {
            check_chain(chain)?;
            bursts.retain(|e| e.idx != chain);
        }
        // `FaultKind` is non-exhaustive: a fault vocabulary this
        // build does not know is an invalid request, not a crash.
        _ => {
            return Err(ServeError::InvalidRequest(
                "unsupported fault kind".to_string(),
            ))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainnet_qsim::model::{Device, Fragment, ServiceChain};

    fn problem() -> PlacementProblem {
        let devices = vec![
            Device::new(10.0, 4.0).expect("device"),
            Device::new(10.0, 3.0).expect("device"),
            Device::new(10.0, 2.0).expect("device"),
            Device::new(10.0, 2.0).expect("device"),
        ];
        let chains = vec![
            ServiceChain::new(
                0.8,
                vec![
                    Fragment::new(2.0, 1.0).expect("frag"),
                    Fragment::new(2.0, 1.0).expect("frag"),
                ],
            )
            .expect("chain"),
            ServiceChain::new(
                0.5,
                vec![
                    Fragment::new(1.0, 1.0).expect("frag"),
                    Fragment::new(1.0, 1.0).expect("frag"),
                ],
            )
            .expect("chain"),
        ];
        PlacementProblem::new(devices, chains).expect("problem")
    }

    fn engine() -> Engine {
        let cfg = EngineConfig {
            sa_steps: 10,
            trials: 1,
            repair_steps: 4,
            ..EngineConfig::default()
        };
        Engine::new(cfg, Obs::enabled())
    }

    fn req(id: u64, body: RequestBody) -> Request {
        Request {
            id,
            deadline_ms: None,
            body,
        }
    }

    fn install(engine: &mut Engine) {
        let r = engine.handle(
            &req(1, RequestBody::Topology { problem: problem() }),
            Instant::now(),
        );
        assert!(
            matches!(
                r.outcome,
                Outcome::TopologyInstalled {
                    devices: 4,
                    chains: 2
                }
            ),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn place_without_topology_is_typed() {
        let mut e = engine();
        let r = e.handle(&req(1, RequestBody::Place { hint: None }), Instant::now());
        match r.outcome {
            Outcome::Rejected { kind, .. } => assert_eq!(kind, RejectKind::NoTopology),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn place_full_search_on_fresh_topology() {
        let mut e = engine();
        install(&mut e);
        let r = e.handle(&req(2, RequestBody::Place { hint: None }), Instant::now());
        match r.outcome {
            Outcome::Placed {
                degradation,
                objective,
                loss,
                ..
            } => {
                assert_eq!(degradation, DegradationLevel::FullSearch);
                assert!(objective.is_finite());
                assert!((0.0..=1.0).contains(&loss));
            }
            other => panic!("expected placement, got {other:?}"),
        }
        assert_eq!(e.state().requests_handled, 1);
    }

    #[test]
    fn expired_deadline_is_rejected_before_any_work() {
        let mut e = engine();
        install(&mut e);
        let old = Instant::now() - Duration::from_millis(500);
        let r = e.handle(
            &Request {
                id: 3,
                deadline_ms: Some(10),
                body: RequestBody::Place { hint: None },
            },
            old,
        );
        match r.outcome {
            Outcome::Rejected { kind, .. } => assert_eq!(kind, RejectKind::DeadlineExceeded),
            other => panic!("expected deadline rejection, got {other:?}"),
        }
        // The request counter moved but no placement was produced.
        let snap = e.obs().registry.snapshot();
        assert_eq!(snap.counters["serve.deadline_exceeded_total"], 1);
    }

    #[test]
    fn crash_triggers_incremental_repair_and_placements_avoid_dead_device() {
        let mut e = engine();
        install(&mut e);
        e.handle(&req(2, RequestBody::Place { hint: None }), Instant::now());
        let r = e.handle(
            &req(
                3,
                RequestBody::Fault {
                    event: FaultEvent {
                        time: 0.0,
                        kind: FaultKind::DeviceCrash { device: 0 },
                    },
                },
            ),
            Instant::now(),
        );
        match r.outcome {
            Outcome::FaultApplied { repaired, .. } => assert!(repaired),
            other => panic!("expected fault ack, got {other:?}"),
        }
        // The repaired cache avoids the crashed device.
        let cached = e.state().last_good.clone().expect("cached placement");
        for (_, _, k) in cached.placement.iter() {
            assert_ne!(k, 0, "repair left a fragment on the crashed device");
        }
        // Subsequent placements also avoid it.
        let r = e.handle(&req(4, RequestBody::Place { hint: None }), Instant::now());
        match r.outcome {
            Outcome::Placed { placement, .. } => {
                for (_, _, k) in placement.iter() {
                    assert_ne!(k, 0);
                }
            }
            other => panic!("expected placement, got {other:?}"),
        }
        let snap = e.obs().registry.snapshot();
        assert!(snap.counters["serve.repairs"] >= 1);
        assert_eq!(snap.counters["serve.fault_events"], 1);
    }

    #[test]
    fn fault_events_are_idempotent_and_validated() {
        let mut e = engine();
        install(&mut e);
        let crash = |id| {
            req(
                id,
                RequestBody::Fault {
                    event: FaultEvent {
                        time: 0.0,
                        kind: FaultKind::DeviceCrash { device: 1 },
                    },
                },
            )
        };
        e.handle(&crash(2), Instant::now());
        e.handle(&crash(3), Instant::now());
        assert_eq!(e.state().crashed, vec![1]);
        let r = e.handle(
            &req(
                4,
                RequestBody::Fault {
                    event: FaultEvent {
                        time: 0.0,
                        kind: FaultKind::DeviceCrash { device: 99 },
                    },
                },
            ),
            Instant::now(),
        );
        match r.outcome {
            Outcome::Rejected { kind, .. } => assert_eq!(kind, RejectKind::Invalid),
            other => panic!("expected invalid rejection, got {other:?}"),
        }
        let r = e.handle(
            &req(
                5,
                RequestBody::Fault {
                    event: FaultEvent {
                        time: 0.0,
                        kind: FaultKind::ServiceDegrade {
                            device: 0,
                            factor: f64::NAN,
                        },
                    },
                },
            ),
            Instant::now(),
        );
        assert!(matches!(
            r.outcome,
            Outcome::Rejected {
                kind: RejectKind::Invalid,
                ..
            }
        ));
    }

    #[test]
    fn recover_restores_full_capacity() {
        let mut e = engine();
        install(&mut e);
        let fault = |id, kind| {
            req(
                id,
                RequestBody::Fault {
                    event: FaultEvent { time: 0.0, kind },
                },
            )
        };
        e.handle(
            &fault(2, FaultKind::DeviceCrash { device: 0 }),
            Instant::now(),
        );
        e.handle(
            &fault(3, FaultKind::DeviceRecover { device: 0 }),
            Instant::now(),
        );
        assert!(e.state().crashed.is_empty());
        let eff = e.effective_problem().expect("effective problem");
        assert_eq!(eff.devices[0].memory, 10.0);
    }

    #[test]
    fn checkpoint_roundtrip_resumes_serving_state() {
        let dir = std::env::temp_dir().join(format!("serve-engine-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CkptStore::open(&dir, "serve", SERVE_CKPT_SCHEMA).expect("open store");
        let mut e = engine().with_store(store);
        install(&mut e);
        e.handle(&req(2, RequestBody::Place { hint: None }), Instant::now());
        e.handle(
            &req(
                3,
                RequestBody::Fault {
                    event: FaultEvent {
                        time: 0.0,
                        kind: FaultKind::DeviceCrash { device: 2 },
                    },
                },
            ),
            Instant::now(),
        );
        e.flush().expect("flush");
        let expected = e.state().clone();

        let store2 = CkptStore::open(&dir, "serve", SERVE_CKPT_SCHEMA).expect("reopen store");
        let mut e2 = engine().with_store(store2);
        assert!(e2.resume().expect("resume"));
        assert_eq!(e2.state(), &expected);
        // The resumed engine serves from the restored cache.
        let r = e2.handle(&req(4, RequestBody::Place { hint: None }), Instant::now());
        assert!(
            matches!(r.outcome, Outcome::Placed { .. }),
            "{:?}",
            r.outcome
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_reports_state_summary() {
        let mut e = engine();
        install(&mut e);
        let r = e.handle(&req(2, RequestBody::Stats), Instant::now());
        match r.outcome {
            Outcome::Stats {
                snapshot,
                has_cached_placement,
                crashed_devices,
                ..
            } => {
                assert!(has_cached_placement);
                assert_eq!(crashed_devices, 0);
                assert!(snapshot.counters.contains_key("serve.requests_total"));
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_in_request_sequence_without_deadlines() {
        let run = || {
            let mut e = engine();
            install(&mut e);
            let mut objs = Vec::new();
            for id in 2..6 {
                let r = e.handle(&req(id, RequestBody::Place { hint: None }), Instant::now());
                if let Outcome::Placed { objective, .. } = r.outcome {
                    objs.push(objective);
                }
            }
            objs
        };
        assert_eq!(run(), run());
    }

    /// Routes of `placement`, one device list per chain.
    fn routes(placement: &Placement) -> Vec<Vec<usize>> {
        (0..placement.num_chains())
            .map(|c| placement.chain_route(c).to_vec())
            .collect()
    }

    /// Topology, 3 `Place`s, a crash of device 0, 2 `Place`s: every
    /// answer's routes and objective bits, with the cached placement
    /// after the fault's repair between them.
    fn golden_run(mut e: Engine) -> Vec<(Vec<Vec<usize>>, u64)> {
        install(&mut e);
        let mut out = Vec::new();
        let place = |e: &mut Engine, id: u64, out: &mut Vec<_>| match e
            .handle(&req(id, RequestBody::Place { hint: None }), Instant::now())
            .outcome
        {
            Outcome::Placed {
                placement,
                objective,
                ..
            } => out.push((routes(&placement), objective.to_bits())),
            other => panic!("expected placement, got {other:?}"),
        };
        for id in 2..5 {
            place(&mut e, id, &mut out);
        }
        let crash = FaultEvent {
            time: 0.0,
            kind: FaultKind::DeviceCrash { device: 0 },
        };
        let r = e.handle(&req(5, RequestBody::Fault { event: crash }), Instant::now());
        assert!(
            matches!(r.outcome, Outcome::FaultApplied { repaired: true, .. }),
            "{:?}",
            r.outcome
        );
        let cached = e.state().last_good.clone().expect("cached placement");
        out.push((routes(&cached.placement), cached.objective.to_bits()));
        for id in 6..8 {
            place(&mut e, id, &mut out);
        }
        out
    }

    /// Bit-exact answers to a fixed request sequence, with and without
    /// a surrogate: every search through the serving evaluator stack
    /// (full search, fault repair) must keep them.
    #[test]
    fn request_sequence_answers_match_golden() {
        let approx_golden: [(Vec<Vec<usize>>, u64); 6] = [
            (vec![vec![1, 0], vec![2, 3]], 4608533490369295458),
            (vec![vec![1, 0], vec![2, 3]], 4608533490369295458),
            (vec![vec![1, 0], vec![2, 3]], 4608533490369295458),
            (vec![vec![3, 1], vec![2, 1]], 4608532496072931356),
            (vec![vec![1, 3], vec![1, 2]], 4608532496075808130),
            (vec![vec![1, 3], vec![1, 2]], 4608532496075808130),
        ];
        assert_eq!(golden_run(engine()), approx_golden);

        let untrained = ChainNet::new(chainnet::config::ModelConfig::small(), 3);
        let surrogate_golden: [(Vec<Vec<usize>>, u64); 6] = [
            (vec![vec![2, 3], vec![1, 2]], 4603633268535120910),
            (vec![vec![1, 0], vec![3, 1]], 4603643395586669940),
            (vec![vec![2, 1], vec![2, 1]], 4603730262881538852),
            (vec![vec![3, 2], vec![2, 3]], 4603712694394318781),
            (vec![vec![3, 2], vec![2, 3]], 4603712694394318781),
            (vec![vec![3, 2], vec![2, 3]], 4603712694394318781),
        ];
        assert_eq!(
            golden_run(engine().with_surrogate(untrained)),
            surrogate_golden
        );
    }

    /// A degradation factor that drives a used device's service rate to
    /// a subnormal value reaches the analytic evaluator in the fault's
    /// repair; the fault and the next `Place` get typed answers.
    #[test]
    fn subnormal_service_rate_fault_is_answered() {
        let mut e = engine();
        install(&mut e);
        let cached = e.state().last_good.clone().expect("cached placement");
        assert!(cached.placement.iter().any(|(_, _, k)| k == 0));
        let degrade = FaultEvent {
            time: 0.0,
            kind: FaultKind::ServiceDegrade {
                device: 0,
                factor: 1e-320,
            },
        };
        let r = e.handle(
            &req(2, RequestBody::Fault { event: degrade }),
            Instant::now(),
        );
        assert!(
            matches!(r.outcome, Outcome::FaultApplied { .. }),
            "{:?}",
            r.outcome
        );
        let r = e.handle(&req(3, RequestBody::Place { hint: None }), Instant::now());
        match r.outcome {
            Outcome::Placed {
                objective, loss, ..
            } => {
                assert!(objective.is_finite());
                assert!((0.0..=1.0).contains(&loss));
            }
            other => panic!("expected placement, got {other:?}"),
        }
    }
}
