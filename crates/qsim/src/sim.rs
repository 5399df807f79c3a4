//! Discrete-event simulation of finite-buffer multi-chain open queueing
//! networks.
//!
//! Each device is a single-server FCFS station. A job of fragment `(i,j)`
//! occupies memory at its station from admission until service completion;
//! an arrival that would exceed the device's memory capacity is dropped and
//! the whole chain request is lost (the loss semantics of Section II of
//! the paper). Network transmission time is not modeled, consistent with
//! the paper's observation that it acts as a pure delay.

use crate::dist::{Dist, Sampler};
use crate::error::{BudgetReason, QsimError, Result};
use crate::faults::{FaultKind, FaultSchedule};
use crate::model::{ChainIdx, DeviceIdx, MemoryPolicy, ServicePolicy, SystemModel};
use crate::stats::{TimeWeighted, Welford};
use crate::trace::{Trace, TraceKind};
use chainnet_obs::{labeled, Obs};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

/// How often (in processed events) the wall-clock watchdog is polled.
const WALL_CHECK_INTERVAL: u64 = 1024;

/// Bucket bounds for the `qsim.device.queue_depth` histogram (jobs).
const QUEUE_DEPTH_BUCKETS: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Bucket bounds for the `qsim.run_wall_seconds` histogram (seconds).
const WALL_SECONDS_BUCKETS: &[f64] = &[0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0];

/// Structured event emitted once per observed run.
#[derive(Debug, Clone, Copy, Serialize)]
struct SimRunEvent {
    kind: &'static str,
    horizon: f64,
    seed: u64,
    events: u64,
    total_throughput: f64,
    loss_probability: f64,
    wall_seconds: f64,
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Simulated time horizon.
    pub horizon: f64,
    /// Initial transient discarded from all statistics.
    pub warmup: f64,
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Dynamic memory accounting policy.
    pub memory_policy: MemoryPolicy,
    /// Service time policy.
    pub service_policy: ServicePolicy,
    /// Hard cap on processed events (guards against runaway models).
    /// Exceeding it aborts the run with
    /// [`QsimError::BudgetExceeded`] carrying partial statistics.
    pub max_events: u64,
    /// Number of batches for batch-means confidence intervals.
    pub batches: usize,
    /// Capacity of the event trace (0 = tracing disabled).
    pub trace_capacity: usize,
    /// Optional wall-clock deadline in seconds. A run that has not
    /// reached the horizon when the deadline expires aborts with
    /// [`QsimError::BudgetExceeded`] carrying partial statistics.
    /// `None` (the default) disables the watchdog.
    #[serde(default)]
    pub max_wall_secs: Option<f64>,
}

impl SimConfig {
    /// A configuration with the given horizon, 10% warm-up and seed.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not finite and positive.
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract; try_new is the fallible path"
    )]
    pub fn new(horizon: f64, seed: u64) -> Self {
        Self::try_new(horizon, seed).expect("horizon must be finite and positive")
    }

    /// Non-panicking constructor: a configuration with the given
    /// horizon, 10% warm-up and seed.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidParameter`] if `horizon` is not
    /// finite and positive.
    pub fn try_new(horizon: f64, seed: u64) -> Result<Self> {
        if !horizon.is_finite() || horizon <= 0.0 {
            return Err(QsimError::invalid_parameter(
                "horizon",
                format!("must be finite and positive, got {horizon}"),
            ));
        }
        Ok(Self {
            horizon,
            warmup: 0.1 * horizon,
            seed,
            memory_policy: MemoryPolicy::default(),
            service_policy: ServicePolicy::default(),
            max_events: 200_000_000,
            batches: 20,
            trace_capacity: 0,
            max_wall_secs: None,
        })
    }

    /// Override the warm-up period (builder-style).
    #[must_use]
    pub fn with_warmup(mut self, warmup: f64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Override the service policy (builder-style).
    #[must_use]
    pub fn with_service_policy(mut self, policy: ServicePolicy) -> Self {
        self.service_policy = policy;
        self
    }

    /// Override the memory policy (builder-style).
    #[must_use]
    pub fn with_memory_policy(mut self, policy: MemoryPolicy) -> Self {
        self.memory_policy = policy;
        self
    }

    /// Enable event tracing with the given buffer capacity
    /// (builder-style).
    #[must_use]
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Override the event cap (builder-style).
    #[must_use]
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Set a wall-clock deadline in seconds (builder-style).
    #[must_use]
    pub fn with_max_wall_secs(mut self, secs: f64) -> Self {
        self.max_wall_secs = Some(secs);
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::new(20_000.0, 0)
    }
}

/// Per-chain steady-state estimates.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ChainStats {
    /// External arrivals within the measurement window.
    pub arrivals: u64,
    /// Requests that completed the whole chain within the window.
    pub completions: u64,
    /// Requests dropped at some stage within the window.
    pub losses: u64,
    /// Estimated system throughput `X_i` (completions per unit time).
    pub throughput: f64,
    /// Mean end-to-end latency `L_i` of completed requests.
    pub mean_latency: f64,
    /// Loss probability `1 - X_i / λ_i`, clamped to `[0, 1]`.
    pub loss_probability: f64,
    /// Half-width of a 95% confidence interval on the throughput,
    /// computed by the method of batch means over
    /// [`SimConfig::batches`] equal sub-windows.
    pub throughput_ci: f64,
}

/// Per-device steady-state estimates.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Time-average number of jobs at the station (queue + in service).
    pub mean_jobs: f64,
    /// Fraction of the window the server was busy.
    pub utilization: f64,
    /// Jobs admitted within the window.
    pub admitted: u64,
    /// Jobs dropped at this station within the window.
    pub drops: u64,
}

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Per-chain statistics, indexed like the model's chains.
    pub chains: Vec<ChainStats>,
    /// Per-device statistics, indexed like the model's devices.
    pub devices: Vec<DeviceStats>,
    /// Total throughput `X_total = Σ X_i`.
    pub total_throughput: f64,
    /// Total offered rate `λ_total = Σ λ_i`.
    pub total_arrival_rate: f64,
    /// Overall loss probability `(λ_total - X_total) / λ_total` (Eq. 18),
    /// clamped to `[0, 1]`.
    pub loss_probability: f64,
    /// Length of the measurement window.
    pub measured_time: f64,
    /// Number of events processed.
    pub events: u64,
    /// Recorded event trace (empty unless [`SimConfig::trace_capacity`]
    /// was set).
    pub trace: Trace,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    ExternalArrival {
        chain: ChainIdx,
    },
    Departure {
        device: DeviceIdx,
        job: Job,
        /// Station epoch when the service started. A crash bumps the
        /// epoch, invalidating departures of jobs that were lost with
        /// the device.
        epoch: u64,
    },
    /// An injected fault (index into the run's [`FaultSchedule`]).
    Fault {
        fault: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (time, seq): BinaryHeap is a max-heap, so reverse.
        // total_cmp keeps the heap order total (and deterministic) even
        // for pathological times; event times are validated finite.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Job {
    chain: ChainIdx,
    frag: usize,
    system_arrival: f64,
    /// Unique id of the chain request, kept across fragments; lets a
    /// crash identify which in-service jobs it killed.
    serial: u64,
}

#[derive(Debug)]
struct Station {
    queue: VecDeque<Job>,
    /// Jobs currently being served (up to the device's server count).
    busy: usize,
    /// The jobs behind `busy`, tracked so a crash can count them lost.
    in_service: Vec<Job>,
    used_mem: f64,
    /// Whether the device is up; a crashed device drops every offer.
    up: bool,
    /// Multiplier on the nominal service rate (1.0 = healthy).
    rate_factor: f64,
    /// Bumped on every crash; departures scheduled under an older epoch
    /// are stale (their job was already counted lost at crash time).
    epoch: u64,
    jobs_signal: TimeWeighted,
    busy_signal: TimeWeighted,
    admitted: u64,
    drops: u64,
}

impl Station {
    fn job_count(&self) -> f64 {
        (self.queue.len() + self.busy) as f64
    }
}

/// Per-run constants flattened into dense arrays so the event loop does
/// plain indexed loads instead of nested `model` lookups, plus the
/// buffer bounds that let every queue be pre-sized. Fragment `(i, j)`
/// lives at slot `frag_base[i] + j`.
///
/// Every value is computed by the exact expression the event loop used
/// to evaluate inline, so a run over these tables is bit-identical to
/// one over the model.
#[derive(Debug)]
struct RunTables {
    /// First slot of each chain's fragments.
    frag_base: Vec<usize>,
    /// `T_i` per chain.
    chain_len: Vec<usize>,
    /// Device executing each fragment slot (the placement, flattened).
    device: Vec<DeviceIdx>,
    /// Mean service time of each fragment slot on its device.
    svc_mean: Vec<f64>,
    /// Memory a job of this slot occupies under the active policy.
    mem_need: Vec<f64>,
    /// Early-exit probability after each fragment slot.
    exit_p: Vec<f64>,
    /// Link success probability of the hop leaving each slot (1.0 for
    /// the final fragment, which has no outgoing hop).
    hop_p: Vec<f64>,
    /// Server count per device (clamped to at least 1).
    servers: Vec<usize>,
    /// Memory capacity per device.
    capacity: Vec<f64>,
    service_policy: ServicePolicy,
}

impl RunTables {
    fn build(model: &SystemModel, config: &SimConfig) -> Self {
        let chains = model.chains();
        let total: usize = chains.iter().map(|c| c.len()).sum();
        let mut frag_base = Vec::with_capacity(chains.len());
        let mut chain_len = Vec::with_capacity(chains.len());
        let mut device = Vec::with_capacity(total);
        let mut svc_mean = Vec::with_capacity(total);
        let mut mem_need = Vec::with_capacity(total);
        let mut exit_p = Vec::with_capacity(total);
        let mut hop_p = Vec::with_capacity(total);
        for (i, c) in chains.iter().enumerate() {
            frag_base.push(device.len());
            chain_len.push(c.len());
            for j in 0..c.len() {
                device.push(model.placement().device_of(i, j));
                svc_mean.push(model.processing_time(i, j));
                mem_need.push(match config.memory_policy {
                    MemoryPolicy::UnitPerJob => 1.0,
                    MemoryPolicy::DemandPerJob => c.fragments[j].mem,
                });
                exit_p.push(c.exit_probability(j));
                hop_p.push(if j + 1 < c.len() {
                    c.hop_success(j)
                } else {
                    1.0
                });
            }
        }
        Self {
            frag_base,
            chain_len,
            device,
            svc_mean,
            mem_need,
            exit_p,
            hop_p,
            servers: model.devices().iter().map(|d| d.servers.max(1)).collect(),
            capacity: model.devices().iter().map(|d| d.memory).collect(),
            service_policy: config.service_policy,
        }
    }

    #[inline]
    fn slot(&self, chain: ChainIdx, frag: usize) -> usize {
        self.frag_base[chain] + frag
    }

    /// Upper bound on jobs concurrently admitted at `device`: memory
    /// capacity over the smallest per-job demand of any fragment placed
    /// there (capped so a pathological model cannot pre-allocate
    /// gigabytes of queue).
    fn admitted_bound(&self, device: DeviceIdx) -> usize {
        let min_mem = self
            .device
            .iter()
            .zip(&self.mem_need)
            .filter(|(d, _)| **d == device)
            .map(|(_, m)| *m)
            .fold(f64::INFINITY, f64::min);
        if min_mem.is_finite() && min_mem > 0.0 {
            (self.capacity[device] / min_mem).ceil().min(65_536.0) as usize + 1
        } else {
            0
        }
    }
}

/// The simulator. Holds no state between runs; construct once and reuse.
#[derive(Debug, Clone, Copy, Default)]
pub struct Simulator;

impl Simulator {
    /// Create a simulator.
    pub fn new() -> Self {
        Self
    }

    /// Run a discrete-event simulation of `model` under `config`.
    ///
    /// # Errors
    ///
    /// Returns an error if an interarrival distribution cannot be built
    /// from a chain's arrival rate, or [`QsimError::BudgetExceeded`]
    /// (with partial statistics) if the event cap or wall-clock
    /// deadline trips before the horizon.
    pub fn run(&self, model: &SystemModel, config: &SimConfig) -> Result<SimResult> {
        self.run_faulted_observed(model, config, &FaultSchedule::new(), &Obs::disabled())
    }

    /// Like [`Simulator::run`], additionally recording metrics and a
    /// run-summary event into `obs` when it is enabled:
    ///
    /// * `qsim.events_processed` counter and `qsim.events_per_sec` gauge;
    /// * `qsim.run_wall_seconds` histogram (RAII-timed wall clock);
    /// * `qsim.device.queue_depth` histogram, sampled at event times;
    /// * per-device `qsim.device.{admits,drops}{device="k"}` counters,
    ///   `qsim.device.utilization{device="k"}` gauges, plus unlabeled
    ///   workspace-wide totals of the two counters.
    ///
    /// With a disabled `obs` this is exactly [`Simulator::run`]: the
    /// instrumentation reduces to one hoisted branch.
    ///
    /// # Errors
    ///
    /// Returns an error if an interarrival distribution cannot be built
    /// from a chain's arrival rate, or [`QsimError::BudgetExceeded`]
    /// (with partial statistics) if a budget trips.
    pub fn run_observed(
        &self,
        model: &SystemModel,
        config: &SimConfig,
        obs: &Obs,
    ) -> Result<SimResult> {
        self.run_faulted_observed(model, config, &FaultSchedule::new(), obs)
    }

    /// Run a simulation with an injected [`FaultSchedule`], recording
    /// into `obs` as [`Simulator::run_observed`] does plus the
    /// `faults.injected` and (on a budget trip) `sim.budget_exceeded`
    /// counters. Pass [`Obs::disabled`] for no telemetry.
    ///
    /// Fault handling consumes no randomness, so a run with an empty
    /// schedule is bit-identical to [`Simulator::run`] with the same
    /// seed.
    ///
    /// # Errors
    ///
    /// Like [`Simulator::run_observed`], plus
    /// [`QsimError::InvalidFaultSchedule`] if the schedule references
    /// entities outside the model or has invalid times/factors.
    pub fn run_faulted_observed(
        &self,
        model: &SystemModel,
        config: &SimConfig,
        faults: &FaultSchedule,
        obs: &Obs,
    ) -> Result<SimResult> {
        let _span = obs.tracer.span("qsim.run");
        faults.validate(model)?;
        let wall_timer = obs.is_enabled().then(|| {
            obs.registry
                .histogram("qsim.run_wall_seconds", WALL_SECONDS_BUCKETS)
                .start_timer()
        });
        let queue_depth = obs.is_enabled().then(|| {
            obs.registry
                .histogram("qsim.device.queue_depth", QUEUE_DEPTH_BUCKETS)
        });
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let num_devices = model.devices().len();
        let num_chains = model.chains().len();
        let tables = RunTables::build(model, config);

        // Samplers are built once per run and reused for every arrival.
        let interarrival: Vec<Dist> = model
            .chains()
            .iter()
            .map(|c| match &c.interarrival {
                Some(d) => Ok(*d),
                None => Dist::exp_mean(1.0 / c.arrival_rate),
            })
            .collect::<Result<_>>()?;

        // Stations are pre-sized from the memory bound so the event loop
        // never grows a queue: admitted jobs can never exceed
        // `admitted_bound`, and at most `servers` of them are in service.
        let mut stations: Vec<Station> = (0..num_devices)
            .map(|k| Station {
                queue: VecDeque::with_capacity(tables.admitted_bound(k)),
                busy: 0,
                in_service: Vec::with_capacity(tables.servers[k]),
                used_mem: 0.0,
                up: true,
                rate_factor: 1.0,
                epoch: 0,
                jobs_signal: TimeWeighted::new(config.warmup, config.horizon, 0.0),
                busy_signal: TimeWeighted::new(config.warmup, config.horizon, 0.0),
                admitted: 0,
                drops: 0,
            })
            .collect();

        // In-flight events are bounded: one pending arrival per chain,
        // at most one departure per busy server, plus the fault schedule.
        // (Crash-heavy schedules can briefly exceed this via stale
        // departures; the heap then grows once and stays.)
        let total_servers: usize = tables.servers.iter().sum();
        let mut events = EventQueue::with_capacity(num_chains + total_servers + faults.len() + 1);
        for (i, d) in interarrival.iter().enumerate() {
            let t = d.sample(&mut rng);
            events.schedule(t, EventKind::ExternalArrival { chain: i });
        }
        // Fault events are scheduled after the initial arrivals; with an
        // empty schedule the sequence numbering — and hence every
        // tie-break — is identical to a run without fault injection.
        for idx in 0..faults.len() {
            events.schedule(faults.events()[idx].time, EventKind::Fault { fault: idx });
        }
        // Per-chain arrival-rate multipliers (ArrivalBurst/ArrivalCalm).
        let mut arrival_factor = vec![1.0f64; num_chains];
        let mut faults_injected: u64 = 0;
        let mut next_serial: u64 = 0;

        let mut arrivals = vec![0u64; num_chains];
        let mut completions = vec![0u64; num_chains];
        let mut losses = vec![0u64; num_chains];
        let mut latency = vec![Welford::new(); num_chains];
        let batches = config.batches.max(1);
        let batch_len = (config.horizon - config.warmup).max(f64::EPSILON) / batches as f64;
        let mut batch_completions = vec![vec![0u64; batches]; num_chains];
        let mut trace = Trace::with_capacity(config.trace_capacity);
        let mut processed: u64 = 0;
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock budget watchdog (bounds runtime; never feeds results)"
        )]
        let start_wall = Instant::now();
        let mut budget_tripped: Option<BudgetReason> = None;
        // End of the actually simulated window (shrinks on a budget trip).
        let mut sim_end = config.horizon;

        while let Some(ev) = events.pop() {
            if ev.time > config.horizon {
                break;
            }
            processed += 1;
            if processed > config.max_events {
                budget_tripped = Some(BudgetReason::MaxEvents);
                sim_end = ev.time.min(config.horizon);
                break;
            }
            if let Some(deadline) = config.max_wall_secs {
                if processed.is_multiple_of(WALL_CHECK_INTERVAL)
                    && start_wall.elapsed().as_secs_f64() > deadline
                {
                    budget_tripped = Some(BudgetReason::WallClock);
                    sim_end = ev.time.min(config.horizon);
                    break;
                }
            }
            let now = ev.time;
            let in_window = now >= config.warmup;

            match ev.kind {
                EventKind::ExternalArrival { chain } => {
                    // Schedule the next arrival of this chain. Division
                    // by a factor of exactly 1.0 is an identity, so the
                    // healthy path is bit-identical to the pre-fault
                    // engine.
                    let dt = interarrival[chain].sample(&mut rng) / arrival_factor[chain];
                    events.schedule(now + dt, EventKind::ExternalArrival { chain });
                    if in_window {
                        arrivals[chain] += 1;
                    }
                    trace.push(now, TraceKind::ExternalArrival { chain });
                    next_serial += 1;
                    let job = Job {
                        chain,
                        frag: 0,
                        system_arrival: now,
                        serial: next_serial,
                    };
                    Self::offer(
                        &tables,
                        &mut stations,
                        &mut events,
                        &mut rng,
                        job,
                        now,
                        in_window,
                        &mut losses,
                        &mut trace,
                    );
                    if let Some(h) = &queue_depth {
                        let first = tables.device[tables.slot(chain, 0)];
                        h.observe(stations[first].job_count());
                    }
                }
                EventKind::Departure { device, job, epoch } => {
                    let servers = tables.servers[device];
                    let station = &mut stations[device];
                    if station.epoch != epoch {
                        // The device crashed after this service started:
                        // the job was already counted lost at crash time
                        // and the station state was reset, so the
                        // departure is stale.
                        continue;
                    }
                    debug_assert!(station.busy > 0, "departure from idle station");
                    station.busy -= 1;
                    #[expect(
                        clippy::expect_used,
                        reason = "scheduler invariant — every departure with a live epoch was admitted"
                    )]
                    let slot = station
                        .in_service
                        .iter()
                        .position(|j| j.serial == job.serial)
                        .expect("a departing job with a live epoch is registered in-service");
                    station.in_service.swap_remove(slot);
                    let mem = tables.mem_need[tables.slot(job.chain, job.frag)];
                    station.used_mem -= mem;
                    station
                        .busy_signal
                        .update(now, station.busy as f64 / servers as f64);
                    station.jobs_signal.update(now, station.job_count());
                    trace.push(
                        now,
                        TraceKind::Departure {
                            chain: job.chain,
                            frag: job.frag,
                            device,
                        },
                    );

                    let chain_len = tables.chain_len[job.chain];
                    // Early-exit extension: the request may complete here
                    // instead of continuing down the chain.
                    let exit_p = tables.exit_p[tables.slot(job.chain, job.frag)];
                    let exits_early =
                        job.frag + 1 < chain_len && exit_p > 0.0 && rng.gen::<f64>() < exit_p;
                    if job.frag + 1 == chain_len || exits_early {
                        trace.push(now, TraceKind::Completion { chain: job.chain });
                        if in_window {
                            completions[job.chain] += 1;
                            latency[job.chain].push(now - job.system_arrival);
                            let b = (((now - config.warmup) / batch_len) as usize).min(batches - 1);
                            batch_completions[job.chain][b] += 1;
                        }
                    } else {
                        // Link-unreliability extension: the transfer to
                        // the next device may fail and lose the request.
                        let success = tables.hop_p[tables.slot(job.chain, job.frag)];
                        if success >= 1.0 || rng.gen::<f64>() < success {
                            let next = Job {
                                chain: job.chain,
                                frag: job.frag + 1,
                                system_arrival: job.system_arrival,
                                serial: job.serial,
                            };
                            Self::offer(
                                &tables,
                                &mut stations,
                                &mut events,
                                &mut rng,
                                next,
                                now,
                                in_window,
                                &mut losses,
                                &mut trace,
                            );
                        } else {
                            trace.push(
                                now,
                                TraceKind::LinkFailure {
                                    chain: job.chain,
                                    hop: job.frag,
                                },
                            );
                            if in_window {
                                losses[job.chain] += 1;
                            }
                        }
                    }
                    // Start the next queued job, if any.
                    Self::start_service(
                        &tables,
                        &mut stations,
                        &mut events,
                        &mut rng,
                        device,
                        now,
                        &mut trace,
                    );
                    if let Some(h) = &queue_depth {
                        h.observe(stations[device].job_count());
                    }
                }
                EventKind::Fault { fault } => {
                    faults_injected += 1;
                    match faults.events()[fault].kind {
                        FaultKind::DeviceCrash { device } => {
                            let station = &mut stations[device];
                            if station.up {
                                // Everything resident on the device is
                                // lost — the paper's loss semantics
                                // extended to failures.
                                let mut lost = 0usize;
                                for job in
                                    station.queue.drain(..).chain(station.in_service.drain(..))
                                {
                                    lost += 1;
                                    if in_window {
                                        losses[job.chain] += 1;
                                    }
                                }
                                station.drops += lost as u64;
                                station.up = false;
                                station.epoch += 1;
                                station.busy = 0;
                                station.used_mem = 0.0;
                                station.busy_signal.update(now, 0.0);
                                station.jobs_signal.update(now, 0.0);
                                trace.push(now, TraceKind::DeviceCrash { device, lost });
                            }
                        }
                        FaultKind::DeviceRecover { device } => {
                            let station = &mut stations[device];
                            if !station.up {
                                station.up = true;
                                trace.push(now, TraceKind::DeviceRecover { device });
                            }
                        }
                        FaultKind::ServiceDegrade { device, factor } => {
                            stations[device].rate_factor = factor;
                            trace.push(now, TraceKind::ServiceRateChange { device, factor });
                        }
                        FaultKind::ServiceRestore { device } => {
                            stations[device].rate_factor = 1.0;
                            trace.push(
                                now,
                                TraceKind::ServiceRateChange {
                                    device,
                                    factor: 1.0,
                                },
                            );
                        }
                        FaultKind::ArrivalBurst { chain, factor } => {
                            arrival_factor[chain] = factor;
                            trace.push(now, TraceKind::ArrivalRateChange { chain, factor });
                        }
                        FaultKind::ArrivalCalm { chain } => {
                            arrival_factor[chain] = 1.0;
                            trace.push(now, TraceKind::ArrivalRateChange { chain, factor: 1.0 });
                        }
                    }
                }
            }
        }

        // On a budget trip the window closes at the last event time, so
        // partial rates are estimated over the actually simulated span.
        let window = (sim_end - config.warmup).max(f64::EPSILON);
        let chains: Vec<ChainStats> = (0..num_chains)
            .map(|i| {
                let x = completions[i] as f64 / window;
                let lam = model.chains()[i].arrival_rate;
                // Batch-means 95% CI on the throughput.
                let mut w = Welford::new();
                for &c in &batch_completions[i] {
                    w.push(c as f64 / batch_len);
                }
                let ci = if w.count() >= 2 {
                    1.96 * w.std_dev() / (w.count() as f64).sqrt()
                } else {
                    0.0
                };
                ChainStats {
                    arrivals: arrivals[i],
                    completions: completions[i],
                    losses: losses[i],
                    throughput: x,
                    mean_latency: latency[i].mean(),
                    loss_probability: (1.0 - x / lam).clamp(0.0, 1.0),
                    throughput_ci: ci,
                }
            })
            .collect();
        let devices: Vec<DeviceStats> = stations
            .iter()
            .map(|s| DeviceStats {
                mean_jobs: s.jobs_signal.average_until(sim_end),
                utilization: s.busy_signal.average_until(sim_end),
                admitted: s.admitted,
                drops: s.drops,
            })
            .collect();
        let x_total: f64 = chains.iter().map(|c| c.throughput).sum();
        let lam_total = model.total_arrival_rate();
        let result = SimResult {
            chains,
            devices,
            total_throughput: x_total,
            total_arrival_rate: lam_total,
            loss_probability: ((lam_total - x_total) / lam_total).clamp(0.0, 1.0),
            measured_time: window,
            events: processed,
            trace,
        };
        if let Some(timer) = wall_timer {
            let wall = timer.elapsed_secs();
            timer.stop();
            let reg = &obs.registry;
            reg.counter("faults.injected").add(faults_injected);
            if budget_tripped.is_some() {
                reg.counter("sim.budget_exceeded").add(1);
            }
            reg.counter("qsim.events_processed").add(processed);
            reg.gauge("qsim.events_per_sec")
                .set(processed as f64 / wall.max(1e-9));
            let (mut admits_total, mut drops_total) = (0u64, 0u64);
            for (k, d) in result.devices.iter().enumerate() {
                let id = k.to_string();
                reg.counter(&labeled("qsim.device.admits", &[("device", &id)]))
                    .add(d.admitted);
                reg.counter(&labeled("qsim.device.drops", &[("device", &id)]))
                    .add(d.drops);
                reg.gauge(&labeled("qsim.device.utilization", &[("device", &id)]))
                    .set(d.utilization);
                admits_total += d.admitted;
                drops_total += d.drops;
            }
            reg.counter("qsim.device.admits").add(admits_total);
            reg.counter("qsim.device.drops").add(drops_total);
            obs.events.emit(
                "qsim",
                &SimRunEvent {
                    kind: "sim_run",
                    horizon: config.horizon,
                    seed: config.seed,
                    events: processed,
                    total_throughput: result.total_throughput,
                    loss_probability: result.loss_probability,
                    wall_seconds: wall,
                },
            );
        }
        match budget_tripped {
            None => Ok(result),
            Some(reason) => Err(QsimError::BudgetExceeded {
                reason,
                partial: Box::new(result),
            }),
        }
    }

    /// Offer a job to the station executing its fragment; drop on overflow.
    // lint:zero_alloc
    #[allow(clippy::too_many_arguments)]
    fn offer(
        tables: &RunTables,
        stations: &mut [Station],
        events: &mut EventQueue,
        rng: &mut SmallRng,
        job: Job,
        now: f64,
        in_window: bool,
        losses: &mut [u64],
        trace: &mut Trace,
    ) {
        let slot = tables.slot(job.chain, job.frag);
        let device = tables.device[slot];
        let mem = tables.mem_need[slot];
        let station = &mut stations[device];
        let capacity = tables.capacity[device];
        // A crashed device drops every offer, like a full buffer.
        if !station.up || station.used_mem + mem > capacity + 1e-12 {
            station.drops += 1;
            // lint:allow(alloc_hygiene): Trace::push is capacity-bounded
            trace.push(
                now,
                TraceKind::Drop {
                    chain: job.chain,
                    frag: job.frag,
                    device,
                },
            );
            if in_window {
                losses[job.chain] += 1;
            }
            return;
        }
        station.used_mem += mem;
        if in_window {
            station.admitted += 1;
        }
        // lint:allow(alloc_hygiene): Trace::push is capacity-bounded
        trace.push(
            now,
            TraceKind::Admit {
                chain: job.chain,
                frag: job.frag,
                device,
            },
        );
        station.queue.push_back(job);
        station.jobs_signal.update(now, station.job_count());
        Self::start_service(tables, stations, events, rng, device, now, trace);
    }

    /// If the station is idle and has queued work, begin serving.
    // lint:zero_alloc
    fn start_service(
        tables: &RunTables,
        stations: &mut [Station],
        events: &mut EventQueue,
        rng: &mut SmallRng,
        device: DeviceIdx,
        now: f64,
        trace: &mut Trace,
    ) {
        let servers = tables.servers[device];
        let station = &mut stations[device];
        if !station.up {
            return;
        }
        while station.busy < servers {
            let Some(job) = station.queue.pop_front() else {
                return;
            };
            // A degraded rate factor stretches the mean service time;
            // division by exactly 1.0 is an identity on the healthy path.
            let mean = tables.svc_mean[tables.slot(job.chain, job.frag)] / station.rate_factor;
            let service = match tables.service_policy {
                ServicePolicy::Deterministic => mean,
                ServicePolicy::Exponential => {
                    let u: f64 = rng.gen();
                    -(1.0 - u).ln() * mean
                }
            };
            station.busy += 1;
            // lint:allow(alloc_hygiene): in_service is pre-reserved to
            // the server count and busy < servers here, so this push
            // can never reallocate
            station.in_service.push(job);
            station
                .busy_signal
                .update(now, station.busy as f64 / servers as f64);
            // lint:allow(alloc_hygiene): Trace::push is capacity-bounded
            trace.push(
                now,
                TraceKind::StartService {
                    chain: job.chain,
                    frag: job.frag,
                    device,
                },
            );
            events.schedule(
                now + service,
                EventKind::Departure {
                    device,
                    job,
                    epoch: station.epoch,
                },
            );
        }
    }
}

/// A deterministic min-heap of events: ties in time break by insertion
/// order so equal-seed runs are bit-identical.
#[derive(Debug, Default)]
struct EventQueue {
    heap: BinaryHeap<Event>,
    seq: u64,
}

impl EventQueue {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
        }
    }

    // lint:zero_alloc
    fn schedule(&mut self, time: f64, kind: EventKind) {
        self.seq += 1;
        // lint:allow(alloc_hygiene): the heap is pre-reserved for the
        // worst case (one arrival per chain + one departure per server
        // + the fault schedule), so this push can never reallocate
        self.heap.push(Event {
            time,
            seq: self.seq,
            kind,
        });
    }

    // lint:zero_alloc
    fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;
    use crate::model::{Device, Fragment, Placement, ServiceChain};

    fn single_station(lambda: f64, mu: f64, buffer: f64) -> SystemModel {
        let devices = vec![Device::new(buffer, mu).unwrap()];
        let chains =
            vec![ServiceChain::new(lambda, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap()];
        SystemModel::new(devices, chains, Placement::new(vec![vec![0]])).unwrap()
    }

    #[test]
    fn mm1k_loss_probability_matches_closed_form() {
        // M/M/1/K with lambda=0.9, mu=1.0, K=5 jobs.
        let model = single_station(0.9, 1.0, 5.0);
        let cfg = SimConfig::new(200_000.0, 42);
        let res = Simulator::new().run(&model, &cfg).unwrap();
        let exact = analytic::mm1k_loss_probability(0.9, 1.0, 5);
        assert!(
            (res.chains[0].loss_probability - exact).abs() < 0.01,
            "sim {} vs exact {}",
            res.chains[0].loss_probability,
            exact
        );
    }

    #[test]
    fn mm1k_mean_jobs_matches_closed_form() {
        let model = single_station(0.8, 1.0, 4.0);
        let cfg = SimConfig::new(200_000.0, 7);
        let res = Simulator::new().run(&model, &cfg).unwrap();
        let exact = analytic::mm1k_mean_jobs(0.8, 1.0, 4);
        assert!(
            (res.devices[0].mean_jobs - exact).abs() < 0.05,
            "sim {} vs exact {}",
            res.devices[0].mean_jobs,
            exact
        );
    }

    #[test]
    fn throughput_never_exceeds_arrival_rate() {
        let model = single_station(2.0, 1.0, 3.0);
        let res = Simulator::new()
            .run(&model, &SimConfig::new(50_000.0, 3))
            .unwrap();
        assert!(res.chains[0].throughput <= 2.0 + 0.05);
        assert!(res.loss_probability > 0.3); // heavily overloaded
    }

    #[test]
    fn underloaded_system_has_negligible_loss() {
        let model = single_station(0.1, 1.0, 50.0);
        let res = Simulator::new()
            .run(&model, &SimConfig::new(100_000.0, 5))
            .unwrap();
        assert!(res.loss_probability < 0.01, "{}", res.loss_probability);
        assert!((res.chains[0].throughput - 0.1).abs() < 0.01);
    }

    #[test]
    fn littles_law_holds_for_station() {
        // L = lambda_eff * W at the station level (M/M/1/K).
        let model = single_station(0.7, 1.0, 6.0);
        let res = Simulator::new()
            .run(&model, &SimConfig::new(200_000.0, 11))
            .unwrap();
        let l = res.devices[0].mean_jobs;
        let x = res.chains[0].throughput;
        let w = res.chains[0].mean_latency;
        assert!((l - x * w).abs() / l < 0.05, "L={l}, X*W={}", x * w);
    }

    #[test]
    fn tandem_throughput_decreases_downstream() {
        // Two stations in series; second is a bottleneck with tiny buffer.
        let devices = vec![
            Device::new(50.0, 2.0).unwrap(),
            Device::new(2.0, 0.5).unwrap(),
        ];
        let chains = vec![ServiceChain::new(
            1.0,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
            ],
        )
        .unwrap()];
        let model = SystemModel::new(devices, chains, Placement::new(vec![vec![0, 1]])).unwrap();
        let res = Simulator::new()
            .run(&model, &SimConfig::new(100_000.0, 2))
            .unwrap();
        // End-to-end throughput limited by the second station's rate 0.5.
        assert!(res.chains[0].throughput < 0.55);
        assert!(res.devices[1].drops > 0);
    }

    #[test]
    fn deterministic_seeding_is_reproducible() {
        let model = single_station(0.9, 1.0, 5.0);
        let cfg = SimConfig::new(5_000.0, 99);
        let a = Simulator::new().run(&model, &cfg).unwrap();
        let b = Simulator::new().run(&model, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let model = single_station(0.9, 1.0, 5.0);
        let a = Simulator::new()
            .run(&model, &SimConfig::new(5_000.0, 1))
            .unwrap();
        let b = Simulator::new()
            .run(&model, &SimConfig::new(5_000.0, 2))
            .unwrap();
        assert_ne!(a.chains[0].completions, b.chains[0].completions);
    }

    #[test]
    fn shared_device_serves_multiple_chains() {
        let devices = vec![Device::new(20.0, 2.0).unwrap()];
        let chains = vec![
            ServiceChain::new(0.4, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap(),
            ServiceChain::new(0.4, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap(),
        ];
        let model =
            SystemModel::new(devices, chains, Placement::new(vec![vec![0], vec![0]])).unwrap();
        let res = Simulator::new()
            .run(&model, &SimConfig::new(100_000.0, 4))
            .unwrap();
        assert!((res.chains[0].throughput - 0.4).abs() < 0.02);
        assert!((res.chains[1].throughput - 0.4).abs() < 0.02);
        // Utilization ~ (0.4 + 0.4) * (1/2) = 0.4.
        assert!((res.devices[0].utilization - 0.4).abs() < 0.03);
    }

    #[test]
    fn memory_demand_policy_drops_more_with_big_jobs() {
        let devices = vec![Device::new(4.0, 1.0).unwrap()];
        let chains = vec![ServiceChain::new(1.5, vec![Fragment::new(2.0, 1.0).unwrap()]).unwrap()];
        let model = SystemModel::new(devices, chains, Placement::new(vec![vec![0]])).unwrap();
        let unit = Simulator::new()
            .run(&model, &SimConfig::new(50_000.0, 8))
            .unwrap();
        let demand = Simulator::new()
            .run(
                &model,
                &SimConfig::new(50_000.0, 8).with_memory_policy(MemoryPolicy::DemandPerJob),
            )
            .unwrap();
        // Under DemandPerJob each job takes 2 units: buffer of 2 jobs vs 4.
        assert!(demand.loss_probability > unit.loss_probability);
    }

    #[test]
    fn deterministic_service_has_less_loss_than_exponential() {
        let model = single_station(0.9, 1.0, 3.0);
        let exp = Simulator::new()
            .run(&model, &SimConfig::new(100_000.0, 13))
            .unwrap();
        let det = Simulator::new()
            .run(
                &model,
                &SimConfig::new(100_000.0, 13).with_service_policy(ServicePolicy::Deterministic),
            )
            .unwrap();
        assert!(det.loss_probability < exp.loss_probability);
    }

    #[test]
    fn latency_includes_queueing() {
        // Heavily loaded: latency should exceed the bare service time.
        let model = single_station(0.9, 1.0, 10.0);
        let res = Simulator::new()
            .run(&model, &SimConfig::new(100_000.0, 17))
            .unwrap();
        assert!(res.chains[0].mean_latency > 1.5);
    }

    #[test]
    fn unreliable_links_lose_requests() {
        let devices = vec![
            Device::new(50.0, 2.0).unwrap(),
            Device::new(50.0, 2.0).unwrap(),
        ];
        let chain = ServiceChain::new(
            0.5,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
            ],
        )
        .unwrap()
        .with_hop_reliability(vec![0.5]);
        let model =
            SystemModel::new(devices, vec![chain], Placement::new(vec![vec![0, 1]])).unwrap();
        let res = Simulator::new()
            .run(&model, &SimConfig::new(100_000.0, 21))
            .unwrap();
        // Half the transfers fail: throughput ~ 0.25, loss ~ 0.5.
        assert!(
            (res.chains[0].throughput - 0.25).abs() < 0.02,
            "{}",
            res.chains[0].throughput
        );
        assert!((res.loss_probability - 0.5).abs() < 0.05);
    }

    #[test]
    fn perfect_links_match_base_model() {
        let devices = vec![
            Device::new(50.0, 2.0).unwrap(),
            Device::new(50.0, 2.0).unwrap(),
        ];
        let base = ServiceChain::new(
            0.5,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
            ],
        )
        .unwrap();
        let reliable = base.clone().with_hop_reliability(vec![1.0]);
        let cfg = SimConfig::new(20_000.0, 33);
        let m1 = SystemModel::new(
            devices.clone(),
            vec![base],
            Placement::new(vec![vec![0, 1]]),
        )
        .unwrap();
        let m2 =
            SystemModel::new(devices, vec![reliable], Placement::new(vec![vec![0, 1]])).unwrap();
        let a = Simulator::new().run(&m1, &cfg).unwrap();
        let b = Simulator::new().run(&m2, &cfg).unwrap();
        // hop_success >= 1.0 short-circuits before consuming randomness,
        // so the runs are bit-identical.
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "one success probability per hop")]
    fn hop_reliability_length_is_validated() {
        let _ = ServiceChain::new(
            0.5,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
            ],
        )
        .unwrap()
        .with_hop_reliability(vec![0.5, 0.5]);
    }

    #[test]
    fn throughput_ci_shrinks_with_horizon() {
        let model = single_station(0.8, 1.0, 10.0);
        let short = Simulator::new()
            .run(&model, &SimConfig::new(2_000.0, 3))
            .unwrap();
        let long = Simulator::new()
            .run(&model, &SimConfig::new(80_000.0, 3))
            .unwrap();
        assert!(long.chains[0].throughput_ci < short.chains[0].throughput_ci);
        assert!(long.chains[0].throughput_ci > 0.0);
    }

    #[test]
    fn throughput_ci_covers_true_rate_in_easy_case() {
        // Underloaded M/M/1 with huge buffer: X ~= lambda; the CI should
        // bracket the offered rate.
        let model = single_station(0.3, 1.0, 100.0);
        let res = Simulator::new()
            .run(&model, &SimConfig::new(50_000.0, 9))
            .unwrap();
        let c = &res.chains[0];
        assert!(
            (c.throughput - 0.3).abs() <= c.throughput_ci * 2.0 + 0.005,
            "X={} ci={}",
            c.throughput,
            c.throughput_ci
        );
    }

    #[test]
    fn multi_server_station_matches_mmck() {
        // M/M/2/6 at lambda=1.5, mu=1 per server.
        let devices = vec![Device::new(6.0, 1.0).unwrap().with_servers(2)];
        let chains = vec![ServiceChain::new(1.5, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap()];
        let model = SystemModel::new(devices, chains, Placement::new(vec![vec![0]])).unwrap();
        let res = Simulator::new()
            .run(&model, &SimConfig::new(200_000.0, 6))
            .unwrap();
        let exact = analytic::mmck_loss_probability(1.5, 1.0, 2, 6);
        assert!(
            (res.chains[0].loss_probability - exact).abs() < 0.01,
            "sim {} vs exact {}",
            res.chains[0].loss_probability,
            exact
        );
        let exact_l = analytic::mmck_mean_jobs(1.5, 1.0, 2, 6);
        assert!(
            (res.devices[0].mean_jobs - exact_l).abs() < 0.08,
            "sim {} vs exact {}",
            res.devices[0].mean_jobs,
            exact_l
        );
    }

    #[test]
    fn extra_servers_increase_throughput_under_overload() {
        let build = |servers: usize| {
            let devices = vec![Device::new(10.0, 1.0).unwrap().with_servers(servers)];
            let chains =
                vec![ServiceChain::new(2.5, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap()];
            SystemModel::new(devices, chains, Placement::new(vec![vec![0]])).unwrap()
        };
        let cfg = SimConfig::new(50_000.0, 7);
        let one = Simulator::new().run(&build(1), &cfg).unwrap();
        let three = Simulator::new().run(&build(3), &cfg).unwrap();
        assert!(three.chains[0].throughput > one.chains[0].throughput + 0.5);
    }

    #[test]
    fn early_exit_raises_throughput_of_congested_tail() {
        // Second stage is a severe bottleneck; exiting early after the
        // first fragment bypasses it.
        let devices = vec![
            Device::new(50.0, 2.0).unwrap(),
            Device::new(3.0, 0.2).unwrap(),
        ];
        let base = ServiceChain::new(
            1.0,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
            ],
        )
        .unwrap();
        let exiting = base.clone().with_early_exit(vec![0.8]);
        let cfg = SimConfig::new(50_000.0, 14);
        let strict = SystemModel::new(
            devices.clone(),
            vec![base],
            Placement::new(vec![vec![0, 1]]),
        )
        .unwrap();
        let early =
            SystemModel::new(devices, vec![exiting], Placement::new(vec![vec![0, 1]])).unwrap();
        let rs = Simulator::new().run(&strict, &cfg).unwrap();
        let re = Simulator::new().run(&early, &cfg).unwrap();
        assert!(
            re.chains[0].throughput > rs.chains[0].throughput + 0.3,
            "early {} vs strict {}",
            re.chains[0].throughput,
            rs.chains[0].throughput
        );
    }

    #[test]
    fn zero_exit_probability_matches_strict_execution() {
        let devices = vec![
            Device::new(20.0, 1.0).unwrap(),
            Device::new(20.0, 1.0).unwrap(),
        ];
        let base = ServiceChain::new(
            0.5,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
            ],
        )
        .unwrap();
        let with_zero = base.clone().with_early_exit(vec![0.0]);
        let cfg = SimConfig::new(5_000.0, 15);
        let a = Simulator::new()
            .run(
                &SystemModel::new(
                    devices.clone(),
                    vec![base],
                    Placement::new(vec![vec![0, 1]]),
                )
                .unwrap(),
                &cfg,
            )
            .unwrap();
        let b = Simulator::new()
            .run(
                &SystemModel::new(devices, vec![with_zero], Placement::new(vec![vec![0, 1]]))
                    .unwrap(),
                &cfg,
            )
            .unwrap();
        assert_eq!(a.chains[0].completions, b.chains[0].completions);
    }

    #[test]
    #[should_panic(expected = "exit probability per non-final fragment")]
    fn early_exit_length_is_validated() {
        let _ = ServiceChain::new(0.5, vec![Fragment::new(1.0, 1.0).unwrap()])
            .unwrap()
            .with_early_exit(vec![0.5]);
    }

    #[test]
    fn trace_records_lifecycle_in_order() {
        use crate::trace::TraceKind;
        let model = single_station(0.5, 1.0, 10.0);
        let cfg = SimConfig::new(50.0, 2).with_trace_capacity(10_000);
        let res = Simulator::new().run(&model, &cfg).unwrap();
        let events = res.trace.events();
        assert!(!events.is_empty());
        // Time-ordered.
        for w in events.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // Every completion was preceded by an arrival; counts consistent.
        let arrivals = res
            .trace
            .count_matching(|k| matches!(k, TraceKind::ExternalArrival { .. }));
        let completions = res
            .trace
            .count_matching(|k| matches!(k, TraceKind::Completion { .. }));
        let drops = res
            .trace
            .count_matching(|k| matches!(k, TraceKind::Drop { .. }));
        assert!(completions + drops <= arrivals + 1);
        // Admits equal service starts for a single-fragment chain that
        // drains completely.
        let admits = res
            .trace
            .count_matching(|k| matches!(k, TraceKind::Admit { .. }));
        let starts = res
            .trace
            .count_matching(|k| matches!(k, TraceKind::StartService { .. }));
        assert!(starts <= admits);
    }

    #[test]
    fn tracing_disabled_by_default_and_costless() {
        let model = single_station(0.5, 1.0, 10.0);
        let res = Simulator::new()
            .run(&model, &SimConfig::new(100.0, 2))
            .unwrap();
        assert!(res.trace.events().is_empty());
    }

    #[test]
    fn trace_capacity_is_respected() {
        let model = single_station(2.0, 1.0, 5.0);
        let cfg = SimConfig::new(500.0, 2).with_trace_capacity(50);
        let res = Simulator::new().run(&model, &cfg).unwrap();
        assert_eq!(res.trace.events().len(), 50);
        assert!(res.trace.is_truncated());
    }

    #[test]
    fn observed_run_matches_plain_run_and_records_metrics() {
        let model = single_station(0.9, 1.0, 3.0);
        let cfg = SimConfig::new(2_000.0, 42);
        let plain = Simulator::new().run(&model, &cfg).unwrap();
        let obs = Obs::enabled();
        let observed = Simulator::new().run_observed(&model, &cfg, &obs).unwrap();
        // Instrumentation must not perturb the simulation.
        assert_eq!(plain, observed);
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counters["qsim.events_processed"], observed.events);
        assert_eq!(
            snap.counters["qsim.device.drops{device=\"0\"}"],
            observed.devices[0].drops
        );
        assert_eq!(
            snap.counters["qsim.device.drops"],
            observed.devices[0].drops
        );
        assert!(observed.devices[0].drops > 0, "overloaded station drops");
        assert!(snap.gauges["qsim.events_per_sec"] > 0.0);
        assert!(
            (snap.gauges["qsim.device.utilization{device=\"0\"}"]
                - observed.devices[0].utilization)
                .abs()
                < 1e-12
        );
        assert_eq!(snap.histograms["qsim.run_wall_seconds"].count, 1);
        assert!(snap.histograms["qsim.device.queue_depth"].count > 0);
    }

    #[test]
    fn span_traced_run_is_bit_identical_and_records_qsim_run_span() {
        use chainnet_obs::Tracer;
        let model = single_station(0.9, 1.0, 3.0);
        let cfg = SimConfig::new(2_000.0, 42);
        let plain = Simulator::new().run(&model, &cfg).unwrap();
        let obs = Obs::enabled().with_tracer(Tracer::enabled());
        let traced = Simulator::new().run_observed(&model, &cfg, &obs).unwrap();
        // Span tracing must not perturb the simulation: every event,
        // statistic, and golden trace entry stays bit-identical.
        assert_eq!(plain, traced);
        let spans = obs.tracer.take();
        spans.validate().unwrap();
        assert_eq!(spans.phase_stats()["qsim.run"].count, 1);
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let model = single_station(0.5, 1.0, 5.0);
        let obs = Obs::disabled();
        Simulator::new()
            .run_observed(&model, &SimConfig::new(500.0, 1), &obs)
            .unwrap();
        let snap = obs.registry.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn trace_buffer_overflow_does_not_perturb_the_simulation() {
        // A tiny trace capacity fills almost immediately; the simulated
        // dynamics and statistics must be identical to an untraced run.
        let model = single_station(0.9, 1.0, 5.0);
        let untraced = Simulator::new()
            .run(&model, &SimConfig::new(5_000.0, 31))
            .unwrap();
        let traced = Simulator::new()
            .run(&model, &SimConfig::new(5_000.0, 31).with_trace_capacity(8))
            .unwrap();
        assert!(traced.trace.is_truncated());
        assert_eq!(traced.trace.events().len(), 8);
        assert_eq!(untraced.chains, traced.chains);
        assert_eq!(untraced.devices, traced.devices);
        assert_eq!(untraced.events, traced.events);
    }

    #[test]
    fn trace_times_are_non_decreasing_even_when_truncated() {
        let model = single_station(2.0, 1.0, 4.0);
        let res = Simulator::new()
            .run(&model, &SimConfig::new(2_000.0, 9).with_trace_capacity(200))
            .unwrap();
        assert!(res.trace.is_truncated());
        for w in res.trace.events().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn event_cap_returns_budget_error_with_partial_stats() {
        let model = single_station(1.0, 1.0, 10.0);
        let cfg = SimConfig::new(1_000_000.0, 1).with_max_events(1000);
        let err = Simulator::new().run(&model, &cfg).unwrap_err();
        match err {
            QsimError::BudgetExceeded { reason, partial } => {
                assert_eq!(reason, BudgetReason::MaxEvents);
                assert!(partial.events <= 1001);
                assert!(partial.events > 0);
                // Partial rates are estimated over the simulated prefix,
                // not the unreached horizon.
                assert!(partial.measured_time < 1_000_000.0);
                assert!(partial.chains[0].throughput.is_finite());
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn saturated_model_under_small_budget_fails_fast() {
        // Heavily overloaded station with a huge horizon: without the
        // budget this run would take a very long time; with it, we get a
        // typed error and meaningful partial statistics quickly.
        let model = single_station(50.0, 1.0, 100.0);
        let cfg = SimConfig::new(1e9, 3).with_max_events(20_000);
        #[expect(
            clippy::disallowed_methods,
            reason = "test-only: times the watchdog; never feeds results"
        )]
        let start = std::time::Instant::now();
        let err = Simulator::new().run(&model, &cfg).unwrap_err();
        assert!(start.elapsed().as_secs_f64() < 1.0, "watchdog too slow");
        let QsimError::BudgetExceeded { partial, .. } = err else {
            panic!("expected BudgetExceeded");
        };
        // The overload is visible even in the truncated window.
        assert!(partial.devices[0].drops > 0);
    }

    #[test]
    fn wall_clock_deadline_trips() {
        let model = single_station(50.0, 1.0, 100.0);
        // A deadline of zero trips at the first poll.
        let cfg = SimConfig::new(1e9, 3).with_max_wall_secs(0.0);
        let err = Simulator::new().run(&model, &cfg).unwrap_err();
        let QsimError::BudgetExceeded { reason, .. } = err else {
            panic!("expected BudgetExceeded");
        };
        assert_eq!(reason, BudgetReason::WallClock);
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical_to_plain_run() {
        let model = single_station(0.9, 1.0, 5.0);
        let cfg = SimConfig::new(5_000.0, 77);
        let plain = Simulator::new().run(&model, &cfg).unwrap();
        let faulted = Simulator::new()
            .run_faulted_observed(&model, &cfg, &FaultSchedule::new(), &Obs::disabled())
            .unwrap();
        assert_eq!(plain, faulted);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let model = single_station(0.9, 1.0, 5.0);
        let cfg = SimConfig::new(5_000.0, 42);
        let schedule = FaultSchedule::new()
            .crash(1_000.0, 0)
            .recover(1_500.0, 0)
            .degrade(2_000.0, 0, 0.5)
            .restore(3_000.0, 0);
        let a = Simulator::new()
            .run_faulted_observed(&model, &cfg, &schedule, &Obs::disabled())
            .unwrap();
        let b = Simulator::new()
            .run_faulted_observed(&model, &cfg, &schedule, &Obs::disabled())
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn crash_loses_resident_jobs_and_drops_offers_while_down() {
        // Crash for the middle half of the run: arrivals during the
        // outage are lost, so the loss probability is roughly the outage
        // fraction of the window.
        let model = single_station(1.0, 2.0, 10.0);
        let cfg = SimConfig::new(10_000.0, 7).with_warmup(0.0);
        let schedule = FaultSchedule::new().crash(2_500.0, 0).recover(7_500.0, 0);
        let res = Simulator::new()
            .run_faulted_observed(&model, &cfg, &schedule, &Obs::disabled())
            .unwrap();
        assert!(
            (res.loss_probability - 0.5).abs() < 0.05,
            "loss {} should reflect the 50% outage",
            res.loss_probability
        );
        let healthy = Simulator::new().run(&model, &cfg).unwrap();
        assert!(healthy.loss_probability < 0.01);
    }

    #[test]
    fn crash_without_recovery_kills_all_remaining_traffic() {
        let model = single_station(1.0, 2.0, 10.0);
        let cfg = SimConfig::new(1_000.0, 9).with_warmup(0.0);
        let schedule = FaultSchedule::new().crash(0.0, 0);
        let res = Simulator::new()
            .run_faulted_observed(&model, &cfg, &schedule, &Obs::disabled())
            .unwrap();
        assert_eq!(res.chains[0].completions, 0);
        assert!(res.loss_probability > 0.99, "{}", res.loss_probability);
    }

    #[test]
    fn service_degradation_reduces_throughput() {
        // Saturate a slow station: throughput tracks the service rate,
        // so halving the rate must cut completions.
        let model = single_station(2.0, 1.0, 5.0);
        let cfg = SimConfig::new(20_000.0, 11);
        let schedule = FaultSchedule::new().degrade(0.0, 0, 0.5);
        let healthy = Simulator::new().run(&model, &cfg).unwrap();
        let degraded = Simulator::new()
            .run_faulted_observed(&model, &cfg, &schedule, &Obs::disabled())
            .unwrap();
        assert!(
            degraded.chains[0].throughput < healthy.chains[0].throughput * 0.7,
            "degraded {} vs healthy {}",
            degraded.chains[0].throughput,
            healthy.chains[0].throughput
        );
    }

    #[test]
    fn arrival_burst_overloads_the_station() {
        let model = single_station(0.5, 1.0, 4.0);
        let cfg = SimConfig::new(20_000.0, 13);
        let schedule = FaultSchedule::new().burst(0.0, 0, 6.0);
        let calm = Simulator::new().run(&model, &cfg).unwrap();
        let burst = Simulator::new()
            .run_faulted_observed(&model, &cfg, &schedule, &Obs::disabled())
            .unwrap();
        // Note: `loss_probability` is Eq. 18 against the *nominal* rate,
        // so burst-induced overload shows up in the raw loss counts.
        assert!(burst.chains[0].losses > calm.chains[0].losses + 1_000);
        assert!(burst.chains[0].losses > burst.chains[0].completions);
        // Arrivals during the burst come roughly 6x as fast.
        assert!(burst.chains[0].arrivals > calm.chains[0].arrivals * 4);
    }

    #[test]
    fn faults_beyond_the_horizon_change_nothing() {
        let model = single_station(0.9, 1.0, 5.0);
        let cfg = SimConfig::new(2_000.0, 21);
        let schedule = FaultSchedule::new().crash(5_000.0, 0);
        let plain = Simulator::new().run(&model, &cfg).unwrap();
        let faulted = Simulator::new()
            .run_faulted_observed(&model, &cfg, &schedule, &Obs::disabled())
            .unwrap();
        assert_eq!(plain.chains, faulted.chains);
        assert_eq!(plain.devices, faulted.devices);
    }

    #[test]
    fn invalid_fault_schedule_is_rejected() {
        let model = single_station(0.5, 1.0, 5.0);
        let schedule = FaultSchedule::new().crash(10.0, 3);
        let err = Simulator::new()
            .run_faulted_observed(
                &model,
                &SimConfig::new(100.0, 1),
                &schedule,
                &Obs::disabled(),
            )
            .unwrap_err();
        assert!(matches!(err, QsimError::InvalidFaultSchedule(_)));
    }

    #[test]
    fn observed_faulted_run_records_fault_metrics() {
        let model = single_station(0.9, 1.0, 5.0);
        let cfg = SimConfig::new(2_000.0, 5);
        let schedule = FaultSchedule::new().crash(500.0, 0).recover(600.0, 0);
        let obs = Obs::enabled();
        Simulator::new()
            .run_faulted_observed(&model, &cfg, &schedule, &obs)
            .unwrap();
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counters["faults.injected"], 2);
        assert!(!snap.counters.contains_key("sim.budget_exceeded"));
    }

    #[test]
    fn observed_budget_trip_records_counter() {
        let model = single_station(1.0, 1.0, 10.0);
        let cfg = SimConfig::new(1_000_000.0, 1).with_max_events(500);
        let obs = Obs::enabled();
        let err = Simulator::new()
            .run_observed(&model, &cfg, &obs)
            .unwrap_err();
        assert!(matches!(err, QsimError::BudgetExceeded { .. }));
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counters["sim.budget_exceeded"], 1);
    }

    #[test]
    fn crash_events_are_traced() {
        let model = single_station(1.0, 1.0, 5.0);
        let cfg = SimConfig::new(1_000.0, 3).with_trace_capacity(100_000);
        let schedule = FaultSchedule::new().crash(100.0, 0).recover(200.0, 0);
        let res = Simulator::new()
            .run_faulted_observed(&model, &cfg, &schedule, &Obs::disabled())
            .unwrap();
        assert_eq!(
            res.trace
                .count_matching(|k| matches!(k, TraceKind::DeviceCrash { .. })),
            1
        );
        assert_eq!(
            res.trace
                .count_matching(|k| matches!(k, TraceKind::DeviceRecover { .. })),
            1
        );
    }
}
