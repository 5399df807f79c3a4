//! Pieces shared by the workloads: the run context, the committed
//! serving model, the answer-quality re-simulation, the timing evaluator
//! wrapper and the metric report.

use chainnet::model::ChainNet;
use chainnet_ckpt::CkptStore;
use chainnet_obs::Obs;
use chainnet_placement::error::PlacementError;
use chainnet_placement::evaluator::{BatchEvaluator, Evaluator};
use chainnet_placement::problem::PlacementProblem;
use chainnet_qsim::model::Placement;
use chainnet_qsim::sim::{SimConfig, Simulator};
use chainnet_serve::engine::{Engine, EngineConfig, SERVE_CKPT_SCHEMA};
use chainnet_serve::protocol::{Outcome, Request, RequestBody, Response};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Command-line context of one benchmark run.
pub struct Ctx {
    /// Repository root (the checkout).
    pub root: PathBuf,
    /// Scratch directory for this run, removed at the end.
    pub work: PathBuf,
    /// The `chainnet-serve` binary.
    pub serve_bin: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (`--trace 1`).
    pub trace: bool,
}

/// The committed surrogate the daemon serves with: the `model` field of
/// `results/model_default_chainnet.json`.
pub const SERVE_MODEL: &str = "results/model_default_chainnet.json";

/// Read the committed serving model and write the bare model JSON the
/// daemon's `--model` flag expects. Returns the model and its path.
pub fn serving_model(ctx: &Ctx) -> Result<(ChainNet, PathBuf), String> {
    let src = ctx.root.join(SERVE_MODEL);
    let text = std::fs::read_to_string(&src).map_err(|e| format!("read {src:?}: {e}"))?;
    let doc: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("parse {src:?}: {e}"))?;
    let model_value = doc.get("model").cloned().ok_or("no `model` field")?;
    let model: ChainNet =
        serde_json::from_value(model_value).map_err(|e| format!("model in {src:?}: {e}"))?;
    let path = ctx.work.join("model.json");
    let json = serde_json::to_string(&model).map_err(|e| format!("serialize model: {e}"))?;
    std::fs::write(&path, json).map_err(|e| format!("write {path:?}: {e}"))?;
    Ok((model, path))
}

/// Engine settings of every serving path (the soak harness's `--sa-steps
/// 12 --trials 1`): about 13 surrogate forwards per full-search `Place`
/// on the case study.
pub const SA_STEPS: usize = 12;
/// SA trials per full-search `Place`.
pub const TRIALS: usize = 1;

/// The in-process engine configuration matching [`daemon_engine_args`].
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        sa_steps: SA_STEPS,
        trials: TRIALS,
        ..EngineConfig::default()
    }
}

/// The `chainnet-serve` flags for the same settings as [`engine_config`].
pub fn daemon_engine_args() -> Vec<String> {
    vec![
        "--sa-steps".into(),
        SA_STEPS.to_string(),
        "--trials".into(),
        TRIALS.to_string(),
    ]
}

/// An in-process engine with [`engine_config`], `model` as its surrogate
/// and a fresh checkpoint store in `dir`, the way the daemon builds its
/// own.
pub fn store_engine(dir: &Path, model: ChainNet, obs: Obs) -> Result<Engine, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = CkptStore::open(dir, "serve", SERVE_CKPT_SCHEMA).map_err(|e| e.to_string())?;
    Ok(Engine::new(engine_config(), obs)
        .with_surrogate(model)
        .with_store(store))
}

/// A request with no deadline.
pub fn request(id: u64, body: RequestBody) -> Request {
    Request {
        id,
        deadline_ms: None,
        body,
    }
}

/// The request that installs `problem` as the topology.
pub fn install(id: u64, problem: &PlacementProblem) -> Request {
    request(
        id,
        RequestBody::Topology {
            problem: problem.clone(),
        },
    )
}

/// `Ok` when `resp` reports the topology installed.
pub fn check_installed(resp: &Response) -> Result<(), String> {
    match resp.outcome {
        Outcome::TopologyInstalled { .. } => Ok(()),
        ref other => Err(format!("topology rejected: {other:?}")),
    }
}

/// Horizon and seed of the answer-quality re-simulation.
pub const RESIM_HORIZON: f64 = 4_000.0;
/// Seed of the answer-quality re-simulation.
pub const RESIM_SEED: u64 = 20_240;

/// Simulated quality of one produced placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// qsim loss probability (Eq. 18).
    pub loss: f64,
    /// qsim total throughput.
    pub throughput: f64,
}

/// Re-simulates each distinct (topology, placement) pair once with a
/// seeded, fixed-horizon qsim run: the paper's post-processing
/// re-simulation, used as the answer-quality guard.
#[derive(Default)]
pub struct Resim {
    cache: HashMap<(usize, Placement), Option<Quality>>,
    /// Simulator events processed.
    pub events: u64,
    /// Time spent simulating.
    pub busy: Duration,
}

impl Resim {
    /// Distinct (topology, placement) pairs simulated so far.
    pub fn distinct(&self) -> usize {
        self.cache.len()
    }

    /// Quality of `placement` on `problem`, whose identity within the
    /// run is `topology` (for example a fault-state index). `None` when
    /// the placement cannot be bound or simulated.
    pub fn quality(
        &mut self,
        topology: usize,
        problem: &PlacementProblem,
        placement: &Placement,
    ) -> Option<Quality> {
        let key = (topology, placement.clone());
        if let Some(q) = self.cache.get(&key) {
            return *q;
        }
        let start = Instant::now();
        let q = problem.bind(placement.clone()).ok().and_then(|sys| {
            let res = Simulator::new()
                .run(&sys, &SimConfig::new(RESIM_HORIZON, RESIM_SEED))
                .ok()?;
            self.events += res.events;
            (res.loss_probability.is_finite() && res.total_throughput.is_finite()).then_some(
                Quality {
                    loss: res.loss_probability,
                    throughput: res.total_throughput,
                },
            )
        });
        self.busy += start.elapsed();
        self.cache.insert(key, q);
        q
    }
}

/// Absolute percentage error of a predicted against a simulated
/// throughput.
pub fn ape_pct(predicted: f64, simulated: f64) -> f64 {
    100.0 * chainnet::metrics::ape(predicted, simulated)
}

/// Wraps an evaluator and accumulates the time spent inside it, so the
/// search driver's own time (`placement.sa_self_frac`) is the rest.
/// Optionally keeps every candidate it was asked to score.
pub struct TimedEval<E> {
    inner: E,
    /// Time inside the wrapped evaluator.
    pub busy: Duration,
    /// Candidates seen, when recording.
    pub seen: Option<Vec<Placement>>,
}

impl<E> TimedEval<E> {
    /// Wrap `inner`; `record` keeps the candidates.
    pub fn new(inner: E, record: bool) -> Self {
        Self {
            inner,
            busy: Duration::ZERO,
            seen: record.then(Vec::new),
        }
    }
}

impl<E: Evaluator> Evaluator for TimedEval<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn total_throughput(
        &mut self,
        problem: &PlacementProblem,
        placement: &Placement,
    ) -> Result<f64, PlacementError> {
        if let Some(seen) = &mut self.seen {
            seen.push(placement.clone());
        }
        let start = Instant::now();
        let out = self.inner.total_throughput(problem, placement);
        self.busy += start.elapsed();
        out
    }

    fn evaluations(&self) -> u64 {
        self.inner.evaluations()
    }

    fn set_tracer(&mut self, tracer: chainnet_obs::Tracer) {
        self.inner.set_tracer(tracer);
    }
}

impl<E: BatchEvaluator> BatchEvaluator for TimedEval<E> {
    fn total_throughput_batch(
        &mut self,
        problem: &PlacementProblem,
        placements: &[Placement],
    ) -> Vec<Result<f64, PlacementError>> {
        if let Some(seen) = &mut self.seen {
            seen.extend_from_slice(placements);
        }
        let start = Instant::now();
        let out = self.inner.total_throughput_batch(problem, placements);
        self.busy += start.elapsed();
        out
    }
}

/// One reported metric.
pub struct Metric {
    /// Name, as listed in BENCHMARK.json.
    pub name: &'static str,
    /// Unit, as listed in BENCHMARK.json.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The final line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Seconds as a float.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}
