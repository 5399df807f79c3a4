//! Command-line interface logic for the `chainnet` binary.
//!
//! The CLI wires the workspace crates into five file-oriented commands so
//! the system can be driven without writing Rust:
//!
//! * `simulate`    — run the queueing simulator on a system JSON;
//! * `gen-dataset` — simulate a labeled dataset (Table III generators);
//! * `train`       — train a ChainNet surrogate on a dataset;
//! * `predict`     — predict per-chain performance of a system JSON;
//! * `optimize`    — SA search over a placement problem, GNN- or
//!   simulation-evaluated.
//!
//! All inputs and outputs are the same serde JSON shapes used by the
//! library, so artifacts interoperate with the experiment harness.

use chainnet::config::{ModelConfig, TrainConfig};
use chainnet::graph::PlacementGraph;
use chainnet::model::{ChainNet, Surrogate};
use chainnet::train::{
    CheckpointPlan, GuardConfig, Packed, PerGraph, TrainError, TrainPlan, Trainer,
    TRAIN_CKPT_SCHEMA,
};
use chainnet_ckpt::{CkptError, CkptStore};
use chainnet_datagen::dataset::{
    generate_raw_dataset_observed, generate_raw_dataset_sharded_observed, to_labeled,
    DatasetConfig, RawSample, DATAGEN_CKPT_SCHEMA,
};
use chainnet_datagen::error::DatagenError;
use chainnet_datagen::typesets::NetworkParams;
use chainnet_obs::{EventLog, Obs, Tracer};
use chainnet_placement::error::PlacementError;
use chainnet_placement::evaluator::{loss_probability, BatchEvaluator, GnnEvaluator, SimEvaluator};
use chainnet_placement::problem::PlacementProblem;
use chainnet_placement::sa::{SaConfig, SimulatedAnnealing, SA_CKPT_SCHEMA};
use chainnet_qsim::faults::FaultSchedule;
use chainnet_qsim::model::SystemModel;
use chainnet_qsim::sim::{SimConfig, Simulator};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// A parsed command line: the subcommand and its `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invocation {
    /// The subcommand name.
    pub command: String,
    /// Options without the `--` prefix.
    pub options: HashMap<String, String>,
}

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// I/O failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// Model/simulation error.
    Qsim(chainnet_qsim::QsimError),
    /// Dataset generation or statistics error.
    Datagen(DatagenError),
    /// Surrogate training error.
    Train(TrainError),
    /// Placement search error.
    Placement(PlacementError),
    /// Checkpoint save/load/resume failure (distinct exit codes: 4 for
    /// a missing checkpoint on `--resume`, 3 otherwise).
    Ckpt(CkptError),
    /// Cooperative cancellation: SIGTERM/SIGINT arrived and the command
    /// wound down at a safe boundary, flushing its observability
    /// artifacts and (when checkpointing) a final checkpoint. Exit
    /// code 5, so scripts can distinguish "interrupted but resumable"
    /// from real failures.
    Interrupted(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Json(e) => write!(f, "json error: {e}"),
            CliError::Qsim(e) => write!(f, "model error: {e}"),
            CliError::Datagen(e) => write!(f, "dataset error: {e}"),
            CliError::Train(e) => write!(f, "training error: {e}"),
            CliError::Placement(e) => write!(f, "search error: {e}"),
            CliError::Ckpt(e) => write!(f, "checkpoint error: {e}"),
            CliError::Interrupted(m) => write!(f, "interrupted: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}
impl From<chainnet_qsim::QsimError> for CliError {
    fn from(e: chainnet_qsim::QsimError) -> Self {
        CliError::Qsim(e)
    }
}
impl From<DatagenError> for CliError {
    fn from(e: DatagenError) -> Self {
        match e {
            DatagenError::Checkpoint(c) => CliError::Ckpt(c),
            DatagenError::Interrupted { .. } => CliError::Interrupted(e.to_string()),
            other => CliError::Datagen(other),
        }
    }
}
impl From<TrainError> for CliError {
    fn from(e: TrainError) -> Self {
        match e {
            TrainError::Checkpoint(c) => CliError::Ckpt(c),
            other => CliError::Train(other),
        }
    }
}
impl From<PlacementError> for CliError {
    fn from(e: PlacementError) -> Self {
        match e {
            PlacementError::Checkpoint(c) => CliError::Ckpt(c),
            other => CliError::Placement(other),
        }
    }
}
impl From<CkptError> for CliError {
    fn from(e: CkptError) -> Self {
        CliError::Ckpt(e)
    }
}

/// The options each subcommand accepts, or `None` for unknown commands
/// (those fail later in [`run`] with the full usage text).
fn allowed_options(command: &str) -> Option<&'static [&'static str]> {
    match command {
        "simulate" => Some(&[
            "system",
            "horizon",
            "seed",
            "trace",
            "fault-schedule",
            "sim-budget",
            "sim-deadline",
            "metrics-out",
            "log-json",
            "trace-out",
        ]),
        "gen-dataset" => Some(&[
            "out",
            "samples",
            "type",
            "horizon",
            "seed",
            "metrics-out",
            "log-json",
            "trace-out",
            "checkpoint-dir",
            "checkpoint-every",
            "resume",
        ]),
        "train" => Some(&[
            "data",
            "out",
            "epochs",
            "hidden",
            "iterations",
            "batch",
            "dtype",
            "lr",
            "seed",
            "metrics-out",
            "log-json",
            "trace-out",
            "checkpoint-dir",
            "checkpoint-every",
            "resume",
        ]),
        "predict" => Some(&["model", "system"]),
        "optimize" => Some(&[
            "problem",
            "model",
            "steps",
            "trials",
            "horizon",
            "seed",
            "neighborhood",
            "out",
            "metrics-out",
            "log-json",
            "trace-out",
            "checkpoint-dir",
            "checkpoint-every",
            "resume",
        ]),
        "stats" => Some(&["data"]),
        "evaluate" => Some(&["model", "data"]),
        "export-dot" => Some(&["system", "out"]),
        "case-study" => Some(&["out"]),
        _ => None,
    }
}

/// Options that are boolean flags: present or absent, no value follows.
const FLAG_OPTIONS: &[&str] = &["resume"];

/// Parse `args` (excluding the program name) into an [`Invocation`].
///
/// # Errors
///
/// Returns [`CliError::Usage`] when no subcommand is given, an option is
/// malformed, or an option is not accepted by the subcommand.
pub fn parse_args(args: &[String]) -> Result<Invocation, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage(usage()));
    };
    if command == "--help" || command == "-h" || command == "help" {
        return Err(CliError::Usage(usage()));
    }
    let allowed = allowed_options(command);
    let mut options = HashMap::new();
    let mut i = 1;
    while i < args.len() {
        let key = &args[i];
        let Some(stripped) = key.strip_prefix("--") else {
            return Err(CliError::Usage(format!("expected --option, got `{key}`")));
        };
        if let Some(valid) = allowed {
            if !valid.contains(&stripped) {
                return Err(CliError::Usage(format!(
                    "unknown option --{stripped} for `{command}`; valid options: {}",
                    valid
                        .iter()
                        .map(|o| format!("--{o}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        if FLAG_OPTIONS.contains(&stripped) {
            options.insert(stripped.to_string(), String::new());
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            return Err(CliError::Usage(format!("missing value for --{stripped}")));
        };
        options.insert(stripped.to_string(), value.clone());
        i += 2;
    }
    Ok(Invocation {
        command: command.clone(),
        options,
    })
}

/// The usage string shown on `--help` and usage errors.
pub fn usage() -> String {
    "\
chainnet — loss-aware edge AI deployment toolkit (DSN 2024 reproduction)

USAGE: chainnet <command> [--option value]...

COMMANDS:
  simulate     --system s.json [--horizon 20000] [--seed 0] [--trace N]
               [--fault-schedule faults.json] [--sim-budget MAX_EVENTS]
               [--sim-deadline SECS]
  gen-dataset  --out d.json --samples 100 [--type i|ii] [--horizon 2000] [--seed 0]
  train        --data d.json --out model.json [--epochs 40] [--hidden 32]
               [--iterations 4] [--batch 32] [--dtype f32|f64] [--lr 0.001]
               [--seed 0]  --dtype packs each mini-batch into one padded
               tape pass in that precision (fast path)
  predict      --model model.json --system s.json
  optimize     --problem p.json [--model model.json] [--steps 100]
               [--trials 5] [--horizon 2000] [--seed 0] [--out placement.json]
               [--neighborhood K]  score K candidates per SA step in one
                                   batched evaluator call (default 1, the
                                   paper's single-proposal search)
  stats        --data d.json
  evaluate     --model model.json --data d.json
  export-dot   --system s.json [--out graph.dot]
  case-study   [--out problem.json]

OBSERVABILITY (simulate, gen-dataset, train, optimize):
  --metrics-out metrics.json   write a metrics snapshot when the command
                               finishes (`.prom` extension selects the
                               Prometheus text format instead of JSON)
  --log-json events.jsonl      append structured JSON-lines events
  --trace-out trace.json       record causal spans (qsim.run, train.epoch,
                               sa.batch_eval, …) and write them when the
                               command finishes: Chrome trace_event JSON
                               by default (loadable in chrome://tracing or
                               Perfetto), a raw span log with `.jsonl` /
                               `.spans`, collapsed flamegraph stacks with
                               `.folded` / `.collapsed`; diff two trace
                               files with the `trace-report` binary

CHECKPOINTING (gen-dataset, train, optimize):
  --checkpoint-dir DIR         persist crash-safe, checksummed state so a
                               killed run can continue where it left off
  --checkpoint-every N         checkpoint cadence: epochs for train (1),
                               search steps for optimize (10), samples
                               per shard for gen-dataset (64)
  --resume                     continue from the newest verified
                               checkpoint in --checkpoint-dir; the result
                               is bit-identical to an uninterrupted run.
                               Exit codes: 4 when no checkpoint exists,
                               3 for any other checkpoint error

SIGNALS (gen-dataset, train, optimize):
  SIGTERM / SIGINT wind the command down at the next safe boundary
  (shard, epoch, or search step): metrics and traces are flushed, a
  final checkpoint is written when --checkpoint-dir is active, and the
  process exits with code 5 so scripts can tell \"interrupted but
  resumable\" from a failure.

All files are the library's serde JSON formats; see the crate docs."
        .to_string()
}

/// Resolve `--checkpoint-dir` / `--checkpoint-every` / `--resume` into
/// an opened store, or `None` when checkpointing is off.
fn checkpoint_options(
    inv: &Invocation,
    prefix: &str,
    schema: u32,
    default_every: usize,
    obs: &Obs,
) -> Result<Option<(CkptStore, usize, bool)>, CliError> {
    let resume = inv.options.contains_key("resume");
    let Some(dir) = inv.options.get("checkpoint-dir") else {
        if resume || inv.options.contains_key("checkpoint-every") {
            return Err(CliError::Usage(
                "--checkpoint-every and --resume require --checkpoint-dir".into(),
            ));
        }
        return Ok(None);
    };
    let every = opt_usize(inv, "checkpoint-every", default_every)?;
    let store = CkptStore::open_observed(Path::new(dir), prefix, schema, obs)?;
    Ok(Some((store, every, resume)))
}

/// Route SIGTERM/SIGINT to the command's cooperative-cancel flag so the
/// long-running commands (`train`, `optimize`, `gen-dataset`) wind down
/// at a safe boundary — flushing metrics, traces, and (when enabled) a
/// final checkpoint — instead of dying mid-write. Registration failures
/// are ignored: the command still works, it just cannot be interrupted
/// gracefully.
fn register_cancel_signals(obs: &Obs) {
    let _ = signal_hook::flag::register(signal_hook::consts::SIGTERM, obs.cancel.shared());
    let _ = signal_hook::flag::register(signal_hook::consts::SIGINT, obs.cancel.shared());
}

/// Build the telemetry context from `--metrics-out` / `--log-json` /
/// `--trace-out`. Returns the disabled context when no flag is given, so
/// the instrumented code paths cost one branch per site.
fn build_obs(inv: &Invocation) -> Result<Obs, CliError> {
    let metrics_out = inv.options.get("metrics-out");
    let log_json = inv.options.get("log-json");
    let trace_out = inv.options.get("trace-out");
    if metrics_out.is_none() && log_json.is_none() && trace_out.is_none() {
        return Ok(Obs::disabled());
    }
    let mut obs = Obs::enabled();
    if let Some(path) = log_json {
        obs = obs.with_events(EventLog::to_file(Path::new(path))?);
    }
    if trace_out.is_some() {
        obs = obs.with_tracer(Tracer::enabled());
    }
    Ok(obs)
}

/// Write the registry snapshot to `--metrics-out` (if given): Prometheus
/// text when the path ends in `.prom`, pretty JSON otherwise. The write
/// is atomic (temp file + fsync + rename) so scrapers never observe a
/// torn snapshot.
fn write_metrics(inv: &Invocation, obs: &Obs) -> Result<(), CliError> {
    let Some(path) = inv.options.get("metrics-out") else {
        return Ok(());
    };
    let snapshot = obs.registry.snapshot();
    let rendered = if path.ends_with(".prom") {
        snapshot.to_prometheus()
    } else {
        snapshot.to_json_pretty()?
    };
    chainnet_ckpt::atomic_write(Path::new(path), rendered.as_bytes())?;
    obs.events.flush();
    Ok(())
}

/// Drain the span tracer and write the trace to `--trace-out` (if
/// given). The extension picks the format: `.jsonl`/`.spans` for the
/// raw JSON-lines span log, `.folded`/`.collapsed` for flamegraph
/// collapsed stacks, anything else for Chrome `trace_event` JSON. The
/// write is atomic like [`write_metrics`].
fn write_trace(inv: &Invocation, obs: &Obs) -> Result<(), CliError> {
    let Some(path) = inv.options.get("trace-out") else {
        return Ok(());
    };
    let trace = obs.tracer.take();
    let rendered = if path.ends_with(".jsonl") || path.ends_with(".spans") {
        trace.to_json_lines()
    } else if path.ends_with(".folded") || path.ends_with(".collapsed") {
        trace.to_collapsed_stacks()
    } else {
        trace.to_chrome_trace()
    };
    chainnet_ckpt::atomic_write(Path::new(path), rendered.as_bytes())?;
    Ok(())
}

fn opt_f64(inv: &Invocation, key: &str, default: f64) -> Result<f64, CliError> {
    match inv.options.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("--{key} expects a number, got `{v}`"))),
    }
}

fn opt_usize(inv: &Invocation, key: &str, default: usize) -> Result<usize, CliError> {
    match inv.options.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("--{key} expects an integer, got `{v}`"))),
    }
}

fn opt_u64(inv: &Invocation, key: &str, default: u64) -> Result<u64, CliError> {
    match inv.options.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("--{key} expects an integer, got `{v}`"))),
    }
}

fn required<'a>(inv: &'a Invocation, key: &str) -> Result<&'a str, CliError> {
    inv.options
        .get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| CliError::Usage(format!("missing required --{key}")))
}

fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, CliError> {
    let text = std::fs::read_to_string(Path::new(path))?;
    Ok(serde_json::from_str(&text)?)
}

/// Serialize `value` as pretty JSON and write it atomically, so a crash
/// mid-write can never leave a torn artifact at `path`.
fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), CliError> {
    let json = serde_json::to_string_pretty(value)?;
    chainnet_ckpt::atomic_write(Path::new(path), json.as_bytes())?;
    Ok(())
}

/// Execute an invocation, returning the text to print on stdout.
///
/// # Errors
///
/// Any [`CliError`]; callers print it to stderr and exit non-zero.
pub fn run(inv: &Invocation) -> Result<String, CliError> {
    // Reject dangling checkpoint flags before any file I/O so the
    // usage error is not masked by a missing input file.
    if (inv.options.contains_key("resume") || inv.options.contains_key("checkpoint-every"))
        && !inv.options.contains_key("checkpoint-dir")
    {
        return Err(CliError::Usage(
            "--checkpoint-every and --resume require --checkpoint-dir".into(),
        ));
    }
    match inv.command.as_str() {
        "simulate" => cmd_simulate(inv),
        "gen-dataset" => cmd_gen_dataset(inv),
        "train" => cmd_train(inv),
        "predict" => cmd_predict(inv),
        "optimize" => cmd_optimize(inv),
        "stats" => cmd_stats(inv),
        "evaluate" => cmd_evaluate(inv),
        "export-dot" => cmd_export_dot(inv),
        "case-study" => cmd_case_study(inv),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{}",
            usage()
        ))),
    }
}

fn cmd_simulate(inv: &Invocation) -> Result<String, CliError> {
    let system: SystemModel = read_json(required(inv, "system")?)?;
    let horizon = opt_f64(inv, "horizon", 20_000.0)?;
    let seed = opt_u64(inv, "seed", 0)?;
    let trace = opt_usize(inv, "trace", 0)?;
    let mut cfg = SimConfig::try_new(horizon, seed)?.with_trace_capacity(trace);
    if let Some(v) = inv.options.get("sim-budget") {
        let budget = v
            .parse::<u64>()
            .map_err(|_| CliError::Usage(format!("--sim-budget expects an integer, got `{v}`")))?;
        if budget == 0 {
            return Err(CliError::Usage("--sim-budget must be positive".into()));
        }
        cfg = cfg.with_max_events(budget);
    }
    if let Some(v) = inv.options.get("sim-deadline") {
        let secs = v
            .parse::<f64>()
            .map_err(|_| CliError::Usage(format!("--sim-deadline expects seconds, got `{v}`")))?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(CliError::Usage(
                "--sim-deadline must be finite and non-negative".into(),
            ));
        }
        cfg = cfg.with_max_wall_secs(secs);
    }
    let faults: FaultSchedule = match inv.options.get("fault-schedule") {
        Some(path) => read_json(path)?,
        None => FaultSchedule::new(),
    };
    let obs = build_obs(inv)?;
    // `run_faulted_observed` validates the schedule against the system,
    // so a schedule referencing unknown devices/chains exits non-zero
    // with a model error instead of panicking mid-run.
    let result = Simulator::new().run_faulted_observed(&system, &cfg, &faults, &obs)?;
    write_metrics(inv, &obs)?;
    write_trace(inv, &obs)?;
    Ok(serde_json::to_string_pretty(&result)?)
}

fn cmd_export_dot(inv: &Invocation) -> Result<String, CliError> {
    let system: SystemModel = read_json(required(inv, "system")?)?;
    let graph = PlacementGraph::from_model(&system, ModelConfig::paper_chainnet().feature_mode);
    let dot = chainnet::dot::to_dot(&graph);
    match inv.options.get("out") {
        Some(path) => {
            std::fs::write(Path::new(path), &dot)?;
            Ok(format!("wrote DOT graph to {path}"))
        }
        None => Ok(dot),
    }
}

fn cmd_case_study(inv: &Invocation) -> Result<String, CliError> {
    let problem = chainnet_datagen::case_study::case_study_problem()?;
    match inv.options.get("out") {
        Some(path) => {
            write_json(path, &problem)?;
            Ok(format!(
                "wrote the Section VIII-D case study ({} devices, {} chains) to {path}",
                problem.num_devices(),
                problem.num_chains()
            ))
        }
        None => Ok(serde_json::to_string_pretty(&problem)?),
    }
}

fn cmd_gen_dataset(inv: &Invocation) -> Result<String, CliError> {
    let out = required(inv, "out")?;
    let samples = opt_usize(inv, "samples", 100)?;
    let horizon = opt_f64(inv, "horizon", 2_000.0)?;
    let seed = opt_u64(inv, "seed", 0)?;
    let params = match inv.options.get("type").map(|s| s.as_str()).unwrap_or("i") {
        "i" | "I" => NetworkParams::type_i(),
        "ii" | "II" => NetworkParams::type_ii(),
        other => {
            return Err(CliError::Usage(format!(
                "--type expects `i` or `ii`, got `{other}`"
            )))
        }
    };
    let cfg = DatasetConfig::new(samples, seed).with_horizon(horizon);
    let obs = build_obs(inv)?;
    register_cancel_signals(&obs);
    let ckpt = checkpoint_options(inv, "shard", DATAGEN_CKPT_SCHEMA, 64, &obs)?;
    let generated = match &ckpt {
        Some((store, every, resume)) => {
            generate_raw_dataset_sharded_observed(params, &cfg, *every, store, *resume, &obs)
        }
        None => generate_raw_dataset_observed(params, &cfg, &obs),
    };
    let raw = match generated {
        Ok(raw) => raw,
        Err(e @ DatagenError::Interrupted { .. }) => {
            // SIGTERM/SIGINT at a shard boundary: the completed shards
            // are on disk (when checkpointing); flush the telemetry so
            // the interrupted run still leaves a snapshot, then exit 5.
            write_metrics(inv, &obs)?;
            write_trace(inv, &obs)?;
            return Err(e.into());
        }
        Err(e) => return Err(e.into()),
    };
    write_json(out, &raw)?;
    write_metrics(inv, &obs)?;
    write_trace(inv, &obs)?;
    Ok(format!("wrote {} samples to {out}", raw.len()))
}

fn cmd_train(inv: &Invocation) -> Result<String, CliError> {
    // --dtype selects the packed mini-batch step (one padded tape pass
    // per batch) in the requested precision; without it every sample
    // runs its own tape pass. Validated before any file I/O so usage
    // errors surface first.
    let dtype = inv.options.get("dtype").map(String::as_str);
    if let Some(d) = dtype {
        if d != "f32" && d != "f64" {
            return Err(CliError::Usage(format!(
                "--dtype must be f32 or f64, got `{d}`"
            )));
        }
    }
    let data: Vec<RawSample> = read_json(required(inv, "data")?)?;
    let out = required(inv, "out")?;
    let mut model_cfg = ModelConfig::paper_chainnet();
    model_cfg.hidden = opt_usize(inv, "hidden", 32)?;
    model_cfg.iterations = opt_usize(inv, "iterations", 4)?;
    let train_cfg = TrainConfig {
        epochs: opt_usize(inv, "epochs", 40)?,
        batch_size: opt_usize(inv, "batch", 32)?,
        learning_rate: opt_f64(inv, "lr", 1e-3)?,
        lr_decay: 0.9,
        lr_decay_period: 10,
        seed: opt_u64(inv, "seed", 0)?,
    };
    let mut model = ChainNet::new(model_cfg, opt_u64(inv, "seed", 0)?);
    let labeled = to_labeled(&data, model_cfg.feature_mode);
    let trainer = Trainer::new(train_cfg);
    let obs = build_obs(inv)?;
    register_cancel_signals(&obs);
    let ckpt = checkpoint_options(inv, "train", TRAIN_CKPT_SCHEMA, 1, &obs)?;
    let plan = TrainPlan {
        // No gradient clipping (max_grad_norm = 0), so a healthy run is
        // bit-identical to an unguarded one; the guard still rolls back
        // on non-finite loss/grads/params.
        guard: Some(GuardConfig {
            max_grad_norm: 0.0,
            max_trips: 3,
        }),
        checkpoint: ckpt.as_ref().map(|(store, every, resume)| CheckpointPlan {
            store,
            every: *every,
            resume: *resume,
        }),
    };
    let report = match dtype {
        Some("f32") => trainer.fit(Packed::<f32>::new(&mut model), &labeled, None, &plan, &obs),
        Some(_) => trainer.fit(Packed::<f64>::new(&mut model), &labeled, None, &plan, &obs),
        None => trainer.fit(PerGraph::new(&mut model), &labeled, None, &plan, &obs),
    }?;
    write_json(out, &model)?;
    write_metrics(inv, &obs)?;
    write_trace(inv, &obs)?;
    if report.interrupted {
        // The model written above holds the last completed epoch and a
        // checkpointed run has already flushed a resumable checkpoint;
        // the distinct exit code tells scripts to `--resume` later.
        return Err(CliError::Interrupted(format!(
            "training stopped after {} completed epoch(s); partial model saved to {out}",
            report.history.len()
        )));
    }
    let mut msg = String::new();
    writeln!(
        msg,
        "trained on {} samples for {} epochs; final loss {:.5}",
        labeled.len(),
        train_cfg.epochs,
        report.final_train_loss().unwrap_or(f64::NAN)
    )
    .expect("write to string");
    write!(msg, "model saved to {out}").expect("write to string");
    Ok(msg)
}

fn cmd_predict(inv: &Invocation) -> Result<String, CliError> {
    let model: ChainNet = read_json(required(inv, "model")?)?;
    let system: SystemModel = read_json(required(inv, "system")?)?;
    let graph = PlacementGraph::from_model(&system, model.config().feature_mode);
    let preds = model.predict(&graph);
    Ok(serde_json::to_string_pretty(&preds)?)
}

fn cmd_evaluate(inv: &Invocation) -> Result<String, CliError> {
    let model: ChainNet = read_json(required(inv, "model")?)?;
    let data: Vec<RawSample> = read_json(required(inv, "data")?)?;
    if data.is_empty() {
        return Err(CliError::Usage("dataset is empty".into()));
    }
    let labeled = to_labeled(&data, model.config().feature_mode);
    let trainer = Trainer::new(TrainConfig::paper_default());
    let apes = trainer.evaluate_ape(&model, &labeled);
    let (tput, lat) = apes.summaries();
    let (tput, lat) = (
        tput.expect("nonempty dataset"),
        lat.expect("nonempty dataset"),
    );
    let mut msg = String::new();
    writeln!(
        msg,
        "evaluated {} chains across {} graphs",
        tput.count,
        data.len()
    )
    .expect("write to string");
    writeln!(
        msg,
        "throughput APE: MAPE {:.4}  p50 {:.4}  p75 {:.4}  p95 {:.4}  p99 {:.4}",
        tput.mape, tput.p50, tput.p75, tput.p95, tput.p99
    )
    .expect("write to string");
    write!(
        msg,
        "latency    APE: MAPE {:.4}  p50 {:.4}  p75 {:.4}  p95 {:.4}  p99 {:.4}",
        lat.mape, lat.p50, lat.p75, lat.p95, lat.p99
    )
    .expect("write to string");
    Ok(msg)
}

fn cmd_stats(inv: &Invocation) -> Result<String, CliError> {
    let data: Vec<RawSample> = read_json(required(inv, "data")?)?;
    let stats = chainnet_datagen::stats::dataset_stats(&data)?;
    Ok(chainnet_datagen::stats::render_stats(&stats))
}

fn cmd_optimize(inv: &Invocation) -> Result<String, CliError> {
    let neighborhood = opt_usize(inv, "neighborhood", 1)?;
    let problem: PlacementProblem = read_json(required(inv, "problem")?)?;
    let steps = opt_usize(inv, "steps", 100)?;
    let trials = opt_usize(inv, "trials", 5)?;
    let horizon = opt_f64(inv, "horizon", 2_000.0)?;
    let seed = opt_u64(inv, "seed", 0)?;
    let initial = problem.initial_placement()?;
    let sa = SimulatedAnnealing::new(
        SaConfig::paper_default()
            .with_max_steps(steps)
            .with_seed(seed),
    );
    let obs = build_obs(inv)?;
    register_cancel_signals(&obs);
    let ckpt = checkpoint_options(inv, "sa", SA_CKPT_SCHEMA, 10, &obs)?;
    let mut ev: Box<dyn BatchEvaluator> = match inv.options.get("model") {
        Some(path) => Box::new(GnnEvaluator::new(read_json::<ChainNet>(path)?)),
        None => Box::new(SimEvaluator::new(SimConfig::new(horizon, seed))),
    };
    let result = match &ckpt {
        Some((store, every, resume)) => sa.optimize_checkpointed_observed(
            &problem,
            &initial,
            ev.as_mut(),
            trials,
            neighborhood,
            store,
            *every,
            *resume,
            &obs,
        )?,
        None => sa.optimize_neighborhood_observed(
            &problem,
            &initial,
            ev.as_mut(),
            trials,
            neighborhood,
            &obs,
        ),
    };
    if matches!(
        result.termination_reason,
        chainnet_placement::sa::TerminationReason::Cancelled
    ) {
        // Best-so-far is still a valid placement; persist everything the
        // completed run would have, then exit with the interrupted code.
        if let Some(out) = inv.options.get("out") {
            write_json(out, &result.best_placement)?;
        }
        write_metrics(inv, &obs)?;
        write_trace(inv, &obs)?;
        return Err(CliError::Interrupted(format!(
            "search cancelled after {} evaluation(s); best-so-far objective {:.6}",
            result.evaluations, result.best_objective
        )));
    }
    // Post-process with the simulator as the paper does.
    let model = problem.bind(result.best_placement.clone())?;
    let sim = Simulator::new().run(&model, &SimConfig::new(horizon, seed ^ 0xdead))?;
    write_metrics(inv, &obs)?;
    write_trace(inv, &obs)?;
    let lam = problem.total_arrival_rate();
    if let Some(out) = inv.options.get("out") {
        write_json(out, &result.best_placement)?;
    }
    let mut msg = String::new();
    writeln!(
        msg,
        "search: {} evaluations in {:.2}s over {} trials",
        result.evaluations,
        result.elapsed_secs,
        result.trials.len()
    )
    .expect("write to string");
    writeln!(
        msg,
        "initial loss probability: {:.4}",
        loss_probability(lam, result.initial_objective)
    )
    .expect("write to string");
    writeln!(
        msg,
        "optimized loss probability (simulated): {:.4}",
        sim.loss_probability
    )
    .expect("write to string");
    write!(
        msg,
        "best placement: {}",
        serde_json::to_string(&result.best_placement)?
    )
    .expect("write to string");
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain};

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_valid_invocation() {
        let inv = parse_args(&args(&["simulate", "--system", "s.json", "--seed", "7"])).unwrap();
        assert_eq!(inv.command, "simulate");
        assert_eq!(inv.options["system"], "s.json");
        assert_eq!(inv.options["seed"], "7");
    }

    #[test]
    fn parse_rejects_unknown_option_with_suggestions() {
        let err = parse_args(&args(&["simulate", "--sytem", "s.json"])).unwrap_err();
        let CliError::Usage(text) = err else {
            panic!("expected usage error")
        };
        assert!(text.contains("unknown option --sytem for `simulate`"));
        assert!(text.contains("--system"));
        assert!(text.contains("--metrics-out"));
    }

    #[test]
    fn parse_allows_any_option_for_unknown_command() {
        // Unknown commands defer to `run` for the full usage message.
        let inv = parse_args(&args(&["frobnicate", "--whatever", "1"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::Usage(_))));
    }

    #[test]
    fn parse_rejects_missing_value() {
        let err = parse_args(&args(&["simulate", "--system"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn parse_rejects_bare_option() {
        let err = parse_args(&args(&["simulate", "system.json"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn help_returns_usage() {
        let err = parse_args(&args(&["--help"])).unwrap_err();
        let CliError::Usage(text) = err else {
            panic!("expected usage")
        };
        assert!(text.contains("COMMANDS"));
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        let inv = parse_args(&args(&["frobnicate"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::Usage(_))));
    }

    fn temp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("chainnet_cli_test_{name}_{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn simulate_round_trip() {
        let devices = vec![Device::new(10.0, 1.0).unwrap()];
        let chains = vec![ServiceChain::new(0.5, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap()];
        let system = SystemModel::new(devices, chains, Placement::new(vec![vec![0]])).unwrap();
        let path = temp("system.json");
        std::fs::write(&path, serde_json::to_string(&system).unwrap()).unwrap();
        let inv = parse_args(&args(&[
            "simulate",
            "--system",
            &path,
            "--horizon",
            "500",
            "--seed",
            "3",
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("total_throughput"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn simulate_with_fault_schedule_and_budget() {
        let devices = vec![
            Device::new(10.0, 1.0).unwrap(),
            Device::new(10.0, 1.0).unwrap(),
        ];
        let chains = vec![ServiceChain::new(0.5, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap()];
        let system = SystemModel::new(devices, chains, Placement::new(vec![vec![0]])).unwrap();
        let sys_path = temp("fault_system.json");
        let sched_path = temp("fault_schedule.json");
        let metrics_path = temp("fault_metrics.json");
        std::fs::write(&sys_path, serde_json::to_string(&system).unwrap()).unwrap();
        let schedule = FaultSchedule::new().crash(100.0, 0).recover(300.0, 0);
        std::fs::write(&sched_path, serde_json::to_string(&schedule).unwrap()).unwrap();
        let inv = parse_args(&args(&[
            "simulate",
            "--system",
            &sys_path,
            "--horizon",
            "500",
            "--fault-schedule",
            &sched_path,
            "--sim-budget",
            "1000000",
            "--metrics-out",
            &metrics_path,
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("total_throughput"));
        let snap =
            chainnet_obs::Snapshot::from_json(&std::fs::read_to_string(&metrics_path).unwrap())
                .unwrap();
        assert_eq!(snap.counters["faults.injected"], 2);
        // A schedule referencing a device outside the system exits with a
        // model error rather than a panic.
        let bad = FaultSchedule::new().crash(10.0, 99);
        std::fs::write(&sched_path, serde_json::to_string(&bad).unwrap()).unwrap();
        let err = run(&inv).unwrap_err();
        assert!(matches!(err, CliError::Qsim(_)));
        for p in [&sys_path, &sched_path, &metrics_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn simulate_rejects_invalid_budget_deadline_and_horizon() {
        let devices = vec![Device::new(10.0, 1.0).unwrap()];
        let chains = vec![ServiceChain::new(0.5, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap()];
        let system = SystemModel::new(devices, chains, Placement::new(vec![vec![0]])).unwrap();
        let path = temp("bad_opts_system.json");
        std::fs::write(&path, serde_json::to_string(&system).unwrap()).unwrap();
        let run_with = |extra: &[&str]| {
            let mut argv = vec!["simulate", "--system", path.as_str()];
            argv.extend_from_slice(extra);
            run(&parse_args(&args(&argv)).unwrap())
        };
        assert!(matches!(
            run_with(&["--sim-budget", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_with(&["--sim-budget", "many"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_with(&["--sim-deadline", "-1"]),
            Err(CliError::Usage(_))
        ));
        // A bad horizon is a typed error (non-zero exit), not a panic.
        assert!(matches!(
            run_with(&["--horizon", "-5"]),
            Err(CliError::Qsim(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn simulate_writes_metrics_and_event_log() {
        let devices = vec![Device::new(10.0, 1.0).unwrap()];
        let chains = vec![ServiceChain::new(0.5, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap()];
        let system = SystemModel::new(devices, chains, Placement::new(vec![vec![0]])).unwrap();
        let sys_path = temp("obs_system.json");
        let metrics_path = temp("obs_metrics.json");
        let prom_path = format!("{}.prom", temp("obs_metrics"));
        let events_path = temp("obs_events.jsonl");
        std::fs::write(&sys_path, serde_json::to_string(&system).unwrap()).unwrap();
        let inv = parse_args(&args(&[
            "simulate",
            "--system",
            &sys_path,
            "--horizon",
            "500",
            "--metrics-out",
            &metrics_path,
            "--log-json",
            &events_path,
        ]))
        .unwrap();
        run(&inv).unwrap();
        let snap =
            chainnet_obs::Snapshot::from_json(&std::fs::read_to_string(&metrics_path).unwrap())
                .unwrap();
        assert!(snap.counters["qsim.events_processed"] > 0);
        assert!(snap
            .counters
            .keys()
            .any(|k| k.starts_with("qsim.device.drops{device=")));
        assert_eq!(snap.histograms["qsim.run_wall_seconds"].count, 1);
        let events = std::fs::read_to_string(&events_path).unwrap();
        let first: serde_json::Value =
            serde_json::from_str(events.lines().next().unwrap()).unwrap();
        assert_eq!(
            first.get("component").and_then(|v| v.as_str()),
            Some("qsim")
        );
        // A `.prom` extension selects the Prometheus text format.
        let inv = parse_args(&args(&[
            "simulate",
            "--system",
            &sys_path,
            "--horizon",
            "500",
            "--metrics-out",
            &prom_path,
        ]))
        .unwrap();
        run(&inv).unwrap();
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("# TYPE qsim_events_processed counter"));
        for p in [&sys_path, &metrics_path, &prom_path, &events_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn gen_train_predict_pipeline() {
        let data_path = temp("data.json");
        let model_path = temp("model.json");
        // Generate a tiny dataset.
        let inv = parse_args(&args(&[
            "gen-dataset",
            "--out",
            &data_path,
            "--samples",
            "6",
            "--horizon",
            "150",
            "--seed",
            "4",
        ]))
        .unwrap();
        let msg = run(&inv).unwrap();
        assert!(msg.contains("6 samples"));
        // Train a tiny model.
        let inv = parse_args(&args(&[
            "train",
            "--data",
            &data_path,
            "--out",
            &model_path,
            "--epochs",
            "2",
            "--hidden",
            "8",
            "--iterations",
            "2",
            "--batch",
            "4",
        ]))
        .unwrap();
        let msg = run(&inv).unwrap();
        assert!(msg.contains("model saved"));
        // Predict on one of the dataset systems.
        let raw: Vec<RawSample> =
            serde_json::from_str(&std::fs::read_to_string(&data_path).unwrap()).unwrap();
        let sys_path = temp("sys2.json");
        std::fs::write(&sys_path, serde_json::to_string(&raw[0].model).unwrap()).unwrap();
        let inv = parse_args(&args(&[
            "predict",
            "--model",
            &model_path,
            "--system",
            &sys_path,
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("throughput"));
        for p in [&data_path, &model_path, &sys_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn train_dtype_routes_batched_path() {
        let data_path = temp("dtype_data.json");
        let inv = parse_args(&args(&[
            "gen-dataset",
            "--out",
            &data_path,
            "--samples",
            "6",
            "--horizon",
            "150",
            "--seed",
            "4",
        ]))
        .unwrap();
        run(&inv).unwrap();
        for dtype in ["f32", "f64"] {
            let model_path = temp(&format!("dtype_model_{dtype}.json"));
            let inv = parse_args(&args(&[
                "train",
                "--data",
                &data_path,
                "--out",
                &model_path,
                "--epochs",
                "2",
                "--hidden",
                "8",
                "--iterations",
                "2",
                "--batch",
                "4",
                "--dtype",
                dtype,
            ]))
            .unwrap();
            let msg = run(&inv).unwrap();
            assert!(msg.contains("model saved"), "dtype {dtype}: {msg}");
            // The saved model round-trips through predict.
            let model: ChainNet =
                serde_json::from_str(&std::fs::read_to_string(&model_path).unwrap()).unwrap();
            assert!(model.params().values_all_finite());
            let _ = std::fs::remove_file(&model_path);
        }
        let _ = std::fs::remove_file(&data_path);
    }

    #[test]
    fn train_dtype_rejects_bad_values() {
        let inv = parse_args(&args(&[
            "train", "--data", "d.json", "--out", "m.json", "--dtype", "f16",
        ]))
        .unwrap();
        let err = run(&inv).unwrap_err();
        assert!(matches!(err, CliError::Usage(ref m) if m.contains("f32 or f64")));
    }

    #[test]
    fn train_on_an_empty_dataset_is_a_typed_error_on_every_path() {
        let data_path = temp("empty_train_data.json");
        let model_path = temp("empty_train_model.json");
        let dir = temp_dir("empty_train_ckpt");
        std::fs::write(&data_path, "[]").unwrap();
        for extra in [
            &[][..],
            &["--dtype", "f32"][..],
            &["--dtype", "f64"][..],
            &["--checkpoint-dir", dir.as_str()][..],
            &["--dtype", "f32", "--checkpoint-dir", dir.as_str()][..],
        ] {
            let mut argv = vec!["train", "--data", &data_path, "--out", &model_path];
            argv.extend_from_slice(extra);
            let err = run(&parse_args(&args(&argv)).unwrap()).unwrap_err();
            assert!(
                matches!(err, CliError::Train(TrainError::EmptyTrainingSet)),
                "{extra:?}: {err:?}"
            );
        }
        let _ = std::fs::remove_file(&data_path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_command_summarizes_dataset() {
        let data_path = temp("stats_data.json");
        let inv = parse_args(&args(&[
            "gen-dataset",
            "--out",
            &data_path,
            "--samples",
            "4",
            "--horizon",
            "120",
        ]))
        .unwrap();
        run(&inv).unwrap();
        let inv = parse_args(&args(&["stats", "--data", &data_path])).unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("4 graphs"));
        let _ = std::fs::remove_file(&data_path);
    }

    #[test]
    fn evaluate_command_reports_ape() {
        let data_path = temp("eval_data.json");
        let model_path = temp("eval_model.json");
        run(&parse_args(&args(&[
            "gen-dataset",
            "--out",
            &data_path,
            "--samples",
            "5",
            "--horizon",
            "120",
        ]))
        .unwrap())
        .unwrap();
        run(&parse_args(&args(&[
            "train",
            "--data",
            &data_path,
            "--out",
            &model_path,
            "--epochs",
            "1",
            "--hidden",
            "8",
            "--iterations",
            "2",
        ]))
        .unwrap())
        .unwrap();
        let out = run(&parse_args(&args(&[
            "evaluate",
            "--model",
            &model_path,
            "--data",
            &data_path,
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("throughput APE"));
        for p in [&data_path, &model_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn export_dot_emits_digraph() {
        let devices = vec![Device::new(10.0, 1.0).unwrap()];
        let chains = vec![ServiceChain::new(0.5, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap()];
        let system = SystemModel::new(devices, chains, Placement::new(vec![vec![0]])).unwrap();
        let path = temp("dot_system.json");
        std::fs::write(&path, serde_json::to_string(&system).unwrap()).unwrap();
        let out = run(&parse_args(&args(&["export-dot", "--system", &path])).unwrap()).unwrap();
        assert!(out.starts_with("digraph placement"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn case_study_command_round_trips() {
        let path = temp("case_problem.json");
        let msg = run(&parse_args(&args(&["case-study", "--out", &path])).unwrap()).unwrap();
        assert!(msg.contains("5 devices"));
        let problem: PlacementProblem =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(problem.num_chains(), 8);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn optimize_with_sim_evaluator() {
        let devices = vec![
            Device::new(5.0, 0.3).unwrap(),
            Device::new(30.0, 2.0).unwrap(),
            Device::new(30.0, 2.0).unwrap(),
        ];
        let chains = vec![ServiceChain::new(
            1.0,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
            ],
        )
        .unwrap()];
        let problem = PlacementProblem::new(devices, chains).unwrap();
        let path = temp("problem.json");
        std::fs::write(&path, serde_json::to_string(&problem).unwrap()).unwrap();
        let inv = parse_args(&args(&[
            "optimize",
            "--problem",
            &path,
            "--steps",
            "10",
            "--trials",
            "1",
            "--horizon",
            "300",
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("optimized loss probability"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn optimize_neighborhood_batched_path() {
        let devices = vec![
            Device::new(5.0, 0.3).unwrap(),
            Device::new(30.0, 2.0).unwrap(),
            Device::new(30.0, 2.0).unwrap(),
        ];
        let chains = vec![ServiceChain::new(
            1.0,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
            ],
        )
        .unwrap()];
        let problem = PlacementProblem::new(devices, chains).unwrap();
        let path = temp("problem_nbhd.json");
        std::fs::write(&path, serde_json::to_string(&problem).unwrap()).unwrap();
        let metrics = temp("problem_nbhd_metrics.json");
        let inv = parse_args(&args(&[
            "optimize",
            "--problem",
            &path,
            "--steps",
            "10",
            "--trials",
            "1",
            "--horizon",
            "300",
            "--neighborhood",
            "4",
            "--metrics-out",
            &metrics,
        ]))
        .unwrap();
        let out = run(&inv).unwrap();
        assert!(out.contains("optimized loss probability"));
        // The batched driver must have routed through
        // BatchEvaluator::total_throughput_batch.
        let snap =
            chainnet_obs::Snapshot::from_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(snap.counters["sa.batch_evals"] > 0);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn train_trace_out_writes_valid_chrome_trace() {
        let data_path = temp("trace_train_data.json");
        let model_path = temp("trace_train_model.json");
        let trace_path = temp("trace_train.json");
        run(&parse_args(&args(&[
            "gen-dataset",
            "--out",
            &data_path,
            "--samples",
            "3",
            "--horizon",
            "120",
        ]))
        .unwrap())
        .unwrap();
        let ckpt_dir = temp_dir("trace_train_ckpt");
        // Every step kind, with and without checkpoints, records the same
        // span structure.
        for extra in [
            &[][..],
            &["--checkpoint-dir", &ckpt_dir][..],
            &["--dtype", "f32", "--checkpoint-dir", &ckpt_dir][..],
        ] {
            let mut argv = vec![
                "train",
                "--data",
                &data_path,
                "--out",
                &model_path,
                "--epochs",
                "2",
                "--hidden",
                "8",
                "--iterations",
                "2",
                "--trace-out",
                &trace_path,
            ];
            argv.extend_from_slice(extra);
            let _ = std::fs::remove_dir_all(&ckpt_dir);
            run(&parse_args(&args(&argv)).unwrap()).unwrap();
            // The file is well-formed Chrome trace_event JSON...
            let text = std::fs::read_to_string(&trace_path).unwrap();
            let json: serde_json::Value = serde_json::from_str(&text).unwrap();
            assert!(json
                .get("traceEvents")
                .and_then(|v| v.as_seq())
                .is_some_and(|events| !events.is_empty()));
            // ...that parses back into a structurally valid trace
            // (unique ids, live parents, children nested inside parents).
            let trace = chainnet_obs::report::parse_trace(&text).unwrap();
            trace.validate().unwrap();
            let stats = trace.phase_stats();
            assert_eq!(stats["train.epoch"].count, 2);
            assert!(stats["train.step"].count >= 2);
            assert!(stats["neural.forward"].count >= stats["train.step"].count);
            assert_eq!(
                stats["neural.forward"].count,
                stats["neural.backward"].count
            );
            // Forward spans nest under steps, steps under epochs.
            let step_ids: Vec<u64> = trace
                .spans
                .iter()
                .filter(|s| s.name == "train.step")
                .map(|s| s.id)
                .collect();
            let epoch_ids: Vec<u64> = trace
                .spans
                .iter()
                .filter(|s| s.name == "train.epoch")
                .map(|s| s.id)
                .collect();
            for s in &trace.spans {
                match s.name.as_str() {
                    "train.step" => assert!(epoch_ids.contains(&s.parent)),
                    "neural.forward" | "neural.backward" => {
                        assert!(step_ids.contains(&s.parent), "{} under step", s.name)
                    }
                    _ => {}
                }
            }
        }
        for p in [&data_path, &model_path, &trace_path] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn optimize_neighborhood_trace_has_sa_spans_and_diffs() {
        let devices = vec![
            Device::new(5.0, 0.3).unwrap(),
            Device::new(30.0, 2.0).unwrap(),
            Device::new(30.0, 2.0).unwrap(),
        ];
        let chains = vec![ServiceChain::new(
            1.0,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
            ],
        )
        .unwrap()];
        let problem = PlacementProblem::new(devices, chains).unwrap();
        let path = temp("trace_nbhd_problem.json");
        std::fs::write(&path, serde_json::to_string(&problem).unwrap()).unwrap();
        let trace_path = temp("trace_nbhd.json");
        run(&parse_args(&args(&[
            "optimize",
            "--problem",
            &path,
            "--steps",
            "5",
            "--trials",
            "2",
            "--horizon",
            "300",
            "--neighborhood",
            "4",
            "--trace-out",
            &trace_path,
        ]))
        .unwrap())
        .unwrap();
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let trace = chainnet_obs::report::parse_trace(&text).unwrap();
        trace.validate().unwrap();
        let stats = trace.phase_stats();
        assert_eq!(stats["sa.trial"].count, 2);
        assert_eq!(stats["sa.iteration"].count, 10);
        assert!(stats["sa.batch_eval"].count >= 1);
        // The cross-run diff emits one table row per phase.
        let rows = chainnet_obs::report::diff_traces(&trace, &trace);
        let table = chainnet_obs::report::render_diff_table(&rows);
        for phase in ["sa.trial", "sa.iteration", "sa.batch_eval"] {
            assert!(table.contains(phase), "diff table should list {phase}");
        }
        assert_eq!(chainnet_obs::report::worst_regression_pct(&rows), 0.0);
        for p in [&path, &trace_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn trace_out_extension_selects_format() {
        let devices = vec![Device::new(10.0, 1.0).unwrap()];
        let chains = vec![ServiceChain::new(0.5, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap()];
        let system = SystemModel::new(devices, chains, Placement::new(vec![vec![0]])).unwrap();
        let sys_path = temp("trace_fmt_system.json");
        std::fs::write(&sys_path, serde_json::to_string(&system).unwrap()).unwrap();
        let folded_path = format!("{}.folded", temp("trace_fmt"));
        let spans_path = format!("{}.jsonl", temp("trace_fmt"));
        for trace_path in [&folded_path, &spans_path] {
            run(&parse_args(&args(&[
                "simulate",
                "--system",
                &sys_path,
                "--horizon",
                "500",
                "--trace-out",
                trace_path,
            ]))
            .unwrap())
            .unwrap();
        }
        // Collapsed stacks: `name value` lines, rooted at qsim.run.
        let folded = std::fs::read_to_string(&folded_path).unwrap();
        assert!(folded.lines().any(|l| l.starts_with("qsim.run ")));
        // JSON-lines span log round-trips through the typed parser.
        let spans = std::fs::read_to_string(&spans_path).unwrap();
        let trace = chainnet_obs::Trace::from_json_lines(&spans).unwrap();
        trace.validate().unwrap();
        assert_eq!(trace.phase_stats()["qsim.run"].count, 1);
        for p in [&sys_path, &folded_path, &spans_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// Fresh, empty directory for checkpoint tests (removed by callers).
    fn temp_dir(name: &str) -> String {
        let dir = temp(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parse_resume_is_a_boolean_flag() {
        // `--resume` consumes no value: `--epochs` after it must still
        // bind to `2`.
        let inv = parse_args(&args(&[
            "train", "--data", "d.json", "--out", "m.json", "--resume", "--epochs", "2",
        ]))
        .unwrap();
        assert!(inv.options.contains_key("resume"));
        assert_eq!(inv.options["epochs"], "2");
    }

    #[test]
    fn checkpoint_flags_require_checkpoint_dir() {
        for argv in [
            vec!["train", "--data", "d.json", "--out", "m.json", "--resume"],
            vec!["gen-dataset", "--out", "d.json", "--checkpoint-every", "4"],
            vec!["optimize", "--problem", "p.json", "--resume"],
        ] {
            let err = run(&parse_args(&args(&argv)).unwrap()).unwrap_err();
            let CliError::Usage(text) = err else {
                panic!("expected usage error for {argv:?}")
            };
            assert!(text.contains("--checkpoint-dir"));
        }
    }

    #[test]
    fn checkpoint_flag_errors_are_typed() {
        // Cadence of zero.
        let dir = temp_dir("cli_ckpt_zero");
        let out = temp("cli_ckpt_zero_out.json");
        let err = run(&parse_args(&args(&[
            "gen-dataset",
            "--out",
            &out,
            "--samples",
            "2",
            "--horizon",
            "100",
            "--checkpoint-dir",
            &dir,
            "--checkpoint-every",
            "0",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(matches!(err, CliError::Ckpt(CkptError::InvalidCadence)));
        // `--checkpoint-dir` pointing at a regular file.
        let file = temp("cli_ckpt_not_a_dir");
        std::fs::write(&file, b"x").unwrap();
        let err = run(&parse_args(&args(&[
            "gen-dataset",
            "--out",
            &out,
            "--samples",
            "2",
            "--horizon",
            "100",
            "--checkpoint-dir",
            &file,
        ]))
        .unwrap())
        .unwrap_err();
        assert!(matches!(
            err,
            CliError::Ckpt(CkptError::NotADirectory { .. })
        ));
        // `--resume` over an empty directory.
        let err = run(&parse_args(&args(&[
            "gen-dataset",
            "--out",
            &out,
            "--samples",
            "2",
            "--horizon",
            "100",
            "--checkpoint-dir",
            &dir,
            "--resume",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(matches!(
            err,
            CliError::Ckpt(CkptError::NoCheckpoint { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&file);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn gen_dataset_checkpointed_resume_reuses_shards() {
        let dir = temp_dir("cli_gen_resume");
        let out1 = temp("cli_gen_resume_1.json");
        let out2 = temp("cli_gen_resume_2.json");
        let metrics = temp("cli_gen_resume_metrics.json");
        let base = |out: &str| {
            args(&[
                "gen-dataset",
                "--out",
                out,
                "--samples",
                "6",
                "--horizon",
                "120",
                "--seed",
                "9",
                "--checkpoint-dir",
                &dir,
                "--checkpoint-every",
                "4",
            ])
        };
        run(&parse_args(&base(&out1)).unwrap()).unwrap();
        let mut argv = base(&out2);
        argv.push("--resume".into());
        argv.extend(["--metrics-out".into(), metrics.clone()]);
        run(&parse_args(&argv).unwrap()).unwrap();
        // The resumed run reuses every completed shard: identical output,
        // no new checkpoint writes, one resume recorded.
        assert_eq!(
            std::fs::read_to_string(&out1).unwrap(),
            std::fs::read_to_string(&out2).unwrap()
        );
        let snap =
            chainnet_obs::Snapshot::from_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert_eq!(snap.counters["ckpt.resumes"], 1);
        assert_eq!(snap.counters.get("ckpt.writes").copied().unwrap_or(0), 0);
        for p in [&out1, &out2, &metrics] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn train_checkpointed_matches_plain_run() {
        let data = temp("cli_train_ckpt_data.json");
        let plain = temp("cli_train_plain_model.json");
        let ckpt = temp("cli_train_ckpt_model.json");
        let dir = temp_dir("cli_train_ckpt");
        run(&parse_args(&args(&[
            "gen-dataset",
            "--out",
            &data,
            "--samples",
            "4",
            "--horizon",
            "120",
        ]))
        .unwrap())
        .unwrap();
        let train = |out: &str, extra: &[&str]| {
            let mut argv = vec![
                "train",
                "--data",
                &data,
                "--out",
                out,
                "--epochs",
                "2",
                "--hidden",
                "8",
                "--iterations",
                "2",
                "--batch",
                "4",
            ];
            argv.extend_from_slice(extra);
            run(&parse_args(&args(&argv)).unwrap()).unwrap()
        };
        // The unclipped guard makes a checkpointed run bit-identical to a
        // plain one, for the per-graph and the packed f32 step alike.
        for dtype in [&[][..], &["--dtype", "f32"][..]] {
            let _ = std::fs::remove_dir_all(&dir);
            train(&plain, dtype);
            let mut extra = dtype.to_vec();
            extra.extend_from_slice(&["--checkpoint-dir", &dir]);
            train(&ckpt, &extra);
            assert_eq!(
                std::fs::read_to_string(&plain).unwrap(),
                std::fs::read_to_string(&ckpt).unwrap(),
                "{dtype:?}"
            );
            assert!(std::path::Path::new(&dir)
                .join("train-00000002.ckpt")
                .exists());
        }
        for p in [&data, &plain, &ckpt] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn optimize_checkpointed_resume_round_trip() {
        let devices = vec![
            Device::new(5.0, 0.3).unwrap(),
            Device::new(30.0, 2.0).unwrap(),
            Device::new(30.0, 2.0).unwrap(),
        ];
        let chains = vec![ServiceChain::new(
            1.0,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
            ],
        )
        .unwrap()];
        let problem = PlacementProblem::new(devices, chains).unwrap();
        let path = temp("cli_opt_ckpt_problem.json");
        let dir = temp_dir("cli_opt_ckpt");
        std::fs::write(&path, serde_json::to_string(&problem).unwrap()).unwrap();
        let argv = |extra: &[&str]| {
            let mut v = vec![
                "optimize",
                "--problem",
                &path,
                "--steps",
                "10",
                "--trials",
                "1",
                "--horizon",
                "300",
                "--checkpoint-dir",
                &dir,
                "--checkpoint-every",
                "4",
            ];
            v.extend_from_slice(extra);
            args(&v)
        };
        let full = run(&parse_args(&argv(&[])).unwrap()).unwrap();
        // Resuming a finished search replays the stored result: same best
        // placement, same cumulative evaluation count (nothing re-run).
        let resumed = run(&parse_args(&argv(&["--resume"])).unwrap()).unwrap();
        let line = |msg: &str, prefix: &str| {
            msg.lines()
                .find(|l| l.starts_with(prefix))
                .map(str::to_owned)
                .unwrap()
        };
        assert_eq!(
            line(&full, "best placement:"),
            line(&resumed, "best placement:")
        );
        let evals = |msg: &str| {
            line(msg, "search:")
                .split_whitespace()
                .nth(1)
                .unwrap()
                .to_owned()
        };
        assert_eq!(evals(&full), evals(&resumed));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
