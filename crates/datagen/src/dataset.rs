//! Dataset construction: simulate randomly generated systems to label
//! placement graphs with ground-truth throughput and latency.
//!
//! The paper's dataset is 70,000 JMT simulations (a week on ten
//! machines); this builder produces the same kind of samples at a
//! configurable scale, in parallel across threads.

use crate::typesets::{NetworkGenerator, NetworkParams};
use chainnet::config::FeatureMode;
use chainnet::data::{ChainTargets, LabeledGraph};
use chainnet::graph::PlacementGraph;
use chainnet_obs::Obs;
use chainnet_qsim::approx::{solve, ApproxConfig};
use chainnet_qsim::model::SystemModel;
use chainnet_qsim::sim::{SimConfig, Simulator};

use crate::error::DatagenError;
use chainnet_ckpt::{CkptError, CkptStore};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Telemetry record emitted once per generation run on the `datagen`
/// component.
#[derive(Debug, Clone, Copy, Serialize)]
struct DatagenRunEvent {
    kind: &'static str,
    samples: usize,
    errors: u64,
    sim_horizon: f64,
    seed: u64,
    wall_seconds: f64,
}

/// A simulated sample before any feature mode is chosen: the system plus
/// its measured per-chain performance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawSample {
    /// The simulated system (devices, chains, placement).
    pub model: SystemModel,
    /// Ground-truth targets per chain.
    pub targets: Vec<ChainTargets>,
}

impl RawSample {
    /// Build the labeled graph under a feature mode. Raw samples are kept
    /// mode-agnostic so the ablation study can reuse one simulation run
    /// for every variant.
    pub fn to_labeled(&self, mode: FeatureMode) -> LabeledGraph {
        LabeledGraph {
            graph: PlacementGraph::from_model(&self.model, mode),
            targets: self.targets.clone(),
        }
    }
}

/// Where ground-truth labels come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LabelSource {
    /// Discrete-event simulation (the paper's ground truth).
    #[default]
    Simulation,
    /// The fixed-point decomposition approximation — orders of magnitude
    /// cheaper, systematically biased on coupled multi-chain systems.
    /// Used by the label-quality study (`bench --bin label_quality`).
    Decomposition,
}

/// Configuration for dataset generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Number of samples to generate.
    pub samples: usize,
    /// Simulation horizon per sample (time units).
    pub sim_horizon: f64,
    /// Base RNG seed; sample `i` uses `seed + i` for both topology and
    /// simulation.
    pub seed: u64,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Label source (simulation by default).
    #[serde(default)]
    pub labels: LabelSource,
}

impl DatasetConfig {
    /// A configuration generating `samples` samples with a moderate
    /// simulation horizon.
    pub fn new(samples: usize, seed: u64) -> Self {
        Self {
            samples,
            sim_horizon: 2_000.0,
            seed,
            threads: 0,
            labels: LabelSource::default(),
        }
    }

    /// Override the horizon (builder-style).
    #[must_use]
    pub fn with_horizon(mut self, horizon: f64) -> Self {
        self.sim_horizon = horizon;
        self
    }

    /// Override the thread count (builder-style).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Override the label source (builder-style).
    #[must_use]
    pub fn with_labels(mut self, labels: LabelSource) -> Self {
        self.labels = labels;
        self
    }
}

/// Generate `config.samples` raw samples from `params`, simulating each
/// generated system once. Parallelized with scoped threads.
///
/// # Errors
///
/// Propagates generation or simulation errors from any worker.
pub fn generate_raw_dataset(
    params: NetworkParams,
    config: &DatasetConfig,
) -> Result<Vec<RawSample>, DatagenError> {
    generate_raw_dataset_observed(params, config, &Obs::disabled())
}

/// [`generate_raw_dataset`] with pipeline telemetry recorded into `obs`:
/// `datagen.samples_generated` / `datagen.sample_errors` counters (updated
/// live from the worker threads), a `datagen.samples_per_sec` gauge, and one
/// `datagen_run` event when the run completes.
///
/// # Errors
///
/// Propagates generation or simulation errors from any worker.
pub fn generate_raw_dataset_observed(
    params: NetworkParams,
    config: &DatasetConfig,
    obs: &Obs,
) -> Result<Vec<RawSample>, DatagenError> {
    let start = Instant::now();
    let sample_counter = obs
        .is_enabled()
        .then(|| obs.registry.counter("datagen.samples_generated"));
    let error_counter = obs
        .is_enabled()
        .then(|| obs.registry.counter("datagen.sample_errors"));
    let generator = NetworkGenerator::new(params);
    let threads = if config.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        config.threads
    };
    let results: Mutex<Vec<Option<RawSample>>> = Mutex::new(vec![None; config.samples]);
    let next: Mutex<usize> = Mutex::new(0);
    let first_error: Mutex<Option<chainnet_qsim::QsimError>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = {
                    let mut n = next.lock();
                    if *n >= config.samples {
                        return;
                    }
                    let i = *n;
                    *n += 1;
                    i
                };
                let seed = config.seed.wrapping_add(i as u64);
                let _sample_span = obs.tracer.span("datagen.sample");
                let outcome = generator.generate(seed).and_then(|model| {
                    let targets = match config.labels {
                        LabelSource::Simulation => {
                            let sim_cfg = SimConfig::new(config.sim_horizon, seed);
                            let res = Simulator::new().run(&model, &sim_cfg)?;
                            res.chains
                                .iter()
                                .map(|c| ChainTargets {
                                    throughput: c.throughput,
                                    latency: c.mean_latency,
                                })
                                .collect()
                        }
                        LabelSource::Decomposition => {
                            let res = solve(&model, &ApproxConfig::default());
                            res.chains
                                .iter()
                                .map(|c| ChainTargets {
                                    throughput: c.throughput,
                                    latency: c.latency,
                                })
                                .collect()
                        }
                    };
                    Ok(RawSample { model, targets })
                });
                match outcome {
                    Ok(sample) => {
                        if let Some(c) = &sample_counter {
                            c.inc();
                        }
                        results.lock()[i] = Some(sample);
                    }
                    Err(e) => {
                        if let Some(c) = &error_counter {
                            c.inc();
                        }
                        let mut slot = first_error.lock();
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        return;
                    }
                }
            });
        }
    });

    if obs.is_enabled() {
        let wall = start.elapsed().as_secs_f64();
        let generated = sample_counter.as_ref().map_or(0, |c| c.get());
        let errors = error_counter.as_ref().map_or(0, |c| c.get());
        if wall > 0.0 {
            obs.registry
                .gauge("datagen.samples_per_sec")
                .set(generated as f64 / wall);
        }
        obs.events.emit(
            "datagen",
            &DatagenRunEvent {
                kind: "datagen_run",
                samples: config.samples,
                errors,
                sim_horizon: config.sim_horizon,
                seed: config.seed,
                wall_seconds: wall,
            },
        );
    }
    if let Some(e) = first_error.into_inner() {
        return Err(e.into());
    }
    // No worker errored, so every slot must have been filled; guard
    // against early worker termination anyway instead of panicking.
    let slots = results.into_inner();
    let missing = slots.iter().filter(|s| s.is_none()).count();
    if missing > 0 {
        return Err(DatagenError::Incomplete { missing });
    }
    Ok(slots.into_iter().flatten().collect())
}

/// Schema version of serialized [`ShardCheckpoint`] payloads; bump on
/// any layout change so stale shards are regenerated instead of misread.
pub const DATAGEN_CKPT_SCHEMA: u32 = 1;

/// One completed shard of a sharded generation sweep: the contiguous
/// sample range `[start, start + samples.len())` of the full dataset.
/// Because sample `i` is seeded `config.seed + i` independently of its
/// neighbours, a shard regenerates bit-identically in isolation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardCheckpoint {
    /// Network generator parameters of the sweep (must match at resume).
    pub params: NetworkParams,
    /// Full-sweep configuration (must match at resume, thread count
    /// excepted — generation is thread-count invariant).
    pub config: DatasetConfig,
    /// Global index of the shard's first sample.
    pub start: usize,
    /// The shard's simulated samples.
    pub samples: Vec<RawSample>,
}

/// Whether two configurations describe the same sweep. The thread count
/// is an execution detail: generation is deterministic across thread
/// counts, so resuming on a different machine layout is fine.
fn same_sweep(a: &DatasetConfig, b: &DatasetConfig) -> bool {
    a.samples == b.samples
        && a.sim_horizon == b.sim_horizon
        && a.seed == b.seed
        && a.labels == b.labels
}

/// [`generate_raw_dataset_observed`] split into shards of `shard_size`
/// samples, each persisted to `store` as soon as it completes (shard
/// `s` is checkpoint sequence `s + 1`). A sweep killed partway and
/// rerun with `resume = true` loads every verified completed shard
/// from disk and only simulates the rest; corrupt or stale shard files
/// are quarantined/ignored and regenerated bit-identically, because
/// sample `i` depends only on `config.seed + i`.
///
/// # Errors
///
/// [`CkptError::InvalidCadence`] when `shard_size == 0`;
/// [`CkptError::NoCheckpoint`] when `resume` is set but `store` holds
/// no shards at all; [`CkptError::ResumeMismatch`] when a stored shard
/// belongs to a different sweep (params, seed, horizon, sample count,
/// or label source differ); plus any generation or I/O failure.
pub fn generate_raw_dataset_sharded_observed(
    params: NetworkParams,
    config: &DatasetConfig,
    shard_size: usize,
    store: &CkptStore,
    resume: bool,
    obs: &Obs,
) -> Result<Vec<RawSample>, DatagenError> {
    if shard_size == 0 {
        return Err(DatagenError::Checkpoint(CkptError::InvalidCadence));
    }
    if resume {
        if store.list()?.is_empty() {
            return Err(DatagenError::Checkpoint(CkptError::NoCheckpoint {
                dir: store.dir().to_path_buf(),
            }));
        }
        store.note_resume();
    }
    let num_shards = config.samples.div_ceil(shard_size);
    let mut all = Vec::with_capacity(config.samples);
    for shard in 0..num_shards {
        // Cooperative cancellation at the shard boundary: everything
        // generated so far is already durable, so stopping here loses
        // no work — the typed error tells the caller to resume later.
        if obs.cancel.is_set() {
            return Err(DatagenError::Interrupted {
                shards_done: shard,
                shards_total: num_shards,
            });
        }
        let start = shard * shard_size;
        let len = shard_size.min(config.samples - start);
        let seq = shard as u64 + 1;
        if resume {
            if let Some(ck) = store.load_state::<ShardCheckpoint>(seq)? {
                if ck.params != params || !same_sweep(&ck.config, config) {
                    return Err(DatagenError::Checkpoint(CkptError::ResumeMismatch {
                        reason: format!(
                            "stored shard {shard} belongs to a different generation sweep"
                        ),
                    }));
                }
                if ck.start == start && ck.samples.len() == len {
                    all.extend(ck.samples);
                    continue;
                }
                // Same sweep but a different shard layout (the shard
                // size changed): fall through and regenerate this range.
            }
        }
        let sub = DatasetConfig {
            samples: len,
            seed: config.seed.wrapping_add(start as u64),
            ..*config
        };
        let shard_span = obs.tracer.span("datagen.shard");
        let samples = generate_raw_dataset_observed(params, &sub, obs)?;
        shard_span.close();
        let ck = ShardCheckpoint {
            params,
            config: *config,
            start,
            samples,
        };
        store.save_state(seq, &ck)?;
        all.extend(ck.samples);
    }
    Ok(all)
}

/// Convert raw samples into labeled graphs under one feature mode.
pub fn to_labeled(samples: &[RawSample], mode: FeatureMode) -> Vec<LabeledGraph> {
    samples.iter().map(|s| s.to_labeled(mode)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_sample_count() {
        let cfg = DatasetConfig::new(8, 1).with_horizon(300.0).with_threads(2);
        let samples = generate_raw_dataset(NetworkParams::type_i(), &cfg).unwrap();
        assert_eq!(samples.len(), 8);
        for s in &samples {
            assert_eq!(s.targets.len(), s.model.chains().len());
            for t in &s.targets {
                assert!(t.throughput >= 0.0);
                assert!(t.latency >= 0.0);
            }
        }
    }

    #[test]
    fn observed_generation_matches_plain_and_counts_samples() {
        let cfg = DatasetConfig::new(6, 5).with_horizon(200.0).with_threads(2);
        let plain = generate_raw_dataset(NetworkParams::type_i(), &cfg).unwrap();
        let obs = Obs::enabled();
        let observed = generate_raw_dataset_observed(NetworkParams::type_i(), &cfg, &obs).unwrap();
        assert_eq!(plain, observed);
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counters["datagen.samples_generated"], 6);
        assert_eq!(snap.counters["datagen.sample_errors"], 0);
        assert!(snap.gauges["datagen.samples_per_sec"] > 0.0);
    }

    #[test]
    fn generation_is_deterministic_across_thread_counts() {
        let base = DatasetConfig::new(6, 7).with_horizon(200.0);
        let a = generate_raw_dataset(NetworkParams::type_i(), &base.with_threads(1)).unwrap();
        let b = generate_raw_dataset(NetworkParams::type_i(), &base.with_threads(4)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn labeled_graphs_align_with_targets() {
        let cfg = DatasetConfig::new(3, 2).with_horizon(200.0).with_threads(1);
        let samples = generate_raw_dataset(NetworkParams::type_i(), &cfg).unwrap();
        let labeled = to_labeled(&samples, FeatureMode::Modified);
        for l in &labeled {
            assert_eq!(l.graph.num_chains(), l.targets.len());
        }
    }

    #[test]
    fn raw_samples_round_trip_through_json() {
        let cfg = DatasetConfig::new(2, 3).with_horizon(150.0).with_threads(1);
        let samples = generate_raw_dataset(NetworkParams::type_i(), &cfg).unwrap();
        let json = serde_json::to_string(&samples).unwrap();
        let back: Vec<RawSample> = serde_json::from_str(&json).unwrap();
        assert_eq!(samples, back);
    }

    /// A fresh (removed-if-present) per-process temp dir for shards.
    fn ckpt_tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "chainnet-datagen-ckpt-{}-{}",
            tag,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A sharded Type I sweep without telemetry.
    fn sharded_type_i(
        cfg: &DatasetConfig,
        shard_size: usize,
        store: &CkptStore,
        resume: bool,
    ) -> Result<Vec<RawSample>, DatagenError> {
        let (params, obs) = (NetworkParams::type_i(), Obs::disabled());
        generate_raw_dataset_sharded_observed(params, cfg, shard_size, store, resume, &obs)
    }

    #[test]
    fn sharded_generation_matches_unsharded() {
        let cfg = DatasetConfig::new(10, 21)
            .with_horizon(200.0)
            .with_threads(2);
        let plain = generate_raw_dataset(NetworkParams::type_i(), &cfg).unwrap();
        let dir = ckpt_tmp_dir("plain");
        let store = CkptStore::open(&dir, "shard", DATAGEN_CKPT_SCHEMA).unwrap();
        let sharded = sharded_type_i(&cfg, 4, &store, false).unwrap();
        assert_eq!(plain, sharded);
        assert_eq!(store.list().unwrap(), vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_sweep_skips_completed_shards() {
        let cfg = DatasetConfig::new(10, 23)
            .with_horizon(200.0)
            .with_threads(2);
        let dir_full = ckpt_tmp_dir("skip-full");
        let full_store = CkptStore::open(&dir_full, "shard", DATAGEN_CKPT_SCHEMA).unwrap();
        let full = sharded_type_i(&cfg, 4, &full_store, false).unwrap();

        // A kill after two shards leaves exactly those files behind.
        let dir_cut = ckpt_tmp_dir("skip-cut");
        let obs = Obs::enabled();
        let cut_store =
            CkptStore::open_observed(&dir_cut, "shard", DATAGEN_CKPT_SCHEMA, &obs).unwrap();
        for seq in [1, 2] {
            std::fs::copy(full_store.path_of(seq), cut_store.path_of(seq)).unwrap();
        }
        let resumed = generate_raw_dataset_sharded_observed(
            NetworkParams::type_i(),
            &cfg,
            4,
            &cut_store,
            true,
            &obs,
        )
        .unwrap();
        assert_eq!(full, resumed);
        // Only the missing third shard (2 samples) was simulated; the
        // first 8 samples were loaded from disk.
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counters["datagen.samples_generated"], 2);
        assert_eq!(snap.counters["ckpt.writes"], 1);
        assert_eq!(snap.counters["ckpt.resumes"], 1);
        let _ = std::fs::remove_dir_all(&dir_full);
        let _ = std::fs::remove_dir_all(&dir_cut);
    }

    #[test]
    fn corrupt_shard_is_quarantined_and_regenerated() {
        let cfg = DatasetConfig::new(6, 27)
            .with_horizon(150.0)
            .with_threads(2);
        let dir = ckpt_tmp_dir("corrupt");
        let store = CkptStore::open(&dir, "shard", DATAGEN_CKPT_SCHEMA).unwrap();
        let full = sharded_type_i(&cfg, 3, &store, false).unwrap();
        // Flip one payload bit in shard 1.
        let path = store.path_of(1);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();

        let resumed = sharded_type_i(&cfg, 3, &store, true).unwrap();
        assert_eq!(full, resumed);
        assert!(
            dir.join("shard-00000001.ckpt.corrupt").exists(),
            "corrupt shard not quarantined"
        );
        // The regenerated shard at the original path verifies cleanly.
        let reloaded = store.load_state::<ShardCheckpoint>(1).unwrap().unwrap();
        assert_eq!(reloaded.samples[..], full[..3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_resume_errors_are_typed() {
        let cfg = DatasetConfig::new(4, 31)
            .with_horizon(150.0)
            .with_threads(1);
        let dir = ckpt_tmp_dir("typed");
        let store = CkptStore::open(&dir, "shard", DATAGEN_CKPT_SCHEMA).unwrap();
        // Zero shard size.
        let err = sharded_type_i(&cfg, 0, &store, false).unwrap_err();
        assert_eq!(err, DatagenError::Checkpoint(CkptError::InvalidCadence));
        // Resume with no shards on disk.
        let err = sharded_type_i(&cfg, 2, &store, true).unwrap_err();
        assert!(matches!(
            err,
            DatagenError::Checkpoint(CkptError::NoCheckpoint { .. })
        ));
        // Resume of a different sweep (changed seed).
        sharded_type_i(&cfg, 2, &store, false).unwrap();
        let other = DatasetConfig::new(4, 32)
            .with_horizon(150.0)
            .with_threads(1);
        let err = sharded_type_i(&other, 2, &store, true).unwrap_err();
        assert!(matches!(
            err,
            DatagenError::Checkpoint(CkptError::ResumeMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decomposition_labels_are_fast_and_bounded() {
        let cfg = DatasetConfig::new(6, 9)
            .with_threads(2)
            .with_labels(LabelSource::Decomposition);
        let samples = generate_raw_dataset(NetworkParams::type_i(), &cfg).unwrap();
        assert_eq!(samples.len(), 6);
        for s in &samples {
            for (c, t) in s.model.chains().iter().zip(&s.targets) {
                assert!(t.throughput <= c.arrival_rate + 1e-9);
                assert!(t.latency >= 0.0);
            }
        }
    }

    #[test]
    fn throughput_targets_bounded_by_arrival_rates() {
        let cfg = DatasetConfig::new(5, 4).with_horizon(500.0).with_threads(2);
        let samples = generate_raw_dataset(NetworkParams::type_i(), &cfg).unwrap();
        for s in &samples {
            for (c, t) in s.model.chains().iter().zip(&s.targets) {
                assert!(t.throughput <= c.arrival_rate * 1.3 + 0.05);
            }
        }
    }
}
