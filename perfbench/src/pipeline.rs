//! The `pipeline` workload: the offline path through the library's
//! public functions, then an in-process serving stage with the
//! freshly trained model.
//!
//! One instance, seeded from the workload seed and its index:
//! `generate_raw_dataset` (Type I training set, Type II held-out set) →
//! `to_labeled` → `Trainer::train_batched::<f32>` at the CLI default
//! shape → throughput MAPE on the held-out set →
//! `SimulatedAnnealing::optimize_neighborhood` with a `GnnEvaluator`
//! (k = 8) on the Section VIII-D case study → `Simulator::run` on the
//! result → `Engine::handle` for 100 `Place` requests. The run repeats
//! instances until its time is up.
//!
//! The first [`QUALITY_INSTANCES`] instances always run and train on a
//! fixed fixture (seeds derived from [`FIXTURE_SEED`], not from the
//! workload seed); the held-out set is a fixed fixture too. At this
//! training budget a model's answer quality varies more from one
//! training draw to the next than any regression worth catching, so the
//! quality metrics come from these fixed instances and are a property of
//! the code alone. Later instances draw their data from the workload
//! seed and count towards the timing metrics only.

use crate::client::{cpu_seconds, peak_rss_mb};
use crate::common::{
    check_installed, install, request, secs, store_engine, Ctx, Resim, TimedEval, RESIM_HORIZON,
    RESIM_SEED,
};
use crate::schedule::sub_seed;
use crate::spans::Recorder;
use crate::stats::{hd_quantile, median, Tally};
use crate::{Report, Traced};
use chainnet::config::{ModelConfig, TrainConfig};
use chainnet::model::ChainNet;
use chainnet::train::Trainer;
use chainnet_datagen::dataset::generate_raw_dataset_observed;
use chainnet_datagen::{case_study_problem, to_labeled};
use chainnet_datagen::{DatasetConfig, NetworkParams};
use chainnet_obs::Obs;
use chainnet_placement::evaluator::GnnEvaluator;
use chainnet_placement::problem::PlacementProblem;
use chainnet_placement::sa::{SaConfig, SimulatedAnnealing};
use chainnet_qsim::sim::{SimConfig, Simulator};
use chainnet_serve::protocol::{DegradationLevel, Outcome, RequestBody};
use std::time::{Duration, Instant};

/// Stage sizes of one instance.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Type I training samples.
    pub train_samples: usize,
    /// Type II held-out samples.
    pub test_samples: usize,
    /// Simulation horizon of every labelled sample.
    pub horizon: f64,
    /// Training epochs.
    pub epochs: usize,
    /// SA steps (one trial, k = 8 candidates per step).
    pub sa_steps: usize,
    /// `Place` requests served in-process with the trained model.
    pub places: usize,
}

/// The measured instance. The serving stage takes about half of an
/// instance's time, so the `Place` latencies sample the whole run rather
/// than a few short stretches of it (the host's speed drifts from one
/// second to the next), and each stage alone has the ten samples beyond
/// its p90 that the percentile needs.
pub const SIZES: Sizes = Sizes {
    train_samples: 64,
    test_samples: 48,
    horizon: 1_000.0,
    epochs: 40,
    sa_steps: 30,
    places: 100,
};

/// The warm-up instance run during set-up: every stage, tiny inputs.
const WARMUP: Sizes = Sizes {
    train_samples: 8,
    test_samples: 2,
    horizon: 200.0,
    epochs: 1,
    sa_steps: 2,
    places: 1,
};

/// Instances that always run; quality metrics average over these.
pub const QUALITY_INSTANCES: usize = 2;
/// Instances every run makes: the quality instances and two on data
/// drawn from the workload seed. Each serving stage samples the host's
/// speed over a few seconds; the run's latency figures average at least
/// four of them.
const MIN_INSTANCES: usize = QUALITY_INSTANCES + 2;
/// Seed of the fixed quality fixture (training sets of the quality
/// instances and the held-out set).
pub const FIXTURE_SEED: u64 = 0x00c4_a1e7;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of each instance's wall time its stage spans must cover.
const MIN_COVERAGE: f64 = 0.95;
/// The CLI's default training batch.
const BATCH: usize = 32;
/// Learning rate: with the CLI's 1e-3, 40 epochs of 64 samples leave
/// the model far from converged and its answers vary widely by seed.
const LEARNING_RATE: f64 = 3e-3;
/// Neighborhood size of the SA stage.
const K: usize = 8;

/// What one instance measured.
#[derive(Debug, Default)]
pub struct Instance {
    /// Wall time of the whole instance.
    pub wall: Duration,
    /// CPU time of this process during the instance.
    pub cpu: f64,
    /// Held-out throughput MAPE, percent.
    pub mape_pct: f64,
    /// Simulated loss of every placement produced (SA result, answers).
    pub losses: Vec<f64>,
    /// In-process `Place` handling times, milliseconds.
    pub place_ms: Vec<f64>,
    /// Time spent handling `Place` requests.
    pub serve_busy: Duration,
    /// Evaluations reported by each `Placed` answer.
    pub evals: Vec<u64>,
    /// Answers not from the full-search rung.
    pub degraded: usize,
    /// Outcome checks.
    pub tally: Tally,
    /// Data generation time and samples.
    pub datagen: (Duration, usize),
    /// Training time and samples processed (samples × epochs).
    pub train: (Duration, usize),
    /// SA time, time inside the evaluator, evaluations.
    pub sa: (Duration, Duration, u64),
    /// Verification simulation time and events.
    pub sim: (Duration, u64),
}

fn model_config() -> ModelConfig {
    let mut cfg = ModelConfig::paper_chainnet();
    cfg.hidden = 32;
    cfg.iterations = 4;
    cfg
}

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Run one instance with seed `seed`.
pub fn instance(
    ctx: &Ctx,
    rec: &mut Recorder,
    sizes: Sizes,
    seed: u64,
    resim: &mut Resim,
) -> Result<Instance, String> {
    let obs = rec.obs();
    let cpu0 = cpu_seconds(std::process::id());
    let t0 = Instant::now();
    let mut out = Instance::default();
    let problem = case_study_problem().map_err(|e| e.to_string())?;
    let answers = rec.span("bench:pipeline", None, |rec| -> Result<_, String> {
        let t = Instant::now();
        let (train_raw, test_raw) = rec.span("datagen:generate_raw_dataset", None, |_| {
            let train_cfg = DatasetConfig::new(sizes.train_samples, seed)
                .with_horizon(sizes.horizon)
                .with_threads(threads());
            let test_cfg = DatasetConfig::new(sizes.test_samples, sub_seed(FIXTURE_SEED, 11))
                .with_horizon(sizes.horizon)
                .with_threads(threads());
            let train = generate_raw_dataset_observed(NetworkParams::type_i(), &train_cfg, &obs);
            let test = generate_raw_dataset_observed(NetworkParams::type_ii(), &test_cfg, &obs);
            (train, test)
        });
        let (train_raw, test_raw) = (
            train_raw.map_err(|e| format!("datagen: {e}"))?,
            test_raw.map_err(|e| format!("datagen: {e}"))?,
        );
        out.datagen = (t.elapsed(), train_raw.len() + test_raw.len());

        let mode = model_config().feature_mode;
        let (train, test) = rec.span("core:to_labeled", None, |_| {
            (to_labeled(&train_raw, mode), to_labeled(&test_raw, mode))
        });

        let trainer = Trainer::new(TrainConfig {
            epochs: sizes.epochs,
            batch_size: BATCH,
            learning_rate: LEARNING_RATE,
            lr_decay: 0.9,
            lr_decay_period: 10,
            seed,
        });
        let mut model = ChainNet::new(model_config(), seed);
        let t = Instant::now();
        let report = rec.span("core:train_batched", None, |_| {
            trainer.train_batched::<f32>(&mut model, &train, None, &obs)
        });
        out.train = (t.elapsed(), train.len() * sizes.epochs);
        let final_loss = report.final_train_loss().unwrap_or(f64::NAN);
        out.tally.record(final_loss.is_finite());

        let apes = rec.span("core:evaluate_ape", None, |_| {
            trainer.evaluate_ape(&model, &test)
        });
        out.mape_pct = 100.0 * apes.summaries().0.map_or(f64::NAN, |s| s.mape);
        out.tally.record(out.mape_pct.is_finite());

        let initial = problem.initial_placement().map_err(|e| e.to_string())?;
        let sa = SimulatedAnnealing::new(
            SaConfig::paper_default()
                .with_max_steps(sizes.sa_steps)
                .with_seed(seed),
        );
        let mut ev = TimedEval::new(GnnEvaluator::new(model.clone()), false);
        let t = Instant::now();
        let result = rec.span("placement:optimize_neighborhood", None, |_| {
            sa.optimize_neighborhood_observed(&problem, &initial, &mut ev, 1, K, &obs)
        });
        out.sa = (t.elapsed(), ev.busy, result.evaluations);
        let sa_ok =
            result.best_objective.is_finite() && problem.is_feasible(&result.best_placement);
        out.tally.record(sa_ok);

        let t = Instant::now();
        let verified = rec.span("qsim:run", None, |_| {
            let sys = problem.bind(result.best_placement.clone()).ok()?;
            Simulator::new()
                .run_observed(&sys, &SimConfig::new(RESIM_HORIZON, RESIM_SEED), &obs)
                .ok()
        });
        out.sim.0 = t.elapsed();
        match verified {
            Some(res) if res.loss_probability.is_finite() => {
                out.sim.1 = res.events;
                out.losses.push(res.loss_probability);
                out.tally.record(true);
            }
            _ => out.tally.record(false),
        }

        serve_stage(
            ctx,
            rec,
            &problem,
            model,
            sizes.places,
            seed,
            &obs,
            &mut out,
        )
    })?;
    out.wall = t0.elapsed();
    out.cpu = cpu_seconds(std::process::id()) - cpu0;

    // Untimed: the answer-quality re-simulation of every answer.
    for placement in &answers {
        match resim.quality(0, &problem, placement) {
            Some(q) => out.losses.push(q.loss),
            None => out.tally.record(false),
        }
    }
    Ok(out)
}

/// Serve `places` requests in-process with the freshly trained model and
/// a checkpoint store; returns the answered placements.
#[allow(clippy::too_many_arguments)]
fn serve_stage(
    ctx: &Ctx,
    rec: &mut Recorder,
    problem: &PlacementProblem,
    model: ChainNet,
    places: usize,
    seed: u64,
    obs: &Obs,
    out: &mut Instance,
) -> Result<Vec<chainnet_qsim::model::Placement>, String> {
    let dir = ctx.work.join(format!("pipeline-serve-{seed}"));
    let mut engine = store_engine(&dir, model, obs.clone())?;
    let resp = rec.span("serve:engine_handle", Some(0), |_| {
        engine.handle(&install(0, problem), Instant::now())
    });
    check_installed(&resp)?;
    let mut answers = Vec::new();
    for id in 1..=places as u64 {
        let req = request(id, RequestBody::Place { hint: None });
        let t = Instant::now();
        let resp = rec.span("serve:engine_handle", Some(id), |_| engine.handle(&req, t));
        let took = t.elapsed();
        out.serve_busy += took;
        match resp.outcome {
            Outcome::Placed {
                placement,
                objective,
                degradation,
                evaluations,
                ..
            } => {
                let ok = resp.id == id && objective.is_finite() && problem.is_feasible(&placement);
                out.tally.record(ok);
                out.place_ms.push(took.as_secs_f64() * 1e3);
                out.evals.push(evaluations);
                if degradation != DegradationLevel::FullSearch {
                    out.degraded += 1;
                }
                answers.push(placement);
            }
            _ => out.tally.record(false),
        }
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(answers)
}

/// Seed of instance `i`: the fixture for quality instances, the
/// workload seed after them.
fn instance_seed(ctx: &Ctx, i: usize) -> u64 {
    if i < QUALITY_INSTANCES {
        sub_seed(FIXTURE_SEED, i as u64)
    } else {
        sub_seed(ctx.seed, i as u64)
    }
}

/// The `pipeline` workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut resim = Resim::default();
    let mut setups = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let t = Instant::now();
        let mut quiet = Recorder::new(false);
        let warm = instance(
            ctx,
            &mut quiet,
            WARMUP,
            sub_seed(ctx.seed, 100 + i as u64),
            &mut resim,
        )?;
        setups.push(secs(t.elapsed()));
        if warm.tally.failed > 0 {
            return Err("warm-up instance failed its checks".into());
        }
    }
    let mut resim = Resim::default();

    let mut rec = Recorder::new(ctx.trace);
    let mut instances = Vec::new();
    let mut overhead = f64::NAN;
    if ctx.trace {
        // The first quality instance once without tracing, for
        // obs.trace_overhead_frac.
        let mut quiet = Recorder::new(false);
        let plain = instance(
            ctx,
            &mut quiet,
            SIZES,
            instance_seed(ctx, 0),
            &mut Resim::default(),
        )?;
        let traced = instance(ctx, &mut rec, SIZES, instance_seed(ctx, 0), &mut resim)?;
        overhead = (secs(traced.wall) - secs(plain.wall)) / secs(plain.wall);
        instances.push(traced);
    }
    let budget = Duration::from_secs_f64(ctx.seconds);
    let started = Instant::now();
    let mut i = instances.len();
    while i < MIN_INSTANCES || started.elapsed() + instances[0].wall <= budget {
        instances.push(instance(
            ctx,
            &mut rec,
            SIZES,
            instance_seed(ctx, i),
            &mut resim,
        )?);
        i += 1;
    }

    let mut tally = Tally::default();
    for inst in &instances {
        tally.merge(inst.tally);
    }
    let quality = &instances[..QUALITY_INSTANCES];
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let losses: Vec<f64> = quality.iter().flat_map(|q| q.losses.clone()).collect();
    let mapes: Vec<f64> = quality.iter().map(|q| q.mape_pct).collect();
    let place_ms: Vec<f64> = instances.iter().flat_map(|q| q.place_ms.clone()).collect();
    let walls: Vec<f64> = instances.iter().map(|q| secs(q.wall)).collect();
    let cpus: Vec<f64> = instances.iter().map(|q| q.cpu).collect();
    let served: usize = instances.iter().map(|q| q.place_ms.len()).sum();
    let serve_busy: f64 = instances.iter().map(|q| secs(q.serve_busy)).sum();

    let mut r = Report::new(tally);
    r.table(format!(
        "pipeline: {} instances ({} train + {} held-out samples, {} epochs, {} SA steps x k={K}, {} places)",
        instances.len(),
        SIZES.train_samples,
        SIZES.test_samples,
        SIZES.epochs,
        SIZES.sa_steps,
        SIZES.places
    ));
    for (i, q) in instances.iter().enumerate() {
        r.table(format!(
            "instance {i}: {:.2} s, held-out MAPE {:.1} %, SA result loss {:.3}, answers' mean loss {:.3}, Place p50 {:.1} ms, p90 {:.1} ms",
            secs(q.wall),
            q.mape_pct,
            q.losses.first().copied().unwrap_or(f64::NAN),
            mean(q.losses.get(1..).unwrap_or(&[])),
            hd_quantile(&q.place_ms, 0.5),
            hd_quantile(&q.place_ms, 0.9)
        ));
    }
    r.e2e("setup_s", median(&setups));
    // Each serving stage's percentile, averaged over the stages: when the
    // host changes speed part-way through a run, a pooled percentile
    // jumps to the slow stages' latencies as soon as they hold its share
    // of the samples (a tenth, for p90), while this moves in proportion
    // to the time spent at each speed.
    let stage_mean = |q: f64| {
        let per_stage: Vec<f64> = instances
            .iter()
            .map(|i| hd_quantile(&i.place_ms, q))
            .collect();
        mean(&per_stage)
    };
    r.e2e("place_p50_ms", stage_mean(0.5));
    r.e2e("place_p90_ms", stage_mean(0.9));
    r.e2e("place_max_rps", served as f64 / serve_busy);
    r.e2e("cpu_ms_per_op", 1e3 * median(&cpus));
    r.e2e("sim_loss", mean(&losses));
    r.e2e("surrogate_mape", mean(&mapes));
    r.e2e("peak_rss_mb", peak_rss_mb(std::process::id()));
    r.extra("pipeline_s", "s", median(&walls));
    r.extra("fail_frac", "ratio", tally.frac());
    r.samples("place per serving stage", SIZES.places);

    if ctx.trace {
        let mut traced = Traced::finish(rec);
        let layers = &mut traced.layers;
        let sum = |f: &dyn Fn(&Instance) -> f64| instances.iter().map(f).sum::<f64>();
        let datagen_s = sum(&|q| secs(q.datagen.0));
        let train_s = sum(&|q| secs(q.train.0));
        let sa_s = sum(&|q| secs(q.sa.0));
        let sa_eval_s = sum(&|q| secs(q.sa.1));
        let sim_s = sum(&|q| secs(q.sim.0)) + secs(resim.busy);
        layers.set(
            "qsim.events_per_s",
            (sum(&|q| q.sim.1 as f64) + resim.events as f64) / sim_s,
        );
        layers.set("datagen.busy_s", datagen_s);
        layers.set(
            "datagen.samples_per_s",
            sum(&|q| q.datagen.1 as f64) / datagen_s,
        );
        layers.set("core.train_busy_s", train_s);
        layers.set(
            "core.train_samples_per_s",
            sum(&|q| q.train.1 as f64) / train_s,
        );
        layers.set("placement.sa_busy_s", sa_s);
        layers.set("placement.sa_evals_per_s", sum(&|q| q.sa.2 as f64) / sa_s);
        layers.set("placement.sa_self_frac", (sa_s - sa_eval_s) / sa_s);
        layers.set("serve.engine_handle_ms", median(&place_ms));
        let evals: Vec<f64> = instances
            .iter()
            .flat_map(|q| q.evals.iter().map(|&e| e as f64))
            .collect();
        layers.set("serve.evals_per_place", mean(&evals));
        layers.set(
            "serve.degraded_frac",
            sum(&|q| q.degraded as f64) / served as f64,
        );
        layers.set("obs.trace_overhead_frac", overhead);
        let coverage = crate::spans::coverage(&traced.spans, "bench:pipeline");
        layers.set("obs.span_coverage_frac", coverage);
        // A span missing around a stage shows as a gap.
        r.tally.record(coverage >= MIN_COVERAGE);
        r.traced = Some(traced);
    }
    Ok(r)
}
