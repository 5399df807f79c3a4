//! The `serve_place` and `serve_churn` workloads: a real `chainnet-serve`
//! daemon over TCP, loaded with the committed ChainNet and the Section
//! VIII-D case study, driven by the open-loop generator.

use crate::client::{cpu_seconds, peak_rss_mb, Daemon, OpenLoopRun};
use crate::common::{
    ape_pct, check_installed, daemon_engine_args, install, request, secs, serving_model,
    store_engine, Ctx, Resim,
};
use crate::schedule::{churn_schedule, poisson_arrivals, sub_seed, FaultState, Op, Scheduled};
use crate::spans::Recorder;
use crate::stats::{backlog_grew, hd_quantile, median, percentile, pooled_capacity, Rung, Tally};
use crate::{Report, Traced};
use chainnet::model::ChainNet;
use chainnet_datagen::case_study_problem;
use chainnet_obs::Snapshot;
use chainnet_placement::problem::PlacementProblem;
use chainnet_qsim::model::Placement;
use chainnet_serve::protocol::{DegradationLevel, Outcome, Request, RequestBody};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The daemon's admission queue is at least this deep, and always deep
/// enough to hold the whole saturation phase, so nothing is shed.
const MIN_QUEUE: usize = 256;
/// `Place` requests each engine answers during set-up. Each answer
/// starts from the last one, so from the greedy initial placement an
/// engine needs about ten answers to settle; measuring before that would
/// make `sim_loss` mostly a record of the first few answers.
const WARM_PLACES_PER_ENGINE: u64 = 20;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;

/// `serve_place` light-load rate (requests per second), about a fifth
/// of the single engine's capacity (16 to 22 per second on a 2-vCPU
/// VM), and the share of the run it gets. `place_p50_ms` and
/// `place_p90_ms` come from it.
const LIGHT_RATE: f64 = 4.0;
const LIGHT_SHARE: f64 = 0.85;
/// `serve_place` and `serve_churn` alternate this many phases of their
/// measured load with as many saturation bursts, so `place_max_rps`
/// samples the host at several moments of the run instead of one.
const PLACE_ROUNDS: usize = 8;
const CHURN_ROUNDS: usize = 3;

/// Saturation bursts measure `place_max_rps`: `Place` requests offered
/// at a rate far above any capacity, so the backlog grows from the first
/// request and the daemon is never idle until the last answer. A run has
/// [`SATURATION_PER_S`] of them per second of its length in all.
const SATURATION_RATE: f64 = 400.0;
const SATURATION_PER_S: f64 = 5.0;

/// The pool's hedging threshold. At the default 150 ms every `Place`
/// queued behind a fault broadcast, and every request of a saturation
/// burst, is copied to the sibling worker, which is blocked by the same
/// broadcast or backlog: on a 2-vCPU VM that cut the burst's answer rate
/// from about 38 to 25-37 requests per second and made each engine's
/// answer sequence, and so `sim_loss`, depend on thread timing. At 5 s no
/// request of this workload waits long enough to be hedged.
const HEDGE_AFTER_MS: &str = "5000";

/// `serve_churn` rates: `Place` requests and fault events per second,
/// and the share of the run they get. Each worker then sees about the
/// load of the single engine in `serve_place`. At 5 requests per second
/// the share of requests that queue behind another was close to a
/// tenth, so `place_p90_ms` sat on the edge of the queued ones and
/// spread by a quarter between seeds; at 8 it lies well inside them.
const CHURN_PLACE_RATE: f64 = 8.0;
const CHURN_FAULT_RATE: f64 = 0.2;
const CHURN_SHARE: f64 = 0.85;
/// `Place` requests of the workload sequence replayed in-process in the
/// traced run (with every fault event among them).
const REPLAY: usize = 40;

/// The first [`REPLAY`] `Place` requests of `schedule` and every fault,
/// in schedule order.
fn replay_prefix(schedule: &[Scheduled]) -> Vec<Scheduled> {
    let mut places = 0;
    schedule
        .iter()
        .filter(|s| match s.op {
            Op::Place => {
                places += 1;
                places <= REPLAY
            }
            Op::Fault(_) => true,
        })
        .cloned()
        .collect()
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
struct Answered {
    op: Op,
    /// Milliseconds from due time to answer; `None` when unanswered.
    latency_ms: Option<f64>,
    /// Milliseconds the generator sent it after its due time.
    late_ms: f64,
    /// Answered exactly once and passed its checks.
    ok: bool,
    placed: Option<Placed>,
}

/// A checked `Placed` answer.
#[derive(Debug, Clone)]
struct Placed {
    placement: Placement,
    objective: f64,
    degradation: DegradationLevel,
    evaluations: u64,
    /// Index of the fault state (topology) it is feasible for.
    topology: usize,
}

fn daemon_args(model: &Path, state: &Path, workers: usize, queue: usize) -> Vec<String> {
    let mut v = daemon_engine_args();
    v.extend([
        "--model".into(),
        model.display().to_string(),
        "--state-dir".into(),
        state.display().to_string(),
        "--queue".into(),
        queue.to_string(),
        "--workers".into(),
        workers.to_string(),
    ]);
    if workers > 0 {
        v.extend(["--hedge-after-ms".into(), HEDGE_AFTER_MS.into()]);
    }
    v
}

/// Spawn, install the topology and warm up; returns the daemon and how
/// long that took.
fn start(
    ctx: &Ctx,
    model: &Path,
    problem: &PlacementProblem,
    d: &DaemonSpec,
    n: usize,
) -> Result<(Daemon, f64), String> {
    let state = ctx.work.join(format!("state-{n}"));
    let log = ctx.work.join(format!("daemon-{n}.log"));
    let t = Instant::now();
    let args = daemon_args(model, &state, d.workers, d.queue);
    let mut daemon = Daemon::spawn(&ctx.serve_bin, &args, &log)?;
    check_installed(&daemon.call(
        1,
        RequestBody::Topology {
            problem: problem.clone(),
        },
    )?)?;
    let warm = WARM_PLACES_PER_ENGINE * d.workers.max(1) as u64;
    for id in 2..2 + warm {
        let resp = daemon.call(id, RequestBody::Place { hint: None })?;
        if !matches!(resp.outcome, Outcome::Placed { .. }) {
            return Err(format!("warm-up place failed: {:?}", resp.outcome));
        }
    }
    Ok((daemon, secs(t.elapsed())))
}

/// How a workload runs the daemon.
struct DaemonSpec {
    /// `--workers`: 0 for a single process, N for a supervised pool.
    workers: usize,
    /// `--queue`.
    queue: usize,
}

/// Start [`SETUPS`] times, keep the last daemon; returns it with the
/// median set-up time.
fn setup(
    ctx: &Ctx,
    model: &Path,
    problem: &PlacementProblem,
    spec: &DaemonSpec,
) -> Result<(Daemon, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for n in 0..SETUPS {
        let (d, s) = start(ctx, model, problem, spec, n)?;
        times.push(s);
        if let Some(prev) = last.replace(d) {
            prev.shutdown(9)?;
        }
    }
    let d = last.ok_or("no daemon")?;
    Ok((d, median(&times)))
}

/// `bursts` saturation bursts that together hold [`SATURATION_PER_S`]
/// requests per second of the run, and the daemon settings that queue
/// all of them without shedding.
fn saturation(
    ctx: &Ctx,
    workers: usize,
    bursts: usize,
    stream: u64,
) -> (Vec<Vec<Scheduled>>, DaemonSpec) {
    let n = (SATURATION_PER_S * ctx.seconds / bursts as f64)
        .round()
        .max(2.0);
    let phases: Vec<Vec<Scheduled>> = (0..bursts)
        .map(|k| {
            places(poisson_arrivals(
                SATURATION_RATE,
                n / SATURATION_RATE,
                sub_seed(ctx.seed, stream + k as u64),
            ))
        })
        .collect();
    let queue = MIN_QUEUE.max(phases.iter().map(Vec::len).sum::<usize>() + 64);
    (phases, DaemonSpec { workers, queue })
}

/// Measured-load phases alternating with saturation bursts.
fn interleave(
    measured: Vec<Vec<Scheduled>>,
    bursts: Vec<Vec<Scheduled>>,
) -> Vec<(Load, Vec<Scheduled>)> {
    measured
        .into_iter()
        .zip(bursts)
        .flat_map(|(m, b)| [(Load::Measured, m), (Load::Saturation, b)])
        .collect()
}

/// `schedule` cut into `parts` consecutive pieces, each with due times
/// counted from its own start. The cuts fall on fault events (the fault
/// opens the next piece), evenly spaced over the faults, so which
/// `Place` requests come before a cut does not depend on the seed; with
/// fewer faults than pieces they fall at even times.
fn split(schedule: &[Scheduled], window: f64, parts: usize) -> Vec<Vec<Scheduled>> {
    let faults: Vec<f64> = schedule
        .iter()
        .filter(|s| matches!(s.op, Op::Fault(_)))
        .map(|s| s.due)
        .collect();
    let cuts: Vec<f64> = (1..parts)
        .map(|k| {
            if faults.len() >= parts {
                faults[k * faults.len() / parts]
            } else {
                k as f64 * window / parts as f64
            }
        })
        .collect();
    let mut out = vec![Vec::new(); parts];
    for s in schedule {
        let k = cuts.partition_point(|&c| c <= s.due);
        let start = if k == 0 { 0.0 } else { cuts[k - 1] };
        out[k].push(Scheduled {
            due: s.due - start,
            op: s.op.clone(),
        });
    }
    out
}

fn places(due: Vec<f64>) -> Vec<Scheduled> {
    due.into_iter()
        .map(|due| Scheduled { due, op: Op::Place })
        .collect()
}

/// Pids of the daemon and, in pool mode, its workers.
fn pids(d: &mut Daemon, id: u64) -> Result<(Vec<u32>, Snapshot), String> {
    match d.stats(id)? {
        Outcome::Stats {
            snapshot, workers, ..
        } => {
            let mut p = vec![d.pid()];
            p.extend(workers.iter().map(|w| w.pid).filter(|&pid| pid != 0));
            Ok((p, snapshot))
        }
        other => Err(format!("Stats answered {other:?}")),
    }
}

/// Classify every scheduled request of an open-loop run. `states[k]` is
/// the effective topology after the first `k` faults of the workload,
/// and `offset` faults came before this run; a `Placed` answer must be
/// feasible for one of the topologies in force between its send and its
/// answer.
fn classify(
    schedule: &[Scheduled],
    run: &OpenLoopRun,
    first_id: u64,
    states: &[PlacementProblem],
    offset: usize,
) -> Vec<Answered> {
    let fault_sent: Vec<Instant> = schedule
        .iter()
        .zip(&run.sent)
        .filter(|(s, _)| matches!(s.op, Op::Fault(_)))
        .map(|(_, &t)| t)
        .collect();
    let mut faults_before = offset;
    schedule
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let id = first_id + i as u64;
            let due = run.start + Duration::from_secs_f64(s.due);
            let late_ms = run.sent.get(i).map_or(f64::NAN, |t| {
                t.saturating_duration_since(due).as_secs_f64() * 1e3
            });
            let lo = faults_before;
            if matches!(s.op, Op::Fault(_)) {
                faults_before += 1;
            }
            let answers = run.answers.get(&id).map(Vec::as_slice).unwrap_or(&[]);
            let [(at, outcome)] = answers else {
                // Unanswered or answered more than once.
                return Answered {
                    op: s.op.clone(),
                    latency_ms: None,
                    late_ms,
                    ok: false,
                    placed: None,
                };
            };
            let latency_ms = Some(at.saturating_duration_since(due).as_secs_f64() * 1e3);
            let hi = (offset + fault_sent.iter().filter(|&&t| t < *at).count()).max(lo);
            let (ok, placed) = match (&s.op, outcome) {
                (
                    Op::Place,
                    Outcome::Placed {
                        placement,
                        objective,
                        degradation,
                        evaluations,
                        ..
                    },
                ) => {
                    let topo =
                        (lo..=hi.min(states.len() - 1)).find(|&k| states[k].is_feasible(placement));
                    match topo {
                        Some(topology) if objective.is_finite() => (
                            true,
                            Some(Placed {
                                placement: placement.clone(),
                                objective: *objective,
                                degradation: *degradation,
                                evaluations: *evaluations,
                                topology,
                            }),
                        ),
                        _ => (false, None),
                    }
                }
                (Op::Fault(_), Outcome::FaultApplied { .. }) => (true, None),
                _ => (false, None),
            };
            Answered {
                op: s.op.clone(),
                latency_ms,
                late_ms,
                ok,
                placed,
            }
        })
        .collect()
}

/// Outstanding requests at each send: sent before it, not yet answered.
fn outstanding(run: &OpenLoopRun) -> Vec<usize> {
    let mut answered: Vec<Instant> = run
        .answers
        .values()
        .flat_map(|v| v.iter().map(|(t, _)| *t))
        .collect();
    answered.sort();
    run.sent
        .iter()
        .enumerate()
        .map(|(i, t)| i - answered.partition_point(|a| a < t).min(i))
        .collect()
}

/// Answer quality: simulated loss and the APE of the served objective
/// against the simulated throughput, averaged over the answers given
/// under each fault state and then over the states, so the figure does
/// not depend on how many arrivals happened to fall in each state.
fn quality(
    r: &mut Report,
    answers: &[Answered],
    states: &[PlacementProblem],
    resim: &mut Resim,
    tally: &mut Tally,
) -> (f64, f64) {
    let mut per_state: BTreeMap<usize, (f64, f64, usize)> = BTreeMap::new();
    for a in answers {
        if let Some(p) = &a.placed {
            match resim.quality(p.topology, &states[p.topology], &p.placement) {
                Some(q) => {
                    let e = per_state.entry(p.topology).or_default();
                    e.0 += q.loss;
                    e.1 += ape_pct(p.objective, q.throughput);
                    e.2 += 1;
                }
                None => tally.record(false),
            }
        }
    }
    if per_state.len() > 1 {
        for (k, &(sl, sa, c)) in &per_state {
            let c = c as f64;
            r.table(format!(
                "fault state {k}: {c} answers, mean loss {:.4}, mean APE {:.2} %",
                sl / c,
                sa / c
            ));
        }
    }
    let n = per_state.len().max(1) as f64;
    let (loss, ape) = per_state.values().fold((0.0, 0.0), |(l, a), &(sl, sa, c)| {
        (l + sl / c as f64, a + sa / c as f64)
    });
    (loss / n, ape / n)
}

fn place_latencies(answers: &[Answered]) -> Vec<f64> {
    answers
        .iter()
        .filter(|a| matches!(a.op, Op::Place))
        .filter_map(|a| a.latency_ms)
        .collect()
}

fn to_bodies(schedule: &[Scheduled]) -> Vec<(f64, RequestBody)> {
    schedule
        .iter()
        .map(|s| {
            let body = match &s.op {
                Op::Place => RequestBody::Place { hint: None },
                Op::Fault(kind) => RequestBody::Fault {
                    event: chainnet_qsim::faults::FaultEvent {
                        time: 0.0,
                        kind: *kind,
                    },
                },
            };
            (s.due, body)
        })
        .collect()
}

/// Effective topologies after 0, 1, 2, … faults of `schedule`.
fn fault_states(problem: &PlacementProblem, schedule: &[Scheduled]) -> Vec<PlacementProblem> {
    let mut state = FaultState::default();
    let mut out = vec![problem.clone()];
    for s in schedule {
        if let Op::Fault(kind) = &s.op {
            state.apply(problem, kind);
            out.push(state.effective(problem));
        }
    }
    out
}

/// p90 of histogram `name` over the measured phases, in milliseconds,
/// from the daemon's snapshots before and after each of them.
fn histogram_delta_p90_ms(m: &Measured, name: &str) -> f64 {
    let mut delta: Option<chainnet_obs::HistogramSnapshot> = None;
    for i in m.indices(Load::Measured) {
        let (Some(a), Some(b)) = (
            m.snapshots[i + 1].histograms.get(name),
            m.snapshots[i].histograms.get(name),
        ) else {
            return f64::NAN;
        };
        let d = delta.get_or_insert_with(|| {
            let mut zero = a.clone();
            zero.counts.iter_mut().for_each(|c| *c = 0);
            zero.count = 0;
            zero.sum = 0.0;
            zero
        });
        for ((d, new), old) in d.counts.iter_mut().zip(&a.counts).zip(&b.counts) {
            *d += new.saturating_sub(*old);
        }
        d.count += a.count.saturating_sub(b.count);
        d.sum += a.sum - b.sum;
    }
    delta
        .and_then(|d| d.quantile(0.9))
        .map_or(f64::NAN, |s| s * 1e3)
}

/// Milliseconds per in-process call of a replay.
struct Replay {
    places: Vec<f64>,
    faults: Vec<f64>,
    flush: Vec<f64>,
}

/// Replay `schedule` in-process through `Engine::handle` with a
/// checkpoint store, after the same topology install and warm-up as one
/// daemon engine, then time 20 state flushes.
fn replay(
    ctx: &Ctx,
    rec: &mut Recorder,
    model: &ChainNet,
    problem: &PlacementProblem,
    schedule: &[Scheduled],
    traced: bool,
) -> Result<Replay, String> {
    let dir = ctx.work.join(format!("replay-{traced}"));
    let obs = if traced {
        rec.obs()
    } else {
        chainnet_obs::Obs::disabled()
    };
    let mut engine = store_engine(&dir, model.clone(), obs)?;
    let mut handle = |rec: &mut Recorder, req: Request| {
        let t = Instant::now();
        let resp = if traced {
            rec.span("serve:engine_handle", Some(req.id), |_| {
                engine.handle(&req, t)
            })
        } else {
            engine.handle(&req, t)
        };
        (resp, t.elapsed().as_secs_f64() * 1e3)
    };
    check_installed(&handle(rec, install(1, problem)).0)?;
    for id in 2..2 + WARM_PLACES_PER_ENGINE {
        handle(rec, request(id, RequestBody::Place { hint: None }));
    }
    let (mut places, mut faults) = (Vec::new(), Vec::new());
    for (i, (_, body)) in to_bodies(schedule).into_iter().enumerate() {
        let is_place = matches!(body, RequestBody::Place { .. });
        let (resp, ms) = handle(rec, request(1000 + i as u64, body));
        if matches!(resp.outcome, Outcome::Rejected { .. }) {
            return Err(format!("replay rejected request {i}: {:?}", resp.outcome));
        }
        if is_place {
            places.push(ms);
        } else {
            faults.push(ms);
        }
    }
    let mut flush = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        if traced {
            rec.span("ckpt:save_state", None, |_| engine.flush())
        } else {
            engine.flush()
        }
        .map_err(|e| e.to_string())?;
        flush.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Replay {
        places,
        faults,
        flush,
    })
}

/// What a phase of an open-loop run is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Load {
    /// The workload's measured load: latency, CPU, quality.
    Measured,
    /// A saturation burst: capacity only.
    Saturation,
}

/// Everything both serve workloads share after the open-loop phases.
struct Measured {
    /// Every phase's load, classified answers and run, in order.
    phases: Vec<(Load, Vec<Answered>, OpenLoopRun)>,
    /// CPU seconds of the daemon's processes during each phase.
    cpu_s: Vec<f64>,
    rss_mb: f64,
    /// The daemon's metrics before the first phase and after each one.
    snapshots: Vec<Snapshot>,
    states: Vec<PlacementProblem>,
    schedule: Vec<Scheduled>,
}

impl Measured {
    /// Answers of the phases with load `load`, in order.
    fn answers(&self, load: Load) -> Vec<Answered> {
        self.phases
            .iter()
            .filter(|(l, _, _)| *l == load)
            .flat_map(|(_, a, _)| a.iter().cloned())
            .collect()
    }

    /// One [`Rung`] per phase with load `load`.
    fn rungs(&self, load: Load, rate: f64) -> Vec<Rung> {
        self.phases
            .iter()
            .filter(|(l, _, _)| *l == load)
            .map(|(_, a, run)| rung(rate, a, run))
            .collect()
    }

    /// Indices of the phases with load `load`.
    fn indices(&self, load: Load) -> impl Iterator<Item = usize> + '_ {
        (0..self.phases.len()).filter(move |&i| self.phases[i].0 == load)
    }
}

/// Checks, quality and the metrics every serve workload reports.
/// Returns the generator's p90 lateness and the re-simulation's events
/// per second.
fn common_metrics(r: &mut Report, m: &Measured, resim: &mut Resim, setup_s: f64) -> (f64, f64) {
    let mut tally = Tally::default();
    for (_, answers, _) in &m.phases {
        for a in answers {
            tally.record(a.ok);
        }
    }
    // Quality is that of the answers at the measured load; the
    // saturation bursts' answers are re-simulated as a check only.
    let measured = m.answers(Load::Measured);
    let (loss, ape) = quality(r, &measured, &m.states, resim, &mut tally);
    for a in m.answers(Load::Saturation) {
        if let Some(p) = &a.placed {
            if resim
                .quality(p.topology, &m.states[p.topology], &p.placement)
                .is_none()
            {
                tally.record(false);
            }
        }
    }
    r.table(format!(
        "re-simulated {} distinct answers in {:.2} s",
        resim.distinct(),
        secs(resim.busy)
    ));
    r.tally.merge(tally);
    let cpu_s: f64 = m.indices(Load::Measured).map(|i| m.cpu_s[i]).sum();
    r.e2e("setup_s", setup_s);
    r.e2e("cpu_ms_per_op", 1e3 * cpu_s / measured.len().max(1) as f64);
    r.e2e("sim_loss", loss);
    r.e2e("surrogate_mape", ape);
    r.e2e("peak_rss_mb", m.rss_mb);
    let lat = place_latencies(&measured);
    r.e2e("place_p50_ms", hd_quantile(&lat, 0.5));
    r.e2e("place_p90_ms", hd_quantile(&lat, 0.9));
    r.samples("place at the measured load", lat.len());
    r.extra("fail_frac", "ratio", tally.frac());
    let late: Vec<f64> = m
        .phases
        .iter()
        .flat_map(|(_, a, _)| a.iter().map(|a| a.late_ms))
        .collect();
    r.extra("gen_late_p90_ms", "ms", percentile(&late, 0.9));
    (
        percentile(&late, 0.9),
        resim.events as f64 / secs(resim.busy),
    )
}

/// Run each phase's schedule open-loop on `d`, one after the other, and
/// classify every answer. Fault states carry over from one phase to the
/// next.
fn run_measured(
    rec: &mut Recorder,
    d: &mut Daemon,
    problem: &PlacementProblem,
    phases: Vec<(Load, Vec<Scheduled>)>,
) -> Result<Measured, String> {
    let schedule: Vec<Scheduled> = phases.iter().flat_map(|(_, p)| p.clone()).collect();
    let states = fault_states(problem, &schedule);
    let (procs, before) = pids(d, 50)?;
    let mut snapshots = vec![before];
    let cpu = || procs.iter().map(|&p| cpu_seconds(p)).sum::<f64>();
    let mut cpu_before = cpu();
    let mut cpu_s = Vec::new();
    let mut out = Vec::new();
    let mut next_id = 1000u64;
    let mut faults_before = 0;
    for (load, phase) in phases {
        let run = rec.span("bench:open_loop", None, |_| {
            d.open_loop(next_id, &to_bodies(&phase))
        })?;
        if let Some(e) = &run.lost_connection {
            return Err(format!("open loop: {e}"));
        }
        cpu_s.push(cpu() - cpu_before);
        let a = classify(&phase, &run, next_id, &states, faults_before);
        faults_before += phase
            .iter()
            .filter(|s| matches!(s.op, Op::Fault(_)))
            .count();
        if rec.enabled() {
            for (i, s) in phase.iter().enumerate() {
                let id = next_id + i as u64;
                if let Some(v) = run.answers.get(&id) {
                    let due = run.start + Duration::from_secs_f64(s.due);
                    rec.record("bench:request", Some(id), due, v[0].0);
                }
            }
        }
        next_id += phase.len() as u64 + 1000;
        out.push((load, a, run));
        snapshots.push(pids(d, 60 + out.len() as u64)?.1);
        // The next phase's CPU starts after this Stats call.
        cpu_before = cpu();
    }
    let procs = pids(d, 51)?.0;
    let rss_mb = procs.iter().map(|&p| peak_rss_mb(p)).sum();
    Ok(Measured {
        phases: out,
        cpu_s,
        rss_mb,
        snapshots,
        states,
        schedule,
    })
}

/// One phase's answers as a [`Rung`] at offered rate `rate`.
fn rung(rate: f64, answers: &[Answered], run: &OpenLoopRun) -> Rung {
    Rung {
        rate,
        attempted: answers.len(),
        failed: answers.iter().filter(|a| !a.ok).count(),
        latencies_ms: place_latencies(answers),
        answered_s: run
            .answers
            .values()
            .flat_map(|v| {
                v.iter()
                    .map(|(t, _)| secs(t.saturating_duration_since(run.start)))
            })
            .collect(),
        backlog_grew: backlog_grew(&outstanding(run)),
    }
}

fn rung_line(what: &str, r: &Rung) -> String {
    format!(
        "{what} {:>5.1} req/s: n={:>4} failed={} p50={:.1} ms p90={:.1} ms backlog_grew={} served={:.2} req/s",
        r.rate,
        r.attempted,
        r.failed,
        percentile(&r.latencies_ms, 0.5),
        percentile(&r.latencies_ms, 0.9),
        r.backlog_grew,
        r.served_rate()
    )
}

/// Report every phase, and `place_max_rps`: the capacity the saturation
/// bursts measured. An error when a burst did not saturate the daemon,
/// since its served rate is then not a capacity.
fn phase_lines_and_max_rps(
    r: &mut Report,
    m: &Measured,
    what: &str,
    rate: f64,
) -> Result<(), String> {
    for rung in m.rungs(Load::Measured, rate) {
        r.table(rung_line(&format!("{what} measured"), &rung));
    }
    let bursts = m.rungs(Load::Saturation, SATURATION_RATE);
    for rung in &bursts {
        r.table(rung_line(&format!("{what} saturation"), rung));
    }
    let capacity = pooled_capacity(&bursts).ok_or_else(|| {
        "a saturation burst measured no capacity (see its backlog_grew and failed above)"
            .to_string()
    })?;
    r.e2e("place_max_rps", capacity);
    Ok(())
}

/// The `serve_place` workload: single-process daemon, `Place`-only
/// traffic at a light rate, alternating with saturation bursts.
pub fn run_place(ctx: &Ctx) -> Result<Report, String> {
    let problem = case_study_problem().map_err(|e| e.to_string())?;
    let (model, model_path) = serving_model(ctx)?;
    let (bursts, spec) = saturation(ctx, 0, PLACE_ROUNDS, 40);
    let (mut d, setup_s) = setup(ctx, &model_path, &problem, &spec)?;
    let mut rec = Recorder::new(ctx.trace);
    let window = LIGHT_SHARE * ctx.seconds / PLACE_ROUNDS as f64;
    let light = (0..PLACE_ROUNDS)
        .map(|k| {
            places(poisson_arrivals(
                LIGHT_RATE,
                window,
                sub_seed(ctx.seed, 20 + k as u64),
            ))
        })
        .collect();
    let m = run_measured(&mut rec, &mut d, &problem, interleave(light, bursts))?;
    d.shutdown(99)?;

    let mut resim = Resim::default();
    let mut r = Report::new(Tally::default());
    phase_lines_and_max_rps(&mut r, &m, "serve_place", LIGHT_RATE)?;
    let gen = common_metrics(&mut r, &m, &mut resim, setup_s);
    if ctx.trace {
        let schedule = replay_prefix(&m.schedule);
        serve_layers(ctx, &mut r, rec, &model, &problem, &schedule, &m, gen)?;
    }
    Ok(r)
}

/// The `serve_churn` workload: supervised two-worker pool, `Place`
/// requests interleaved with broadcast fault events at one fixed rate,
/// cut into rounds that alternate with saturation bursts.
pub fn run_churn(ctx: &Ctx) -> Result<Report, String> {
    let problem = case_study_problem().map_err(|e| e.to_string())?;
    let (model, model_path) = serving_model(ctx)?;
    let (bursts, spec) = saturation(ctx, 2, CHURN_ROUNDS, 31);
    let (mut d, setup_s) = setup(ctx, &model_path, &problem, &spec)?;
    let mut rec = Recorder::new(ctx.trace);
    let window = CHURN_SHARE * ctx.seconds;
    let schedule = churn_schedule(
        &problem,
        CHURN_PLACE_RATE,
        CHURN_FAULT_RATE,
        window,
        sub_seed(ctx.seed, 30),
    );
    let rounds = split(&schedule, window, CHURN_ROUNDS);
    let m = run_measured(&mut rec, &mut d, &problem, interleave(rounds, bursts))?;
    d.shutdown(99)?;
    let faults: Vec<f64> = m
        .answers(Load::Measured)
        .iter()
        .filter(|a| matches!(a.op, Op::Fault(_)))
        .filter_map(|a| a.latency_ms)
        .collect();
    let mut resim = Resim::default();
    let mut r = Report::new(Tally::default());
    r.table(format!(
        "serve_churn: places at {CHURN_PLACE_RATE} req/s + {} faults",
        faults.len()
    ));
    phase_lines_and_max_rps(&mut r, &m, "serve_churn", CHURN_PLACE_RATE)?;
    let gen = common_metrics(&mut r, &m, &mut resim, setup_s);
    r.extra("fault_p50_ms", "ms", percentile(&faults, 0.5));
    r.extra("fault_p90_ms", "ms", percentile(&faults, 0.9));
    r.samples("fault", faults.len());
    if ctx.trace {
        let replay_schedule = replay_prefix(&schedule);
        serve_layers(
            ctx,
            &mut r,
            rec,
            &model,
            &problem,
            &replay_schedule,
            &m,
            gen,
        )?;
    }
    Ok(r)
}

/// Per-layer metrics of a serve workload: the in-process replay, the
/// daemon's own counters and the answers' fields. Queue wait, hop and
/// hedges come from the first phase, the one the place latencies come
/// from.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    ctx: &Ctx,
    r: &mut Report,
    mut rec: Recorder,
    model: &ChainNet,
    problem: &PlacementProblem,
    schedule: &[Scheduled],
    m: &Measured,
    (late_p90, qsim_eps): (f64, f64),
) -> Result<(), String> {
    // Untraced replays before and after the traced one, so warm-up does
    // not pass for tracing overhead.
    let mut quiet = Recorder::new(false);
    let mut plain_once = || -> Result<f64, String> {
        let t = Instant::now();
        replay(ctx, &mut quiet, model, problem, schedule, false)?;
        Ok(secs(t.elapsed()))
    };
    let plain_before = plain_once()?;
    let t = Instant::now();
    let Replay {
        places,
        faults,
        flush,
    } = rec.span("bench:replay", None, |rec| {
        replay(ctx, rec, model, problem, schedule, true)
    })?;
    let traced_s = secs(t.elapsed());
    let plain = (plain_before + plain_once()?) / 2.0;

    let mut traced = Traced::finish(rec);
    let spans = &traced.spans;
    let layers = &mut traced.layers;
    // SA time, and the surrogate time inside it, from the library's own
    // spans of the replay.
    let by_id: BTreeMap<u64, &crate::spans::Span> = spans.iter().map(|s| (s.id, s)).collect();
    let sa_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "sa.trial")
        .map(|s| s.dur())
        .sum();
    let eval_ns: u64 = spans
        .iter()
        .filter(|s| s.name.starts_with("neural."))
        .filter(|s| {
            by_id
                .get(&s.parent)
                .is_some_and(|p| p.name.starts_with("sa."))
        })
        .map(|s| s.dur())
        .sum();
    let measured = m.answers(Load::Measured);
    let placed: Vec<&Placed> = measured.iter().filter_map(|a| a.placed.as_ref()).collect();
    let evals: f64 = placed.iter().map(|p| p.evaluations as f64).sum();
    let sa_s = sa_ns as f64 * 1e-9;
    layers.set("placement.sa_busy_s", sa_s);
    layers.set(
        "placement.sa_self_frac",
        1.0 - eval_ns as f64 / sa_ns.max(1) as f64,
    );
    let replay_evals: f64 = spans.iter().filter(|s| s.name == "neural.forward").count() as f64;
    layers.set("placement.sa_evals_per_s", replay_evals / sa_s);
    layers.set("serve.engine_handle_ms", median(&places));
    layers.set(
        "serve.fault_handle_ms",
        if faults.is_empty() {
            0.0
        } else {
            median(&faults)
        },
    );
    layers.set("ckpt.save_ms", median(&flush));
    layers.set("serve.evals_per_place", evals / placed.len().max(1) as f64);
    layers.set(
        "serve.degraded_frac",
        placed
            .iter()
            .filter(|p| p.degradation != DegradationLevel::FullSearch)
            .count() as f64
            / placed.len().max(1) as f64,
    );
    layers.set(
        "serve.queue_wait_p90_ms",
        histogram_delta_p90_ms(m, "serve.queue_wait_seconds"),
    );
    layers.set(
        "supervisor.hop_ms",
        median(&place_latencies(&measured)) - median(&places),
    );
    let counter = |name: &str, phases: &mut dyn Iterator<Item = usize>| {
        let at = |snap: &Snapshot| snap.counters.get(name).copied().unwrap_or(0) as f64;
        phases
            .map(|i| at(&m.snapshots[i + 1]) - at(&m.snapshots[i]))
            .sum::<f64>()
    };
    layers.set(
        "supervisor.hedge_frac",
        counter("supervisor.hedges", &mut m.indices(Load::Measured)) / placed.len().max(1) as f64,
    );
    let all = || 0..m.phases.len();
    layers.set(
        "supervisor.reroutes",
        counter("supervisor.reroutes", &mut all()),
    );
    layers.set(
        "supervisor.restarts",
        counter("supervisor.restarts", &mut all()),
    );
    layers.set("gen.late_p90_ms", late_p90);
    layers.set("qsim.events_per_s", qsim_eps);
    layers.set("obs.trace_overhead_frac", (traced_s - plain) / plain);
    layers.set(
        "obs.span_coverage_frac",
        crate::spans::coverage(spans, "bench:replay"),
    );
    r.traced = Some(traced);
    Ok(())
}
