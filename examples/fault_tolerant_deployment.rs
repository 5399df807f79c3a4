//! Fault-tolerant deployment demo: the resilience layer end to end.
//!
//! Five short acts:
//!
//! 1. simulate a deployment healthy, then under an injected device
//!    crash-and-recover schedule, and compare the realized loss;
//! 2. trip the event-budget watchdog on a runaway horizon and recover
//!    the partial statistics instead of losing the run;
//! 3. run a budget-bounded simulated-annealing search that stops at an
//!    evaluation cap and still reports its best-so-far placement;
//! 4. rig the GNN surrogate to emit NaN predictions and watch the
//!    search degrade gracefully to its simulation fallback;
//! 5. checkpoint a search, "crash" it (keep only the earliest
//!    checkpoints), resume, and verify the recovered result is
//!    bit-identical to the uninterrupted run.
//!
//! Run with `cargo run --release --example fault_tolerant_deployment`.
//!
//! With `CKPT_SMOKE_DIR=<dir>` set, the binary instead runs *only* a
//! checkpointed search in that directory (continuing from its latest
//! checkpoint when `CKPT_SMOKE_RESUME=1`) and prints one canonical
//! result line. CI uses this to SIGKILL a live run after its first
//! checkpoint lands and assert the resumed process finishes with the
//! same result as an uninterrupted reference run.

use chainnet_suite::ckpt::CkptStore;
use chainnet_suite::core::config::ModelConfig;
use chainnet_suite::core::data::ChainTargets;
use chainnet_suite::core::graph::PlacementGraph;
use chainnet_suite::core::model::{ChainNet, PerfPrediction, Surrogate};
use chainnet_suite::datagen::problems::{ProblemGenerator, ProblemParams};
use chainnet_suite::neural::params::ParamStore;
use chainnet_suite::neural::tape::{Tape, Var};
use chainnet_suite::obs::Obs;
use chainnet_suite::placement::evaluator::{
    loss_probability, GnnEvaluator, ResilientEvaluator, SimEvaluator,
};
use chainnet_suite::placement::problem::PlacementProblem;
use chainnet_suite::placement::sa::{
    SaConfig, SimulatedAnnealing, TerminationReason, SA_CKPT_SCHEMA,
};
use chainnet_suite::qsim::faults::FaultSchedule;
use chainnet_suite::qsim::sim::{SimConfig, Simulator};
use chainnet_suite::qsim::QsimError;

/// A surrogate whose predictions are always NaN: stands in for a
/// corrupted or badly trained model checkpoint.
struct NanRigged(ChainNet);

impl Surrogate for NanRigged {
    fn name(&self) -> &str {
        "nan-rigged"
    }
    fn config(&self) -> &ModelConfig {
        self.0.config()
    }
    fn params(&self) -> &ParamStore {
        self.0.params()
    }
    fn params_mut(&mut self) -> &mut ParamStore {
        self.0.params_mut()
    }
    fn loss_on_graph(&self, tape: &mut Tape, graph: &PlacementGraph, t: &[ChainTargets]) -> Var {
        self.0.loss_on_graph(tape, graph, t)
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

/// Build the demo's deterministic deployment problem.
fn demo_problem() -> Result<PlacementProblem, Box<dyn std::error::Error>> {
    // A small, moderately loaded deployment problem: healthy losses stay
    // low so the injected faults are clearly visible against them.
    let mut params = ProblemParams::paper_default(6);
    params.num_chains = 4;
    params.interarrival_mean = 2.5;
    Ok(ProblemGenerator::new(params).generate(11)?)
}

/// CI smoke mode: one checkpointed search in `dir`, slow enough that the
/// workflow can SIGKILL it after the first checkpoint file appears. The
/// single printed line is what the reference and resumed runs compare.
fn ckpt_smoke(dir: &std::path::Path, resume: bool) -> Result<(), Box<dyn std::error::Error>> {
    let problem = demo_problem()?;
    let initial = problem.initial_placement()?;
    let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(300).with_seed(5));
    let store = CkptStore::open(dir, "sa", SA_CKPT_SCHEMA)?;
    let mut ev = SimEvaluator::new(SimConfig::new(20_000.0, 7));
    let result = sa.optimize_checkpointed_observed(
        &problem,
        &initial,
        &mut ev,
        2,
        1,
        &store,
        5,
        resume,
        &Obs::disabled(),
    )?;
    println!(
        "smoke: objective_bits={:016x} evaluations={} placement={}",
        result.best_objective.to_bits(),
        result.evaluations,
        serde_json::to_string(&result.best_placement)?
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if let Ok(dir) = std::env::var("CKPT_SMOKE_DIR") {
        let resume = std::env::var("CKPT_SMOKE_RESUME").is_ok();
        return ckpt_smoke(std::path::Path::new(&dir), resume);
    }

    let problem = demo_problem()?;
    let initial = problem.initial_placement()?;
    let lam = problem.total_arrival_rate();
    let system = problem.bind(initial.clone())?;

    // --- Act 1: healthy run vs. a crash-and-recover schedule.
    let cfg = SimConfig::new(5_000.0, 42);
    let healthy = Simulator::new().run(&system, &cfg)?;
    // Crash the device hosting the most fragments: the worst case the
    // schedule can express for this placement.
    let victim = initial
        .used_devices()
        .into_iter()
        .max_by_key(|&d| initial.iter().filter(|&(_, _, dev)| dev == d).count())
        .expect("at least one used device");
    let schedule = FaultSchedule::new()
        .crash(1_000.0, victim)
        .recover(4_000.0, victim);
    let faulted =
        Simulator::new().run_faulted_observed(&system, &cfg, &schedule, &Obs::disabled())?;
    println!("act 1: fault injection");
    println!(
        "  healthy: throughput {:.3}, loss probability {:.4}",
        healthy.total_throughput, healthy.loss_probability
    );
    println!(
        "  device {victim} down for t in [1000, 4000): throughput {:.3}, loss probability {:.4}",
        faulted.total_throughput, faulted.loss_probability
    );

    // --- Act 2: the watchdog turns a runaway run into partial stats.
    // The warm-up is placed inside the window the budget can actually
    // cover, so the recovered partial statistics are meaningful.
    let runaway = SimConfig::new(1e9, 42)
        .with_warmup(100.0)
        .with_max_events(50_000);
    match Simulator::new().run(&system, &runaway) {
        Err(QsimError::BudgetExceeded { reason, partial }) => {
            println!("act 2: watchdog ({reason})");
            println!(
                "  stopped after {} events, {:.0} simulated time units; \
                 partial throughput {:.3}",
                partial.events, partial.measured_time, partial.total_throughput
            );
        }
        other => println!("act 2: unexpected outcome {other:?}"),
    }

    // --- Act 3: budget-bounded search returns its best-so-far.
    let sa = SimulatedAnnealing::new(
        SaConfig::paper_default()
            .with_max_steps(200)
            .with_max_evaluations(60),
    );
    let mut ev = SimEvaluator::new(SimConfig::new(1_000.0, 7));
    let capped = sa.optimize(&problem, &initial, &mut ev, 4);
    println!("act 3: evaluation-capped search");
    println!(
        "  stopped by {} after {} evaluations; best loss probability {:.4}",
        capped.termination_reason,
        capped.evaluations,
        loss_probability(lam, capped.best_objective)
    );

    // --- Act 4: NaN surrogate, graceful degradation to simulation.
    let obs = Obs::enabled();
    let rigged = GnnEvaluator::new(NanRigged(ChainNet::new(ModelConfig::small(), 7)));
    let mut resilient = ResilientEvaluator::new_observed(
        rigged,
        SimEvaluator::new(SimConfig::new(1_000.0, 7)),
        obs.clone(),
    );
    let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(40));
    let rescued = sa.optimize_observed(&problem, &initial, &mut resilient, 1, &obs);
    assert_eq!(rescued.termination_reason, TerminationReason::Completed);
    assert!(rescued.best_objective.is_finite());
    println!("act 4: NaN surrogate with simulation fallback");
    println!(
        "  {} fallback evaluations rescued the search; best loss probability {:.4}",
        resilient.fallback_evals(),
        loss_probability(lam, rescued.best_objective)
    );
    println!(
        "  metrics: sa.fallback_evals = {}",
        obs.registry.snapshot().counters["sa.fallback_evals"]
    );

    // --- Act 5: checkpointed search, crash, bit-identical resume.
    let base = std::env::temp_dir().join(format!("chainnet_ckpt_demo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(60).with_seed(5));
    let full_store = CkptStore::open(base.join("full"), "sa", SA_CKPT_SCHEMA)?;
    let mut ev = SimEvaluator::new(SimConfig::new(1_000.0, 7));
    let full = sa.optimize_checkpointed_observed(
        &problem,
        &initial,
        &mut ev,
        2,
        1,
        &full_store,
        8,
        false,
        &Obs::disabled(),
    )?;
    // Simulate a crash: only the two earliest checkpoints survive, then
    // a fresh process resumes from what is left on disk.
    let cut_store = CkptStore::open(base.join("cut"), "sa", SA_CKPT_SCHEMA)?;
    let survived = full_store.list()?.into_iter().take(2).collect::<Vec<_>>();
    for &seq in &survived {
        std::fs::copy(full_store.path_of(seq), cut_store.path_of(seq))?;
    }
    let mut ev = SimEvaluator::new(SimConfig::new(1_000.0, 7));
    let resumed = sa.optimize_checkpointed_observed(
        &problem,
        &initial,
        &mut ev,
        2,
        1,
        &cut_store,
        8,
        true,
        &Obs::disabled(),
    )?;
    assert_eq!(full.best_placement, resumed.best_placement);
    assert_eq!(
        full.best_objective.to_bits(),
        resumed.best_objective.to_bits()
    );
    assert_eq!(full.evaluations, resumed.evaluations);
    println!("act 5: checkpointed search killed and resumed");
    println!(
        "  crash left {} of {} checkpoints; resume replayed to the same \
         best placement in {} total evaluations (objective bits match)",
        survived.len(),
        full_store.list()?.len(),
        resumed.evaluations
    );
    let _ = std::fs::remove_dir_all(&base);
    Ok(())
}
