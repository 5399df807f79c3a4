//! Golden SA trajectories. Every annealing entry point runs the same
//! step and trial loop, so each must reproduce these pinned runs bit
//! for bit: single-proposal search through `optimize` and through the
//! neighborhood driver at k = 1, and k = 4 search with and without
//! checkpointing. The constants are the best objective's bits, one
//! accept bitmask per trial (bit i = step i accepted) and the
//! evaluation count, for 3 seeds on two problems under two evaluators.

use chainnet_ckpt::CkptStore;
use chainnet_obs::Obs;
use chainnet_placement::evaluator::{ApproxEvaluator, BatchEvaluator, SimEvaluator};
use chainnet_placement::problem::PlacementProblem;
use chainnet_placement::sa::{SaConfig, SaResult, SimulatedAnnealing, SA_CKPT_SCHEMA};
use chainnet_qsim::model::{Device, Fragment, ServiceChain};
use chainnet_qsim::sim::SimConfig;

const STEPS: usize = 20;
const TRIALS: usize = 2;

/// One pinned run.
struct Golden {
    problem: &'static str,
    evaluator: &'static str,
    seed: u64,
    best_bits: u64,
    accepted: [u64; TRIALS],
    evaluations: u64,
}

const fn g(
    problem: &'static str,
    evaluator: &'static str,
    seed: u64,
    best_bits: u64,
    accepted: [u64; TRIALS],
    evaluations: u64,
) -> Golden {
    Golden {
        problem,
        evaluator,
        seed,
        best_bits,
        accepted,
        evaluations,
    }
}

/// Single-proposal search (k = 1).
#[rustfmt::skip]
const SINGLE: [Golden; 12] = [
    g("lopsided", "approx", 3, 0x3ff99999999631c8, [0x42ff7, 0x0bedf], 41),
    g("lopsided", "approx", 17, 0x3ff99999999631c8, [0x97c7f, 0x810a7], 41),
    g("lopsided", "approx", 101, 0x3ff9999999957d71, [0x00938, 0x04f7e], 41),
    g("lopsided", "sim", 3, 0x3ffbcae759203caf, [0x42ff7, 0x41ca3], 41),
    g("lopsided", "sim", 17, 0x3ffb9d6480f2b9d6, [0xf057f, 0x012a7], 41),
    g("lopsided", "sim", 101, 0x3ffbcae759203caf, [0x00938, 0x1453c], 41),
    g("case_study", "approx", 3, 0x401444bd90d6ab00, [0xaebbf, 0x1bdff], 41),
    g("case_study", "approx", 17, 0x40119a7acf454778, [0xcffff, 0xeffff], 41),
    g("case_study", "approx", 101, 0x401025cb84fbf225, [0x2bbff, 0x0b9ff], 41),
    g("case_study", "sim", 3, 0x4009fc3518a6dfc3, [0x9b7bf, 0xaf73f], 41),
    g("case_study", "sim", 17, 0x4011f0d4629b7f0d, [0x300bf, 0x79cbf], 41),
    g("case_study", "sim", 101, 0x4017684bda12f684, [0xdffff, 0x56fff], 41),
];

/// Neighborhood search at k = 4.
#[rustfmt::skip]
const K4: [Golden; 12] = [
    g("lopsided", "approx", 3, 0x3ff99999999631c8, [0xbbf5f, 0xbffff], 161),
    g("lopsided", "approx", 17, 0x3ff99999999631c8, [0x3ff5f, 0xbfdef], 161),
    g("lopsided", "approx", 101, 0x3ff99999999631c8, [0xefdff, 0xdfdf7], 161),
    g("lopsided", "sim", 3, 0x3ffbcae759203caf, [0x62bff, 0xdbfff], 161),
    g("lopsided", "sim", 17, 0x3ffbcae759203caf, [0x973ff, 0x19f7f], 161),
    g("lopsided", "sim", 101, 0x3ffbcae759203caf, [0xc1dff, 0x3fff7], 161),
    g("case_study", "approx", 3, 0x402153ef1fd40f5e, [0xfb7ef, 0xaefff], 161),
    g("case_study", "approx", 17, 0x402153ef0b6c1e15, [0xdcfff, 0x8fbff], 161),
    g("case_study", "approx", 101, 0x4022721606e9afd6, [0x20cff, 0x0bbff], 161),
    g("case_study", "sim", 3, 0x40218e38e38e38e4, [0xbbfef, 0x9bfff], 161),
    g("case_study", "sim", 17, 0x401d7b425ed097b5, [0x7bfbf, 0x04dff], 161),
    g("case_study", "sim", 101, 0x4020bbbbbbbbbbbc, [0x067ff, 0x53bff], 161),
];

/// Four devices, one of them slow, and two two-fragment chains.
fn lopsided() -> PlacementProblem {
    let devices = vec![
        Device::new(3.0, 0.2).unwrap(),
        Device::new(50.0, 3.0).unwrap(),
        Device::new(50.0, 3.0).unwrap(),
        Device::new(20.0, 1.0).unwrap(),
    ];
    let chains = vec![
        ServiceChain::new(
            1.0,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
            ],
        )
        .unwrap(),
        ServiceChain::new(
            0.6,
            vec![
                Fragment::new(2.0, 0.5).unwrap(),
                Fragment::new(1.0, 1.5).unwrap(),
            ],
        )
        .unwrap(),
    ];
    PlacementProblem::new(devices, chains).unwrap()
}

/// The Section VIII-D case study (5 devices, 8 chains, 28 fragments),
/// with the device and fragment profiles of `chainnet-datagen`'s
/// `case_study_problem`, which this crate cannot depend on.
fn case_study() -> PlacementProblem {
    let devices = [
        (128.0, 4.8),
        (128.0, 4.8),
        (256.0, 0.218),
        (256.0, 0.218),
        (512.0, 5.0),
    ]
    .iter()
    .map(|&(ram, gflops)| Device::new(ram, gflops).unwrap())
    .collect();
    let dnns: [(&[(f64, f64)], f64); 4] = [
        (
            &[(24.0, 0.45), (18.0, 0.30), (12.0, 0.18), (50.7, 0.04)],
            0.7,
        ),
        (
            &[(26.0, 0.50), (20.0, 0.35), (14.0, 0.20), (50.7, 0.05)],
            0.7,
        ),
        (&[(10.0, 0.25), (8.0, 0.15), (6.0, 0.08)], 0.6),
        (&[(0.004, 0.02), (0.5, 0.05), (1.0, 0.02)], 0.6),
    ];
    let mut chains = Vec::new();
    for (fragments, interarrival) in dnns {
        for _ in 0..2 {
            let fragments = fragments
                .iter()
                .map(|&(mem, comp)| Fragment::new(mem, comp).unwrap())
                .collect();
            chains.push(ServiceChain::new(1.0 / interarrival, fragments).unwrap());
        }
    }
    PlacementProblem::new(devices, chains).unwrap()
}

fn problem(name: &str) -> PlacementProblem {
    match name {
        "lopsided" => lopsided(),
        _ => case_study(),
    }
}

fn evaluator(name: &str) -> Box<dyn BatchEvaluator> {
    match name {
        "approx" => Box::new(ApproxEvaluator::default()),
        _ => Box::new(SimEvaluator::new(SimConfig::new(300.0, 7))),
    }
}

fn driver(seed: u64) -> SimulatedAnnealing {
    SimulatedAnnealing::new(
        SaConfig::paper_default()
            .with_max_steps(STEPS)
            .with_seed(seed),
    )
}

fn assert_matches(run: &str, want: &Golden, got: &SaResult) {
    let accepted: Vec<u64> = got
        .trials
        .iter()
        .map(|t| {
            t.steps
                .iter()
                .enumerate()
                .filter(|(_, s)| s.accepted)
                .fold(0, |mask, (i, _)| mask | 1 << i)
        })
        .collect();
    let id = format!(
        "{run} on {}/{} seed {}",
        want.problem, want.evaluator, want.seed
    );
    assert_eq!(accepted, want.accepted, "{id}: accept masks");
    assert_eq!(
        got.best_objective.to_bits(),
        want.best_bits,
        "{id}: best objective {}",
        got.best_objective
    );
    assert_eq!(got.evaluations, want.evaluations, "{id}: evaluations");
}

#[test]
fn single_proposal_search_matches_golden() {
    for want in &SINGLE {
        let p = problem(want.problem);
        let init = p.initial_placement().unwrap();
        let sa = driver(want.seed);
        let mut ev = evaluator(want.evaluator);
        let plain = sa.optimize(&p, &init, ev.as_mut(), TRIALS);
        assert_matches("optimize", want, &plain);
        let mut ev = evaluator(want.evaluator);
        let k1 =
            sa.optimize_neighborhood_observed(&p, &init, ev.as_mut(), TRIALS, 1, &Obs::disabled());
        assert_matches("neighborhood k=1", want, &k1);
    }
}

#[test]
fn neighborhood_search_matches_golden() {
    let dir = std::env::temp_dir().join(format!("chainnet-sa-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (i, want) in K4.iter().enumerate() {
        let p = problem(want.problem);
        let init = p.initial_placement().unwrap();
        let sa = driver(want.seed);
        let mut ev = evaluator(want.evaluator);
        let plain =
            sa.optimize_neighborhood_observed(&p, &init, ev.as_mut(), TRIALS, 4, &Obs::disabled());
        assert_matches("neighborhood k=4", want, &plain);
        let store = CkptStore::open(dir.join(i.to_string()), "sa", SA_CKPT_SCHEMA).unwrap();
        let mut ev = evaluator(want.evaluator);
        let checkpointed = sa
            .optimize_checkpointed_observed(
                &p,
                &init,
                ev.as_mut(),
                TRIALS,
                4,
                &store,
                7,
                false,
                &Obs::disabled(),
            )
            .unwrap();
        assert_matches("checkpointed k=4", want, &checkpointed);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
