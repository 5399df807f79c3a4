//! Property-based tests for the queueing simulator and its distributions.

use chainnet_obs::Obs;
use chainnet_qsim::dist::{Dist, Sampler};
use chainnet_qsim::faults::FaultSchedule;
use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};
use chainnet_qsim::sim::{SimConfig, Simulator};
use proptest::prelude::*;

/// Build a random multi-chain model plus a feasible placement.
fn arb_model() -> impl Strategy<Value = SystemModel> {
    (
        2usize..6,                                     // devices
        1usize..4,                                     // chains
        proptest::collection::vec(0.05f64..1.0, 1..4), // arrival rates pool
        0u64..1000,
    )
        .prop_flat_map(|(nd, nc, rates, seed)| {
            let chain_lens = proptest::collection::vec(1usize..4, nc);
            (Just(nd), Just(rates), chain_lens, Just(seed))
        })
        .prop_map(|(nd, rates, chain_lens, seed)| {
            let devices: Vec<Device> = (0..nd)
                .map(|k| Device::new(10.0 + k as f64, 0.5 + 0.25 * k as f64).unwrap())
                .collect();
            let chains: Vec<ServiceChain> = chain_lens
                .iter()
                .enumerate()
                .map(|(i, &len)| {
                    let rate = rates[i % rates.len()];
                    let frags = (0..len)
                        .map(|j| Fragment::new(1.0, 0.2 + 0.1 * j as f64).unwrap())
                        .collect();
                    ServiceChain::new(rate, frags).unwrap()
                })
                .collect();
            // Round-robin placement (always structurally valid).
            let assignment: Vec<Vec<usize>> = chain_lens
                .iter()
                .enumerate()
                .map(|(i, &len)| (0..len).map(|j| (i + j + seed as usize) % nd).collect())
                .collect();
            SystemModel::new(devices, chains, Placement::new(assignment)).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Throughput of each chain never exceeds its offered rate (up to
    /// simulation noise), and loss probabilities are proper probabilities.
    #[test]
    fn throughput_bounded_and_loss_in_unit_interval(model in arb_model(), seed in 0u64..100) {
        let cfg = SimConfig::new(3_000.0, seed);
        let res = Simulator::new().run(&model, &cfg).unwrap();
        for (i, c) in res.chains.iter().enumerate() {
            let lam = model.chains()[i].arrival_rate;
            prop_assert!(c.throughput <= lam * 1.25 + 0.05,
                "chain {i}: X={} lambda={lam}", c.throughput);
            prop_assert!((0.0..=1.0).contains(&c.loss_probability));
            prop_assert!(c.mean_latency >= 0.0);
        }
        prop_assert!((0.0..=1.0).contains(&res.loss_probability));
    }

    /// Flow conservation: within the measurement window, a chain's
    /// completions plus losses can never exceed its arrivals plus the jobs
    /// that were in flight at warm-up (bounded by total buffer space).
    #[test]
    fn completions_and_losses_bounded_by_arrivals(model in arb_model(), seed in 0u64..100) {
        let cfg = SimConfig::new(3_000.0, seed);
        let res = Simulator::new().run(&model, &cfg).unwrap();
        let buffer_total: f64 = model.devices().iter().map(|d| d.memory).sum();
        for c in &res.chains {
            prop_assert!(
                c.completions + c.losses <= c.arrivals + buffer_total as u64 + 1,
                "completions {} + losses {} vs arrivals {}",
                c.completions, c.losses, c.arrivals
            );
        }
    }

    /// Equal seeds reproduce identical results; the simulator is a pure
    /// function of (model, config).
    #[test]
    fn simulation_is_deterministic(model in arb_model(), seed in 0u64..50) {
        let cfg = SimConfig::new(1_000.0, seed);
        let a = Simulator::new().run(&model, &cfg).unwrap();
        let b = Simulator::new().run(&model, &cfg).unwrap();
        prop_assert_eq!(a, b);
    }

    /// A run with an *empty* fault schedule is bit-identical to a plain
    /// run: the resilience layer consumes no randomness and perturbs no
    /// event ordering when unused (per-chain throughput, latency, loss,
    /// per-device stats and event counts all match exactly).
    #[test]
    fn empty_fault_schedule_is_bit_identical(model in arb_model(), seed in 0u64..50) {
        let cfg = SimConfig::new(1_000.0, seed);
        let plain = Simulator::new().run(&model, &cfg).unwrap();
        let faulted = Simulator::new()
            .run_faulted_observed(&model, &cfg, &FaultSchedule::new(), &Obs::disabled())
            .unwrap();
        prop_assert_eq!(plain, faulted);
    }

    /// Fault injection stays deterministic: the same seed and the same
    /// schedule reproduce identical statistics.
    #[test]
    fn fault_injection_is_deterministic(model in arb_model(), seed in 0u64..50,
                                        crash_at in 100.0f64..900.0, outage in 10.0f64..200.0) {
        let schedule = FaultSchedule::new()
            .crash(crash_at, 0)
            .recover(crash_at + outage, 0);
        let cfg = SimConfig::new(1_000.0, seed);
        let a = Simulator::new().run_faulted_observed(&model, &cfg, &schedule, &Obs::disabled()).unwrap();
        let b = Simulator::new().run_faulted_observed(&model, &cfg, &schedule, &Obs::disabled()).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Crashing a device never manufactures throughput: total completed
    /// work under an outage is at most the healthy run's (up to noise),
    /// and all invariants still hold.
    #[test]
    fn crash_never_increases_completions(model in arb_model(), seed in 0u64..50) {
        let cfg = SimConfig::new(1_000.0, seed);
        let schedule = FaultSchedule::new().crash(200.0, 0).recover(800.0, 0);
        let healthy = Simulator::new().run(&model, &cfg).unwrap();
        let faulted = Simulator::new().run_faulted_observed(&model, &cfg, &schedule, &Obs::disabled()).unwrap();
        let sum = |r: &chainnet_qsim::SimResult| -> u64 {
            r.chains.iter().map(|c| c.completions).sum()
        };
        // The outage can only remove completions among jobs routed
        // through device 0; allow slack for re-randomized dynamics.
        prop_assert!(sum(&faulted) <= sum(&healthy) + sum(&healthy) / 4 + 50,
            "faulted {} healthy {}", sum(&faulted), sum(&healthy));
        prop_assert!((0.0..=1.0).contains(&faulted.loss_probability));
    }

    /// Device utilization is a fraction of time.
    #[test]
    fn utilization_in_unit_interval(model in arb_model(), seed in 0u64..50) {
        let cfg = SimConfig::new(2_000.0, seed);
        let res = Simulator::new().run(&model, &cfg).unwrap();
        for d in &res.devices {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&d.utilization));
            prop_assert!(d.mean_jobs >= -1e-9);
        }
    }

    /// APH fitting matches the requested first two moments analytically.
    #[test]
    fn aph_fit_matches_moments(mean in 0.05f64..20.0, scv in 0.15f64..10.0) {
        let d = Dist::aph(mean, scv).unwrap();
        prop_assert!((d.mean() - mean).abs() / mean < 1e-6,
            "mean {} vs {}", d.mean(), mean);
        prop_assert!((d.scv() - scv).abs() / scv < 1e-6,
            "scv {} vs {}", d.scv(), scv);
    }

    /// Larger buffers never increase the loss probability (monotonicity),
    /// checked on a single M/M/1/K station with a fixed seed pair.
    #[test]
    fn loss_monotone_in_buffer(lambda in 0.3f64..1.5, k in 2u64..8) {
        let build = |cap: f64| {
            let devices = vec![Device::new(cap, 1.0).unwrap()];
            let chains = vec![ServiceChain::new(lambda, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap()];
            SystemModel::new(devices, chains, Placement::new(vec![vec![0]])).unwrap()
        };
        let cfg = SimConfig::new(50_000.0, 1234);
        let small = Simulator::new().run(&build(k as f64), &cfg).unwrap();
        let large = Simulator::new().run(&build((k + 6) as f64), &cfg).unwrap();
        prop_assert!(large.loss_probability <= small.loss_probability + 0.02,
            "large {} small {}", large.loss_probability, small.loss_probability);
    }
}
