//! Seeded inputs: open-loop arrival schedules and fault schedules. The
//! same seed always yields the same schedule; the programs under test
//! only ever see the requests these produce.

use chainnet_placement::problem::PlacementProblem;
use chainnet_qsim::faults::FaultKind;
use chainnet_serve::engine::{apply_fault_to_parts, FactorEntry};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Mix a workload seed with a stream tag so independent schedules drawn
/// from one seed do not share random numbers.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer.
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e9b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Due times (seconds from the start of the window) of `round(rate *
/// window)` arrivals at `rate` per second; see [`stratified_arrivals`].
pub fn poisson_arrivals(rate: f64, window: f64, seed: u64) -> Vec<f64> {
    let n = (rate * window).round().max(0.0) as usize;
    stratified_arrivals(n, window, seed)
}

/// Due times of `n` arrivals over `window` seconds whose gaps follow a
/// stratified exponential law: gap `i` is the exponential quantile at
/// `(i + u) / n` with `u` uniform in [0, 1), and the seed shuffles the
/// order of the gaps. Every gap is exponential at rate `n / window`, as
/// in a Poisson process, but every seed draws nearly the same set of
/// gaps. With a single server, queueing delay depends mostly on how many
/// gaps are shorter than a service time, so latency percentiles then
/// differ between seeds by the order of the gaps, not by how many short
/// ones a seed happened to draw. The times are scaled so the last one
/// falls about one mean gap before the end of the window.
pub fn stratified_arrivals(n: usize, window: f64, seed: u64) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    let rate = n as f64 / window;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| {
            let u = (i as f64 + rng.gen_range(0.0..1.0)) / n as f64;
            -(1.0 - u).ln() / rate
        })
        .collect();
    gaps.shuffle(&mut rng);
    let scale = window / (gaps.iter().sum::<f64>() + 1.0 / rate);
    gaps.iter()
        .scan(0.0, |t, g| {
            *t += g * scale;
            Some(*t)
        })
        .collect()
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A `Place` request with no hint and no deadline.
    Place,
    /// A broadcast fault event.
    Fault(FaultKind),
}

/// A request and the moment it is due, in seconds from the window start.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    /// Due time.
    pub due: f64,
    /// What to send.
    pub op: Op,
}

/// `Place` requests at `place_rate` merged with `n` fault events from
/// [`fault_sequence`], `fault_rate * window` rounded to an even number so
/// every injection is reverted by the end of the window. Fault `k` is due at
/// `(k + 0.5) * window / n`, so every fault state lasts equally long in
/// every run. The `Place` requests between two faults are a fixed number
/// (`place_rate` times the interval, rounded cumulatively) with
/// [`stratified_arrivals`] drawn from `seed`, so every seed sends the
/// same sequence of requests and seeds differ in their timing only.
pub fn churn_schedule(
    problem: &PlacementProblem,
    place_rate: f64,
    fault_rate: f64,
    window: f64,
    seed: u64,
) -> Vec<Scheduled> {
    let n = 2 * (fault_rate * window / 2.0).round().max(0.0) as usize;
    let slot = window / n.max(1) as f64;
    let fault_due: Vec<f64> = (0..n).map(|k| (k as f64 + 0.5) * slot).collect();
    let bounds: Vec<f64> = std::iter::once(0.0)
        .chain(fault_due.iter().copied())
        .chain(std::iter::once(window))
        .collect();
    let count = |t: f64| (place_rate * t).round().max(0.0) as usize;
    let places = bounds.windows(2).enumerate().flat_map(|(k, w)| {
        stratified_arrivals(
            count(w[1]) - count(w[0]),
            w[1] - w[0],
            sub_seed(seed, k as u64),
        )
        .into_iter()
        .map(move |t| w[0] + t)
    });
    let faults = fault_sequence(problem, fault_due.len());
    let mut out: Vec<Scheduled> = places
        .map(|due| Scheduled { due, op: Op::Place })
        .chain(
            fault_due
                .into_iter()
                .zip(faults)
                .map(|(due, kind)| Scheduled {
                    due,
                    op: Op::Fault(kind),
                }),
        )
        .collect();
    out.sort_by(|a, b| a.due.total_cmp(&b.due));
    out
}

/// Fault state the engine accumulates, mirrored so the benchmark knows
/// the effective topology after each event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultState {
    /// Crashed devices, sorted.
    pub crashed: Vec<usize>,
    /// Active service-rate degradations.
    pub degraded: Vec<FactorEntry>,
    /// Active arrival bursts.
    pub bursts: Vec<FactorEntry>,
}

impl FaultState {
    /// Apply one event with the engine's own bookkeeping.
    pub fn apply(&mut self, problem: &PlacementProblem, kind: &FaultKind) -> bool {
        let event = chainnet_qsim::faults::FaultEvent {
            time: 0.0,
            kind: *kind,
        };
        apply_fault_to_parts(
            &event,
            problem.num_devices(),
            problem.num_chains(),
            &mut self.crashed,
            &mut self.degraded,
            &mut self.bursts,
        )
        .is_ok()
    }

    /// The effective topology: the nominal problem with this state
    /// applied exactly as the serving engine applies it (a crashed
    /// device keeps its index but has no memory left).
    pub fn effective(&self, nominal: &PlacementProblem) -> PlacementProblem {
        let mut eff = nominal.clone();
        for e in &self.degraded {
            if let Some(d) = eff.devices.get_mut(e.idx) {
                d.service_rate *= e.factor;
            }
        }
        for &k in &self.crashed {
            if let Some(d) = eff.devices.get_mut(k) {
                d.memory = f64::MIN_POSITIVE;
            }
        }
        for e in &self.bursts {
            if let Some(c) = eff.chains.get_mut(e.idx) {
                c.arrival_rate *= e.factor;
            }
        }
        eff
    }
}

/// `n` fault events of a fixed program: injections alternating with the
/// revert of the injection before it, so at most one fault is active and
/// about half the requests see the nominal topology. Injections cycle
/// crash → degrade (×0.5) → burst (×1.5) over the devices and chains in
/// order. A device is only crashed when the remaining ones still admit a
/// feasible placement, so every crash has a repair. The program is the
/// same for every seed; the seed draws when each event is due, so
/// answer quality varies with timing, not with which device failed.
pub fn fault_sequence(problem: &PlacementProblem, n: usize) -> Vec<FaultKind> {
    let crashable: Vec<usize> = (0..problem.num_devices())
        .filter(|&k| {
            let mut s = FaultState::default();
            s.apply(problem, &FaultKind::DeviceCrash { device: k })
                && s.effective(problem).initial_placement().is_ok()
        })
        .collect();
    let injection = |i: usize| match i % 3 {
        0 if !crashable.is_empty() => FaultKind::DeviceCrash {
            device: crashable[(i / 3) % crashable.len()],
        },
        0 | 1 => FaultKind::ServiceDegrade {
            device: (i / 3) % problem.num_devices(),
            factor: 0.5,
        },
        _ => FaultKind::ArrivalBurst {
            chain: (i / 3) % problem.num_chains(),
            factor: 1.5,
        },
    };
    (0..n)
        .map(|e| {
            let kind = injection(e / 2);
            if e % 2 == 0 {
                return kind;
            }
            match kind {
                FaultKind::DeviceCrash { device } => FaultKind::DeviceRecover { device },
                FaultKind::ServiceDegrade { device, .. } => FaultKind::ServiceRestore { device },
                FaultKind::ArrivalBurst { chain, .. } => FaultKind::ArrivalCalm { chain },
                other => other,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainnet_datagen::case_study_problem;

    #[test]
    fn arrivals_are_seed_deterministic_sorted_and_in_window() {
        let a = poisson_arrivals(8.0, 12.5, 42);
        assert_eq!(a, poisson_arrivals(8.0, 12.5, 42));
        assert_ne!(a, poisson_arrivals(8.0, 12.5, 43));
        assert_eq!(a.len(), 100);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..12.5).contains(&t)));
    }

    #[test]
    fn arrival_gaps_are_stratified_exponential() {
        let gaps = |seed| {
            let a = poisson_arrivals(4.0, 50.0, seed);
            let mut g: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
            g.sort_by(f64::total_cmp);
            g
        };
        let (a, b) = (gaps(1), gaps(2));
        // Mean gap 1 / rate; a share of about 1 - e^-1 shorter than it.
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        assert!((mean - 0.25).abs() < 0.03, "mean gap {mean}");
        let short = a.iter().filter(|&&g| g < 0.25).count() as f64 / a.len() as f64;
        assert!((short - 0.632).abs() < 0.03, "short share {short}");
        // Two seeds draw nearly the same sorted gaps (the largest
        // stratum is unbounded, so compare the lower 90 %).
        let k = a.len() * 9 / 10;
        for (x, y) in a[..k].iter().zip(&b[..k]) {
            assert!((x - y).abs() < 0.03, "{x} vs {y}");
        }
    }

    #[test]
    fn sub_seeds_separate_streams() {
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
        assert_eq!(sub_seed(5, 3), sub_seed(5, 3));
    }

    #[test]
    fn churn_schedule_is_seed_deterministic() {
        let p = case_study_problem().expect("case study");
        let a = churn_schedule(&p, 4.0, 0.8, 10.0, 7);
        assert_eq!(a, churn_schedule(&p, 4.0, 0.8, 10.0, 7));
        assert_ne!(a, churn_schedule(&p, 4.0, 0.8, 10.0, 8));
        let faults = a.iter().filter(|s| matches!(s.op, Op::Fault(_))).count();
        assert_eq!((a.len() - faults, faults), (40, 8));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        // Every seed sends the same sequence of requests.
        let ops = |s: &[Scheduled]| s.iter().map(|x| x.op.clone()).collect::<Vec<_>>();
        assert_eq!(ops(&a), ops(&churn_schedule(&p, 4.0, 0.8, 10.0, 8)));
    }

    #[test]
    fn faults_alternate_injection_and_revert() {
        let p = case_study_problem().expect("case study");
        let faults = fault_sequence(&p, 12);
        let mut state = FaultState::default();
        for (i, kind) in faults.iter().enumerate() {
            assert!(state.apply(&p, kind));
            let active = state.crashed.len() + state.degraded.len() + state.bursts.len();
            assert_eq!(active, usize::from(i % 2 == 0), "after event {i}: {kind:?}");
        }
    }

    #[test]
    fn every_crash_leaves_a_feasible_placement() {
        let p = case_study_problem().expect("case study");
        for n in [1, 7, 60] {
            let mut state = FaultState::default();
            for kind in fault_sequence(&p, n) {
                assert!(state.apply(&p, &kind), "engine rejects {kind:?}");
                assert!(state.crashed.len() <= 1);
                assert!(state.effective(&p).initial_placement().is_ok());
            }
        }
    }
}
