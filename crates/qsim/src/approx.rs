//! Fixed-point decomposition approximation for multi-chain finite-buffer
//! networks.
//!
//! The paper (Section III) notes that exact analysis of these networks is
//! intractable and cites approximate single-chain analyses (refs.\ 20 and 21 in
//! the paper). This module implements the classic decomposition idea as a
//! fast analytic baseline: every device is approximated as an independent
//! M/M/1/K queue whose arrival rate is the *surviving* flow of all
//! fragments placed on it, and whose service rate is the flow-weighted
//! aggregate of the fragment processing rates. Because downstream flows
//! depend on upstream losses and vice versa (shared devices), the
//! per-device loss probabilities are solved by fixed-point iteration.
//!
//! The approximation is deliberately simple — it ignores non-Poisson
//! departure processes and service-time differentiation in the queue — but
//! it is orders of magnitude faster than simulation and exact for a single
//! M/M/1/K station, which makes it a useful sanity baseline and a cheap
//! third evaluator for the placement search.

use crate::analytic;
use crate::model::{MemoryPolicy, SystemModel};
use serde::{Deserialize, Serialize};

/// Configuration of the fixed-point solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApproxConfig {
    /// Maximum fixed-point iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on loss probabilities.
    pub tolerance: f64,
    /// Damping factor in `(0, 1]` (1 = undamped).
    pub damping: f64,
    /// How job memory occupancy maps to queue capacity.
    pub memory_policy: MemoryPolicy,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            tolerance: 1e-9,
            damping: 0.7,
            memory_policy: MemoryPolicy::UnitPerJob,
        }
    }
}

/// Per-chain analytic estimates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApproxChain {
    /// Estimated throughput `X_i`.
    pub throughput: f64,
    /// Estimated end-to-end latency `L_i`.
    pub latency: f64,
    /// Estimated loss probability `1 - X_i / λ_i`.
    pub loss_probability: f64,
}

/// The result of the decomposition approximation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApproxResult {
    /// Per-chain estimates.
    pub chains: Vec<ApproxChain>,
    /// Per-device loss probabilities at the fixed point.
    pub device_loss: Vec<f64>,
    /// Total estimated throughput.
    pub total_throughput: f64,
    /// Fixed-point iterations used.
    pub iterations: usize,
    /// Whether the solver converged within the iteration budget.
    pub converged: bool,
}

/// Solve the decomposition approximation for `model`.
///
/// # Examples
///
/// ```
/// use chainnet_qsim::approx::{solve, ApproxConfig};
/// use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};
///
/// # fn main() -> Result<(), chainnet_qsim::QsimError> {
/// let devices = vec![Device::new(5.0, 1.0)?];
/// let chains = vec![ServiceChain::new(0.9, vec![Fragment::new(1.0, 1.0)?])?];
/// let model = SystemModel::new(devices, chains, Placement::new(vec![vec![0]]))?;
/// let approx = solve(&model, &ApproxConfig::default());
/// // Single station: exact M/M/1/K result.
/// assert!(approx.chains[0].loss_probability > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn solve(model: &SystemModel, config: &ApproxConfig) -> ApproxResult {
    let num_devices = model.devices().len();

    // Queue capacity in jobs per device under the memory policy.
    let capacity: Vec<usize> = model
        .devices()
        .iter()
        .enumerate()
        .map(|(k, d)| match config.memory_policy {
            MemoryPolicy::UnitPerJob => (d.memory.floor() as usize).max(1),
            MemoryPolicy::DemandPerJob => {
                // Conservative: capacity in units of the largest fragment
                // memory demand placed on the device.
                let max_mem = model
                    .placement()
                    .iter()
                    .filter(|&(_, _, kk)| kk == k)
                    .map(|(i, j, _)| model.chains()[i].fragments[j].mem)
                    .fold(0.0f64, f64::max);
                if max_mem <= 0.0 {
                    1
                } else {
                    ((d.memory / max_mem).floor() as usize).max(1)
                }
            }
        })
        .collect();

    // Fixed point on per-device loss probabilities.
    let mut device_loss = vec![0.0f64; num_devices];
    let mut iterations = 0;
    let mut converged = false;
    while iterations < config.max_iterations {
        iterations += 1;
        // 1. Propagate surviving flows along each chain.
        let mut arrival = vec![0.0f64; num_devices]; // aggregate λ per device
        let mut weighted_service = vec![0.0f64; num_devices]; // Σ λ_f t_f
        for (i, chain) in model.chains().iter().enumerate() {
            let mut flow = chain.arrival_rate;
            for j in 0..chain.len() {
                let k = model.placement().device_of(i, j);
                arrival[k] += flow;
                weighted_service[k] += flow * model.processing_time(i, j);
                // Survivors continue (also across the reliability hop).
                flow *= 1.0 - device_loss[k];
                if j + 1 < chain.len() {
                    flow *= chain.hop_success(j);
                }
            }
        }
        // 2. Update per-device loss from the M/M/1/K formula.
        let mut max_delta = 0.0f64;
        for k in 0..num_devices {
            let new_loss = if arrival[k] <= 0.0 {
                Some(0.0)
            } else {
                effective_service_rate(arrival[k], weighted_service[k])
                    .map(|mu| analytic::mm1k_loss_probability(arrival[k], mu, capacity[k]))
            };
            // A stalled device's loss is its exact limit, not an iterate.
            let damped = match new_loss {
                Some(loss) => config.damping * loss + (1.0 - config.damping) * device_loss[k],
                None => 1.0,
            };
            max_delta = max_delta.max((damped - device_loss[k]).abs());
            device_loss[k] = damped;
        }
        if max_delta < config.tolerance {
            converged = true;
            break;
        }
    }

    // 3. Final pass: per-chain throughput and latency.
    let mut arrival = vec![0.0f64; num_devices];
    let mut weighted_service = vec![0.0f64; num_devices];
    for (i, chain) in model.chains().iter().enumerate() {
        let mut flow = chain.arrival_rate;
        for j in 0..chain.len() {
            let k = model.placement().device_of(i, j);
            arrival[k] += flow;
            weighted_service[k] += flow * model.processing_time(i, j);
            flow *= 1.0 - device_loss[k];
            if j + 1 < chain.len() {
                flow *= chain.hop_success(j);
            }
        }
    }
    let response: Vec<f64> = (0..num_devices)
        .map(|k| {
            if arrival[k] <= 0.0 {
                0.0
            } else {
                effective_service_rate(arrival[k], weighted_service[k])
                    .map_or(f64::INFINITY, |mu| {
                        analytic::mm1k_response_time(arrival[k], mu, capacity[k])
                    })
            }
        })
        .collect();

    let chains: Vec<ApproxChain> = model
        .chains()
        .iter()
        .enumerate()
        .map(|(i, chain)| {
            let mut flow = chain.arrival_rate;
            let mut latency = 0.0;
            for j in 0..chain.len() {
                let k = model.placement().device_of(i, j);
                latency += response[k];
                flow *= 1.0 - device_loss[k];
                if j + 1 < chain.len() {
                    flow *= chain.hop_success(j);
                }
            }
            ApproxChain {
                throughput: flow,
                latency,
                loss_probability: (1.0 - flow / chain.arrival_rate).clamp(0.0, 1.0),
            }
        })
        .collect();
    let total = chains.iter().map(|c| c.throughput).sum();
    ApproxResult {
        chains,
        device_loss,
        total_throughput: total,
        iterations,
        converged,
    }
}

/// The M/M/1/K service rate of a device with aggregate arrival rate
/// `arrival > 0` and flow-weighted service-time sum `weighted_service`,
/// or `None` when its mean service time is not finite: the device's
/// service rate is degraded so far that processing times overflow to
/// infinity (NaN where such a fragment carries no flow). Such a device
/// takes the `mu -> 0` limit: it drops every arrival, so the chains
/// through it carry throughput 0, and a job in it never completes.
fn effective_service_rate(arrival: f64, weighted_service: f64) -> Option<f64> {
    let mean_service = weighted_service / arrival;
    mean_service
        .is_finite()
        .then(|| 1.0 / mean_service.max(1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Device, Fragment, Placement, ServiceChain};
    use crate::sim::{SimConfig, Simulator};

    fn single_station(lambda: f64, mu: f64, k: f64) -> SystemModel {
        let devices = vec![Device::new(k, mu).unwrap()];
        let chains =
            vec![ServiceChain::new(lambda, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap()];
        SystemModel::new(devices, chains, Placement::new(vec![vec![0]])).unwrap()
    }

    #[test]
    fn exact_for_single_mm1k() {
        let model = single_station(0.9, 1.0, 5.0);
        let res = solve(&model, &ApproxConfig::default());
        let exact = analytic::mm1k_loss_probability(0.9, 1.0, 5);
        assert!(res.converged);
        assert!((res.chains[0].loss_probability - exact).abs() < 1e-9);
        let exact_w = analytic::mm1k_response_time(0.9, 1.0, 5);
        assert!((res.chains[0].latency - exact_w).abs() < 1e-9);
    }

    #[test]
    fn stalled_device_drops_everything_without_panicking() {
        // 1/1e-320 overflows: the device's effective service rate is 0.
        let model = single_station(0.9, 1e-320, 5.0);
        let res = solve(&model, &ApproxConfig::default());
        assert_eq!(res.device_loss, vec![1.0]);
        assert_eq!(res.chains[0].throughput, 0.0);
        assert_eq!(res.chains[0].loss_probability, 1.0);
        assert_eq!(res.chains[0].latency, f64::INFINITY);
        assert_eq!(res.total_throughput, 0.0);
        assert!(res.converged);

        // A chain on a healthy device next to it keeps its exact answer.
        let devices = vec![
            Device::new(5.0, 1e-320).unwrap(),
            Device::new(5.0, 1.0).unwrap(),
        ];
        let frag = || vec![Fragment::new(1.0, 1.0).unwrap()];
        let chains = vec![
            ServiceChain::new(0.9, frag()).unwrap(),
            ServiceChain::new(0.9, frag()).unwrap(),
        ];
        let model =
            SystemModel::new(devices, chains, Placement::new(vec![vec![0], vec![1]])).unwrap();
        let res = solve(&model, &ApproxConfig::default());
        assert_eq!(res.chains[0].throughput, 0.0);
        let exact = analytic::mm1k_throughput(0.9, 1.0, 5);
        assert!((res.chains[1].throughput - exact).abs() < 1e-9);
    }

    #[test]
    fn overloaded_device_yields_probabilities_not_nan() {
        // ρ = 0.9/μ from 9e19 to 9e299: the textbook M/M/1/K powers of ρ
        // overflow or cancel here.
        for mu in [1e-20, 1e-100, 1e-300] {
            let res = solve(&single_station(0.9, mu, 5.0), &ApproxConfig::default());
            let chain = &res.chains[0];
            assert!(
                (0.0..=1.0).contains(&chain.loss_probability),
                "μ {mu}: {chain:?}"
            );
            assert!((0.0..=0.9).contains(&chain.throughput), "μ {mu}: {chain:?}");
            assert!(chain.latency >= 1.0 / mu, "μ {mu}: {chain:?}");
        }
    }

    #[test]
    fn tandem_close_to_simulation() {
        let devices = vec![
            Device::new(8.0, 1.0).unwrap(),
            Device::new(8.0, 1.2).unwrap(),
        ];
        let chains = vec![ServiceChain::new(
            0.8,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
            ],
        )
        .unwrap()];
        let model = SystemModel::new(devices, chains, Placement::new(vec![vec![0, 1]])).unwrap();
        let approx = solve(&model, &ApproxConfig::default());
        let sim = Simulator::new()
            .run(&model, &SimConfig::new(200_000.0, 4))
            .unwrap();
        // Decomposition ignores departure-process correlations, so allow a
        // generous but meaningful tolerance.
        assert!(
            (approx.chains[0].throughput - sim.chains[0].throughput).abs() < 0.08,
            "approx {} vs sim {}",
            approx.chains[0].throughput,
            sim.chains[0].throughput
        );
        assert!(
            (approx.chains[0].latency - sim.chains[0].mean_latency).abs()
                / sim.chains[0].mean_latency
                < 0.35,
            "approx {} vs sim {}",
            approx.chains[0].latency,
            sim.chains[0].mean_latency
        );
    }

    #[test]
    fn shared_device_fixed_point_converges() {
        let devices = vec![
            Device::new(6.0, 1.0).unwrap(),
            Device::new(6.0, 1.0).unwrap(),
        ];
        let chains = vec![
            ServiceChain::new(
                0.5,
                vec![
                    Fragment::new(1.0, 1.0).unwrap(),
                    Fragment::new(1.0, 0.5).unwrap(),
                ],
            )
            .unwrap(),
            ServiceChain::new(0.4, vec![Fragment::new(1.0, 0.8).unwrap()]).unwrap(),
        ];
        // Device 0 shared by chain 0 (frag 0) and chain 1.
        let model =
            SystemModel::new(devices, chains, Placement::new(vec![vec![0, 1], vec![0]])).unwrap();
        let res = solve(&model, &ApproxConfig::default());
        assert!(res.converged, "fixed point must converge");
        for c in &res.chains {
            assert!((0.0..=1.0).contains(&c.loss_probability));
            assert!(c.throughput >= 0.0 && c.latency >= 0.0);
        }
    }

    #[test]
    fn overload_yields_high_loss() {
        let model = single_station(3.0, 1.0, 3.0);
        let res = solve(&model, &ApproxConfig::default());
        assert!(res.chains[0].loss_probability > 0.5);
        // Throughput capped near the service rate.
        assert!(res.chains[0].throughput <= 1.05);
    }

    #[test]
    fn larger_buffer_reduces_loss() {
        let small = solve(&single_station(0.9, 1.0, 3.0), &ApproxConfig::default());
        let large = solve(&single_station(0.9, 1.0, 30.0), &ApproxConfig::default());
        assert!(large.chains[0].loss_probability < small.chains[0].loss_probability);
    }

    #[test]
    fn unreliable_hops_reduce_throughput() {
        let devices = vec![
            Device::new(10.0, 2.0).unwrap(),
            Device::new(10.0, 2.0).unwrap(),
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
        let res = solve(&model, &ApproxConfig::default());
        assert!(res.chains[0].throughput < 0.3);
    }

    #[test]
    fn ranking_agrees_with_simulation_on_clear_cases() {
        // Good placement: fast device does the heavy fragment.
        let devices = vec![
            Device::new(8.0, 2.0).unwrap(),
            Device::new(8.0, 0.5).unwrap(),
        ];
        let chains = vec![ServiceChain::new(
            0.7,
            vec![
                Fragment::new(1.0, 1.2).unwrap(),
                Fragment::new(1.0, 0.2).unwrap(),
            ],
        )
        .unwrap()];
        let good = SystemModel::new(
            devices.clone(),
            chains.clone(),
            Placement::new(vec![vec![0, 1]]),
        )
        .unwrap();
        let bad = SystemModel::new(devices, chains, Placement::new(vec![vec![1, 0]])).unwrap();
        let cfg = ApproxConfig::default();
        let (xa_good, xa_bad) = (
            solve(&good, &cfg).total_throughput,
            solve(&bad, &cfg).total_throughput,
        );
        assert!(
            xa_good > xa_bad,
            "approx must rank the placements correctly"
        );
        let sim_cfg = SimConfig::new(100_000.0, 5);
        let xs_good = Simulator::new()
            .run(&good, &sim_cfg)
            .unwrap()
            .total_throughput;
        let xs_bad = Simulator::new()
            .run(&bad, &sim_cfg)
            .unwrap()
            .total_throughput;
        assert!(xs_good > xs_bad, "simulation agrees with the ranking");
    }
}
