//! Engine-level request fuzz: arbitrary sequences of Topology, Place and
//! Fault requests with extreme but valid rates, factors and capacities,
//! driven through `Engine::handle` with and without an untrained
//! surrogate. No request may panic the engine, and every placement it
//! answers must carry a physically possible objective: finite, `>= 0`
//! and at most the largest total arrival rate the sequence has offered.
//! `protocol_fuzz.rs` stops at the parser; this continues past it.

use chainnet::config::ModelConfig;
use chainnet::model::ChainNet;
use chainnet_obs::Obs;
use chainnet_placement::problem::PlacementProblem;
use chainnet_qsim::faults::{FaultEvent, FaultKind};
use chainnet_qsim::model::{Device, Fragment, ServiceChain};
use chainnet_serve::{Engine, EngineConfig, Outcome, Request, RequestBody};
use proptest::prelude::*;
use std::time::Instant;

/// `10^exp`: the fuzz draws every magnitude on a log scale.
fn pow10(exp: f64) -> f64 {
    10f64.powf(exp)
}

/// A topology from drawn exponents: device `(memory, service rate)` and
/// chain `(arrival rate, [(fragment memory, work)])`. Rates span six
/// decades; memories from 0.1 (capacity one job) to 1000 jobs.
fn topology(devices: &[(f64, f64)], chains: &[(f64, Vec<(f64, f64)>)]) -> PlacementProblem {
    let devices = devices
        .iter()
        .map(|&(mem, rate)| Device::new(pow10(mem), pow10(rate)).expect("valid device"))
        .collect();
    let chains = chains
        .iter()
        .map(|(rate, frags)| {
            let frags = frags
                .iter()
                .map(|&(mem, work)| Fragment::new(pow10(mem), pow10(work)).expect("valid fragment"))
                .collect();
            ServiceChain::new(pow10(*rate), frags).expect("valid chain")
        })
        .collect();
    PlacementProblem { devices, chains }
}

/// A fault factor in one of three bands, so that each is drawn often:
/// `1e-320..1e-300` (subnormal or near-zero rates after the multiply),
/// `1e-3..1e3`, and `1e250..1e300`.
fn factor(band: u8, u: f64) -> f64 {
    match band {
        0 => pow10(-320.0 + 20.0 * u),
        1 => pow10(-3.0 + 6.0 * u),
        _ => pow10(250.0 + 50.0 * u),
    }
}

/// One drawn request: `(op, device or chain index, factor band, u)`.
type Op = (u8, usize, u8, f64);

/// The request for `op`. Indices may point past the topology (a typed
/// rejection).
fn body((op, idx, band, u): Op, topologies: &[PlacementProblem]) -> RequestBody {
    let factor = factor(band, u);
    let event = |kind| RequestBody::Fault {
        event: FaultEvent { time: 0.0, kind },
    };
    match op {
        0 => RequestBody::Topology {
            problem: topologies[idx % topologies.len()].clone(),
        },
        1 => event(FaultKind::DeviceCrash { device: idx }),
        2 => event(FaultKind::DeviceRecover { device: idx }),
        3 => event(FaultKind::ServiceDegrade {
            device: idx,
            factor,
        }),
        4 => event(FaultKind::ServiceRestore { device: idx }),
        5 => event(FaultKind::ArrivalBurst { chain: idx, factor }),
        6 => event(FaultKind::ArrivalCalm { chain: idx }),
        _ => RequestBody::Place { hint: None },
    }
}

/// Total arrival rate of the engine's current effective topology.
fn offered_rate(engine: &Engine) -> f64 {
    let state = engine.state();
    let Some(nominal) = &state.nominal else {
        return 0.0;
    };
    nominal
        .chains
        .iter()
        .enumerate()
        .map(|(c, chain)| {
            let burst = state.bursts.iter().find(|b| b.idx == c);
            chain.arrival_rate * burst.map_or(1.0, |b| b.factor)
        })
        .sum()
}

/// Drive `ops` through `engine`; the first error names the request.
fn drive(mut engine: Engine, ops: &[Op], topologies: &[PlacementProblem]) -> Result<(), String> {
    let mut max_offered = 0.0f64;
    for (id, &op) in ops.iter().enumerate() {
        let request = Request {
            id: id as u64,
            deadline_ms: None,
            body: body(op, topologies),
        };
        let response = engine.handle(&request, Instant::now());
        max_offered = max_offered.max(offered_rate(&engine));
        let context = || format!("request {id} {:?} -> {:?}", request.body, response.outcome);
        if response.id != request.id {
            return Err(format!("id mismatch: {}", context()));
        }
        match &response.outcome {
            Outcome::Placed {
                objective, loss, ..
            } => {
                if !(objective.is_finite() && *objective >= 0.0 && *objective <= max_offered) {
                    return Err(format!(
                        "objective outside [0, {max_offered}]: {}",
                        context()
                    ));
                }
                if !(0.0..=1.0).contains(loss) {
                    return Err(format!("loss outside [0, 1]: {}", context()));
                }
            }
            Outcome::Rejected { error, .. } if error.is_empty() => {
                return Err(format!("rejection without detail: {}", context()));
            }
            _ => {}
        }
    }
    Ok(())
}

fn engine() -> Engine {
    let config = EngineConfig {
        sa_steps: 6,
        trials: 1,
        neighborhood: 3,
        repair_steps: 2,
        fallback_horizon: 50.0,
        ..EngineConfig::default()
    };
    Engine::new(config, Obs::disabled())
}

/// Exponents of one topology: 2-5 devices, 1-3 chains of 1-3 fragments
/// (a chain longer than the device list is a typed rejection).
fn topology_strategy() -> impl Strategy<Value = PlacementProblem> {
    (
        proptest::collection::vec((-1.0f64..3.0, -3.0f64..3.0), 2..6),
        proptest::collection::vec(
            (
                -3.0f64..3.0,
                proptest::collection::vec((-2.0f64..0.5, -2.0f64..2.0), 1..4),
            ),
            1..4,
        ),
    )
        .prop_map(|(devices, chains)| topology(&devices, &chains))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_sequences_get_typed_physical_answers(
        topologies in proptest::collection::vec(topology_strategy(), 1..3),
        ops in proptest::collection::vec((0u8..12, 0usize..6, 0u8..3, 0.0f64..1.0), 1..12)
    ) {
        // Every sequence starts from an installed topology; later ops
        // may replace it.
        let mut ops = ops;
        ops.insert(0, (0, 0, 0, 0.0));
        let untrained = ChainNet::new(ModelConfig::small(), 3);
        for engine in [engine(), engine().with_surrogate(untrained)] {
            drive(engine, &ops, &topologies)?;
        }
    }
}
