//! Golden-trace regression tests for the simulator core.
//!
//! Each scenario's full `SimResult` is serialized to JSON and compared
//! byte-for-byte against a fixture committed under `tests/golden/`. The
//! fixtures were captured from the pre-optimization event loop, so any
//! arithmetic or event-ordering drift introduced by performance work
//! (pre-sized buffers, hoisted lookup tables, sampler caching) fails
//! these tests. A missing fixture is written from the current engine —
//! delete a file to intentionally re-baseline after an agreed behavior
//! change.

use chainnet_obs::Obs;
use chainnet_qsim::faults::FaultSchedule;
use chainnet_qsim::model::{
    Device, Fragment, MemoryPolicy, Placement, ServiceChain, ServicePolicy, SystemModel,
};
use chainnet_qsim::sim::{SimConfig, Simulator};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Serialize, then compare against (or create) the named fixture.
fn assert_golden(name: &str, json: &str) {
    let dir = golden_dir();
    let path = dir.join(format!("{name}.json"));
    if !path.exists() {
        std::fs::create_dir_all(&dir).expect("create golden dir");
        std::fs::write(&path, json).expect("write golden fixture");
        eprintln!("golden fixture {name} created; rerun to compare");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("read golden fixture");
    assert_eq!(
        expected, json,
        "SimResult for scenario `{name}` drifted from its golden fixture"
    );
}

/// Two chains over three devices, one shared; exponential service.
fn shared_device_model() -> SystemModel {
    let devices = vec![
        Device::new(6.0, 1.0).unwrap(),
        Device::new(4.0, 2.0).unwrap(),
        Device::new(5.0, 1.5).unwrap(),
    ];
    let chains = vec![
        ServiceChain::new(
            0.6,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(2.0, 2.0).unwrap(),
            ],
        )
        .unwrap(),
        ServiceChain::new(
            0.4,
            vec![
                Fragment::new(1.0, 1.5).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(2.0, 0.5).unwrap(),
            ],
        )
        .unwrap(),
    ];
    let placement = Placement::new(vec![vec![0, 1], vec![1, 2, 0]]);
    SystemModel::new(devices, chains, placement).unwrap()
}

#[test]
fn golden_plain_run() {
    let model = shared_device_model();
    let cfg = SimConfig::new(5_000.0, 42).with_trace_capacity(64);
    let res = Simulator::new().run(&model, &cfg).unwrap();
    assert_golden("plain_run", &serde_json::to_string(&res).unwrap());
}

#[test]
fn golden_multiserver_deterministic_unit_memory() {
    let devices = vec![
        Device::new(8.0, 1.2).unwrap().with_servers(2),
        Device::new(3.0, 2.5).unwrap(),
    ];
    let chains = vec![ServiceChain::new(
        1.1,
        vec![
            Fragment::new(1.0, 1.0).unwrap(),
            Fragment::new(1.0, 2.0).unwrap(),
        ],
    )
    .unwrap()];
    let model = SystemModel::new(devices, chains, Placement::new(vec![vec![0, 1]])).unwrap();
    let cfg = SimConfig::new(4_000.0, 7)
        .with_service_policy(ServicePolicy::Deterministic)
        .with_memory_policy(MemoryPolicy::UnitPerJob);
    let res = Simulator::new().run(&model, &cfg).unwrap();
    assert_golden("multiserver_det", &serde_json::to_string(&res).unwrap());
}

#[test]
fn golden_fault_schedule_run() {
    let model = shared_device_model();
    let faults = FaultSchedule::new()
        .crash(900.0, 1)
        .recover(1_400.0, 1)
        .degrade(2_000.0, 0, 0.5)
        .restore(2_600.0, 0)
        .burst(3_000.0, 0, 2.0)
        .calm(3_500.0, 0);
    let cfg = SimConfig::new(5_000.0, 13).with_trace_capacity(32);
    let res = Simulator::new()
        .run_faulted_observed(&model, &cfg, &faults, &Obs::disabled())
        .unwrap();
    assert_golden("fault_schedule", &serde_json::to_string(&res).unwrap());
}

#[test]
fn golden_budget_trip_partial_stats() {
    let model = shared_device_model();
    let cfg = SimConfig::new(1_000_000.0, 5).with_max_events(10_000);
    let err = Simulator::new().run(&model, &cfg).unwrap_err();
    let chainnet_qsim::QsimError::BudgetExceeded { partial, .. } = err else {
        panic!("expected a budget trip");
    };
    assert_golden("budget_partial", &serde_json::to_string(&partial).unwrap());
}
