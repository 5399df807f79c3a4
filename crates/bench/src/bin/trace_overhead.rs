//! Tracing-overhead gate: proves the disabled-tracer span calls wired
//! through the hot paths cost less than 1% of hot-path wall time.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p chainnet-bench --bin trace_overhead -- \
//!     [--quick] [--max-overhead <pct>] [--out <path>]
//! ```
//!
//! Three measurements feed the gate:
//!
//! 1. **workload** — wall time of a multi-chain simulator run with a
//!    disabled [`Obs`] (best of several repetitions, so transient
//!    scheduler noise cannot fail the gate spuriously);
//! 2. **span count** — the same workload under an enabled tracer, to
//!    count how many span call sites it actually crosses;
//! 3. **per-call cost** — a tight loop of disabled `tracer.span()`
//!    calls (one branch on a `None` arc, no allocation).
//!
//! The projected overhead is `span_count * per_call_ns / workload_ns`;
//! the process exits non-zero if it exceeds `--max-overhead`
//! (default 1.0, the acceptance bound from the observability PR). A
//! machine-readable JSON summary lands at `--out` for the CI artifact.

use chainnet_obs::{Obs, Tracer};
use chainnet_qsim::faults::FaultSchedule;
use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};
use chainnet_qsim::sim::{SimConfig, Simulator};
use std::time::Instant;

/// The BENCH_PR5 event-loop scenario (perfbench's
/// `qsim.events_per_s.hotpath` probe): shared devices,
/// multi-fragment chains, enough contention to keep the event loop hot.
fn scenario() -> SystemModel {
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
    SystemModel::new(
        devices,
        chains,
        Placement::new(vec![vec![0, 1], vec![1, 2, 0]]),
    )
    .unwrap()
}

/// Best-of-`reps` wall time (ns) of one simulator run with `obs`.
fn measure_run_ns(model: &SystemModel, cfg: &SimConfig, obs: &Obs, reps: usize) -> f64 {
    let faults = FaultSchedule::new();
    let sim = Simulator::new();
    let _ = sim.run_faulted_observed(model, cfg, &faults, obs).unwrap();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let r = sim.run_faulted_observed(model, cfg, &faults, obs).unwrap();
        let ns = start.elapsed().as_nanos() as f64;
        assert!(r.events > 0);
        best = best.min(ns);
    }
    best
}

/// Per-call cost (ns) of a span on a disabled tracer.
fn measure_disabled_span_ns(calls: usize) -> f64 {
    let tracer = Tracer::disabled();
    // Warm-up to fault in the code path.
    for _ in 0..1_000 {
        let _g = tracer.span("qsim.run");
    }
    let start = Instant::now();
    for _ in 0..calls {
        let _g = tracer.span("qsim.run");
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag_value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let max_overhead: f64 = flag_value("--max-overhead")
        .map(|v| v.parse().expect("--max-overhead takes a percentage"))
        .unwrap_or(1.0);
    let out = flag_value("--out").unwrap_or_else(|| "trace_overhead.json".to_string());

    let (horizon, reps, loop_calls) = if quick {
        (5_000.0, 3, 2_000_000)
    } else {
        (50_000.0, 5, 10_000_000)
    };
    let model = scenario();
    let cfg = SimConfig::new(horizon, 42);

    eprintln!("measuring workload ({reps} x horizon {horizon}, obs disabled) ...");
    let workload_ns = measure_run_ns(&model, &cfg, &Obs::disabled(), reps);
    eprintln!("  best run = {:.3} ms", workload_ns / 1e6);

    let traced = Obs::enabled().with_tracer(Tracer::enabled());
    let _ = measure_run_ns(&model, &cfg, &traced, 1);
    // Warm-up + one timed rep crossed the span sites twice; halve.
    let spans_per_run = traced.tracer.take().spans.len() as f64 / 2.0;
    eprintln!("  span call sites crossed per run = {spans_per_run:.0}");

    eprintln!("measuring disabled span cost ({loop_calls} calls) ...");
    let per_call_ns = measure_disabled_span_ns(loop_calls);
    eprintln!("  disabled span = {per_call_ns:.2} ns/call");

    let overhead_pct = 100.0 * spans_per_run * per_call_ns / workload_ns;
    let pass = overhead_pct < max_overhead;
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"chainnet-trace-overhead/v1\",\n",
            "  \"quick\": {quick},\n",
            "  \"workload_ns\": {workload_ns:.0},\n",
            "  \"spans_per_run\": {spans_per_run:.0},\n",
            "  \"disabled_span_ns_per_call\": {per_call_ns:.3},\n",
            "  \"projected_overhead_pct\": {overhead_pct:.5},\n",
            "  \"max_overhead_pct\": {max_overhead},\n",
            "  \"pass\": {pass}\n",
            "}}\n",
        ),
        quick = quick,
        workload_ns = workload_ns,
        spans_per_run = spans_per_run,
        per_call_ns = per_call_ns,
        overhead_pct = overhead_pct,
        max_overhead = max_overhead,
        pass = pass,
    );
    std::fs::write(&out, &json).expect("write report");
    println!("{json}");
    if !pass {
        eprintln!(
            "FAIL: projected disabled-tracing overhead {overhead_pct:.4}% \
             exceeds the {max_overhead}% gate"
        );
        std::process::exit(1);
    }
    eprintln!("PASS: projected disabled-tracing overhead {overhead_pct:.4}% < {max_overhead}%");
}
