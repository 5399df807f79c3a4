//! `perfbench`: the repository's seeded benchmark.
//!
//! ```text
//! perfbench --root DIR --serve-bin PATH --workload NAME --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! Workloads (see README.md for why each exists):
//!
//! * `pipeline` — the offline path through the library, in-process;
//! * `serve_place` — `chainnet-serve --workers 0`, `Place`-only
//!   open-loop traffic at a light rate, alternating with saturation
//!   bursts that measure the capacity;
//! * `serve_churn` — `chainnet-serve --workers 2`, `Place` requests and
//!   broadcast fault events at one fixed rate, in rounds alternating with
//!   saturation bursts.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The lines above
//! it are a human-readable report. Any failed check makes the exit code
//! non-zero.

mod client;
mod common;
mod pipeline;
mod probes;
mod schedule;
mod serve;
mod spans;
mod stats;

use common::{result_line, Ctx, Metric};
use spans::{layer_table, Span};
use stats::Tally;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("place_p50_ms", "ms"),
    ("place_p90_ms", "ms"),
    ("place_max_rps", "req/s"),
    ("cpu_ms_per_op", "ms"),
    ("sim_loss", "probability"),
    ("surrogate_mape", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload never enters reports 0 for its busy time and
/// rates.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("qsim.events_per_s", "1/s"),
    ("qsim.events_per_s.hotpath", "1/s"),
    ("datagen.busy_s", "s"),
    ("datagen.samples_per_s", "1/s"),
    ("neural.matmul_gflops.f32", "GFLOP/s"),
    ("neural.matmul_gflops.f64", "GFLOP/s"),
    ("neural.matmul_gflops.fwd_f32", "GFLOP/s"),
    ("neural.matmul_gflops.fwd_f64", "GFLOP/s"),
    ("neural.matmul_bytes", "bytes"),
    ("neural.matmul_bytes.fwd", "bytes"),
    ("core.graph_build_us", "us"),
    ("placement.bind_us", "us"),
    ("core.forward_us.b1", "us"),
    ("core.forward_us.b4", "us"),
    ("core.forward_us.b8", "us"),
    ("core.forward_us.b32", "us"),
    ("core.train_busy_s", "s"),
    ("core.train_samples_per_s", "1/s"),
    ("core.train_samples_per_s.pr10_shape", "1/s"),
    ("placement.sa_busy_s", "s"),
    ("placement.sa_evals_per_s", "1/s"),
    ("placement.sa_self_frac", "ratio"),
    ("placement.sa_evals_per_s.hotpath_k8", "1/s"),
    ("serve.engine_handle_ms", "ms"),
    ("serve.fault_handle_ms", "ms"),
    ("serve.evals_per_place", "count"),
    ("serve.degraded_frac", "ratio"),
    ("serve.queue_wait_p90_ms", "ms"),
    ("supervisor.hop_ms", "ms"),
    ("supervisor.hedge_frac", "ratio"),
    ("supervisor.reroutes", "count"),
    ("supervisor.restarts", "count"),
    ("ckpt.save_ms", "ms"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.span_coverage_frac", "ratio"),
    ("gen.late_p90_ms", "ms"),
    ("layer.bench.busy_s", "s"),
    ("layer.bench.self_s", "s"),
    ("layer.datagen.busy_s", "s"),
    ("layer.datagen.self_s", "s"),
    ("layer.core.busy_s", "s"),
    ("layer.core.self_s", "s"),
    ("layer.neural.busy_s", "s"),
    ("layer.neural.self_s", "s"),
    ("layer.placement.busy_s", "s"),
    ("layer.placement.self_s", "s"),
    ("layer.qsim.busy_s", "s"),
    ("layer.qsim.self_s", "s"),
    ("layer.serve.busy_s", "s"),
    ("layer.serve.self_s", "s"),
    ("layer.ckpt.busy_s", "s"),
    ("layer.ckpt.self_s", "s"),
];

/// The per-layer table's rows as metrics: (layer, busy, self).
const LAYER_METRICS: [(&str, &str, &str); 8] = [
    ("bench", "layer.bench.busy_s", "layer.bench.self_s"),
    ("datagen", "layer.datagen.busy_s", "layer.datagen.self_s"),
    ("core", "layer.core.busy_s", "layer.core.self_s"),
    ("neural", "layer.neural.busy_s", "layer.neural.self_s"),
    (
        "placement",
        "layer.placement.busy_s",
        "layer.placement.self_s",
    ),
    ("qsim", "layer.qsim.busy_s", "layer.qsim.self_s"),
    ("serve", "layer.serve.busy_s", "layer.serve.self_s"),
    ("ckpt", "layer.ckpt.busy_s", "layer.ckpt.self_s"),
];

/// Probe span ids are shifted by this much so they never collide with
/// the workload's.
const PROBE_ID_BASE: u64 = 1 << 50;

/// Per-layer metric values of a traced run.
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    table: BTreeMap<String, spans::LayerTime>,
}

impl Layers {
    /// Start from the busy/self table of a trace.
    pub fn from_spans(spans: &[Span]) -> Self {
        let table = layer_table(spans);
        let mut values = BTreeMap::new();
        for (layer, busy, own) in LAYER_METRICS {
            let t = table.get(layer).copied().unwrap_or_default();
            values.insert(busy, t.busy_ns as f64 * 1e-9);
            values.insert(own, t.self_ns as f64 * 1e-9);
        }
        Self { values, table }
    }

    /// Set one per-layer metric; the name must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }

    fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: self.values.get(name).copied().unwrap_or(0.0),
            })
            .collect()
    }

    fn table_lines(&self) -> Vec<String> {
        let mut out = vec![format!(
            "{:<10} {:>8} {:>12} {:>12}",
            "layer", "spans", "busy_ms", "self_ms"
        )];
        let known = LAYER_METRICS.map(|(l, _, _)| l);
        for layer in known.iter().copied().chain(
            self.table
                .keys()
                .map(String::as_str)
                .filter(|l| !known.contains(l)),
        ) {
            let t = self.table.get(layer).copied().unwrap_or_default();
            out.push(format!(
                "{:<10} {:>8} {:>12.3} {:>12.3}",
                layer,
                t.spans,
                t.busy_ns as f64 * 1e-6,
                t.self_ns as f64 * 1e-6
            ));
        }
        out
    }
}

/// A traced run's per-layer metrics and its trace.
pub struct Traced {
    /// Per-layer metrics; the busy/self table covers the workload's own
    /// spans only.
    pub layers: Layers,
    /// The whole trace, sorted by start.
    pub spans: Vec<Span>,
    /// The instant the trace's times count from.
    pub epoch: Instant,
}

impl Traced {
    /// Close the workload's recorder and start its per-layer metrics
    /// from the busy/self table of its trace.
    pub fn finish(rec: spans::Recorder) -> Self {
        let epoch = rec.epoch();
        let spans = rec.finish();
        Self {
            layers: Layers::from_spans(&spans),
            spans,
            epoch,
        }
    }
}

/// What a workload run produced.
pub struct Report {
    /// Operations attempted and failed.
    pub tally: Tally,
    lines: Vec<String>,
    e2e: BTreeMap<&'static str, f64>,
    extras: Vec<(&'static str, &'static str, f64)>,
    /// Per-layer metrics and the trace, in a traced run.
    pub traced: Option<Traced>,
}

impl Report {
    /// An empty report starting from `tally`.
    pub fn new(tally: Tally) -> Self {
        Self {
            tally,
            lines: Vec::new(),
            e2e: BTreeMap::new(),
            extras: Vec::new(),
            traced: None,
        }
    }

    /// A line of the human-readable report.
    pub fn table(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Set an end-to-end metric; the name must be in [`END_TO_END`].
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.e2e.insert(name, value);
    }

    /// A workload-specific figure printed in the report only.
    pub fn extra(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.extras.push((name, unit, value));
    }

    /// Record a sample count and the highest percentile it supports.
    pub fn samples(&mut self, what: &str, n: usize) {
        let q =
            stats::highest_supported(n).map_or("none".to_string(), |q| format!("p{}", q * 100.0));
        self.lines.push(format!(
            "samples: {what} n={n}, highest supported percentile {q}"
        ));
    }
}

struct Args {
    root: PathBuf,
    serve_bin: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or(format!("missing {flag}"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        root: PathBuf::from(get("--root")?),
        serve_bin: PathBuf::from(get("--serve-bin")?),
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn run(args: &Args) -> Result<(Report, Ctx), String> {
    let work =
        args.root
            .join(".perfbench_work")
            .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {work:?}: {e}"))?;
    let ctx = Ctx {
        root: args.root.clone(),
        work,
        serve_bin: args.serve_bin.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let mut report = match args.workload.as_str() {
        "pipeline" => pipeline::run(&ctx)?,
        "serve_place" => serve::run_place(&ctx)?,
        "serve_churn" => serve::run_churn(&ctx)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if ctx.trace {
        // The trajectory probes measure layers outside the workload: their
        // spans go under a root of their own on the workload trace's
        // clock, after the workload's busy/self table is made.
        let (model, _) = common::serving_model(&ctx)?;
        let traced = report.traced.as_mut().ok_or("traced run without a trace")?;
        let mut rec = spans::Recorder::with_epoch(true, traced.epoch);
        rec.span("bench:probes", None, |rec| {
            probes::run(rec, &mut traced.layers, &model)
        })?;
        traced.spans.extend(rec.finish().into_iter().map(|mut s| {
            // A second recorder numbers from 1 again; keep ids unique.
            s.id += PROBE_ID_BASE;
            if s.parent != 0 {
                s.parent += PROBE_ID_BASE;
            }
            s
        }));
        traced
            .spans
            .sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(a.id.cmp(&b.id)));
    }
    Ok((report, ctx))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    let (report, ctx) = match outcome {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.work);

    println!(
        "workload {} seed {} ({} s)",
        args.workload, args.seed, args.seconds
    );
    for line in &report.lines {
        println!("  {line}");
    }
    for &(name, unit) in END_TO_END {
        if let Some(v) = report.e2e.get(name) {
            println!("  {name:<24} {v:>14.4} {unit}");
        }
    }
    for (name, unit, v) in &report.extras {
        println!("  {name:<24} {v:>14.4} {unit}");
    }
    let metrics: Vec<Metric> = match &report.traced {
        Some(Traced { layers, spans, .. }) => {
            for line in layers.table_lines() {
                println!("  {line}");
            }
            let trace_path = args
                .root
                .join(".perfbench_work")
                .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
            match std::fs::write(&trace_path, spans::to_json_lines(spans)) {
                Ok(()) => println!("  trace: {} spans in {}", spans.len(), trace_path.display()),
                Err(e) => eprintln!("perfbench: write {trace_path:?}: {e}"),
            }
            layers.metrics()
        }
        None => END_TO_END
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: report.e2e.get(name).copied().unwrap_or(f64::NAN),
            })
            .collect(),
    };
    if args.trace {
        for m in &metrics {
            println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = report.tally.failed == 0 && finite;
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { -1.0 },
            ..m
        })
        .collect();
    println!(
        "{}",
        result_line(
            correct,
            report.tally.attempted.max(1),
            report.tally.failed,
            &metrics
        )
    );
    if !correct {
        eprintln!(
            "perfbench: checks failed ({} of {} operations, finite metrics: {finite})",
            report.tally.failed, report.tally.attempted
        );
        std::process::exit(1);
    }
}
