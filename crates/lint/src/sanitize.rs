//! Runtime determinism sanitizer (`chainnet-lint --sanitize <stage>`).
//!
//! The static rules (R2 and R7 in clippy and the type system, R8 in
//! this crate) ban the *sources* of nondeterminism they can see; this
//! module checks the *outcome*: it runs a CLI stage
//! twice with identical arguments and seed and diffs the artifacts.
//! CI builds the CLI under `[profile.sanitize]` (release +
//! `overflow-checks` + `debug-assertions`), so the gate simultaneously
//! proves two-run bit-identity and exercises the arithmetic that
//! release builds skip checking.
//!
//! Artifact comparison has two modes:
//!
//! * **exact** — primary results (the simulate result JSON, the
//!   trained `model.json`, the optimized `placement.json`) must match
//!   byte for byte;
//! * **normalized** — telemetry artifacts carry wall-clock values that
//!   legitimately differ between runs. Span traces are compared with
//!   `start_ns`/`end_ns` zeroed (ids, names, parentage and nesting
//!   must match); metrics snapshots are compared with wall-time
//!   entries (`*_seconds`, `*_ns`, `*per_sec`, `*wall*`) removed —
//!   every deterministic counter, gauge and histogram must match.
//!
//! On mismatch both runs' normalized artifacts stay on disk under the
//! output directory (CI uploads them), `sanitize_report.json` records
//! per-check verdicts, and the CLI exits non-zero.

use crate::error::LintError;
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The stages the sanitizer knows how to drive.
pub const STAGES: &[&str] = &["simulate", "train", "optimize"];

/// Verdict for one artifact comparison.
#[derive(Debug, Clone, Serialize)]
pub struct CheckReport {
    /// Artifact name (e.g. `stdout`, `model.json`, `trace.jsonl`).
    pub artifact: String,
    /// Comparison mode: `exact`, `normalized-trace`,
    /// `normalized-metrics` or `normalized-stdout`.
    pub mode: String,
    /// Whether the two runs matched under that mode.
    pub identical: bool,
    /// First point of divergence (empty when identical).
    pub detail: String,
}

/// Verdict for one stage (two seeded runs + all artifact checks).
#[derive(Debug, Clone, Serialize)]
pub struct StageReport {
    /// Stage name.
    pub stage: String,
    /// Whether every check passed.
    pub identical: bool,
    /// Per-artifact results.
    pub checks: Vec<CheckReport>,
}

/// Run the sanitizer for `stages` using the CLI binary at `cli`,
/// working under `out_dir` (created if absent). Returns one report per
/// stage; a stage whose *runs* fail (non-zero exit) is an `Err`, a
/// stage whose runs *diverge* is reported with `identical: false`.
///
/// # Errors
///
/// [`LintError::Sanitize`] when a CLI invocation fails or an artifact
/// cannot be read; [`LintError::Io`] on filesystem trouble.
pub fn run(cli: &Path, stages: &[String], out_dir: &Path) -> Result<Vec<StageReport>, LintError> {
    std::fs::create_dir_all(out_dir).map_err(|e| LintError::io(out_dir, e))?;
    let mut reports = Vec::new();
    for stage in stages {
        let dir = out_dir.join(stage.as_str());
        std::fs::create_dir_all(&dir).map_err(|e| LintError::io(&dir, e))?;
        let report = match stage.as_str() {
            "simulate" => sanitize_simulate(cli, &dir)?,
            "train" => sanitize_train(cli, &dir)?,
            "optimize" => sanitize_optimize(cli, &dir)?,
            other => {
                return Err(LintError::Sanitize(format!(
                    "unknown sanitize stage `{other}` (expected one of {STAGES:?})"
                )))
            }
        };
        reports.push(report);
    }
    let summary = serde_json::to_string_pretty(&reports).map_err(LintError::Report)?;
    let path = out_dir.join("sanitize_report.json");
    std::fs::write(&path, summary).map_err(|e| LintError::io(&path, e))?;
    Ok(reports)
}

/// Smoke seed shared by every stage: arbitrary but fixed, so failures
/// reproduce locally with the command lines from the report.
const SEED: &str = "11";

fn sanitize_simulate(cli: &Path, dir: &Path) -> Result<StageReport, LintError> {
    let problem = dir.join("problem.json");
    run_cli(cli, &["case-study", "--out", path_str(&problem)?])?;
    let system = dir.join("system.json");
    write_system_from_problem(&problem, &system)?;
    let mut stdouts = Vec::new();
    for run in ["run_a", "run_b"] {
        let rd = run_dir(dir, run)?;
        let stdout = run_cli(
            cli,
            &[
                "simulate",
                "--system",
                path_str(&system)?,
                "--horizon",
                "600",
                "--seed",
                SEED,
                "--trace",
                "64",
                "--metrics-out",
                path_str(&rd.join("metrics.json"))?,
                "--trace-out",
                path_str(&rd.join("trace.jsonl"))?,
            ],
        )?;
        let out = rd.join("stdout.json");
        std::fs::write(&out, &stdout).map_err(|e| LintError::io(&out, e))?;
        stdouts.push(stdout);
    }
    let mut checks = vec![check_exact("stdout.json", &stdouts[0], &stdouts[1])];
    checks.push(check_trace(dir)?);
    checks.push(check_metrics(dir)?);
    Ok(stage_report("simulate", checks))
}

fn sanitize_train(cli: &Path, dir: &Path) -> Result<StageReport, LintError> {
    let dataset = dir.join("dataset.json");
    run_cli(
        cli,
        &[
            "gen-dataset",
            "--out",
            path_str(&dataset)?,
            "--samples",
            "8",
            "--horizon",
            "400",
            "--seed",
            SEED,
        ],
    )?;
    // Both step kinds, each checkpointing, in its own directory with
    // its own run_a/run_b pair.
    let mut checks = Vec::new();
    for (variant, extra) in [("per_graph", &[][..]), ("f32", &["--dtype", "f32"][..])] {
        let vdir = dir.join(variant);
        let mut stdouts = Vec::new();
        let mut models = Vec::new();
        for run in ["run_a", "run_b"] {
            let rd = run_dir(&vdir, run)?;
            let model = rd.join("model.json");
            let (ckpt, metrics, trace) = (
                rd.join("ckpt"),
                rd.join("metrics.json"),
                rd.join("trace.jsonl"),
            );
            let mut args = vec![
                "train",
                "--data",
                path_str(&dataset)?,
                "--out",
                path_str(&model)?,
                "--epochs",
                "2",
                "--seed",
                SEED,
                "--checkpoint-dir",
                path_str(&ckpt)?,
                "--metrics-out",
                path_str(&metrics)?,
                "--trace-out",
                path_str(&trace)?,
            ];
            args.extend_from_slice(extra);
            let stdout = run_cli(cli, &args)?;
            // The run directory appears in the "model saved to ..."
            // line; normalize it so the two stdouts are comparable.
            stdouts.push(stdout.replace(run, "RUN"));
            models.push(read(&model)?);
        }
        let variant_checks = [
            check_exact("model.json", &models[0], &models[1]),
            CheckReport {
                mode: "normalized-stdout".into(),
                ..check_exact("stdout", &stdouts[0], &stdouts[1])
            },
            check_trace(&vdir)?,
            check_metrics(&vdir)?,
        ];
        checks.extend(variant_checks.into_iter().map(|c| CheckReport {
            artifact: format!("{variant}/{}", c.artifact),
            ..c
        }));
    }
    Ok(stage_report("train", checks))
}

fn sanitize_optimize(cli: &Path, dir: &Path) -> Result<StageReport, LintError> {
    let problem = dir.join("problem.json");
    run_cli(cli, &["case-study", "--out", path_str(&problem)?])?;
    let mut placements = Vec::new();
    for run in ["run_a", "run_b"] {
        let rd = run_dir(dir, run)?;
        let placement = rd.join("placement.json");
        // Stdout carries elapsed wall seconds, so only the written
        // artifacts are compared for this stage.
        run_cli(
            cli,
            &[
                "optimize",
                "--problem",
                path_str(&problem)?,
                "--steps",
                "12",
                "--trials",
                "1",
                "--horizon",
                "300",
                "--seed",
                SEED,
                "--neighborhood",
                "3",
                "--checkpoint-dir",
                path_str(&rd.join("ckpt"))?,
                "--out",
                path_str(&placement)?,
                "--metrics-out",
                path_str(&rd.join("metrics.json"))?,
                "--trace-out",
                path_str(&rd.join("trace.jsonl"))?,
            ],
        )?;
        placements.push(read(&placement)?);
    }
    let mut checks = vec![check_exact(
        "placement.json",
        &placements[0],
        &placements[1],
    )];
    checks.push(check_trace(dir)?);
    checks.push(check_metrics(dir)?);
    Ok(stage_report("optimize", checks))
}

fn stage_report(stage: &str, checks: Vec<CheckReport>) -> StageReport {
    StageReport {
        stage: stage.to_string(),
        identical: checks.iter().all(|c| c.identical),
        checks,
    }
}

fn run_dir(dir: &Path, run: &str) -> Result<PathBuf, LintError> {
    let rd = dir.join(run);
    std::fs::create_dir_all(&rd).map_err(|e| LintError::io(&rd, e))?;
    Ok(rd)
}

fn path_str(p: &Path) -> Result<&str, LintError> {
    p.to_str()
        .ok_or_else(|| LintError::Sanitize(format!("non-UTF-8 path {}", p.display())))
}

fn read(p: &Path) -> Result<String, LintError> {
    std::fs::read_to_string(p).map_err(|e| LintError::io(p, e))
}

/// Run the CLI with `args`, returning stdout. Non-zero exit is an
/// error — the sanitizer diffs successful runs, it does not classify
/// failures.
fn run_cli(cli: &Path, args: &[&str]) -> Result<String, LintError> {
    let output = Command::new(cli)
        .args(args)
        .output()
        .map_err(|e| LintError::io(cli, e))?;
    if !output.status.success() {
        return Err(LintError::Sanitize(format!(
            "`{} {}` exited with {}: {}",
            cli.display(),
            args.join(" "),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )));
    }
    String::from_utf8(output.stdout)
        .map_err(|_| LintError::Sanitize(format!("`{}` wrote non-UTF-8 stdout", cli.display())))
}

/// Byte-exact comparison with a first-divergence line diagnostic.
fn check_exact(artifact: &str, a: &str, b: &str) -> CheckReport {
    let detail = if a == b {
        String::new()
    } else {
        first_diff(a, b)
    };
    CheckReport {
        artifact: artifact.to_string(),
        mode: "exact".to_string(),
        identical: a == b,
        detail,
    }
}

fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("first diff at line {}: `{la}` vs `{lb}`", i + 1);
        }
    }
    format!(
        "runs differ in length: {} vs {} lines",
        a.lines().count(),
        b.lines().count()
    )
}

/// Compare the two runs' span traces with wall-clock fields zeroed.
/// The normalized forms are written next to the originals so a CI
/// failure uploads exactly what was compared.
fn check_trace(dir: &Path) -> Result<CheckReport, LintError> {
    let mut normalized = Vec::new();
    for run in ["run_a", "run_b"] {
        let path = dir.join(run).join("trace.jsonl");
        let norm = normalize_trace(&read(&path)?)?;
        let norm_path = dir.join(run).join("trace.normalized.jsonl");
        std::fs::write(&norm_path, &norm).map_err(|e| LintError::io(&norm_path, e))?;
        normalized.push(norm);
    }
    let mut check = check_exact("trace.jsonl", &normalized[0], &normalized[1]);
    check.mode = "normalized-trace".to_string();
    Ok(check)
}

/// Zero `start_ns`/`end_ns` on every span line; everything else (ids,
/// parentage, names, order) must be bit-stable across seeded runs.
fn normalize_trace(raw: &str) -> Result<String, LintError> {
    let mut out = String::new();
    for line in raw.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(line)
            .map_err(|e| LintError::Sanitize(format!("unparseable trace line `{line}`: {e}")))?;
        let Value::Map(entries) = value else {
            return Err(LintError::Sanitize(format!(
                "trace line is not an object: `{line}`"
            )));
        };
        let scrubbed: Vec<(String, Value)> = entries
            .into_iter()
            .map(|(k, v)| {
                if k == "start_ns" || k == "end_ns" {
                    (k, Value::UInt(0))
                } else {
                    (k, v)
                }
            })
            .collect();
        out.push_str(&serde_json::to_string(&Value::Map(scrubbed)).map_err(LintError::Report)?);
        out.push('\n');
    }
    Ok(out)
}

/// Compare the two runs' metrics snapshots with wall-time entries
/// dropped; deterministic counters/gauges/histograms must match.
fn check_metrics(dir: &Path) -> Result<CheckReport, LintError> {
    let mut normalized = Vec::new();
    for run in ["run_a", "run_b"] {
        let path = dir.join(run).join("metrics.json");
        let norm = normalize_metrics(&read(&path)?)?;
        let norm_path = dir.join(run).join("metrics.normalized.json");
        std::fs::write(&norm_path, &norm).map_err(|e| LintError::io(&norm_path, e))?;
        normalized.push(norm);
    }
    let mut check = check_exact("metrics.json", &normalized[0], &normalized[1]);
    check.mode = "normalized-metrics".to_string();
    Ok(check)
}

/// Whether a metric name measures wall time or wall-clock-derived
/// rates — the only values allowed to differ between seeded runs.
fn is_wall_time_metric(name: &str) -> bool {
    name.ends_with("_seconds")
        || name.ends_with("_ns")
        || name.contains("per_sec")
        || name.contains("wall")
}

fn normalize_metrics(raw: &str) -> Result<String, LintError> {
    let value: Value = serde_json::from_str(raw)
        .map_err(|e| LintError::Sanitize(format!("unparseable metrics snapshot: {e}")))?;
    let Value::Map(sections) = value else {
        return Err(LintError::Sanitize(
            "metrics snapshot is not an object".into(),
        ));
    };
    let scrubbed: Vec<(String, Value)> = sections
        .into_iter()
        .map(|(section, v)| {
            let v = match v {
                Value::Map(entries) => Value::Map(
                    entries
                        .into_iter()
                        .filter(|(name, _)| !is_wall_time_metric(name))
                        .collect(),
                ),
                other => other,
            };
            (section, v)
        })
        .collect();
    serde_json::to_string_pretty(&Value::Map(scrubbed)).map_err(LintError::Report)
}

/// Derive a `SystemModel` JSON for the simulate smoke from the
/// case-study `PlacementProblem` JSON: same devices and chains, each
/// chain's fragments placed on devices `0..len` (distinct devices per
/// chain, which is all `simulate` validates).
fn write_system_from_problem(problem: &Path, system: &Path) -> Result<(), LintError> {
    let value: Value = serde_json::from_str(&read(problem)?)
        .map_err(|e| LintError::Sanitize(format!("unparseable problem JSON: {e}")))?;
    let chains = value
        .get("chains")
        .and_then(Value::as_seq)
        .ok_or_else(|| LintError::Sanitize("problem JSON has no `chains` array".into()))?;
    let assignment: Vec<Value> = chains
        .iter()
        .map(|chain| {
            let len = chain
                .get("fragments")
                .and_then(Value::as_seq)
                .map(<[Value]>::len)
                .unwrap_or(0);
            Value::Seq((0..len as u64).map(Value::UInt).collect())
        })
        .collect();
    let devices = value
        .get("devices")
        .cloned()
        .ok_or_else(|| LintError::Sanitize("problem JSON has no `devices` array".into()))?;
    let chains = value.get("chains").cloned().unwrap_or(Value::Null);
    let model = Value::Map(vec![
        ("devices".to_string(), devices),
        ("chains".to_string(), chains),
        (
            "placement".to_string(),
            Value::Map(vec![("assignment".to_string(), Value::Seq(assignment))]),
        ),
    ]);
    let text = serde_json::to_string_pretty(&model).map_err(LintError::Report)?;
    std::fs::write(system, text).map_err(|e| LintError::io(system, e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_normalization_zeroes_only_wall_fields() {
        let raw = r#"{"id":1,"parent":0,"name":"qsim.run","tid":1,"start_ns":123,"end_ns":456}
{"id":2,"parent":1,"name":"train.epoch","tid":1,"start_ns":789,"end_ns":999}
"#;
        let norm = normalize_trace(raw).unwrap();
        assert!(norm.contains("\"start_ns\":0"));
        assert!(norm.contains("\"end_ns\":0"));
        assert!(norm.contains("\"name\":\"qsim.run\""));
        assert!(norm.contains("\"id\":2"));
        assert!(!norm.contains("123"));
    }

    #[test]
    fn metrics_normalization_drops_wall_time_entries() {
        let raw = r#"{
  "counters": {"events.total": 10},
  "gauges": {"qsim.run_wall_seconds": 0.5, "train.grad_norm": 1.25,
             "sim.events_per_sec": 9000.0, "neural.matmul_ns": 17.0},
  "histograms": {}
}"#;
        let norm = normalize_metrics(raw).unwrap();
        assert!(norm.contains("events.total"));
        assert!(norm.contains("train.grad_norm"));
        assert!(!norm.contains("run_wall_seconds"));
        assert!(!norm.contains("events_per_sec"));
        assert!(!norm.contains("matmul_ns"));
    }

    #[test]
    fn wall_time_metric_predicate() {
        for name in [
            "qsim.run_wall_seconds",
            "train.epoch_seconds",
            "neural.matmul_ns",
            "sim.events_per_sec",
            "datagen.samples_per_sec",
        ] {
            assert!(is_wall_time_metric(name), "{name}");
        }
        for name in ["train.grad_norm", "qsim.device.queue_depth", "events.total"] {
            assert!(!is_wall_time_metric(name), "{name}");
        }
    }

    #[test]
    fn system_from_problem_places_each_chain_on_distinct_devices() {
        let dir = std::env::temp_dir().join(format!("chainnet_sanitize_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let problem = dir.join("p.json");
        let system = dir.join("s.json");
        std::fs::write(
            &problem,
            r#"{
  "devices": [{"memory": 10.0, "rate": 1.0}, {"memory": 8.0, "rate": 2.0}],
  "chains": [
    {"arrival_rate": 0.5, "fragments": [{"a": 1.0}, {"a": 2.0}]},
    {"arrival_rate": 0.25, "fragments": [{"a": 3.0}]}
  ]
}"#,
        )
        .unwrap();
        write_system_from_problem(&problem, &system).unwrap();
        let text = std::fs::read_to_string(&system).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        let assignment = v.get("placement").unwrap().get("assignment").unwrap();
        let rows = assignment.as_seq().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].as_seq().unwrap().len(), 2);
        assert_eq!(rows[1].as_seq().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exact_check_reports_first_divergence() {
        let c = check_exact("x", "a\nb\n", "a\nc\n");
        assert!(!c.identical);
        assert!(c.detail.contains("line 2"));
        assert!(check_exact("x", "same", "same").identical);
    }
}
