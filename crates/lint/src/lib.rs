#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

//! `chainnet-lint` — the workspace's static-analysis gate for the
//! invariants rustc and clippy cannot express.
//!
//! The ChainNet reproduction rests on invariants beyond type safety:
//! label generation and the Table V/VI results replay only if the
//! simulator, trainer and SA search are deterministic given a seed;
//! the resilience layer promises panic-free library crates with typed
//! errors; and the observability layer promises a consistent,
//! documented metric namespace. rustc and clippy enforce the panic
//! (R1), determinism (R2), unsafe (R3), RNG (R7) and shared-state (R9)
//! rules through the workspace lints, crate-root attributes and
//! `clippy.toml` files (see `docs/lint_rules.md`). This crate checks
//! the rest on every commit:
//!
//! * **R4 `obs_schema`** — metric names at obs call sites and span
//!   names at tracer call sites match the `[a-z0-9_.]` charset and
//!   agree, both directions, with the metric and span tables in
//!   `crates/obs/README.md`;
//! * **R5 `error_hygiene`** — public `Result` APIs in library crates
//!   use the crate's typed error, not `String` or `Box<dyn Error>`;
//! * **R6 `alloc_hygiene`** — no allocating call inside a function
//!   marked `// lint:zero_alloc`;
//! * **R8 `float_order`** — float orderings go through `total_cmp`,
//!   never `partial_cmp(..).unwrap()` (clippy's `disallowed-methods`
//!   would also fire inside every `#[derive(PartialOrd)]`).
//!
//! A violation is suppressed only by an inline annotation on the same
//! or the preceding line:
//!
//! ```text
//! // lint:allow(alloc_hygiene): growth is bounded by the trace's
//! // capacity cap
//! self.records.push(record);
//! ```
//!
//! Malformed annotations (unknown rule, missing reason) and unused
//! ones (no violation on the line they cover) are themselves R0
//! violations, so a typo or a stale suppression cannot silently
//! disable a rule. See `docs/lint_rules.md` for the full contract.
//!
//! Scanning is a hand-rolled masking pass (no external parser — the
//! build is offline, see `vendor/README.md`): comment and string
//! bodies are blanked before any pattern matching, so a pattern in a
//! doc comment or an error message never false-positives.

pub mod error;
pub mod items;
pub mod report;
pub mod rules;
pub mod sanitize;
pub mod tokenizer;
pub mod workspace;

pub use error::LintError;
pub use report::{Report, Rule, Violation};
pub use workspace::{CrateKind, CrateSpec, WorkspaceSpec};

use std::collections::BTreeMap;

/// Lint every crate in `spec`. Violations are ordered by
/// `(file, line, rule)`; the report is JSON-serialisable.
pub fn run(spec: &WorkspaceSpec) -> Result<Report, LintError> {
    let mut report = Report::default();
    // metric/span name -> every (file, line) that registers it
    let mut used_metrics: BTreeMap<String, Vec<(String, usize)>> = BTreeMap::new();
    let mut used_spans: BTreeMap<String, Vec<(String, usize)>> = BTreeMap::new();

    for crate_spec in &spec.crates {
        for file in workspace::crate_sources(&spec.root, crate_spec)? {
            let src = std::fs::read_to_string(&file.abs_path)
                .map_err(|e| LintError::io(&file.abs_path, e))?;
            let masked = tokenizer::mask(&src);
            let scanned = rules::scan_file(crate_spec, &file, &masked, &mut report.violations);
            report.suppressed += scanned.suppressed;
            report.files_scanned += 1;
            for (name, line) in scanned.metrics {
                used_metrics
                    .entry(name)
                    .or_default()
                    .push((file.rel_path.clone(), line));
            }
            for (name, line) in scanned.spans {
                used_spans
                    .entry(name)
                    .or_default()
                    .push((file.rel_path.clone(), line));
            }
        }
    }

    // R4 cross-check: code vs the obs README metric and span tables.
    if let Some(readme_rel) = &spec.obs_readme {
        let readme_path = spec.root.join(readme_rel);
        let readme =
            std::fs::read_to_string(&readme_path).map_err(|e| LintError::io(&readme_path, e))?;
        let readme_disp = readme_rel.to_string_lossy().replace('\\', "/");
        let checks = [
            ("metric", rules::readme_metric_names(&readme), &used_metrics),
            ("span", rules::readme_span_names(&readme), &used_spans),
        ];
        for (kind, documented, used) in &checks {
            for (name, sites) in *used {
                if !documented.contains_key(name) {
                    for (file, line) in sites {
                        report.violations.push(Violation::new(
                            Rule::ObsSchema,
                            file,
                            *line,
                            format!("{kind} `{name}` is not documented in {readme_disp}"),
                        ));
                    }
                }
            }
            for (name, line) in documented {
                if !rules::valid_metric_charset(name) {
                    report.violations.push(Violation::new(
                        Rule::ObsSchema,
                        &readme_disp,
                        *line,
                        format!("documented {kind} `{name}` violates the [a-z0-9_.] charset"),
                    ));
                } else if !used.contains_key(name) {
                    report.violations.push(Violation::new(
                        Rule::ObsSchema,
                        &readme_disp,
                        *line,
                        format!("documented {kind} `{name}` is registered nowhere in code"),
                    ));
                }
            }
        }
    }

    report.finish();
    Ok(report)
}
