//! CLI for `chainnet-lint`.
//!
//! ```console
//! $ cargo run -p chainnet-lint -- --workspace
//! $ cargo run -p chainnet-lint -- --workspace --root /path/to/repo --json report.json
//! $ cargo run -p chainnet-lint -- --fixture-root crates/lint/tests/fixtures/violations
//! $ cargo run -p chainnet-lint -- --sanitize all --cli target/sanitize/chainnet-cli \
//!       --out-dir target/sanitize-artifacts
//! ```
//!
//! Exit codes: `0` clean, `1` unsuppressed violations (or sanitizer
//! divergence), `2` usage or I/O error.

use chainnet_lint::{run, sanitize, WorkspaceSpec};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    workspace: bool,
    fixture_root: Option<PathBuf>,
    root: PathBuf,
    json_out: Option<PathBuf>,
    sanitize: Option<Vec<String>>,
    cli: Option<PathBuf>,
    out_dir: PathBuf,
}

const USAGE: &str = "\
usage: chainnet-lint (--workspace | --fixture-root <dir> | --sanitize <stage>) [options]

modes:
  --workspace           lint the ChainNet workspace layout (library
                        crates + bench/suite harnesses, obs README schema)
  --fixture-root <dir>  lint an arbitrary crates/ tree with every crate
                        held to the strictest (library) profile
  --sanitize <stage>    runtime determinism sanitizer: run a CLI stage
                        twice with the same seed and diff the artifacts;
                        <stage> is simulate, train, optimize, or all

options:
  --root <dir>          workspace root for --workspace (default: .)
  --json <file>         also write the machine-readable JSON report
  --cli <path>          chainnet-cli binary for --sanitize (required;
                        build it with `--profile sanitize` so overflow
                        checks are live)
  --out-dir <dir>       sanitizer working/artifact directory
                        (default: target/sanitize-artifacts)
  --help                print this help
";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workspace: false,
        fixture_root: None,
        root: PathBuf::from("."),
        json_out: None,
        sanitize: None,
        cli: None,
        out_dir: PathBuf::from("target/sanitize-artifacts"),
    };
    let mut i = 0usize;
    let value = |i: &mut usize, flag: &str| -> Result<PathBuf, String> {
        *i += 1;
        args.get(*i)
            .map(PathBuf::from)
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workspace" => opts.workspace = true,
            "--fixture-root" => opts.fixture_root = Some(value(&mut i, "--fixture-root")?),
            "--root" => opts.root = value(&mut i, "--root")?,
            "--json" => opts.json_out = Some(value(&mut i, "--json")?),
            "--sanitize" => {
                let stage = value(&mut i, "--sanitize")?.to_string_lossy().into_owned();
                let stages = if stage == "all" {
                    sanitize::STAGES.iter().map(|s| s.to_string()).collect()
                } else if sanitize::STAGES.contains(&stage.as_str()) {
                    vec![stage]
                } else {
                    return Err(format!(
                        "--sanitize expects one of simulate, train, optimize, all; got `{stage}`"
                    ));
                };
                opts.sanitize = Some(stages);
            }
            "--cli" => opts.cli = Some(value(&mut i, "--cli")?),
            "--out-dir" => opts.out_dir = value(&mut i, "--out-dir")?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    let modes = usize::from(opts.workspace)
        + usize::from(opts.fixture_root.is_some())
        + usize::from(opts.sanitize.is_some());
    if modes != 1 {
        return Err(
            "exactly one of --workspace, --fixture-root or --sanitize is required".to_string(),
        );
    }
    if opts.sanitize.is_some() && opts.cli.is_none() {
        return Err("--sanitize requires --cli <path-to-chainnet-cli>".to_string());
    }
    Ok(opts)
}

fn run_sanitize(stages: &[String], opts: &Options) -> ExitCode {
    let cli = opts.cli.as_deref().expect("checked in parse_args");
    let reports = match sanitize::run(cli, stages, &opts.out_dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chainnet-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let mut clean = true;
    for stage in &reports {
        for check in &stage.checks {
            let verdict = if check.identical { "ok" } else { "DIVERGED" };
            eprintln!(
                "sanitize {}: {} [{}] {}{}",
                stage.stage,
                check.artifact,
                check.mode,
                verdict,
                if check.detail.is_empty() {
                    String::new()
                } else {
                    format!(" — {}", check.detail)
                }
            );
        }
        clean &= stage.identical;
    }
    eprintln!(
        "chainnet-lint --sanitize: {} stage(s), artifacts under {}",
        reports.len(),
        opts.out_dir.display()
    );
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("chainnet-lint: {msg}");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(stages) = &opts.sanitize {
        return run_sanitize(stages, &opts);
    }

    let spec = if let Some(fixture_root) = &opts.fixture_root {
        match WorkspaceSpec::discover(fixture_root) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("chainnet-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        if !opts.root.join("Cargo.toml").is_file() {
            eprintln!(
                "chainnet-lint: {} does not contain a Cargo.toml (use --root)",
                opts.root.display()
            );
            return ExitCode::from(2);
        }
        WorkspaceSpec::chainnet(&opts.root)
    };

    let report = match run(&spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chainnet-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &opts.json_out {
        let json = match report.to_json() {
            Ok(j) => j,
            Err(e) => {
                eprintln!("chainnet-lint: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("chainnet-lint: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    eprint!("{}", report.render_human());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
