//! Workspace layout: which crates exist, how each is classified, and
//! which files the rules apply to.
//!
//! Classification drives rule applicability:
//!
//! * **Library** crates promise typed errors (R5) in their non-test,
//!   non-binary `src/` code.
//! * **Harness** crates (the bench harness and the workspace-root
//!   suite binary glue) are exempt from R5 — a figure-reproduction
//!   binary failing fast on a corrupt cache file is fine.
//!
//! R4, R6 and R8 apply to every crate. Panic-freedom (R1), the unsafe
//! ban (R3) and the hot-path determinism and shared-state bans (R2,
//! R9) are rustc/clippy lints configured per crate; see
//! `docs/lint_rules.md`.
//!
//! Vendored shim crates under `vendor/` are out of scope: they mimic
//! external APIs and are audited separately (see `vendor/README.md`).

use crate::error::LintError;
use std::path::{Path, PathBuf};

/// How a crate's non-test library code is held to the rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateKind {
    /// Full rule set: R4, R5, R6, R8.
    Library,
    /// R4, R6, R8 (fail-fast binaries and experiment harnesses).
    Harness,
}

/// One first-party crate to scan.
#[derive(Debug, Clone)]
pub struct CrateSpec {
    /// Package name as in its `Cargo.toml`.
    pub name: String,
    /// Crate directory relative to the workspace root (`"."` for the
    /// workspace-root package).
    pub rel_dir: PathBuf,
    /// Rule profile.
    pub kind: CrateKind,
}

/// The workspace to lint.
#[derive(Debug, Clone)]
pub struct WorkspaceSpec {
    /// Absolute (or cwd-relative) workspace root.
    pub root: PathBuf,
    /// Crates to scan.
    pub crates: Vec<CrateSpec>,
    /// Path (relative to `root`) of the obs README holding the
    /// canonical metric table, if R4 should run.
    pub obs_readme: Option<PathBuf>,
}

impl CrateSpec {
    fn new(name: &str, rel_dir: &str, kind: CrateKind) -> Self {
        CrateSpec {
            name: name.to_string(),
            rel_dir: PathBuf::from(rel_dir),
            kind,
        }
    }
}

impl WorkspaceSpec {
    /// The ChainNet workspace layout, hard-coded. The library crates
    /// carry the paper's correctness claims; the bench harness and the
    /// root suite are harnesses.
    pub fn chainnet(root: impl Into<PathBuf>) -> Self {
        use CrateKind::{Harness, Library};
        WorkspaceSpec {
            root: root.into(),
            crates: vec![
                CrateSpec::new("chainnet-obs", "crates/obs", Library),
                CrateSpec::new("chainnet-ckpt", "crates/ckpt", Library),
                CrateSpec::new("chainnet-qsim", "crates/qsim", Library),
                CrateSpec::new("chainnet-neural", "crates/neural", Library),
                CrateSpec::new("chainnet", "crates/core", Library),
                CrateSpec::new("chainnet-placement", "crates/placement", Library),
                CrateSpec::new("chainnet-datagen", "crates/datagen", Library),
                CrateSpec::new("chainnet-serve", "crates/serve", Library),
                CrateSpec::new("chainnet-lint", "crates/lint", Library),
                CrateSpec::new("chainnet-bench", "crates/bench", Harness),
                CrateSpec::new("chainnet-suite", ".", Harness),
            ],
            obs_readme: Some(PathBuf::from("crates/obs/README.md")),
        }
    }

    /// Discover a fixture workspace: every directory under
    /// `<root>/crates/` with a `src/` is treated as a library crate
    /// (the strictest profile), and
    /// `<root>/crates/obs/README.md` is used for R4 when present.
    /// Used by the violation-fixture integration tests and the
    /// `--fixture-root` CLI mode.
    pub fn discover(root: impl Into<PathBuf>) -> Result<Self, LintError> {
        let root = root.into();
        let crates_dir = root.join("crates");
        let mut crates = Vec::new();
        let entries = std::fs::read_dir(&crates_dir)
            .map_err(|e| LintError::io(&crates_dir, e))?
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| LintError::io(&crates_dir, e))?;
        let mut names: Vec<String> = entries
            .iter()
            .filter(|e| e.path().join("src").is_dir())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        for name in names {
            crates.push(CrateSpec::new(
                &name,
                &format!("crates/{name}"),
                CrateKind::Library,
            ));
        }
        if crates.is_empty() {
            return Err(LintError::BadWorkspace(format!(
                "no crates with a src/ directory under {}",
                crates_dir.display()
            )));
        }
        let obs_readme = root.join("crates/obs/README.md");
        Ok(WorkspaceSpec {
            root,
            crates,
            obs_readme: obs_readme
                .is_file()
                .then(|| PathBuf::from("crates/obs/README.md")),
        })
    }
}

/// A source file queued for scanning.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root (display form, `/`-separated).
    pub rel_path: String,
    /// Absolute path.
    pub abs_path: PathBuf,
    /// Whether this file is a binary entry point (`src/main.rs`,
    /// `src/bin/**`) — exempt from R5 like harness code.
    pub is_bin: bool,
}

/// Collect the `.rs` files of one crate's `src/` tree, sorted by
/// relative path for stable reports.
pub fn crate_sources(root: &Path, spec: &CrateSpec) -> Result<Vec<SourceFile>, LintError> {
    let src_dir = root.join(&spec.rel_dir).join("src");
    let mut files = Vec::new();
    walk(&src_dir, &mut files)?;
    files.sort();
    let sources = files
        .into_iter()
        .map(|abs| {
            let rel_to_src = abs
                .strip_prefix(&src_dir)
                .unwrap_or(&abs)
                .to_string_lossy()
                .replace('\\', "/");
            let rel_dir = spec.rel_dir.to_string_lossy().replace('\\', "/");
            let rel_path = if rel_dir == "." {
                format!("src/{rel_to_src}")
            } else {
                format!("{rel_dir}/src/{rel_to_src}")
            };
            SourceFile {
                is_bin: rel_to_src == "main.rs" || rel_to_src.starts_with("bin/"),
                rel_path,
                abs_path: abs,
            }
        })
        .collect();
    Ok(sources)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = std::fs::read_dir(dir).map_err(|e| LintError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::io(dir, e))?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
