//! Integration tests: every rule (R0, R4, R5, R6, R8) fires on the
//! bundled violation fixtures and is suppressed by `lint:allow`; the
//! binary exits non-zero on the fixtures, zero on the real workspace;
//! and the rules rustc and clippy enforce (R1, R2, R3, R7, R9) stay
//! configured in the manifests, crate roots and `clippy.toml` files.

use chainnet_lint::{run, CrateKind, Report, WorkspaceSpec};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture_report() -> Report {
    let spec = WorkspaceSpec::discover(fixture_root()).expect("fixture layout");
    run(&spec).expect("lint run")
}

fn count(report: &Report, rule: &str, file_frag: &str) -> usize {
    report
        .violations
        .iter()
        .filter(|v| v.rule == rule && v.file.contains(file_frag))
        .count()
}

#[test]
fn r4_obs_schema_fires_on_fixture() {
    let r = fixture_report();
    // Undocumented `code.only_metric` + charset-violating `Bad-Name`.
    assert_eq!(count(&r, "R4", "badlib"), 2, "{}", r.render_human());
    // Documented-but-unregistered `doc.only_metric` flags the README.
    assert_eq!(count(&r, "R4", "README.md"), 1, "{}", r.render_human());
    // The properly documented metric is clean.
    assert_eq!(count(&r, "R4", "crates/obs/src"), 0, "{}", r.render_human());
}

#[test]
fn r5_error_hygiene_fires_on_fixture() {
    let r = fixture_report();
    // Result<_, String> and Result<_, Box<dyn Error>>.
    assert_eq!(count(&r, "R5", "badlib"), 2, "{}", r.render_human());
}

#[test]
fn r6_alloc_hygiene_fires_only_in_zero_alloc_bodies() {
    let r = fixture_report();
    // Vec::new, .push, .collect, format! inside the one annotated fn;
    // the unannotated fn and the annotated #[cfg(test)] fn are free.
    assert_eq!(count(&r, "R6", "badlib"), 4, "{}", r.render_human());
}

#[test]
fn r8_float_order_fires_once_per_site() {
    let r = fixture_report();
    // One unwrap-form sort_by, one unwrap_or-form max_by; the
    // total_cmp sort and the #[cfg(test)] sort are clean.
    assert_eq!(count(&r, "R8", "badlib"), 2, "{}", r.render_human());
}

#[test]
fn malformed_allow_is_flagged() {
    let r = fixture_report();
    assert_eq!(count(&r, "R0", "badlib"), 1, "{}", r.render_human());
}

#[test]
fn lint_allow_suppresses_and_test_code_is_exempt() {
    let r = fixture_report();
    // The `allowed` crate carries a well-formed annotation per site:
    // error_hygiene, alloc_hygiene ×2 and float_order were honored.
    // Its only violation is the stale annotation (see below).
    let allowed: Vec<_> = r
        .violations
        .iter()
        .filter(|v| v.file.contains("allowed") && v.rule != "R0")
        .collect();
    assert!(allowed.is_empty(), "{allowed:?}");
    assert_eq!(r.suppressed, 4, "{}", r.render_human());
    // badlib's #[cfg(test)] module sorts with partial_cmp, returns a
    // stringly Result and allocates under lint:zero_alloc; the counts
    // asserted above prove none of those fired.
}

#[test]
fn unused_allow_is_flagged() {
    let r = fixture_report();
    let stale: Vec<_> = r
        .violations
        .iter()
        .filter(|v| v.rule == "R0" && v.file.contains("allowed"))
        .collect();
    assert_eq!(stale.len(), 1, "{}", r.render_human());
    assert_eq!(stale[0].line, 27, "{:?}", stale[0]);
    assert!(stale[0].message.contains("unused"), "{:?}", stale[0]);
}

#[test]
fn binary_exits_nonzero_on_fixtures_and_writes_json() {
    let json_path = std::env::temp_dir().join("chainnet_lint_fixture_report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_chainnet-lint"))
        .arg("--fixture-root")
        .arg(fixture_root())
        .arg("--json")
        .arg(&json_path)
        .output()
        .expect("run chainnet-lint");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let json = std::fs::read_to_string(&json_path).expect("json report written");
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let violations = parsed
        .get("violations")
        .and_then(|v| v.as_seq())
        .expect("violations array");
    assert!(!violations.is_empty());
    for v in violations {
        assert!(v.get("file").and_then(|f| f.as_str()).is_some());
        assert!(v.get("line").and_then(|l| l.as_u64()).is_some());
        assert!(v.get("rule").and_then(|r| r.as_str()).is_some());
        assert!(v.get("message").and_then(|m| m.as_str()).is_some());
    }
    let _ = std::fs::remove_file(&json_path);
}

#[test]
fn binary_rejects_bad_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_chainnet-lint"))
        .arg("--workspace")
        .arg("--nonsense")
        .output()
        .expect("run chainnet-lint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn real_workspace_is_clean() {
    // The acceptance gate: the final tree must lint clean. Running it
    // here makes `cargo test` enforce the gate even without the CI job.
    let out = Command::new(env!("CARGO_BIN_EXE_chainnet-lint"))
        .arg("--workspace")
        .arg("--root")
        .arg(workspace_root())
        .output()
        .expect("run chainnet-lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace has lint violations:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The rules rustc and clippy enforce cannot shrink silently: every
/// first-party manifest inherits the workspace lints (R3), every
/// library root denies the panicking APIs (R1), and the four hot-path
/// crates share one `clippy.toml` that bans every R2/R9 path.
#[test]
fn moved_rules_stay_configured() {
    let root = workspace_root();
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    let squash = |s: &str| s.split_whitespace().collect::<String>();

    let manifest = read("Cargo.toml");
    assert!(
        squash(&manifest).contains(&squash(
            "[workspace.lints.rust] unsafe_code = \"forbid\" \
             rust_2018_idioms = { level = \"deny\", priority = -1 }"
        )),
        "root Cargo.toml lost its [workspace.lints.rust] table"
    );

    let spec = WorkspaceSpec::chainnet(&root);
    let r1_deny = squash(
        "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
         clippy::todo, clippy::unimplemented)]",
    );
    let mut libraries = 0;
    for krate in &spec.crates {
        let dir = krate.rel_dir.to_string_lossy();
        let toml = read(&format!("{dir}/Cargo.toml"));
        assert!(
            squash(&toml).contains("[lints]workspace=true"),
            "{dir}/Cargo.toml lacks `[lints] workspace = true`"
        );
        if krate.kind == CrateKind::Library {
            libraries += 1;
            let lib = read(&format!("{dir}/src/lib.rs"));
            assert!(
                squash(&lib).contains(&r1_deny),
                "{dir}/src/lib.rs lacks the R1 deny attribute"
            );
        }
    }
    assert_eq!(libraries, 9);

    let hot: Vec<Vec<u8>> = ["qsim", "neural", "core", "placement"]
        .iter()
        .map(|c| std::fs::read(root.join(format!("crates/{c}/clippy.toml"))).expect(c))
        .collect();
    assert!(
        hot.iter().all(|bytes| bytes == &hot[0]),
        "the hot-path clippy.toml files differ"
    );
    let hot = String::from_utf8(hot[0].clone()).expect("utf-8 clippy.toml");
    for banned in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::rc::Rc",
        "std::cell::RefCell",
        "std::cell::Cell",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::thread_local",
    ] {
        assert!(
            hot.contains(&format!("path = \"{banned}\"")),
            "hot-path clippy.toml does not ban {banned}"
        );
    }
    for config in [hot.as_str(), read("clippy.toml").as_str()] {
        for api in ["unwrap", "expect", "panic"] {
            assert!(
                config.contains(&format!("allow-{api}-in-tests = true")),
                "a clippy.toml lacks allow-{api}-in-tests"
            );
        }
    }
}
