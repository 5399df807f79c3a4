//! Black-box tests of the `chainnet-cli` binary: spawn the real
//! executable and check its stdout/stderr/exit codes, covering the full
//! gen → train → evaluate → optimize workflow a user would run.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_chainnet-cli"))
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chainnet_bin_{name}_{}", std::process::id()))
}

#[test]
fn help_exits_with_usage() {
    let out = bin().arg("--help").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("COMMANDS"));
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = bin().arg("explode").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_file_is_an_io_error_not_a_panic() {
    let out = bin()
        .args(["simulate", "--system", "/nonexistent/nope.json"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn train_on_an_empty_dataset_exits_1_on_every_path() {
    let data = temp("empty_data.json");
    let model = temp("empty_model.json");
    let dir = temp("empty_ckpts");
    std::fs::write(&data, "[]").unwrap();
    let (data_s, model_s, dir_s) = (
        data.to_str().unwrap(),
        model.to_str().unwrap(),
        dir.to_str().unwrap(),
    );
    for extra in [
        &[][..],
        &["--dtype", "f32"][..],
        &["--checkpoint-dir", dir_s][..],
        &["--dtype", "f32", "--checkpoint-dir", dir_s][..],
    ] {
        let out = bin()
            .args(["train", "--data", data_s, "--out", model_s])
            .args(extra)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{extra:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("training set is empty"),
            "{extra:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_interrupts_gen_dataset_with_exit_5_and_resumable_checkpoints() {
    let dir = temp("sigterm_ckpts");
    let out = temp("sigterm_data.json");
    let _ = std::fs::remove_dir_all(&dir);

    // A sweep far too large to finish: the run must end because of the
    // signal, not because it ran out of work.
    let child = bin()
        .args([
            "gen-dataset",
            "--out",
            out.to_str().unwrap(),
            "--samples",
            "2000000",
            "--horizon",
            "2000",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
            "--checkpoint-every",
            "8",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn");

    // Let at least one shard land, then ask for a polite wind-down.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let shard_landed = std::fs::read_dir(&dir)
            .map(|d| d.filter_map(Result::ok).next().is_some())
            .unwrap_or(false);
        if shard_landed {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no shard checkpoint appeared within 60s"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());

    let done = child.wait_with_output().expect("wait");
    assert_eq!(
        done.status.code(),
        Some(5),
        "SIGTERM must exit with the documented interrupted code, stderr: {}",
        String::from_utf8_lossy(&done.stderr)
    );
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(
        stderr.contains("interrupted"),
        "stderr should explain the interruption: {stderr}"
    );

    // The wind-down left durable shards behind — the resume contract.
    let ckpts = std::fs::read_dir(&dir)
        .expect("checkpoint dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
        .count();
    assert!(ckpts > 0, "completed shards must be checkpointed");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&out);
}

#[test]
fn full_workflow_through_the_binary() {
    let data = temp("wf_data.json");
    let model = temp("wf_model.json");

    // 1. Generate a small dataset.
    let out = bin()
        .args([
            "gen-dataset",
            "--out",
            data.to_str().unwrap(),
            "--samples",
            "6",
            "--horizon",
            "150",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 2. Dataset statistics.
    let out = bin()
        .args(["stats", "--data", data.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("6 graphs"));

    // 3. Train a tiny surrogate.
    let out = bin()
        .args([
            "train",
            "--data",
            data.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--epochs",
            "2",
            "--hidden",
            "8",
            "--iterations",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 4. Evaluate it on its own training data.
    let out = bin()
        .args([
            "evaluate",
            "--model",
            model.to_str().unwrap(),
            "--data",
            data.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("throughput APE"));

    // 5. Export the case study and optimize it with the model.
    let problem = temp("wf_problem.json");
    let out = bin()
        .args(["case-study", "--out", problem.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let out = bin()
        .args([
            "optimize",
            "--problem",
            problem.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--steps",
            "5",
            "--trials",
            "1",
            "--horizon",
            "120",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("optimized loss probability"));

    for p in [&data, &model, &problem] {
        let _ = std::fs::remove_file(p);
    }
}
