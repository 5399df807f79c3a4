//! End-to-end crash-recovery tests of the `chainnet-cli` binary: kill a
//! checkpointed run with SIGKILL, resume it in a fresh process, and
//! check the final artifact is byte-identical to an uninterrupted run;
//! corrupt a checkpoint on disk and watch resume quarantine it and fall
//! back; check the documented exit codes for checkpoint flag misuse.
//! Covers `train` (per-graph and packed `--dtype f32`) and the
//! neighborhood `optimize` search.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_chainnet-cli"))
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chainnet_ckpt_{name}_{}", std::process::id()))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = temp(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generate the small dataset the training tests share.
fn gen_dataset(path: &Path) {
    let out = bin()
        .args([
            "gen-dataset",
            "--out",
            path.to_str().unwrap(),
            "--samples",
            "10",
            "--horizon",
            "150",
            "--seed",
            "5",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The shared `train` invocation; every run of it must produce the same
/// model bytes, interrupted or not.
fn train_cmd(data: &Path, model: &Path, ckpt_dir: &Path, resume: bool) -> Command {
    let mut cmd = bin();
    cmd.args([
        "train",
        "--data",
        data.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
        "--epochs",
        "30",
        "--hidden",
        "16",
        "--iterations",
        "3",
        "--batch",
        "4",
        "--checkpoint-dir",
        ckpt_dir.to_str().unwrap(),
        "--checkpoint-every",
        "1",
    ]);
    if resume {
        cmd.arg("--resume");
    }
    cmd
}

#[test]
fn checkpoint_flag_misuse_has_documented_exit_codes() {
    let dir = temp_dir("codes");
    let out_file = temp("codes_out.json");
    let data = temp("codes_data.json");
    gen_dataset(&data);

    // --resume without --checkpoint-dir: usage error, exit 2.
    let out = bin()
        .args([
            "train",
            "--data",
            data.to_str().unwrap(),
            "--out",
            out_file.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checkpoint-dir"));

    // --checkpoint-every 0: typed checkpoint error, exit 3.
    let out = bin()
        .args([
            "gen-dataset",
            "--out",
            out_file.to_str().unwrap(),
            "--samples",
            "2",
            "--horizon",
            "100",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
            "--checkpoint-every",
            "0",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("checkpoint"));

    // --checkpoint-dir pointing at a regular file: exit 3.
    let file = temp("codes_not_a_dir");
    std::fs::write(&file, b"x").unwrap();
    let out = bin()
        .args([
            "gen-dataset",
            "--out",
            out_file.to_str().unwrap(),
            "--samples",
            "2",
            "--horizon",
            "100",
            "--checkpoint-dir",
            file.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3));

    // --resume over an empty directory: nothing to resume, exit 4.
    let out = bin()
        .args([
            "gen-dataset",
            "--out",
            out_file.to_str().unwrap(),
            "--samples",
            "2",
            "--horizon",
            "100",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&out.stderr).contains("checkpoint"));

    for p in [&out_file, &data, &file] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
/// SIGKILL a checkpointed `train` run (the shared invocation plus
/// `extra`) once checkpoint `kill_at` has landed, resume it in a fresh
/// process, and require the model byte-identical to an uninterrupted
/// run.
fn sigkill_train_then_resume(tag: &str, extra: &[&str], kill_at: u64) {
    let data = temp(&format!("{tag}_data.json"));
    gen_dataset(&data);
    let train = |model: &Path, dir: &Path, resume: bool| {
        let mut cmd = train_cmd(&data, model, dir, resume);
        cmd.args(extra);
        cmd
    };

    // Uninterrupted reference run.
    let ref_dir = temp_dir(&format!("{tag}_ref"));
    let ref_model = temp(&format!("{tag}_ref_model.json"));
    let out = train(&ref_model, &ref_dir, false).output().expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Killed run: SIGKILL as soon as checkpoint `kill_at` has landed. If
    // the run wins the race and finishes first, the resume below still
    // has to reproduce the identical model from its final checkpoint.
    let kill_dir = temp_dir(&format!("{tag}_victim"));
    let kill_model = temp(&format!("{tag}_victim_model.json"));
    let mut child = train(&kill_model, &kill_dir, false).spawn().expect("spawn");
    let target = kill_dir.join(format!("train-{kill_at:08}.ckpt"));
    for _ in 0..600 {
        if target.exists() {
            break;
        }
        if let Ok(Some(_)) = child.try_wait() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let _ = child.kill(); // SIGKILL
    let _ = child.wait();
    assert!(
        !kill_dir.join("train-00000030.ckpt").exists() || kill_model.exists(),
        "killed run left a final checkpoint but no model artifact"
    );

    // Resume in a fresh process and compare the model byte for byte.
    let out = train(&kill_model, &kill_dir, true).output().expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&ref_model).unwrap(),
        std::fs::read(&kill_model).unwrap(),
        "resumed model differs from the uninterrupted reference"
    );

    for p in [&data, &ref_model, &kill_model] {
        let _ = std::fs::remove_file(p);
    }
    for d in [&ref_dir, &kill_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn sigkill_mid_train_then_resume_is_bit_identical() {
    sigkill_train_then_resume("kill", &[], 3);
}

#[test]
fn sigkill_mid_packed_f32_train_then_resume_is_bit_identical() {
    sigkill_train_then_resume("kill_f32", &["--dtype", "f32"], 1);
}

fn optimize_cmd(problem: &Path, out: &Path, ckpt_dir: &Path, resume: bool) -> Command {
    let mut cmd = bin();
    cmd.args([
        "optimize",
        "--problem",
        problem.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--steps",
        "30",
        "--trials",
        "2",
        "--horizon",
        "400",
        "--seed",
        "3",
        "--neighborhood",
        "4",
        "--checkpoint-dir",
        ckpt_dir.to_str().unwrap(),
        "--checkpoint-every",
        "2",
    ]);
    if resume {
        cmd.arg("--resume");
    }
    cmd
}

#[cfg(unix)]
#[test]
fn sigkill_mid_neighborhood_optimize_then_resume_is_bit_identical() {
    let problem = temp("nbhd_problem.json");
    let out = bin()
        .args(["case-study", "--out", problem.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());

    // Uninterrupted reference run.
    let ref_dir = temp_dir("nbhd_ref");
    let ref_out = temp("nbhd_ref_placement.json");
    let out = optimize_cmd(&problem, &ref_out, &ref_dir, false)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Killed run: SIGKILL once the first checkpoint has landed. If the
    // run wins the race and finishes first, the resume below still has
    // to reproduce the identical placement from its final checkpoint.
    let kill_dir = temp_dir("nbhd_victim");
    let kill_out = temp("nbhd_victim_placement.json");
    let _ = std::fs::remove_file(&kill_out);
    let mut child = optimize_cmd(&problem, &kill_out, &kill_dir, false)
        .spawn()
        .expect("spawn");
    let first = kill_dir.join("sa-00000001.ckpt");
    for _ in 0..1000 {
        if first.exists() {
            break;
        }
        if let Ok(Some(_)) = child.try_wait() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let _ = child.kill(); // SIGKILL
    let _ = child.wait();
    assert!(first.exists(), "no checkpoint was written before the kill");

    // Resume in a fresh process and compare the placement byte for byte.
    let out = optimize_cmd(&problem, &kill_out, &kill_dir, true)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&ref_out).unwrap(),
        std::fs::read(&kill_out).unwrap(),
        "resumed placement differs from the uninterrupted reference"
    );

    for p in [&problem, &ref_out, &kill_out] {
        let _ = std::fs::remove_file(p);
    }
    for d in [&ref_dir, &kill_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn corrupt_checkpoint_is_quarantined_and_resume_falls_back() {
    let data = temp("corrupt_data.json");
    gen_dataset(&data);

    // Complete checkpointed run, then flip one byte in the newest
    // checkpoint to simulate on-disk corruption.
    let dir = temp_dir("corrupt");
    let ref_model = temp("corrupt_ref_model.json");
    let out = train_cmd(&data, &ref_model, &dir, false)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let latest = dir.join("train-00000030.ckpt");
    let mut bytes = std::fs::read(&latest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&latest, &bytes).unwrap();

    // Resume must quarantine the bad file, fall back to the previous
    // verified checkpoint, and still converge to the identical model.
    let resumed_model = temp("corrupt_resumed_model.json");
    let out = train_cmd(&data, &resumed_model, &dir, true)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        dir.join("train-00000030.ckpt.corrupt").exists(),
        "corrupt checkpoint was not quarantined"
    );
    assert_eq!(
        std::fs::read(&ref_model).unwrap(),
        std::fs::read(&resumed_model).unwrap(),
        "fallback resume produced a different model"
    );

    for p in [&data, &ref_model, &resumed_model] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
