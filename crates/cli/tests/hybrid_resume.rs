//! Crash recovery for the hybrid driver, against the real `btfluid`
//! binary: a hybrid run SIGKILLed mid-flight and resumed from its
//! checkpoint must emit per-class means byte-identical to an
//! uninterrupted run (the CLI prints them with shortest-roundtrip
//! formatting, so byte equality is bit equality), and a run whose
//! checkpoints cannot be written must still finish with those means.

use btfluid_telemetry::ScratchDir;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_btfluid");

fn hybrid_args(out: &Path) -> Vec<String> {
    [
        "scenario",
        "flash_crowd",
        "--hybrid",
        "--scheme",
        "mtsd",
        "--aggregate",
        "--seed",
        "9",
        "--csv",
        "--out",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([out.to_str().unwrap().to_string()])
    .collect()
}

#[test]
fn sigkill_then_resume_is_bit_identical() {
    let dir = ScratchDir::new("hybrid-kill-resume").unwrap();
    let straight = dir.join("straight.csv");
    let resumed = dir.join("resumed.csv");
    let checkpoint = dir.join("cp.hsnap");

    // Reference: one uninterrupted run.
    let status = Command::new(BIN)
        .args(hybrid_args(&straight))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn reference run");
    assert!(status.success(), "reference run failed: {status}");

    // Victim: same run checkpointing at every decision boundary, killed
    // (SIGKILL — no cleanup handler runs) once a checkpoint lands.
    let mut victim_args = hybrid_args(&resumed);
    victim_args.extend(
        [
            "--checkpoint",
            checkpoint.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ]
        .map(String::from),
    );
    let mut child = Command::new(BIN)
        .args(&victim_args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim run");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut killed = false;
    loop {
        if checkpoint.is_file() {
            child.kill().expect("kill victim");
            let status = child.wait().expect("reap victim");
            // A poll descheduled under load can send the kill after the
            // victim already finished on its own; only a signal death
            // leaves a run to resume.
            killed = status.code().is_none();
            assert!(killed || status.success(), "victim failed: {status}");
            break;
        }
        if let Some(status) = child.try_wait().expect("poll victim") {
            // Finished before the first checkpoint was observed — the
            // race went the fast way; determinism is still compared.
            assert!(status.success(), "victim failed on its own: {status}");
            break;
        }
        assert!(Instant::now() < deadline, "no checkpoint within 30s");
        std::thread::sleep(Duration::from_millis(1));
    }

    if killed {
        assert!(
            !resumed.is_file(),
            "victim was killed yet already wrote its means"
        );
        let mut resume_args = victim_args.clone();
        resume_args.push("--resume".into());
        let status = Command::new(BIN)
            .args(&resume_args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("spawn resume run");
        assert!(status.success(), "resume run failed: {status}");
        assert!(
            !checkpoint.is_file(),
            "completed run must remove its checkpoint"
        );
    }

    let straight_bytes = std::fs::read(&straight).expect("read reference means");
    let resumed_bytes = std::fs::read(&resumed).expect("read resumed means");
    assert!(
        straight_bytes == resumed_bytes,
        "resumed hybrid means diverged from the uninterrupted run \
         (killed mid-run: {killed})"
    );
}

/// A corrupt hybrid checkpoint must die with the documented snapshot
/// exit code (5), not a generic failure.
#[test]
fn corrupt_hybrid_checkpoint_exits_with_snapshot_code() {
    let dir = ScratchDir::new("hybrid-corrupt-cp").unwrap();
    let checkpoint = dir.join("cp.hsnap");
    std::fs::write(&checkpoint, b"BTFSgarbage").unwrap();
    let out = dir.join("means.csv");
    let mut args = hybrid_args(&out);
    args.extend(
        [
            "--checkpoint",
            checkpoint.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ]
        .map(String::from),
    );
    args.push("--resume".into());
    let out = Command::new(BIN)
        .args(&args)
        .stdout(Stdio::null())
        .output()
        .expect("spawn run");
    assert_eq!(
        out.status.code(),
        Some(5),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `scenario flash_crowd --hybrid --scheme mtsd --seed 9` writing its
/// means to `out`, plus `extra`.
fn plain_hybrid(out: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(BIN)
        .args(["scenario", "flash_crowd", "--hybrid", "--scheme", "mtsd"])
        .args(["--seed", "9", "--csv", "--out", out.to_str().unwrap()])
        .args(extra)
        .stdout(Stdio::null())
        .output()
        .expect("spawn run")
}

/// Checkpointing is an observer: when every checkpoint write fails (its
/// directory does not exist), the driver retries, gives up on
/// checkpoints, and the run finishes with the means of a run that never
/// checkpointed.
#[test]
fn unwritable_checkpoint_degrades_to_the_same_means() {
    let dir = ScratchDir::new("hybrid-unwritable-cp").unwrap();
    let straight = dir.join("straight.csv");
    let degraded = dir.join("degraded.csv");
    let checkpoint = dir.join("missing").join("cp.hsnap");
    let out = plain_hybrid(&straight, &[]);
    assert!(out.status.success(), "reference run failed: {}", out.status);
    let cp = checkpoint.to_str().unwrap();
    let out = plain_hybrid(&degraded, &["--checkpoint", cp, "--checkpoint-every", "1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("disabling checkpoints"),
        "the run must report that it gave up on checkpoints"
    );
    assert!(
        std::fs::read(&straight).unwrap() == std::fs::read(&degraded).unwrap(),
        "a failed checkpoint write changed the hybrid means"
    );
}

/// A zero checkpoint interval is a configuration error (exit 2) in
/// hybrid and DES mode alike.
#[test]
fn zero_checkpoint_interval_exits_with_config_code() {
    let dir = ScratchDir::new("zero-interval").unwrap();
    let cp = dir.join("cp.snap");
    let zero = [
        "--checkpoint",
        cp.to_str().unwrap(),
        "--checkpoint-every",
        "0",
    ];
    let hybrid = plain_hybrid(&dir.join("hybrid.csv"), &zero);
    let des = Command::new(BIN)
        .args(["scenario", "flash_crowd", "--scheme", "mtsd", "--seed", "9"])
        .args(zero)
        .stdout(Stdio::null())
        .output()
        .expect("spawn run");
    for (mode, out) in [("hybrid", hybrid), ("des", des)] {
        assert_eq!(
            out.status.code(),
            Some(2),
            "{mode}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
