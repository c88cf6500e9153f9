//! Flight-recorder contracts against the real `btfluid` binary. The dump
//! a resumed run writes must carry the same record tail as an
//! uninterrupted twin, a hybrid run's dump records its checkpoints, and
//! `inspect` reads a dump as the btfluid-trace run it is. The ring only
//! keeps the last `capacity` records, and engine replay after resume is
//! bit-identical, so once the post-resume leg has produced at least
//! `capacity` records the two rings hold byte-identical windows — only
//! the meta line (totals and drop counts, which are per-process) may
//! differ.

use btfluid_telemetry::ScratchDir;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_btfluid");
const CAP: &str = "128";

fn scenario_args(records: &Path, flightrec: &Path) -> Vec<String> {
    [
        "scenario",
        "flash_crowd",
        "--scheme",
        "mtcd",
        "--seed",
        "11",
        "--csv",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([
        "--records".to_string(),
        records.to_str().unwrap().to_string(),
        "--flightrec".to_string(),
        flightrec.to_str().unwrap().to_string(),
        "--flightrec-cap".to_string(),
        CAP.to_string(),
    ])
    .collect()
}

/// Splits a flight dump into its meta line and record lines.
fn split_dump(path: &Path) -> (String, Vec<String>) {
    let body = std::fs::read_to_string(path).expect("read flightrec dump");
    let mut lines = body.lines().map(str::to_string);
    let meta = lines.next().expect("dump has a meta line");
    (meta, lines.collect())
}

#[test]
fn resumed_run_dumps_the_same_flight_tail() {
    let dir = ScratchDir::new("flightrec-tail").unwrap();
    let straight = dir.join("straight.csv");
    let straight_fr = dir.join("straight.flightrec.jsonl");
    let resumed = dir.join("resumed.csv");
    let resumed_fr = dir.join("resumed.flightrec.jsonl");
    let checkpoint = dir.join("cp.snap");
    let ref_checkpoint = dir.join("cp_ref.snap");

    // Reference: one uninterrupted run with the recorder attached. It
    // checkpoints on the same cadence (to its own file) so that the two
    // record streams contain identical `checkpoint` entries — the cadence
    // is event-count based, so it lines up across the resume boundary.
    let mut ref_args = scenario_args(&straight, &straight_fr);
    ref_args.extend(
        [
            "--checkpoint",
            ref_checkpoint.to_str().unwrap(),
            "--checkpoint-every",
            "200",
        ]
        .map(String::from),
    );
    let status = Command::new(BIN)
        .args(&ref_args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn reference run");
    assert!(status.success(), "reference run failed: {status}");

    // Victim: same run with checkpointing, SIGKILLed as soon as the first
    // checkpoint lands (no dump gets written — the dump happens at exit).
    let mut victim_args = scenario_args(&resumed, &resumed_fr);
    victim_args.extend(
        [
            "--checkpoint",
            checkpoint.to_str().unwrap(),
            "--checkpoint-every",
            "200",
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
            assert!(status.success(), "victim failed on its own: {status}");
            break;
        }
        assert!(Instant::now() < deadline, "no checkpoint within 30s");
        std::thread::sleep(Duration::from_millis(1));
    }

    if killed {
        assert!(
            !resumed_fr.is_file(),
            "victim was killed yet already wrote its flight dump"
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
    }

    let (straight_meta, straight_records) = split_dump(&straight_fr);
    let (resumed_meta, resumed_records) = split_dump(&resumed_fr);
    for meta in [&straight_meta, &resumed_meta] {
        assert!(
            meta.starts_with("{\"schema\":\"btfluid-trace\",\"version\":1,\"kind\":\"meta\"")
                && meta.contains(&format!("\"capacity\":{CAP}")),
            "meta line is not a btfluid-trace v1 flight-dump header: {meta}"
        );
    }
    // The post-resume leg of flash_crowd produces far more than `CAP`
    // records, so both rings ended full of the same final window.
    let cap: usize = CAP.parse().unwrap();
    assert_eq!(
        straight_records.len(),
        cap,
        "reference ring did not fill its capacity"
    );
    assert!(
        straight_records == resumed_records,
        "flight-recorder tails diverged (killed mid-run: {killed})\n\
         reference tail head: {:?}\nresumed tail head: {:?}",
        straight_records.first(),
        resumed_records.first()
    );
}

/// Hybrid checkpoints land in the flight ring like DES ones, so
/// `inspect` on a hybrid dump reports the last checkpoint.
#[test]
fn hybrid_dump_records_its_checkpoints() {
    let dir = ScratchDir::new("flightrec-hybrid").unwrap();
    let dump = dir.join("hybrid.flightrec.jsonl");
    let status = Command::new(BIN)
        .args(["scenario", "flash_crowd", "--hybrid", "--scheme", "mtsd"])
        .args(["--seed", "9", "--csv", "--out"])
        .arg(dir.join("means.csv"))
        .arg("--checkpoint")
        .arg(dir.join("cp.hsnap"))
        .args(["--checkpoint-every", "4", "--flightrec"])
        .arg(&dump)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn hybrid run");
    assert!(status.success(), "hybrid run failed: {status}");
    let (_, records) = split_dump(&dump);
    assert!(
        records.iter().any(|r| r.contains("\"k\":\"checkpoint\"")),
        "no checkpoint record in the hybrid dump"
    );
    let out = Command::new(BIN)
        .arg("inspect")
        .arg(&dump)
        .output()
        .expect("spawn inspect");
    assert!(out.status.success(), "inspect failed: {}", out.status);
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    assert!(
        text.contains("last checkpoint: t = "),
        "inspect output:\n{text}"
    );
}

/// `inspect` reads a DES dump through the one trace reader: it prints the
/// record mix and finds nothing wrong (a ring has no end record by
/// design, so it is not "truncated"). A dump in the retired `flightrec`
/// schema is refused, naming that schema.
#[test]
fn inspect_reads_a_des_dump_and_refuses_the_retired_schema() {
    let dir = ScratchDir::new("flightrec-inspect").unwrap();
    let dump = dir.join("des.flightrec.jsonl");
    let status = Command::new(BIN)
        .args(["scenario", "flash_crowd", "--smoke", "--scheme", "mtcd"])
        .args(["--seed", "1", "--csv", "--flightrec"])
        .arg(&dump)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn DES run");
    assert!(status.success(), "DES run failed: {status}");
    let out = Command::new(BIN)
        .arg("inspect")
        .arg(&dump)
        .output()
        .expect("spawn inspect");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "inspect failed: {}", out.status);
    assert!(
        stdout.contains("flight recording") && stdout.contains("pop"),
        "no record mix:\n{stdout}"
    );
    assert!(
        stdout.contains("no anomalies detected") && !stdout.contains("anomaly:"),
        "inspect output:\n{stdout}"
    );

    let old = dir.join("old.flightrec.jsonl");
    std::fs::write(
        &old,
        "{\"schema\":\"flightrec\",\"version\":1,\"capacity\":4,\"total\":1,\"dropped\":0}\n\
         {\"k\":\"pop\",\"t\":1.5,\"ev\":1,\"a\":1,\"b\":0}\n",
    )
    .unwrap();
    let out = Command::new(BIN)
        .arg("inspect")
        .arg(&old)
        .output()
        .expect("spawn inspect");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a flightrec v1 dump was accepted");
    assert!(stderr.contains("'flightrec'"), "stderr:\n{stderr}");
}
