//! End-to-end exercises of the fault-injection seam against the harness
//! write paths. Each script is armed only on its test's thread, so the
//! cases run as separate tests.

use btfluid_des::{DesConfig, SchemeKind, Simulation};
use btfluid_harness::{
    checkpoint, drive, manifest, CellRecord, CellStatus, CheckpointPlan, HarnessError,
    ManifestWriter, ReproBundle, RetryPolicy, RunEnd, RunLimits, RunReport,
};
use btfluid_telemetry::faults::{self, FaultKind, FaultRule, FaultScript, FaultSite};
use std::path::{Path, PathBuf};

fn cfg(seed: u64) -> DesConfig {
    let mut cfg = DesConfig::paper_small(SchemeKind::Mtcd, 0.5, seed).unwrap();
    cfg.horizon = 400.0;
    cfg.warmup = 100.0;
    cfg.drain = 400.0;
    cfg
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("btfs-chaos-inj-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn rule(site: FaultSite, kind: FaultKind, from_op: u64, count: u64) -> FaultRule {
    FaultRule {
        site,
        kind,
        from_op,
        count,
    }
}

fn armed<T>(rules: Vec<FaultRule>, f: impl FnOnce() -> T) -> T {
    faults::scoped(FaultScript { rules }, None, f)
}

fn drive_checkpointed(seed: u64, path: &Path) -> Result<RunReport, HarnessError> {
    let _ = std::fs::remove_file(path);
    drive(
        cfg(seed),
        None,
        Some(&plan(Some(path.to_path_buf()))),
        false,
        &RunLimits::default(),
        None,
        None,
        None,
    )
}

fn plan(path: Option<PathBuf>) -> CheckpointPlan {
    CheckpointPlan {
        path,
        every_events: 64,
        retry: RetryPolicy::immediate(),
    }
}

#[test]
fn injected_faults_degrade_gracefully_and_never_change_results() {
    // Permanent ENOSPC on every checkpoint write: the run must degrade
    // (disable checkpointing, count failures in its report) and still
    // finish with results bit-identical to an
    // uninterrupted run.
    let straight = Simulation::new(cfg(21)).unwrap().run();
    let path = tmp("degrade.snap");
    let report = armed(
        vec![rule(
            FaultSite::CheckpointWrite,
            FaultKind::Enospc,
            0,
            u64::MAX,
        )],
        || drive_checkpointed(21, &path),
    )
    .unwrap();
    assert_eq!(report.end, RunEnd::Completed);
    assert!(
        report.degraded,
        "permanent failure must disable checkpoints"
    );
    assert_eq!(
        report.checkpoint_failures,
        u64::from(RetryPolicy::immediate().degrade_after),
        "a degraded run stops writing, so it fails exactly degrade_after cycles"
    );
    assert_eq!(report.checkpoints, 0);
    let outcome = report.outcome.unwrap();
    assert_eq!(straight.events, outcome.events);
    assert_eq!(straight.records, outcome.records);
    assert_eq!(straight.aborts, outcome.aborts);
    assert!(!path.exists());
}

#[test]
fn transient_eio_is_absorbed_by_retries() {
    // Two failed attempts, the third succeeds: the retry policy absorbs
    // it inside one cycle — no recorded failures, no degradation,
    // checkpoints written as normal.
    let path = tmp("transient.snap");
    let report = armed(
        vec![rule(FaultSite::CheckpointWrite, FaultKind::Eio, 0, 2)],
        || drive_checkpointed(22, &path),
    )
    .unwrap();
    assert_eq!(report.end, RunEnd::Completed);
    assert!(!report.degraded);
    assert_eq!(report.checkpoint_failures, 0, "retries absorb transients");
    assert!(report.checkpoints > 0);
}

#[test]
fn rename_failure_degrades_and_cleans_the_temp_file() {
    // Behaves like a write failure: the temp file is cleaned up and the
    // committed checkpoint (if any) is untouched.
    let path = tmp("rename.snap");
    let report = armed(
        vec![rule(
            FaultSite::CheckpointRename,
            FaultKind::RenameFail,
            0,
            u64::MAX,
        )],
        || drive_checkpointed(23, &path),
    )
    .unwrap();
    assert_eq!(report.end, RunEnd::Completed);
    assert!(report.degraded);
    assert!(report.checkpoint_failures > 0);
    let mut stale = path.as_os_str().to_owned();
    stale.push(".tmp");
    assert!(
        !PathBuf::from(stale).exists(),
        "failed rename must not leave the temp file behind"
    );
}

#[test]
fn torn_manifest_line_is_skipped_and_repaired() {
    // A short write creates a real torn line; load tolerates it and
    // reopening repairs the tail before appending.
    let journal = tmp("torn-manifest.jsonl");
    let _ = std::fs::remove_file(&journal);
    let record = CellRecord {
        id: "cell-a".into(),
        status: CellStatus::Done,
        attempts: 1,
        events: 10,
        wall_ms: 1,
        counters: None,
        detail: "ok".into(),
    };
    let mut w = ManifestWriter::open(&journal).unwrap();
    w.append(&record).unwrap();
    let torn = armed(
        vec![rule(FaultSite::ManifestAppend, FaultKind::ShortWrite, 0, 1)],
        || {
            w.append(&CellRecord {
                id: "cell-b".into(),
                ..record.clone()
            })
        },
    );
    assert!(matches!(torn, Err(HarnessError::Io { .. })));
    drop(w);
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(!text.ends_with('\n'), "short write must leave a torn tail");
    let records = manifest::load(&journal).unwrap();
    assert_eq!(records.len(), 1, "torn tail is skipped, not fatal");
    let mut w = ManifestWriter::open(&journal).unwrap();
    w.append(&CellRecord {
        id: "cell-c".into(),
        ..record.clone()
    })
    .unwrap();
    drop(w);
    let ids: Vec<String> = manifest::load(&journal)
        .unwrap()
        .into_iter()
        .map(|r| r.id)
        .collect();
    assert_eq!(ids, ["cell-a", "cell-c"]);
}

#[test]
fn bundle_enospc_is_a_typed_io_error() {
    let dir = tmp("bundle-enospc");
    let bundle = ReproBundle {
        cell_id: "cell-x".into(),
        reason: "test".into(),
        cfg: cfg(24),
        scenario: None,
        inject_panic_at: None,
        checkpoint: None,
        flight: None,
    };
    let write = armed(
        vec![rule(FaultSite::BundleWrite, FaultKind::Enospc, 0, u64::MAX)],
        || bundle.write(&dir),
    );
    assert!(matches!(write, Err(HarnessError::Io { .. })));
}

#[test]
fn corrupt_write_commits_poisoned_bytes_silently() {
    // atomic_write + CorruptWrite commits silently-poisoned bytes (no
    // error): the lying-disk case only read-time checksums catch.
    let path = tmp("corrupt.bin");
    armed(
        vec![rule(
            FaultSite::CheckpointWrite,
            FaultKind::CorruptWrite,
            0,
            1,
        )],
        || checkpoint::atomic_write(&path, b"0123456789"),
    )
    .unwrap();
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(on_disk.len(), 10);
    assert_ne!(on_disk, b"0123456789", "corrupt write must flip a byte");
}
