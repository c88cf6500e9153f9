//! End-to-end exercises of the fault-injection seam against the harness
//! write paths. Each script is armed only on its test's thread, so the
//! cases run as separate tests. The checkpoint cases run both engines
//! `drive` steps: the DES and the hybrid runner.

use btfluid_des::{DesConfig, SchemeKind, Simulation};
use btfluid_harness::{
    checkpoint, drive, manifest, CellRecord, CellStatus, CheckpointPlan, HarnessError,
    ManifestWriter, ReproBundle, RetryPolicy, RunEnd, RunLimits, RunReport,
};
use btfluid_hybrid::{amplified_flash_crowd, HybridConfig, HybridOutcome, HybridRunner, Regime};
use btfluid_telemetry::faults::{self, FaultKind, FaultRule, FaultScript, FaultSite};
use btfluid_telemetry::ScratchDir;
use std::path::{Path, PathBuf};

fn cfg(seed: u64) -> DesConfig {
    let mut cfg = DesConfig::paper_small(SchemeKind::Mtcd, 0.5, seed).unwrap();
    cfg.horizon = 400.0;
    cfg.warmup = 100.0;
    cfg.drain = 400.0;
    cfg
}

fn hybrid_cfg(seed: u64) -> HybridConfig {
    HybridConfig {
        program: amplified_flash_crowd(512.0, 0.005),
        scheme: SchemeKind::Mtcd,
        seed,
        tol: 0.1,
        aggregate: true,
    }
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

/// The two engines `drive` steps.
#[derive(Debug, Clone, Copy)]
enum Engine {
    Des,
    Hybrid,
}

const ENGINES: [Engine; 2] = [Engine::Des, Engine::Hybrid];

/// Every bit of a hybrid outcome the resume contract covers.
fn hybrid_bits(o: &HybridOutcome) -> Vec<u64> {
    let mut bits: Vec<u64> = o.class_means.iter().map(|v| v.to_bits()).collect();
    bits.push(o.final_t.to_bits());
    for h in &o.handoffs {
        bits.extend([
            h.t.to_bits(),
            u64::from(h.to == Regime::Discrete),
            h.pop.to_bits(),
        ]);
    }
    bits
}

/// `report` with its outcome replaced by whether it matches `straight`.
fn matching<O>(report: RunReport<O>, same: impl FnOnce(&O) -> bool) -> RunReport<bool> {
    RunReport {
        outcome: report.outcome.as_ref().map(same),
        end: report.end,
        progress: report.progress,
        checkpoints: report.checkpoints,
        checkpoint_failures: report.checkpoint_failures,
        degraded: report.degraded,
    }
}

/// Drives `engine` checkpointed to a fresh `path`; the report's outcome
/// says whether the result is bit-identical to an unobserved run.
fn drive_checkpointed(
    engine: Engine,
    seed: u64,
    path: &Path,
) -> Result<RunReport<bool>, HarnessError> {
    let _ = std::fs::remove_file(path);
    let plan = |every_events| CheckpointPlan {
        path: Some(path.to_path_buf()),
        every_events,
        retry: RetryPolicy::immediate(),
    };
    let limits = RunLimits::default();
    Ok(match engine {
        Engine::Des => {
            let straight = Simulation::new(cfg(seed)).unwrap().run();
            let sim = Simulation::new(cfg(seed)).unwrap();
            matching(
                drive(sim, Some(&plan(64)), &limits, None, None)?,
                |(o, _)| {
                    (o.events, &o.records, &o.aborts)
                        == (straight.events, &straight.records, &straight.aborts)
                },
            )
        }
        Engine::Hybrid => {
            let straight = HybridRunner::run(hybrid_cfg(seed)).unwrap();
            let runner = HybridRunner::new(hybrid_cfg(seed)).unwrap();
            matching(drive(runner, Some(&plan(4)), &limits, None, None)?, |o| {
                hybrid_bits(o) == hybrid_bits(&straight)
            })
        }
    })
}

#[test]
fn injected_faults_degrade_gracefully_and_never_change_results() {
    // Permanent ENOSPC on every checkpoint write: the run must degrade
    // (disable checkpointing, count failures in its report) and still
    // finish with results bit-identical to an uninterrupted run.
    for engine in ENGINES {
        let dir = ScratchDir::new("chaos-inj").unwrap();
        let path = dir.join(format!("degrade-{engine:?}.snap"));
        let report = armed(
            vec![rule(
                FaultSite::CheckpointWrite,
                FaultKind::Enospc,
                0,
                u64::MAX,
            )],
            || drive_checkpointed(engine, 21, &path),
        )
        .unwrap();
        assert_eq!(report.end, RunEnd::Completed, "{engine:?}");
        assert!(
            report.degraded,
            "{engine:?}: permanent failure must disable checkpoints"
        );
        assert_eq!(
            report.checkpoint_failures,
            u64::from(RetryPolicy::immediate().degrade_after),
            "{engine:?}: a degraded run stops writing, so it fails exactly degrade_after cycles"
        );
        assert_eq!(report.checkpoints, 0, "{engine:?}");
        assert_eq!(report.outcome, Some(true), "{engine:?}: results changed");
        assert!(!path.exists());
    }
}

#[test]
fn transient_eio_is_absorbed_by_retries() {
    // Two failed attempts, the third succeeds: the retry policy absorbs
    // it inside one cycle — no recorded failures, no degradation,
    // checkpoints written as normal.
    for engine in ENGINES {
        let dir = ScratchDir::new("chaos-inj").unwrap();
        let path = dir.join(format!("transient-{engine:?}.snap"));
        let report = armed(
            vec![rule(FaultSite::CheckpointWrite, FaultKind::Eio, 0, 2)],
            || drive_checkpointed(engine, 22, &path),
        )
        .unwrap();
        assert_eq!(report.end, RunEnd::Completed, "{engine:?}");
        assert!(!report.degraded, "{engine:?}");
        assert_eq!(
            report.checkpoint_failures, 0,
            "{engine:?}: retries absorb transients"
        );
        assert!(report.checkpoints > 0, "{engine:?}");
        assert_eq!(report.outcome, Some(true), "{engine:?}: results changed");
    }
}

#[test]
fn rename_failure_degrades_and_cleans_the_temp_file() {
    // Behaves like a write failure: the temp file is cleaned up and the
    // committed checkpoint (if any) is untouched.
    for engine in ENGINES {
        let dir = ScratchDir::new("chaos-inj").unwrap();
        let path = dir.join(format!("rename-{engine:?}.snap"));
        let report = armed(
            vec![rule(
                FaultSite::CheckpointRename,
                FaultKind::RenameFail,
                0,
                u64::MAX,
            )],
            || drive_checkpointed(engine, 23, &path),
        )
        .unwrap();
        assert_eq!(report.end, RunEnd::Completed, "{engine:?}");
        assert!(report.degraded, "{engine:?}");
        assert!(report.checkpoint_failures > 0, "{engine:?}");
        let mut stale = path.as_os_str().to_owned();
        stale.push(".tmp");
        assert!(
            !PathBuf::from(stale).exists(),
            "{engine:?}: failed rename must not leave the temp file behind"
        );
    }
}

#[test]
fn torn_manifest_line_is_skipped_and_repaired() {
    // A short write creates a real torn line; load tolerates it and
    // reopening repairs the tail before appending.
    let dir = ScratchDir::new("chaos-inj").unwrap();
    let journal = dir.join("torn-manifest.jsonl");
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
    let scratch = ScratchDir::new("chaos-inj").unwrap();
    let dir = scratch.join("bundle-enospc");
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
    let dir = ScratchDir::new("chaos-inj").unwrap();
    let path = dir.join("corrupt.bin");
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
