//! The resumable run driver: step the engine in chunks, snapshotting
//! atomically between chunks.
//!
//! The driver owns the loop the CLI and the supervisor both need: create
//! (or restore) an engine, step it `every_events` at a time, write a
//! checkpoint after each chunk, and honor cooperative limits — an event
//! budget, a wall-clock deadline, a cancel flag — checked at chunk
//! granularity. Checkpoints use the snapshot layer's atomic
//! temp-file-and-rename write, so a kill at any instant leaves either the
//! previous checkpoint or the new one, never a torn file. On successful
//! completion the checkpoint file is deleted: a leftover checkpoint always
//! means "this run did not finish".

use crate::error::{io_err, HarnessError};
use btfluid_des::{
    Counters, DesConfig, FlightKind, Probe, ScenarioHook, SimOutcome, Simulation, Snapshot,
};
use btfluid_numkit::rng::{RngCore, SplitMix64};
use btfluid_telemetry::faults::{self, FaultSite, WritePlan};
use btfluid_telemetry::profiler::Phase as ProfPhase;
use btfluid_telemetry::{diag, Level};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Atomically replaces `path` with `bytes`: write `<path>.tmp`, fsync,
/// rename over the destination. A kill at any instant leaves either the
/// old file or the new one, never a torn write — the same discipline the
/// engine snapshot codec uses, exposed for byte formats the harness does
/// not own (hybrid snapshots, result bundles, …).
///
/// Both steps pass through the chaos injection seam
/// ([`btfluid_telemetry::faults`]) under the checkpoint sites, so a
/// scripted ENOSPC/EIO/short-write/rename failure surfaces here exactly
/// like the real one would.
///
/// # Errors
/// Propagates the underlying filesystem errors; on failure the temp file
/// is removed best-effort and `path` is untouched.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let write = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        match faults::write_plan(FaultSite::CheckpointWrite, bytes.len()) {
            WritePlan::Full => std::io::Write::write_all(&mut file, bytes)?,
            WritePlan::Short(n, e) => {
                let _ = std::io::Write::write_all(&mut file, &bytes[..n]);
                return Err(e);
            }
            WritePlan::Fail(e) => return Err(e),
            WritePlan::Corrupt => {
                // Silent corruption: commit a byte-flipped copy with no
                // error — the lying-firmware case only read-time
                // checksums can catch.
                let mut poisoned = bytes.to_vec();
                let mid = poisoned.len() / 2;
                if let Some(b) = poisoned.get_mut(mid) {
                    *b ^= 0x40;
                }
                std::io::Write::write_all(&mut file, &poisoned)?;
            }
        }
        file.sync_all()?;
        if let Some(kind) = faults::intercept(FaultSite::CheckpointRename) {
            return Err(kind.to_io_error());
        }
        std::fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write
}

/// Removes a leftover `<path>.tmp` from a write interrupted between the
/// temp-file write and the rename (checkpoints, traces, hybrid
/// snapshots — every atomic writer in the workspace uses the same
/// discipline). Returns whether a stale file was actually removed.
///
/// The temp file is never a valid resume source (the rename is the commit
/// point), so cleaning it up beats letting the next atomic write trip
/// over it or an operator mistaking it for state.
pub fn clean_stale_tmp(path: &Path) -> bool {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    if tmp.exists() {
        diag!(
            Level::Warn,
            "removing leftover temp file {} (interrupted mid-write)",
            tmp.display()
        );
        let _ = std::fs::remove_file(&tmp);
        return true;
    }
    false
}

/// Bounded retry with exponential backoff for transient checkpoint I/O
/// failures, plus the graceful-degradation threshold: after
/// `degrade_after` *consecutive* failed write cycles (each cycle already
/// containing `max_attempts` backed-off tries) the driver stops
/// checkpointing entirely, bumps the process-wide
/// [`faults::checkpoint_degraded_count`] tally, warns once, and lets the
/// run finish on the engine's in-memory state — a correct result beats a
/// dead run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Write attempts per checkpoint cycle (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt after that.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Consecutive failed cycles before checkpointing is disabled.
    pub degrade_after: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(400),
            degrade_after: 3,
        }
    }
}

impl RetryPolicy {
    /// A no-sleep variant for tests and chaos sweeps, where hundreds of
    /// injected failures must not stack real wall-clock backoff.
    pub fn immediate() -> Self {
        Self {
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            ..Self::default()
        }
    }

    /// Backoff before retry `attempt` (1-based): `base * 2^(attempt-1)`
    /// capped at `max_backoff`, plus a deterministic jitter in
    /// `[0, base/2)` drawn from a SplitMix64 stream seeded by `salt` —
    /// reruns of the same failing run back off identically, so chaos
    /// verdicts stay bit-reproducible.
    fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.max_backoff);
        let half_base = (self.base_backoff.as_micros() as u64 / 2).max(1);
        let jitter = SplitMix64::new(salt ^ u64::from(attempt)).next_u64() % half_base;
        capped + Duration::from_micros(jitter)
    }

    /// Runs one checkpoint write cycle: up to `max_attempts` tries with
    /// backed-off sleeps between them.
    fn write_cycle(&self, path: &Path, bytes: &[u8], salt: u64) -> std::io::Result<()> {
        let mut attempt = 0u32;
        loop {
            match atomic_write(path, bytes) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    attempt += 1;
                    if attempt >= self.max_attempts.max(1) {
                        return Err(e);
                    }
                    let pause = self.backoff(attempt, salt);
                    diag!(
                        Level::Warn,
                        "checkpoint write to {} failed ({e}); retry {attempt}/{} in {:?}",
                        path.display(),
                        self.max_attempts.max(1) - 1,
                        pause
                    );
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
            }
        }
    }
}

/// Where and how often to checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointPlan {
    /// Checkpoint file; `None` disables on-disk checkpoints (the
    /// in-memory observer still fires).
    pub path: Option<PathBuf>,
    /// Snapshot after this many engine events (> 0).
    pub every_events: u64,
    /// Retry/backoff/degradation policy for checkpoint write failures.
    pub retry: RetryPolicy,
}

/// Cooperative limits, checked between chunks (and the panic injection,
/// checked per event so it is exact).
#[derive(Debug, Default)]
pub struct RunLimits {
    /// Stop once the engine's *total* event count (which survives resume)
    /// reaches this.
    pub max_events: Option<u64>,
    /// Stop after this instant.
    pub deadline: Option<Instant>,
    /// Deterministically panic when the event count reaches this value —
    /// fault injection for the crash-recovery tests and CI smoke.
    pub inject_panic_at: Option<u64>,
}

/// Why the driver returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// The simulation ran to completion; the outcome is final.
    Completed,
    /// The event budget was reached first.
    EventBudget,
    /// The wall-clock deadline passed first.
    WallBudget,
    /// The cancel flag was raised (watchdog or operator).
    Cancelled,
}

/// The driver's result.
#[derive(Debug)]
pub struct RunReport {
    /// The finished outcome — `None` unless [`RunEnd::Completed`].
    pub outcome: Option<SimOutcome>,
    /// How the run ended.
    pub end: RunEnd,
    /// Total engine events executed (including any resumed-from prefix).
    pub events: u64,
    /// Whether the run started from an existing checkpoint.
    pub resumed: bool,
    /// Checkpoints written to disk.
    pub checkpoints: u64,
    /// Checkpoint write cycles that failed even after retries. Failures
    /// never kill the run — checkpointing is a pure observer.
    pub checkpoint_failures: u64,
    /// Whether checkpointing was disabled mid-run after
    /// [`RetryPolicy::degrade_after`] consecutive failed cycles.
    pub degraded: bool,
    /// The engine's counters where the run stopped: on completion, the
    /// same values an attached probe's `on_finish` receives.
    pub counters: Counters,
}

/// Receives the unsealed body of each snapshot [`drive`] takes.
pub type SnapshotObserver<'a> = &'a mut dyn FnMut(&[u8]);

/// Runs `cfg` under the plan and limits.
///
/// `hooks` supplies the scenario hook: called once for a fresh start or a
/// restore (the engine consumes the box), so pass a factory, not a value.
/// With `resume` set and the plan's path present on disk, the run picks up
/// from that checkpoint; otherwise it starts fresh. On a non-`Completed`
/// end a final checkpoint is written (when a path is configured) so the
/// next invocation loses no work.
///
/// `on_snapshot` sees the unsealed body ([`Simulation::snapshot_body`]) of
/// every snapshot the driver takes; each is encoded once, whether it goes
/// to the observer, to disk, or both.
///
/// `probe` attaches a telemetry probe to the engine. The driver feeds it
/// `checkpoint` spans and per-checkpoint byte/time accounting (via
/// [`Simulation::note_snapshot`]) on top of the engine's own samples, and
/// an `engine` span covering the whole drive on completion. Probes only
/// observe — attaching one never changes the run's results.
///
/// # Errors
/// Engine and snapshot errors ([`HarnessError::Engine`]), filesystem
/// failures ([`HarnessError::Io`]), and invalid plans
/// ([`HarnessError::Config`]).
///
/// # Panics
/// Panics deliberately when `limits.inject_panic_at` fires; engine bugs
/// outside `checked` mode may also panic. Callers that must survive either
/// wrap the call in `catch_unwind` (the supervisor does).
#[allow(clippy::too_many_arguments)]
pub fn drive(
    cfg: DesConfig,
    hook_factory: Option<&dyn Fn() -> Box<dyn ScenarioHook>>,
    plan: Option<&CheckpointPlan>,
    resume: bool,
    limits: &RunLimits,
    cancel: Option<&AtomicBool>,
    mut on_snapshot: Option<SnapshotObserver<'_>>,
    probe: Option<Box<dyn Probe>>,
) -> Result<RunReport, HarnessError> {
    if let Some(plan) = plan {
        if plan.every_events == 0 {
            return Err(HarnessError::Config(
                "checkpoint interval must be at least 1 event".into(),
            ));
        }
    }
    let checkpoint_path = plan.and_then(|p| p.path.as_deref());
    // A crash between "write <path>.tmp" and "rename over <path>" leaves a
    // partial temp file behind. It is never a valid resume source (the
    // rename is the commit point), so clean it up rather than letting the
    // next atomic write trip over it or an operator mistake it for state.
    if let Some(path) = checkpoint_path {
        clean_stale_tmp(path);
    }
    let existing = resume
        .then(|| checkpoint_path.filter(|p| p.exists()))
        .flatten();

    let mut sim = match existing {
        Some(path) => {
            let snap = Snapshot::read_file(path)?;
            match hook_factory {
                Some(make) => Simulation::restore_with_hook(cfg, &snap, make())?,
                None => Simulation::restore(cfg, &snap)?,
            }
        }
        None => match hook_factory {
            Some(make) => Simulation::with_hook(cfg, make())?,
            None => Simulation::new(cfg)?,
        },
    };
    if let Some(probe) = probe {
        sim.attach_probe(probe);
    }
    let resumed = existing.is_some();
    let chunk = plan.map_or(u64::MAX, |p| p.every_events);
    let retry = plan.map_or_else(RetryPolicy::default, |p| p.retry);
    let mut checkpoints = 0u64;
    let mut checkpoint_failures = 0u64;
    let mut consecutive_failures = 0u32;
    let mut degraded = false;
    let mut next_checkpoint = sim.events().saturating_add(chunk);
    let drive_start = Instant::now();

    // Checkpointing is a pure observer of the run: a failed write must
    // never change the result, so write failures warn (after the retry
    // policy's backed-off attempts) instead of propagating, and after
    // `degrade_after` consecutive failed cycles the driver gives up on
    // disk entirely and lets the run finish on in-memory state.
    let take_snapshot = |sim: &mut Simulation,
                         on_snapshot: &mut Option<SnapshotObserver<'_>>,
                         checkpoint_failures: &mut u64,
                         consecutive_failures: &mut u32,
                         degraded: &mut bool| {
        let started = Instant::now();
        let body = sim.snapshot_body();
        let mut encode_ns = started.elapsed().as_nanos() as u64;
        if let Some(cb) = on_snapshot.as_mut() {
            cb(&body);
        }
        if *degraded {
            return false;
        }
        if let Some(path) = checkpoint_path {
            let seal_started = Instant::now();
            let bytes = Snapshot::seal(body);
            encode_ns += seal_started.elapsed().as_nanos() as u64;
            sim.profiler_add(ProfPhase::SnapshotEncode, encode_ns);
            let salt = sim.events() ^ 0x5eed_c0de;
            match retry.write_cycle(path, &bytes, salt) {
                Ok(()) => {
                    *consecutive_failures = 0;
                    let micros = started.elapsed().as_micros() as u64;
                    sim.note_snapshot(bytes.len() as u64, micros);
                    sim.emit_span("checkpoint", micros);
                    sim.emit_flight(FlightKind::Checkpoint, bytes.len() as u64, 0);
                    return true;
                }
                Err(e) => {
                    *checkpoint_failures += 1;
                    *consecutive_failures += 1;
                    faults::note_checkpoint_failure();
                    diag!(
                        Level::Warn,
                        "checkpoint cycle at event {} failed after {} attempt(s): {e}; run continues",
                        sim.events(),
                        retry.max_attempts.max(1)
                    );
                    if *consecutive_failures >= retry.degrade_after.max(1) {
                        *degraded = true;
                        faults::note_checkpoint_degraded();
                        diag!(
                            Level::Warn,
                            "disabling checkpoints after {} consecutive failed cycles; \
                             run continues without crash protection",
                            consecutive_failures
                        );
                    }
                }
            }
        }
        false
    };

    let end = loop {
        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            break RunEnd::Cancelled;
        }
        if limits.deadline.is_some_and(|d| Instant::now() >= d) {
            break RunEnd::WallBudget;
        }
        if limits.max_events.is_some_and(|n| sim.events() >= n) {
            break RunEnd::EventBudget;
        }
        if limits.inject_panic_at.is_some_and(|n| sim.events() >= n) {
            panic!(
                "injected panic at event {} (t = {:.3})",
                sim.events(),
                sim.sim_time()
            );
        }
        if !sim.step()? {
            break RunEnd::Completed;
        }
        if sim.events() >= next_checkpoint {
            if take_snapshot(
                &mut sim,
                &mut on_snapshot,
                &mut checkpoint_failures,
                &mut consecutive_failures,
                &mut degraded,
            ) {
                checkpoints += 1;
            }
            next_checkpoint = sim.events().saturating_add(chunk);
        }
    };

    if end == RunEnd::Completed {
        let events = sim.events();
        sim.emit_span("engine", drive_start.elapsed().as_micros() as u64);
        let counters = sim.counters();
        let outcome = sim.finish();
        // A finished run must not leave a checkpoint behind: its presence
        // is the "work remains" signal for `--resume`.
        if let Some(path) = checkpoint_path {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(path, e)),
            }
        }
        return Ok(RunReport {
            outcome: Some(outcome),
            end,
            events,
            resumed,
            checkpoints,
            checkpoint_failures,
            degraded,
            counters,
        });
    }

    // Interrupted: persist the frontier so nothing is lost.
    if take_snapshot(
        &mut sim,
        &mut on_snapshot,
        &mut checkpoint_failures,
        &mut consecutive_failures,
        &mut degraded,
    ) {
        checkpoints += 1;
    }
    sim.emit_span("engine", drive_start.elapsed().as_micros() as u64);
    Ok(RunReport {
        outcome: None,
        end,
        events: sim.events(),
        resumed,
        checkpoints,
        checkpoint_failures,
        degraded,
        counters: sim.counters(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_des::SchemeKind;

    fn cfg(seed: u64) -> DesConfig {
        let mut cfg = DesConfig::paper_small(SchemeKind::Mtcd, 0.5, seed).unwrap();
        cfg.horizon = 400.0;
        cfg.warmup = 100.0;
        cfg.drain = 400.0;
        cfg
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("btfs-driver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn budget_stop_then_resume_is_bit_identical() {
        let straight = Simulation::new(cfg(5)).unwrap().run();

        let path = tmp("budget.snap");
        let _ = std::fs::remove_file(&path);
        let plan = CheckpointPlan {
            path: Some(path.clone()),
            every_events: 64,
            retry: RetryPolicy::immediate(),
        };
        let limits = RunLimits {
            max_events: Some(333),
            ..Default::default()
        };
        let first = drive(cfg(5), None, Some(&plan), true, &limits, None, None, None).unwrap();
        assert_eq!(first.end, RunEnd::EventBudget);
        assert!(first.outcome.is_none());
        assert!(path.exists(), "interrupted run must leave a checkpoint");

        let second = drive(
            cfg(5),
            None,
            Some(&plan),
            true,
            &RunLimits::default(),
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(second.end, RunEnd::Completed);
        assert!(second.resumed);
        assert!(!path.exists(), "completion must remove the checkpoint");
        let resumed = second.outcome.unwrap();
        assert_eq!(straight.events, resumed.events);
        assert_eq!(straight.records, resumed.records);
        assert_eq!(straight.aborts, resumed.aborts);
    }

    #[test]
    fn resume_cleans_leftover_tmp_from_interrupted_rename() {
        // A SIGKILL between writing `<path>.tmp` and the rename leaves the
        // temp file on disk next to the (older, still-valid) checkpoint.
        // Resume must ignore the partial temp file, clean it up, and
        // continue bit-identically from the committed checkpoint.
        let straight = Simulation::new(cfg(11)).unwrap().run();

        let path = tmp("stale-tmp.snap");
        let _ = std::fs::remove_file(&path);
        let plan = CheckpointPlan {
            path: Some(path.clone()),
            every_events: 64,
            retry: RetryPolicy::immediate(),
        };
        let limits = RunLimits {
            max_events: Some(333),
            ..Default::default()
        };
        let first = drive(cfg(11), None, Some(&plan), true, &limits, None, None, None).unwrap();
        assert_eq!(first.end, RunEnd::EventBudget);
        assert!(path.exists());

        // Simulate the interrupted mid-rename write: garbage in `.tmp`.
        let mut stale = path.as_os_str().to_owned();
        stale.push(".tmp");
        let stale = PathBuf::from(stale);
        std::fs::write(&stale, b"partial snapshot, crash before rename").unwrap();

        let second = drive(
            cfg(11),
            None,
            Some(&plan),
            true,
            &RunLimits::default(),
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(second.end, RunEnd::Completed);
        assert!(second.resumed, "must resume from the committed checkpoint");
        assert!(!stale.exists(), "leftover .tmp must be cleaned up");
        assert!(!path.exists(), "completion must remove the checkpoint");
        let resumed = second.outcome.unwrap();
        assert_eq!(straight.events, resumed.events);
        assert_eq!(straight.records, resumed.records);
    }

    #[test]
    fn cancel_flag_stops_promptly() {
        let cancel = AtomicBool::new(true);
        let report = drive(
            cfg(6),
            None,
            None,
            false,
            &RunLimits::default(),
            Some(&cancel),
            None,
            None,
        )
        .unwrap();
        assert_eq!(report.end, RunEnd::Cancelled);
    }

    #[test]
    fn snapshot_observer_sees_chunks() {
        let mut seen = 0u64;
        let mut last_events = 0u64;
        let plan = CheckpointPlan {
            path: None,
            every_events: 100,
            retry: RetryPolicy::immediate(),
        };
        let mut observe = |body: &[u8]| {
            seen += 1;
            last_events = Snapshot::from_body(body).unwrap().events();
        };
        let report = drive(
            cfg(7),
            None,
            Some(&plan),
            false,
            &RunLimits::default(),
            None,
            Some(&mut observe),
            None,
        )
        .unwrap();
        assert_eq!(report.end, RunEnd::Completed);
        assert_eq!(report.checkpoints, 0, "no path, nothing written");
        assert!(seen > 1, "observer should fire once per chunk");
        assert!(last_events > 0);
    }

    #[test]
    fn injected_panic_fires_exactly() {
        let limits = RunLimits {
            inject_panic_at: Some(50),
            ..Default::default()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive(cfg(8), None, None, false, &limits, None, None, None)
        }));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("injected panic at event 50"), "{msg}");
    }

    #[test]
    fn zero_interval_is_refused() {
        let plan = CheckpointPlan {
            path: None,
            every_events: 0,
            retry: RetryPolicy::immediate(),
        };
        assert!(matches!(
            drive(
                cfg(9),
                None,
                Some(&plan),
                false,
                &RunLimits::default(),
                None,
                None,
                None
            ),
            Err(HarnessError::Config(_))
        ));
    }

    #[test]
    fn probe_sees_checkpoint_spans_and_snapshot_accounting() {
        use btfluid_des::MemoryProbe;
        use std::sync::{Arc, Mutex};

        let path = tmp("probed.snap");
        let _ = std::fs::remove_file(&path);
        let plan = CheckpointPlan {
            path: Some(path.clone()),
            every_events: 64,
            retry: RetryPolicy::immediate(),
        };
        let shared = Arc::new(Mutex::new(MemoryProbe::new(10.0)));
        let report = drive(
            cfg(11),
            None,
            Some(&plan),
            false,
            &RunLimits::default(),
            None,
            None,
            Some(Box::new(Arc::clone(&shared))),
        )
        .unwrap();
        assert_eq!(report.end, RunEnd::Completed);
        assert!(report.checkpoints > 0);
        let shared = shared.lock().unwrap();
        let n_ckpt_spans = shared
            .spans
            .iter()
            .filter(|(name, _)| name == "checkpoint")
            .count();
        assert_eq!(n_ckpt_spans as u64, report.checkpoints);
        assert!(
            shared.spans.iter().any(|(name, _)| name == "engine"),
            "completed drive emits an engine span"
        );
        let counters = shared.finished.expect("probe sees finish");
        assert_eq!(report.counters, counters);
        assert_eq!(counters.snapshots_taken, report.checkpoints);
        assert!(counters.snapshot_bytes > 0);
        assert!(counters.events_popped > 0);
    }
}
