//! The resumable run driver: step an engine, snapshotting atomically
//! as it goes.
//!
//! [`drive`] is the workspace's one step/checkpoint loop, for both
//! engines ([`Engine`]): the event-driven [`Simulation`], whose progress
//! is its event count, and the hybrid [`HybridRunner`], whose progress is
//! its decision-boundary count. It steps the engine it is given, writes a
//! checkpoint each time progress crosses the plan's interval, and honors
//! cooperative limits — a progress budget, a wall-clock deadline, a
//! cancel flag — checked before every step. Checkpoints use an atomic
//! temp-file-and-rename write, so a kill at any instant leaves either the
//! previous checkpoint or the new one, never a torn file; failed writes
//! are retried and then given up on, never fatal. On successful
//! completion the checkpoint file is deleted: a leftover checkpoint
//! always means "this run did not finish".

use crate::error::{io_err, HarnessError};
use btfluid_des::{
    Counters, DesConfig, FlightKind, ScenarioHook, SimOutcome, Simulation, Snapshot,
};
use btfluid_hybrid::{HybridOutcome, HybridRunner};
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
/// discipline).
///
/// The temp file is never a valid resume source (the rename is the commit
/// point), so cleaning it up beats letting the next atomic write trip
/// over it or an operator mistaking it for state.
pub fn clean_stale_tmp(path: &Path) {
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
    }
}

/// Bounded retry with exponential backoff for transient checkpoint I/O
/// failures, plus the graceful-degradation threshold: after
/// `degrade_after` *consecutive* failed write cycles (each cycle already
/// containing `max_attempts` backed-off tries) the driver stops
/// checkpointing entirely, sets [`RunReport::degraded`], warns once, and
/// lets the run finish on the engine's in-memory state — a correct result
/// beats a dead run.
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
        let attempts = self.max_attempts.max(1);
        let mut attempt = 1;
        loop {
            match atomic_write(path, bytes) {
                Err(e) if attempt < attempts => {
                    let pause = self.backoff(attempt, salt);
                    diag!(
                        Level::Warn,
                        "checkpoint write to {} failed ({e}); retry {attempt}/{} in {pause:?}",
                        path.display(),
                        attempts - 1
                    );
                    std::thread::sleep(pause);
                    attempt += 1;
                }
                done => return done,
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
    /// Snapshot after this many steps of engine progress (> 0): events
    /// for [`Simulation`], decision boundaries for [`HybridRunner`].
    pub every_events: u64,
    /// Retry/backoff/degradation policy for checkpoint write failures.
    pub retry: RetryPolicy,
}

/// Cooperative limits, checked before every step (so the panic
/// injection fires exactly where asked).
#[derive(Debug, Default)]
pub struct RunLimits {
    /// Stop once the engine's progress (which survives resume) reaches
    /// this.
    pub max_events: Option<u64>,
    /// Stop after this instant.
    pub deadline: Option<Instant>,
    /// Deterministically panic when the progress count reaches this
    /// value — fault injection for the crash-recovery tests and CI smoke.
    pub inject_panic_at: Option<u64>,
}

/// Why the driver returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// The simulation ran to completion; the outcome is final.
    Completed,
    /// The progress budget was reached first.
    EventBudget,
    /// The wall-clock deadline passed first.
    WallBudget,
    /// The cancel flag was raised (watchdog or operator).
    Cancelled,
}

/// The driver's result.
#[derive(Debug)]
pub struct RunReport<O> {
    /// The finished outcome — `None` unless [`RunEnd::Completed`].
    pub outcome: Option<O>,
    /// How the run ended.
    pub end: RunEnd,
    /// The engine's progress where the run stopped (including any
    /// resumed-from prefix).
    pub progress: u64,
    /// Checkpoints written to disk.
    pub checkpoints: u64,
    /// Checkpoint write cycles that failed even after retries. Failures
    /// never kill the run — checkpointing is a pure observer.
    pub checkpoint_failures: u64,
    /// Whether checkpointing was disabled mid-run after
    /// [`RetryPolicy::degrade_after`] consecutive failed cycles.
    pub degraded: bool,
}

/// Receives the unsealed body of each snapshot [`drive`] takes.
pub type SnapshotObserver<'a> = &'a mut dyn FnMut(&[u8]);

/// An engine [`drive`] can step and checkpoint: the event-driven
/// [`Simulation`] and the hybrid [`HybridRunner`].
pub trait Engine {
    /// What a finished run yields.
    type Outcome;
    /// Advances one step; `false` once the run is over.
    fn step(&mut self) -> Result<bool, HarnessError>;
    /// Steps taken since `t = 0`, counting any resumed-from prefix.
    fn progress(&self) -> u64;
    /// The current simulated time.
    fn sim_time(&self) -> f64;
    /// The unsealed snapshot body; [`Snapshot::seal`] makes it a file
    /// the engine's own restore reads.
    fn snapshot_body(&self) -> Vec<u8>;
    /// Accounts a committed checkpoint of `bytes`, encoded in
    /// `encode_ns` and written in `micros` all told.
    fn note_checkpoint(&mut self, bytes: u64, encode_ns: u64, micros: u64);
    /// Writes a timing span to the engine's observers.
    fn emit_span(&mut self, name: &str, micros: u64);
    /// Ends the run.
    fn finish(self) -> Self::Outcome;
}

/// Events are the progress; the outcome carries the counters read just
/// before `finish`, which are what an attached probe's `on_finish` sees.
impl Engine for Simulation {
    type Outcome = (SimOutcome, Counters);

    #[inline]
    fn step(&mut self) -> Result<bool, HarnessError> {
        Ok(Simulation::step(self)?)
    }

    #[inline]
    fn progress(&self) -> u64 {
        self.events()
    }

    fn sim_time(&self) -> f64 {
        Simulation::sim_time(self)
    }

    fn snapshot_body(&self) -> Vec<u8> {
        Simulation::snapshot_body(self)
    }

    fn note_checkpoint(&mut self, bytes: u64, encode_ns: u64, micros: u64) {
        self.profiler_add(ProfPhase::SnapshotEncode, encode_ns);
        self.note_snapshot(bytes, micros);
        self.emit_flight(FlightKind::Checkpoint, bytes, 0);
    }

    fn emit_span(&mut self, name: &str, micros: u64) {
        Simulation::emit_span(self, name, micros);
    }

    fn finish(self) -> Self::Outcome {
        let counters = self.counters();
        (Simulation::finish(self), counters)
    }
}

/// Decision boundaries are the progress.
impl Engine for HybridRunner {
    type Outcome = HybridOutcome;

    fn step(&mut self) -> Result<bool, HarnessError> {
        Ok(self.step_boundary()?)
    }

    fn progress(&self) -> u64 {
        self.boundaries()
    }

    fn sim_time(&self) -> f64 {
        HybridRunner::sim_time(self)
    }

    fn snapshot_body(&self) -> Vec<u8> {
        HybridRunner::snapshot_body(self)
    }

    fn note_checkpoint(&mut self, bytes: u64, _encode_ns: u64, _micros: u64) {
        self.emit_flight(FlightKind::Checkpoint, bytes, 0);
    }

    fn emit_span(&mut self, name: &str, micros: u64) {
        HybridRunner::emit_span(self, name, micros);
    }

    fn finish(self) -> HybridOutcome {
        HybridRunner::finish(self)
    }
}

/// The bytes of the committed checkpoint at `path` when `resume` is set
/// and the file exists; `None` means start fresh. A leftover
/// `<path>.tmp` from a kill mid-write is removed first either way: the
/// rename is the commit point, so the temp file is never a resume source.
///
/// # Errors
/// A checkpoint that exists but cannot be read ([`HarnessError::Io`]).
pub fn committed_checkpoint(
    path: Option<&Path>,
    resume: bool,
) -> Result<Option<Vec<u8>>, HarnessError> {
    let Some(path) = path else { return Ok(None) };
    clean_stale_tmp(path);
    if !resume || !path.exists() {
        return Ok(None);
    }
    std::fs::read(path).map(Some).map_err(|e| io_err(path, e))
}

/// Builds the event-driven engine for `cfg` under an optional scenario
/// `hook`: restored from the sealed snapshot `checkpoint` when one is
/// given, fresh otherwise.
///
/// # Errors
/// Invalid configurations, and snapshots that fail to decode or were
/// taken under another config or hook.
pub fn des_engine(
    cfg: DesConfig,
    hook: Option<Box<dyn ScenarioHook>>,
    checkpoint: Option<&[u8]>,
) -> Result<Simulation, HarnessError> {
    let snap = checkpoint.map(Snapshot::from_bytes).transpose()?;
    Ok(match (snap, hook) {
        (Some(snap), Some(hook)) => Simulation::restore_with_hook(cfg, &snap, hook)?,
        (Some(snap), None) => Simulation::restore(cfg, &snap)?,
        (None, Some(hook)) => Simulation::with_hook(cfg, hook)?,
        (None, None) => Simulation::new(cfg)?,
    })
}

/// The checkpoint side of one drive: where snapshots go and how writing
/// them has fared.
struct Checkpointer<'p, 'o> {
    path: Option<&'p Path>,
    retry: RetryPolicy,
    on_snapshot: Option<SnapshotObserver<'o>>,
    written: u64,
    failures: u64,
    consecutive: u32,
    degraded: bool,
}

impl Checkpointer<'_, '_> {
    /// Hands a snapshot of `engine` to the observer and, unless
    /// degraded, to disk. A failed write cycle only warns: it must never
    /// change the result or kill the run. Nothing is encoded when nobody
    /// would read it.
    fn take<E: Engine>(&mut self, engine: &mut E) {
        let path = self.path.filter(|_| !self.degraded);
        if path.is_none() && self.on_snapshot.is_none() {
            return;
        }
        let started = Instant::now();
        let body = engine.snapshot_body();
        if let Some(cb) = self.on_snapshot.as_mut() {
            cb(&body);
        }
        let Some(path) = path else { return };
        let bytes = Snapshot::seal(body);
        let encode_ns = started.elapsed().as_nanos() as u64;
        let salt = engine.progress() ^ 0x5eed_c0de;
        match self.retry.write_cycle(path, &bytes, salt) {
            Ok(()) => {
                self.consecutive = 0;
                self.written += 1;
                let micros = started.elapsed().as_micros() as u64;
                engine.emit_span("checkpoint", micros);
                engine.note_checkpoint(bytes.len() as u64, encode_ns, micros);
            }
            Err(e) => {
                self.failures += 1;
                self.consecutive += 1;
                diag!(
                    Level::Warn,
                    "checkpoint cycle at step {} failed after {} attempt(s): {e}; run continues",
                    engine.progress(),
                    self.retry.max_attempts.max(1)
                );
                if self.consecutive >= self.retry.degrade_after.max(1) {
                    self.degraded = true;
                    diag!(
                        Level::Warn,
                        "disabling checkpoints after {} consecutive failed cycles; \
                         run continues without crash protection",
                        self.consecutive
                    );
                }
            }
        }
    }
}

/// Steps `engine` to completion or to a limit, checkpointing under
/// `plan`.
///
/// Build the engine fresh, or restore it from the bytes
/// [`committed_checkpoint`] returns, and attach its observers first: the
/// driver feeds them a `checkpoint` span and flight record per committed
/// checkpoint and an `engine` span for the whole drive. On an interrupted
/// end a final checkpoint is written so the next invocation loses no
/// work; on completion the checkpoint file is removed. `on_snapshot` sees
/// the unsealed body of every snapshot taken, encoded once for it and
/// the disk.
///
/// # Errors
/// Engine errors, a failure to remove the finished run's checkpoint
/// ([`HarnessError::Io`]), and a zero checkpoint interval
/// ([`HarnessError::Config`]).
///
/// # Panics
/// Panics deliberately when `limits.inject_panic_at` fires; engine bugs
/// outside `checked` mode may also panic. Callers that must survive either
/// wrap the call in `catch_unwind` (the supervisor does).
pub fn drive<E: Engine>(
    mut engine: E,
    plan: Option<&CheckpointPlan>,
    limits: &RunLimits,
    cancel: Option<&AtomicBool>,
    on_snapshot: Option<SnapshotObserver<'_>>,
) -> Result<RunReport<E::Outcome>, HarnessError> {
    if plan.is_some_and(|p| p.every_events == 0) {
        return Err(HarnessError::Config(
            "checkpoint interval must be at least 1 step".into(),
        ));
    }
    let mut ckpt = Checkpointer {
        path: plan.and_then(|p| p.path.as_deref()),
        retry: plan.map_or_else(RetryPolicy::default, |p| p.retry),
        on_snapshot,
        written: 0,
        failures: 0,
        consecutive: 0,
        degraded: false,
    };
    let chunk = plan.map_or(u64::MAX, |p| p.every_events);
    let mut next_checkpoint = engine.progress().saturating_add(chunk);
    let drive_start = Instant::now();

    let end = loop {
        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            break RunEnd::Cancelled;
        }
        if limits.deadline.is_some_and(|d| Instant::now() >= d) {
            break RunEnd::WallBudget;
        }
        if limits.max_events.is_some_and(|n| engine.progress() >= n) {
            break RunEnd::EventBudget;
        }
        if limits
            .inject_panic_at
            .is_some_and(|n| engine.progress() >= n)
        {
            panic!(
                "injected panic at event {} (t = {:.3})",
                engine.progress(),
                engine.sim_time()
            );
        }
        if !engine.step()? {
            break RunEnd::Completed;
        }
        if engine.progress() >= next_checkpoint {
            ckpt.take(&mut engine);
            next_checkpoint = engine.progress().saturating_add(chunk);
        }
    };

    let progress = engine.progress();
    let outcome = if end == RunEnd::Completed {
        engine.emit_span("engine", drive_start.elapsed().as_micros() as u64);
        let outcome = engine.finish();
        // A finished run must not leave a checkpoint behind: its presence
        // is the "work remains" signal for `--resume`.
        if let Some(path) = ckpt.path {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(path, e)),
            }
        }
        Some(outcome)
    } else {
        // Interrupted: persist the frontier so nothing is lost.
        ckpt.take(&mut engine);
        engine.emit_span("engine", drive_start.elapsed().as_micros() as u64);
        None
    };
    Ok(RunReport {
        outcome,
        end,
        progress,
        checkpoints: ckpt.written,
        checkpoint_failures: ckpt.failures,
        degraded: ckpt.degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_des::SchemeKind;
    use btfluid_telemetry::ScratchDir;

    fn cfg(seed: u64) -> DesConfig {
        let mut cfg = DesConfig::paper_small(SchemeKind::Mtcd, 0.5, seed).unwrap();
        cfg.horizon = 400.0;
        cfg.warmup = 100.0;
        cfg.drain = 400.0;
        cfg
    }

    fn sim(seed: u64) -> Simulation {
        Simulation::new(cfg(seed)).unwrap()
    }

    fn plan(path: Option<PathBuf>, every_events: u64) -> CheckpointPlan {
        CheckpointPlan {
            path,
            every_events,
            retry: RetryPolicy::immediate(),
        }
    }

    /// Drives `cfg(seed)` from whatever `plan` committed, to the end.
    fn resume(seed: u64, plan: &CheckpointPlan) -> RunReport<(SimOutcome, Counters)> {
        let committed = committed_checkpoint(plan.path.as_deref(), true).unwrap();
        assert!(
            committed.is_some(),
            "must resume from the committed checkpoint"
        );
        let engine = des_engine(cfg(seed), None, committed.as_deref()).unwrap();
        drive(engine, Some(plan), &RunLimits::default(), None, None).unwrap()
    }

    #[test]
    fn budget_stop_then_resume_is_bit_identical() {
        let straight = sim(5).run();

        let dir = ScratchDir::new("driver").unwrap();
        let path = dir.join("budget.snap");
        let _ = std::fs::remove_file(&path);
        let plan = plan(Some(path.clone()), 64);
        let limits = RunLimits {
            max_events: Some(333),
            ..Default::default()
        };
        let first = drive(sim(5), Some(&plan), &limits, None, None).unwrap();
        assert_eq!(first.end, RunEnd::EventBudget);
        assert!(first.outcome.is_none());
        assert!(path.exists(), "interrupted run must leave a checkpoint");

        let second = resume(5, &plan);
        assert_eq!(second.end, RunEnd::Completed);
        assert!(!path.exists(), "completion must remove the checkpoint");
        let (resumed, _) = second.outcome.unwrap();
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
        let straight = sim(11).run();

        let dir = ScratchDir::new("driver").unwrap();
        let path = dir.join("stale-tmp.snap");
        let _ = std::fs::remove_file(&path);
        let plan = plan(Some(path.clone()), 64);
        let limits = RunLimits {
            max_events: Some(333),
            ..Default::default()
        };
        let first = drive(sim(11), Some(&plan), &limits, None, None).unwrap();
        assert_eq!(first.end, RunEnd::EventBudget);
        assert!(path.exists());

        // Simulate the interrupted mid-rename write: garbage in `.tmp`.
        let mut stale = path.as_os_str().to_owned();
        stale.push(".tmp");
        let stale = PathBuf::from(stale);
        std::fs::write(&stale, b"partial snapshot, crash before rename").unwrap();

        let second = resume(11, &plan);
        assert_eq!(second.end, RunEnd::Completed);
        assert!(!stale.exists(), "leftover .tmp must be cleaned up");
        assert!(!path.exists(), "completion must remove the checkpoint");
        let (resumed, _) = second.outcome.unwrap();
        assert_eq!(straight.events, resumed.events);
        assert_eq!(straight.records, resumed.records);
    }

    #[test]
    fn cancel_flag_stops_promptly() {
        let cancel = AtomicBool::new(true);
        let report = drive(sim(6), None, &RunLimits::default(), Some(&cancel), None).unwrap();
        assert_eq!(report.end, RunEnd::Cancelled);
    }

    #[test]
    fn snapshot_observer_sees_chunks() {
        let mut seen = 0u64;
        let mut last_events = 0u64;
        let plan = plan(None, 100);
        let mut observe = |body: &[u8]| {
            seen += 1;
            last_events = Snapshot::from_body(body).unwrap().events();
        };
        let report = drive(
            sim(7),
            Some(&plan),
            &RunLimits::default(),
            None,
            Some(&mut observe),
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
            drive(sim(8), None, &limits, None, None)
        }));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("injected panic at event 50"), "{msg}");
    }

    #[test]
    fn zero_interval_is_refused() {
        assert!(matches!(
            drive(
                sim(9),
                Some(&plan(None, 0)),
                &RunLimits::default(),
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

        let dir = ScratchDir::new("driver").unwrap();
        let path = dir.join("probed.snap");
        let _ = std::fs::remove_file(&path);
        let shared = Arc::new(Mutex::new(MemoryProbe::new(10.0)));
        let mut engine = sim(11);
        engine.attach_probe(Box::new(Arc::clone(&shared)));
        let report = drive(
            engine,
            Some(&plan(Some(path), 64)),
            &RunLimits::default(),
            None,
            None,
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
        let (_, report_counters) = report.outcome.unwrap();
        assert_eq!(report_counters, counters);
        assert_eq!(counters.snapshots_taken, report.checkpoints);
        assert!(counters.snapshot_bytes > 0);
        assert!(counters.events_popped > 0);
    }
}
