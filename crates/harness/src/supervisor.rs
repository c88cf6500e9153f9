//! The sweep supervisor: run many cells under failure isolation.
//!
//! Each cell (one engine configuration) runs on its own worker thread
//! behind `catch_unwind`, under an event budget and a wall-clock watchdog.
//! A panicking cell is retried with bounded backoff (a fresh attempt of a
//! deterministic engine reproduces a deterministic panic, but the retry
//! also absolves environmental flukes — OOM-killed allocations, disk
//! hiccups in the checkpoint path); budget exhaustion and typed engine
//! errors are deterministic verdicts and fail immediately. A cell that
//! exhausts its attempts is **quarantined**: the sweep continues, the
//! failure is journaled, and a [`ReproBundle`] with the last in-memory
//! checkpoint is written for offline replay via `btfluid repro`.
//!
//! Completed cells are journaled to the append-only manifest as they
//! finish, so a killed sweep restarted with `resume` skips exactly the
//! work already done (`failed` cells run again — quarantine is a verdict
//! about an attempt, not about the configuration).
//!
//! Cells run on [`pool`], the crate's one worker pool, which hands results
//! back in input order. [`run_batch`] runs whole configurations on the
//! same pool without a journal, checkpoints or retries.

use crate::bundle::{ReproBundle, ScenarioRef};
use crate::checkpoint::{drive, CheckpointPlan, RunEnd, RunLimits};
use crate::error::HarnessError;
use crate::manifest::{self, CellRecord, CellStatus, ManifestWriter};
use btfluid_des::{Counters, DesConfig, ScenarioHook, SimOutcome, Snapshot};
use btfluid_telemetry::{
    diag, shared_recorder, Level, RecorderProbe, SharedRecorder, DEFAULT_FLIGHT_CAPACITY,
};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One unit of sweep work.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Unique id within the sweep (becomes the manifest/bundle key).
    pub id: String,
    /// The engine configuration to run.
    pub cfg: DesConfig,
    /// Scenario hook to attach, if any.
    pub scenario: Option<ScenarioRef>,
    /// Deterministic fault injection (CI crash smoke): panic at this
    /// engine event count.
    pub inject_panic_at: Option<u64>,
}

/// Per-cell budgets.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Maximum engine events per cell.
    pub max_events: Option<u64>,
    /// Maximum wall-clock time per cell attempt; also arms the watchdog
    /// that catches a wedged engine thread.
    pub max_wall: Option<Duration>,
}

/// Supervisor policy.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Append-only JSONL journal of finished cells.
    pub manifest: PathBuf,
    /// Directory receiving one repro-bundle subdirectory per quarantined
    /// cell.
    pub bundle_dir: PathBuf,
    /// Per-cell budgets.
    pub budget: Budget,
    /// Extra attempts after the first for *panicking* cells.
    pub max_retries: u32,
    /// Backoff before retry `n` is `backoff * n`.
    pub backoff: Duration,
    /// Concurrent cells (>= 1).
    pub workers: usize,
    /// Skip cells the manifest records as done; without this an existing
    /// non-empty manifest is refused.
    pub resume: bool,
    /// In-memory checkpoint cadence (events) feeding the repro bundle's
    /// `checkpoint.snap`.
    pub checkpoint_every: u64,
}

/// A completed cell's summary.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell id.
    pub id: String,
    /// Engine events executed.
    pub events: u64,
    /// Peers that arrived.
    pub arrivals: usize,
    /// Users counted in the statistics.
    pub completed: usize,
    /// Users censored at drain end.
    pub censored: usize,
    /// Aborts fired.
    pub aborted: usize,
    /// Mean online time per file, when computable.
    pub avg_online_per_file: Option<f64>,
    /// Wall-clock seconds the successful attempt took.
    pub wall_s: f64,
    /// Engine telemetry counters from the successful attempt.
    pub counters: Counters,
}

impl CellResult {
    fn from_outcome(
        id: &str,
        events: u64,
        outcome: &SimOutcome,
        wall_s: f64,
        counters: Counters,
    ) -> Self {
        CellResult {
            id: id.to_string(),
            events,
            arrivals: outcome.arrivals,
            completed: outcome.records.len(),
            censored: outcome.censored,
            aborted: outcome.aborts.len(),
            avg_online_per_file: outcome.avg_online_per_file().ok(),
            wall_s,
            counters,
        }
    }

    /// Engine events per wall-clock second (0 when the attempt was too
    /// fast to time).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }

    fn summary(&self) -> String {
        format!(
            "arrivals {}, completed {}, censored {}, aborted {}, online/file {}, {:.0} ev/s",
            self.arrivals,
            self.completed,
            self.censored,
            self.aborted,
            self.avg_online_per_file
                .map_or_else(|| "-".into(), |v| format!("{v:.3}")),
            self.events_per_sec()
        )
    }
}

/// A quarantined cell.
#[derive(Debug, Clone)]
pub struct FailedCell {
    /// The cell id.
    pub id: String,
    /// Why it was quarantined.
    pub reason: String,
    /// Attempts consumed.
    pub attempts: u32,
    /// The repro bundle directory written for it.
    pub bundle: PathBuf,
}

/// The sweep's aggregate result.
#[derive(Debug)]
pub struct SweepReport {
    /// Cells that ran to completion this invocation, in input order.
    pub completed: Vec<CellResult>,
    /// Cell ids skipped because the manifest already records them done.
    pub skipped: Vec<String>,
    /// Cells quarantined this invocation, in input order.
    pub failed: Vec<FailedCell>,
}

impl SweepReport {
    /// Whether every cell of this invocation completed (skips count as
    /// complete — they finished in an earlier invocation).
    pub fn all_done(&self) -> bool {
        self.failed.is_empty()
    }
}

/// What one attempt of one cell produced.
enum Attempt {
    Done(CellResult),
    /// Deterministic failure — retrying cannot change the verdict.
    Fatal(String),
    /// A panic — eligible for retry.
    Panicked(String),
}

/// Runs every cell under the supervisor policy.
///
/// # Errors
/// Setup failures only — an unreadable or refused manifest, duplicate cell
/// ids, zero workers. Cell failures do **not** abort the sweep; they are
/// reported in [`SweepReport::failed`].
pub fn run_sweep(
    sup: &SupervisorConfig,
    cells: Vec<CellSpec>,
) -> Result<SweepReport, HarnessError> {
    if sup.workers == 0 {
        return Err(HarnessError::Config("workers must be >= 1".into()));
    }
    if sup.checkpoint_every == 0 {
        return Err(HarnessError::Config(
            "checkpoint interval must be at least 1 event".into(),
        ));
    }
    let mut ids = BTreeSet::new();
    for cell in &cells {
        if !ids.insert(cell.id.clone()) {
            return Err(HarnessError::Config(format!(
                "duplicate cell id '{}'",
                cell.id
            )));
        }
    }

    let journal = manifest::load(&sup.manifest)?;
    if !sup.resume && !journal.is_empty() {
        return Err(HarnessError::Config(format!(
            "manifest {} already records {} cells; pass resume to continue \
             that sweep or choose a fresh manifest path",
            sup.manifest.display(),
            journal.len()
        )));
    }
    let done = manifest::done_ids(&journal);

    let (skipped, queue): (Vec<CellSpec>, Vec<CellSpec>) =
        cells.into_iter().partition(|cell| done.contains(&cell.id));

    let writer = Mutex::new(ManifestWriter::open(&sup.manifest)?);
    let total = queue.len();
    // Live progress accounting: (cells done, cells failed, engine events).
    let progress = Mutex::new((0usize, 0usize, 0u64));
    let sweep_start = Instant::now();
    let outcomes = pool(sup.workers, queue, |cell| {
        let (record, outcome) = supervise_cell(sup, &cell);
        // Journal first: a crash after the run must not redo it.
        if let Err(e) = writer.lock().unwrap().append(&record) {
            diag!(Level::Warn, "warning: journaling {}: {e}", cell.id);
        }
        let mut p = progress.lock().unwrap();
        match &outcome {
            Ok(result) => {
                p.0 += 1;
                p.2 += result.events;
            }
            Err(_) => p.1 += 1,
        }
        let finished = p.0 + p.1;
        let elapsed = sweep_start.elapsed().as_secs_f64().max(1e-9);
        let eta = elapsed / finished as f64 * (total - finished) as f64;
        diag!(
            Level::Info,
            "sweep: {}/{total} cells done, {} failed, {:.0} ev/s, ETA {eta:.0}s",
            p.0,
            p.1,
            p.2 as f64 / elapsed
        );
        outcome
    });

    let mut report = SweepReport {
        completed: Vec::new(),
        skipped: skipped.into_iter().map(|cell| cell.id).collect(),
        failed: Vec::new(),
    };
    for outcome in outcomes {
        match outcome {
            Ok(result) => report.completed.push(result),
            Err(fail) => report.failed.push(fail),
        }
    }
    Ok(report)
}

/// Runs `job` over `items` on `workers` scoped threads (at least one, at
/// most one per item) that take items in order from a shared queue. The
/// results come back in input order, whatever order the jobs finish in; a
/// panicking job panics the caller once every thread has joined.
pub fn pool<T: Send, R: Send>(
    workers: usize,
    items: Vec<T>,
    job: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let done = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let Some((i, item)) = queue.lock().unwrap().next() else {
                    return;
                };
                let result = job(item);
                done.lock().unwrap().push((i, result));
            });
        }
    });
    let mut done = done.into_inner().unwrap();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Runs each configuration to completion through [`drive`] (no
/// checkpoints, no limits, no journal) on one [`pool`] worker per
/// available CPU, and returns each run's outcome and counters in input
/// order. Seeds are the caller's: build one config per seed.
///
/// # Errors
/// Refuses an empty batch. The first engine error in input order
/// (construction, or a `checked` invariant violation) is the batch's
/// error. A panicking run panics the caller.
pub fn run_batch(cfgs: Vec<DesConfig>) -> Result<Vec<(SimOutcome, Counters)>, HarnessError> {
    if cfgs.is_empty() {
        return Err(HarnessError::Config(
            "a batch needs at least one run (replications must be >= 1)".into(),
        ));
    }
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    pool(workers, cfgs, |cfg| {
        let report = drive(
            cfg,
            None,
            None,
            false,
            &RunLimits::default(),
            None,
            None,
            None,
        )?;
        let outcome = report.outcome.expect("a run without limits completes");
        Ok((outcome, report.counters))
    })
    .into_iter()
    .collect()
}

/// Runs one cell through the retry protocol; returns its journal record
/// and its result or quarantine report.
fn supervise_cell(
    sup: &SupervisorConfig,
    cell: &CellSpec,
) -> (CellRecord, Result<CellResult, FailedCell>) {
    let attempts_allowed = 1 + sup.max_retries;
    let mut attempt = 0u32;
    // The last snapshot's unsealed body: only a quarantine writes it out,
    // so the checksum is added then.
    let last_snap: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    loop {
        attempt += 1;
        // Fresh flight recorder per attempt, so a quarantine dumps the
        // last-N happenings of the attempt that actually failed.
        let flight = shared_recorder(DEFAULT_FLIGHT_CAPACITY);
        match run_attempt(sup, cell, &last_snap, &flight) {
            Attempt::Done(result) => {
                let record = CellRecord {
                    id: cell.id.clone(),
                    status: CellStatus::Done,
                    attempts: attempt,
                    events: result.events,
                    wall_ms: (result.wall_s * 1000.0) as u64,
                    counters: Some(result.counters),
                    detail: result.summary(),
                };
                return (record, Ok(result));
            }
            Attempt::Panicked(reason) if attempt < attempts_allowed => {
                diag!(
                    Level::Warn,
                    "cell {}: attempt {attempt}/{attempts_allowed} panicked ({reason}); retrying",
                    cell.id
                );
                std::thread::sleep(sup.backoff.saturating_mul(attempt));
            }
            Attempt::Panicked(reason) | Attempt::Fatal(reason) => {
                let bundle_dir = sup.bundle_dir.join(sanitize_id(&cell.id));
                let flight_dump = {
                    let ring = flight.lock().unwrap_or_else(|e| e.into_inner());
                    (!ring.is_empty()).then(|| ring.dump_string(parse_failure_t(&reason)))
                };
                let bundle = ReproBundle {
                    cell_id: cell.id.clone(),
                    reason: reason.clone(),
                    cfg: cell.cfg.clone(),
                    scenario: cell.scenario.clone(),
                    inject_panic_at: cell.inject_panic_at,
                    checkpoint: last_snap.lock().unwrap().take().map(Snapshot::seal),
                    flight: flight_dump,
                };
                if let Err(e) = bundle.write(&bundle_dir) {
                    diag!(
                        Level::Warn,
                        "warning: writing repro bundle for {}: {e}",
                        cell.id
                    );
                }
                let record = CellRecord {
                    id: cell.id.clone(),
                    status: CellStatus::Failed,
                    attempts: attempt,
                    events: 0,
                    wall_ms: 0,
                    counters: None,
                    detail: reason.clone(),
                };
                return (
                    record,
                    Err(FailedCell {
                        id: cell.id.clone(),
                        reason,
                        attempts: attempt,
                        bundle: bundle_dir,
                    }),
                );
            }
        }
    }
}

/// One isolated attempt: worker thread + `catch_unwind` + watchdog.
fn run_attempt(
    sup: &SupervisorConfig,
    cell: &CellSpec,
    last_snap: &Arc<Mutex<Option<Vec<u8>>>>,
    flight: &SharedRecorder,
) -> Attempt {
    let cancel = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let started = Instant::now();
    let worker = {
        let cell = cell.clone();
        let cancel = Arc::clone(&cancel);
        let last_snap = Arc::clone(last_snap);
        let flight = Arc::clone(flight);
        let plan = CheckpointPlan {
            path: None,
            every_events: sup.checkpoint_every,
            retry: crate::checkpoint::RetryPolicy::default(),
        };
        let limits = RunLimits {
            max_events: sup.budget.max_events,
            deadline: sup.budget.max_wall.map(|w| Instant::now() + w),
            inject_panic_at: cell.inject_panic_at,
        };
        move || {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Resolve eagerly so a bad reference is a typed error. The
                // fresh start takes this hook; any later call rebuilds it.
                let first = Cell::new(
                    cell.scenario
                        .as_ref()
                        .map(ScenarioRef::build_hook)
                        .transpose()?,
                );
                let build_hook = || {
                    first.take().unwrap_or_else(|| {
                        let sref = cell.scenario.as_ref().expect("scenario cell");
                        sref.build_hook().expect("reference resolved above")
                    })
                };
                let hook_factory: Option<&dyn Fn() -> Box<dyn ScenarioHook>> =
                    cell.scenario.is_some().then_some(&build_hook);
                drive(
                    cell.cfg.clone(),
                    hook_factory,
                    Some(&plan),
                    false,
                    &limits,
                    Some(&cancel),
                    Some(&mut |body: &[u8]| {
                        *last_snap.lock().unwrap() = Some(body.to_vec());
                    }),
                    Some(Box::new(RecorderProbe::new(Arc::clone(&flight)))),
                )
            }));
            // The receiver may have given up (watchdog); ignore send errors.
            let _ = tx.send(run);
        }
    };
    std::thread::spawn(worker);

    // The watchdog allows the cooperative deadline to fire first, then a
    // grace period for a wedged step before abandoning the thread.
    let verdict = match sup.budget.max_wall {
        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        Some(wall) => rx.recv_timeout(wall + wall / 2 + Duration::from_secs(5)),
    };
    match verdict {
        Ok(Ok(Ok(report))) => match report.end {
            RunEnd::Completed => {
                let outcome = report.outcome.expect("completed run has an outcome");
                Attempt::Done(CellResult::from_outcome(
                    &cell.id,
                    report.events,
                    &outcome,
                    started.elapsed().as_secs_f64(),
                    report.counters,
                ))
            }
            RunEnd::EventBudget => Attempt::Fatal(format!(
                "event budget exhausted after {} events",
                report.events
            )),
            RunEnd::WallBudget => Attempt::Fatal(format!(
                "wall-clock budget exceeded after {} events",
                report.events
            )),
            RunEnd::Cancelled => Attempt::Fatal("cancelled".into()),
        },
        Ok(Ok(Err(e))) => Attempt::Fatal(e.to_string()),
        Ok(Err(payload)) => Attempt::Panicked(panic_message(payload.as_ref())),
        Err(RecvTimeoutError::Timeout) => {
            // Wedged worker: raise the cancel flag and abandon the thread.
            cancel.store(true, Ordering::Relaxed);
            Attempt::Fatal("wall-clock watchdog fired (engine thread unresponsive)".into())
        }
        Err(RecvTimeoutError::Disconnected) => {
            Attempt::Panicked("worker thread died without reporting".into())
        }
    }
}

/// Extracts the simulated failure time from a quarantine reason, when the
/// message carries one ("... (t = 12.345)"). The flight-recorder dump
/// stamps it into its meta line so `btfluid inspect` can flag dumps whose
/// newest record predates the failure.
fn parse_failure_t(reason: &str) -> Option<f64> {
    let rest = &reason[reason.find("t = ")? + 4..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Renders a panic payload the way `std` would.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Maps a cell id to a filesystem-safe directory name.
fn sanitize_id(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Convenience: the bundle directory a cell id maps to under `bundle_dir`.
pub fn bundle_path(bundle_dir: &Path, cell_id: &str) -> PathBuf {
    bundle_dir.join(sanitize_id(cell_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_des::SchemeKind;

    fn small_cfg(seed: u64) -> DesConfig {
        let mut cfg = DesConfig::paper_small(SchemeKind::Mtcd, 0.5, seed).unwrap();
        cfg.horizon = 200.0;
        cfg.warmup = 50.0;
        cfg.drain = 200.0;
        cfg
    }

    fn sup(dir: &Path, resume: bool) -> SupervisorConfig {
        SupervisorConfig {
            manifest: dir.join("sweep.jsonl"),
            bundle_dir: dir.join("bundles"),
            budget: Budget::default(),
            max_retries: 0,
            backoff: Duration::from_millis(1),
            workers: 2,
            resume,
            checkpoint_every: 50,
        }
    }

    fn cell(id: &str, seed: u64, inject: Option<u64>) -> CellSpec {
        CellSpec {
            id: id.into(),
            cfg: small_cfg(seed),
            scenario: None,
            inject_panic_at: inject,
        }
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("btfs-supervisor-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn panicking_cell_is_quarantined_and_resume_reruns_only_it() {
        let dir = fresh_dir("quarantine");
        let cells = vec![
            cell("a", 1, None),
            cell("boom", 2, Some(40)),
            cell("c", 3, None),
        ];
        let report = run_sweep(&sup(&dir, false), cells).unwrap();
        assert_eq!(report.completed.len(), 2);
        assert_eq!(report.failed.len(), 1);
        assert!(!report.all_done());
        let fail = &report.failed[0];
        assert_eq!(fail.id, "boom");
        assert!(fail.reason.contains("injected panic"), "{}", fail.reason);
        // The bundle replays: repro.json decodes and the checkpoint (taken
        // at event 0..40? cadence 50 means none) may be absent — but the
        // config must round-trip.
        let bundle = ReproBundle::read(&fail.bundle).unwrap();
        assert_eq!(bundle.cell_id, "boom");
        assert_eq!(bundle.inject_panic_at, Some(40));

        // Resume without injection: only the failed cell runs.
        let cells = vec![
            cell("a", 1, None),
            cell("boom", 2, None),
            cell("c", 3, None),
        ];
        let report = run_sweep(&sup(&dir, true), cells).unwrap();
        assert_eq!(report.skipped.len(), 2);
        assert_eq!(report.completed.len(), 1);
        assert_eq!(report.completed[0].id, "boom");
        assert!(report.all_done());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bundle_checkpoint_is_captured_when_cadence_allows() {
        let dir = fresh_dir("bundle-snap");
        let mut config = sup(&dir, false);
        config.checkpoint_every = 10;
        let report = run_sweep(&config, vec![cell("boom", 5, Some(60))]).unwrap();
        let fail = &report.failed[0];
        let bundle = ReproBundle::read(&fail.bundle).unwrap();
        let snap_bytes = bundle.checkpoint.expect("cadence 10 < panic at 60");
        let snap = btfluid_des::Snapshot::from_bytes(&snap_bytes).unwrap();
        assert!(snap.events() <= 60, "snapshot predates the injected panic");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retries_are_counted_and_bounded() {
        let dir = fresh_dir("retries");
        let mut config = sup(&dir, false);
        config.max_retries = 2;
        let report = run_sweep(&config, vec![cell("boom", 7, Some(30))]).unwrap();
        assert_eq!(report.failed[0].attempts, 3);
        let journal = manifest::load(&config.manifest).unwrap();
        assert_eq!(journal[0].attempts, 3);
        assert_eq!(journal[0].status, CellStatus::Failed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn event_budget_fails_without_retry() {
        let dir = fresh_dir("budget");
        let mut config = sup(&dir, false);
        config.max_retries = 5;
        config.budget.max_events = Some(50);
        let report = run_sweep(&config, vec![cell("slow", 9, None)]).unwrap();
        let fail = &report.failed[0];
        assert_eq!(fail.attempts, 1, "budget exhaustion must not retry");
        assert!(fail.reason.contains("event budget"), "{}", fail.reason);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn existing_manifest_without_resume_is_refused() {
        let dir = fresh_dir("no-clobber");
        let report = run_sweep(&sup(&dir, false), vec![cell("a", 1, None)]).unwrap();
        assert!(report.all_done());
        assert!(matches!(
            run_sweep(&sup(&dir, false), vec![cell("a", 1, None)]),
            Err(HarnessError::Config(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_reports_cells_in_input_order() {
        let dir = fresh_dir("order");
        let mut long = cell("long", 1, None);
        long.cfg.horizon = 3000.0;
        long.cfg.drain = 3000.0;
        let report = run_sweep(&sup(&dir, false), vec![long, cell("short", 2, None)]).unwrap();
        let ids: Vec<&str> = report.completed.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, ["long", "short"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pool_keeps_input_order_whatever_the_finish_order() {
        let out = pool(3, (0..8u64).collect(), |i| {
            std::thread::sleep(Duration::from_millis(8 - i));
            i * 10
        });
        assert_eq!(out, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        assert!(pool(4, Vec::<u8>::new(), |i| i).is_empty());
    }

    fn batch_cfg(scheme: SchemeKind, seed: u64, aggregate: bool) -> DesConfig {
        let mut cfg = DesConfig::paper_small(scheme, 0.5, seed).unwrap();
        cfg.horizon = 400.0;
        cfg.warmup = 100.0;
        cfg.drain = 400.0;
        cfg.aggregate = aggregate;
        cfg
    }

    #[test]
    fn batch_keeps_input_order_and_each_runs_counters() {
        let runs = run_batch(vec![
            batch_cfg(SchemeKind::Mtsd, 11, false),
            batch_cfg(SchemeKind::Mtsd, 11, true),
        ])
        .unwrap();
        assert_eq!(runs.len(), 2);
        for (outcome, _) in &runs {
            assert!(outcome.events > 0 && !outcome.records.is_empty());
        }
        // Mode-specific counters land on the right run.
        assert_eq!(runs[0].1.agg_samples, 0);
        assert!(runs[1].1.agg_samples > 0);
        assert_eq!(runs[1].1.rate_recomputes, 0);
    }

    #[test]
    fn batch_fails_on_the_first_engine_error_in_input_order() {
        let mut bad = batch_cfg(SchemeKind::Mtsd, 5, true);
        bad.horizon = 0.0; // rejected by validation
        let mut worse = batch_cfg(SchemeKind::Mtsd, 6, true);
        worse.warmup = -1.0;
        let good = batch_cfg(SchemeKind::Mtsd, 5, false);
        let err = run_batch(vec![good, bad, worse]).unwrap_err();
        assert!(err.to_string().contains("horizon must be"), "{err}");
        assert!(matches!(run_batch(vec![]), Err(HarnessError::Config(_))));
    }

    #[test]
    fn batch_same_seed_is_deterministic_across_threads() {
        let cfg = batch_cfg(SchemeKind::Cmfsd { rho: 0.4 }, 23, true);
        let runs = run_batch(vec![cfg; 4]).unwrap();
        let online = |o: &SimOutcome| o.avg_online_per_file().unwrap().to_bits();
        for (o, counters) in &runs[1..] {
            assert_eq!(o.events, runs[0].0.events);
            assert_eq!(o.records.len(), runs[0].0.records.len());
            assert_eq!(online(o), online(&runs[0].0));
            assert_eq!(*counters, runs[0].1);
        }
    }

    #[test]
    fn batch_rerun_with_the_same_seeds_reproduces() {
        let cfgs = || {
            (0..2)
                .map(|i| batch_cfg(SchemeKind::Mtsd, 5 + i, false))
                .collect::<Vec<_>>()
        };
        let a = run_batch(cfgs()).unwrap();
        let b = run_batch(cfgs()).unwrap();
        let online = |o: &SimOutcome| o.avg_online_per_file().unwrap().to_bits();
        for ((oa, ca), (ob, cb)) in a.iter().zip(&b) {
            assert_eq!(oa.events, ob.events);
            assert_eq!(online(oa), online(ob));
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn batch_distinct_seeds_differ() {
        let runs = run_batch(vec![
            batch_cfg(SchemeKind::Mtsd, 1, false),
            batch_cfg(SchemeKind::Mtsd, 2, false),
        ])
        .unwrap();
        assert_ne!(
            runs[0].0.avg_online_per_file().unwrap(),
            runs[1].0.avg_online_per_file().unwrap()
        );
    }

    #[test]
    fn duplicate_ids_are_refused() {
        let dir = fresh_dir("dup");
        assert!(matches!(
            run_sweep(
                &sup(&dir, false),
                vec![cell("a", 1, None), cell("a", 2, None)]
            ),
            Err(HarnessError::Config(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
