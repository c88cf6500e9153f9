//! Deterministic I/O fault injection — the seam the chaos harness drives.
//!
//! Every durable write path in the workspace (checkpoint temp-file-and-
//! rename, trace sink, sweep manifest, repro bundles) consults this module
//! before touching the filesystem. When no script is armed the check is a
//! single relaxed atomic load, so production runs pay nothing measurable.
//! When a [`FaultScript`] is armed, faults fire at exact per-site
//! operation counts: the same script against the same run injects the
//! same failures at the same instants, which is what makes chaos runs
//! replayable and shrinkable.
//!
//! The module also owns the process-wide degradation tally the crash-safe
//! driver bumps when checkpointing fails (and when it gives up and
//! disables checkpointing) — the same pattern as
//! [`crate::json::non_finite_null_count`].

use crate::flightrec::{FlightKind, FlightRecord, SharedRecorder};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Instrumented write paths. Each site keeps its own operation counter
/// while a script is armed, so a schedule can say "fail the 3rd
/// checkpoint rename" without caring how many trace lines were written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Writing checkpoint bytes to the sibling `.tmp` file.
    CheckpointWrite,
    /// Renaming a checkpoint `.tmp` over its final path.
    CheckpointRename,
    /// Appending one line to a trace sink.
    TraceWrite,
    /// The trace sink's flush-fsync-rename commit.
    TraceFinish,
    /// Appending one fsynced line to the sweep manifest.
    ManifestAppend,
    /// Writing a repro-bundle file.
    BundleWrite,
}

/// Number of distinct [`FaultSite`] values (per-site counter array size).
pub const FAULT_SITES: usize = 6;

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::CheckpointWrite => 0,
            FaultSite::CheckpointRename => 1,
            FaultSite::TraceWrite => 2,
            FaultSite::TraceFinish => 3,
            FaultSite::ManifestAppend => 4,
            FaultSite::BundleWrite => 5,
        }
    }

    /// Stable name used in plan serialization and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::CheckpointWrite => "ckpt-write",
            FaultSite::CheckpointRename => "ckpt-rename",
            FaultSite::TraceWrite => "trace-write",
            FaultSite::TraceFinish => "trace-finish",
            FaultSite::ManifestAppend => "manifest-append",
            FaultSite::BundleWrite => "bundle-write",
        }
    }

    /// Inverse of [`FaultSite::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "ckpt-write" => FaultSite::CheckpointWrite,
            "ckpt-rename" => FaultSite::CheckpointRename,
            "trace-write" => FaultSite::TraceWrite,
            "trace-finish" => FaultSite::TraceFinish,
            "manifest-append" => FaultSite::ManifestAppend,
            "bundle-write" => FaultSite::BundleWrite,
            _ => return None,
        })
    }
}

/// What to inject when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `ENOSPC` — disk full. Persistent in real life, so the retry layer
    /// treats it the same as any other failure: bounded attempts, then
    /// degradation.
    Enospc,
    /// `EIO` — a transient device error; retries usually clear it.
    Eio,
    /// A short write: only a prefix of the bytes reaches the file before
    /// the error surfaces — the torn-write case atomic rename protects
    /// against.
    ShortWrite,
    /// The rename (commit point) itself fails; the `.tmp` stays behind.
    RenameFail,
    /// Silent corruption: the write *succeeds* but a byte is flipped —
    /// firmware lying about durability. Outside the survivable fault
    /// model (no error ever surfaces), which is exactly why the chaos
    /// expect-fail canary uses it: detection must happen at read time,
    /// via the snapshot checksums.
    CorruptWrite,
}

impl FaultKind {
    /// Stable name used in plan serialization and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Enospc => "enospc",
            FaultKind::Eio => "eio",
            FaultKind::ShortWrite => "short-write",
            FaultKind::RenameFail => "rename-fail",
            FaultKind::CorruptWrite => "corrupt-write",
        }
    }

    /// Inverse of [`FaultKind::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "enospc" => FaultKind::Enospc,
            "eio" => FaultKind::Eio,
            "short-write" => FaultKind::ShortWrite,
            "rename-fail" => FaultKind::RenameFail,
            "corrupt-write" => FaultKind::CorruptWrite,
            _ => return None,
        })
    }

    /// The injected error, rendered like the real OS failure.
    pub fn to_io_error(self) -> io::Error {
        match self {
            // Raw errno so `.to_string()` reads like the genuine article
            // ("No space left on device") with an `injected` marker the
            // chaos report can grep for.
            FaultKind::Enospc => io::Error::other("injected ENOSPC: no space left on device"),
            FaultKind::Eio => io::Error::other("injected EIO: input/output error"),
            FaultKind::ShortWrite => io::Error::other("injected short write (torn)"),
            FaultKind::RenameFail => io::Error::other("injected rename failure"),
            FaultKind::CorruptWrite => io::Error::other("injected corruption (never surfaces)"),
        }
    }
}

/// One injection rule: fire `count` times at site operations
/// `[from_op, from_op + count)` (operations are 0-indexed per site).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Which write path to sabotage.
    pub site: FaultSite,
    /// What failure to inject.
    pub kind: FaultKind,
    /// First per-site operation index the rule applies to.
    pub from_op: u64,
    /// How many consecutive operations it applies to (0 disables it).
    pub count: u64,
}

impl FaultRule {
    fn matches(&self, site: FaultSite, op: u64) -> bool {
        self.site == site && self.count > 0 && op >= self.from_op && op - self.from_op < self.count
    }
}

/// A full deterministic fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultScript {
    /// Rules checked in order; the first match wins.
    pub rules: Vec<FaultRule>,
}

struct Armed {
    script: FaultScript,
    ops: [u64; FAULT_SITES],
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static INJECTED: AtomicU64 = AtomicU64::new(0);
static CKPT_FAILURES: AtomicU64 = AtomicU64::new(0);
static CKPT_DEGRADED: AtomicU64 = AtomicU64::new(0);

fn state() -> &'static Mutex<Option<Armed>> {
    static STATE: Mutex<Option<Armed>> = Mutex::new(None);
    &STATE
}

fn flight() -> &'static Mutex<Option<SharedRecorder>> {
    static FLIGHT: Mutex<Option<SharedRecorder>> = Mutex::new(None);
    &FLIGHT
}

/// Routes a [`FlightKind::FaultConsult`] record into `rec` for every
/// injector consult while a script is armed. The hook lives entirely on
/// the armed path (inside the script mutex), so disarmed runs still pay
/// only the one relaxed load.
///
/// Record payload: `a` = site index, `b` = matched-kind code + 1 (0 when
/// the consult passed through clean); `t` is `-1.0` because no simulated
/// clock is in scope at the I/O layer.
pub fn install_flight(rec: SharedRecorder) {
    let mut guard = flight().lock().unwrap_or_else(|e| e.into_inner());
    *guard = Some(rec);
}

/// Removes the flight-record hook installed by [`install_flight`].
pub fn uninstall_flight() {
    let mut guard = flight().lock().unwrap_or_else(|e| e.into_inner());
    *guard = None;
}

fn kind_code(kind: FaultKind) -> u64 {
    match kind {
        FaultKind::Enospc => 0,
        FaultKind::Eio => 1,
        FaultKind::ShortWrite => 2,
        FaultKind::RenameFail => 3,
        FaultKind::CorruptWrite => 4,
    }
}

/// Arms `script` process-wide, resetting all per-site operation counters.
/// Replaces any previously armed script.
pub fn arm(script: FaultScript) {
    let mut guard = state().lock().unwrap_or_else(|e| e.into_inner());
    *guard = Some(Armed {
        script,
        ops: [0; FAULT_SITES],
    });
    ENABLED.store(true, Ordering::Release);
}

/// Disarms fault injection; all write paths go back to passthrough.
pub fn disarm() {
    ENABLED.store(false, Ordering::Release);
    let mut guard = state().lock().unwrap_or_else(|e| e.into_inner());
    *guard = None;
}

/// Whether a script is currently armed (one relaxed load — the fast path
/// every instrumented write starts with).
pub fn armed() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Consults the armed script for `site`, advancing its operation counter.
/// `None` (always, when disarmed) means "perform the real operation".
pub fn intercept(site: FaultSite) -> Option<FaultKind> {
    if !armed() {
        return None;
    }
    let mut guard = state().lock().unwrap_or_else(|e| e.into_inner());
    let armed = guard.as_mut()?;
    let op = armed.ops[site.index()];
    armed.ops[site.index()] += 1;
    let kind = armed
        .script
        .rules
        .iter()
        .find(|r| r.matches(site, op))
        .map(|r| r.kind);
    if kind.is_some() {
        INJECTED.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(rec) = flight().lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
        rec.lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(FlightRecord {
                t: -1.0,
                events: 0,
                kind: FlightKind::FaultConsult,
                a: site.index() as u64,
                b: kind.map_or(0, |k| kind_code(k) + 1),
            });
    }
    kind
}

/// Process-wide count of injected faults (monotone; survives disarm).
pub fn injected_count() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// Records one failed checkpoint write cycle (all retries exhausted).
pub fn note_checkpoint_failure() {
    CKPT_FAILURES.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide count of failed checkpoint write cycles.
pub fn checkpoint_failure_count() -> u64 {
    CKPT_FAILURES.load(Ordering::Relaxed)
}

/// Records the driver disabling checkpointing after consecutive failures.
pub fn note_checkpoint_degraded() {
    CKPT_DEGRADED.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide count of runs that degraded to checkpoint-free operation.
pub fn checkpoint_degraded_count() -> u64 {
    CKPT_DEGRADED.load(Ordering::Relaxed)
}

/// The outcome an instrumented buffered write should apply.
#[derive(Debug)]
pub enum WritePlan {
    /// No fault: write everything.
    Full,
    /// Torn write: persist only this many bytes, then fail with the error.
    Short(usize, io::Error),
    /// Fail without writing anything.
    Fail(io::Error),
    /// Write everything, but flip one byte first (silent corruption).
    Corrupt,
}

/// Maps an intercept at `site` for a buffer of `len` bytes onto the
/// concrete action the write path must take.
pub fn write_plan(site: FaultSite, len: usize) -> WritePlan {
    match intercept(site) {
        None => WritePlan::Full,
        Some(FaultKind::ShortWrite) => {
            WritePlan::Short(len / 2, FaultKind::ShortWrite.to_io_error())
        }
        Some(FaultKind::CorruptWrite) => WritePlan::Corrupt,
        Some(kind) => WritePlan::Fail(kind.to_io_error()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises the whole lifecycle: the armed state is process
    // -global, so concurrent tests poking it would race each other.
    #[test]
    fn scripts_fire_at_exact_ops_and_disarm_restores_passthrough() {
        disarm();
        assert!(!armed());
        assert_eq!(intercept(FaultSite::CheckpointWrite), None);

        arm(FaultScript {
            rules: vec![
                FaultRule {
                    site: FaultSite::CheckpointWrite,
                    kind: FaultKind::Enospc,
                    from_op: 1,
                    count: 2,
                },
                FaultRule {
                    site: FaultSite::TraceFinish,
                    kind: FaultKind::RenameFail,
                    from_op: 0,
                    count: 1,
                },
            ],
        });
        let before = injected_count();
        // Op 0 clean, ops 1-2 fail, op 3 clean again.
        assert_eq!(intercept(FaultSite::CheckpointWrite), None);
        assert_eq!(
            intercept(FaultSite::CheckpointWrite),
            Some(FaultKind::Enospc)
        );
        assert_eq!(
            intercept(FaultSite::CheckpointWrite),
            Some(FaultKind::Enospc)
        );
        assert_eq!(intercept(FaultSite::CheckpointWrite), None);
        // Sites count independently.
        assert_eq!(
            intercept(FaultSite::TraceFinish),
            Some(FaultKind::RenameFail)
        );
        assert_eq!(intercept(FaultSite::TraceFinish), None);
        assert_eq!(injected_count(), before + 3);

        // Re-arming resets the op counters.
        arm(FaultScript {
            rules: vec![FaultRule {
                site: FaultSite::ManifestAppend,
                kind: FaultKind::ShortWrite,
                from_op: 0,
                count: 1,
            }],
        });
        match write_plan(FaultSite::ManifestAppend, 10) {
            WritePlan::Short(5, _) => {}
            other => panic!("expected Short(5, _), got {other:?}"),
        }
        assert!(matches!(
            write_plan(FaultSite::ManifestAppend, 10),
            WritePlan::Full
        ));

        disarm();
        assert_eq!(intercept(FaultSite::ManifestAppend), None);
    }

    #[test]
    fn names_round_trip() {
        for site in [
            FaultSite::CheckpointWrite,
            FaultSite::CheckpointRename,
            FaultSite::TraceWrite,
            FaultSite::TraceFinish,
            FaultSite::ManifestAppend,
            FaultSite::BundleWrite,
        ] {
            assert_eq!(FaultSite::from_name(site.name()), Some(site));
        }
        for kind in [
            FaultKind::Enospc,
            FaultKind::Eio,
            FaultKind::ShortWrite,
            FaultKind::RenameFail,
            FaultKind::CorruptWrite,
        ] {
            assert_eq!(FaultKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(FaultSite::from_name("nope"), None);
        assert_eq!(FaultKind::from_name("nope"), None);
    }
}
