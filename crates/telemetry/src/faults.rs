//! Deterministic I/O fault injection — the seam the chaos harness drives.
//!
//! Every durable write path in the workspace (checkpoint temp-file-and-
//! rename, trace sink, sweep manifest, repro bundles) consults this module
//! before touching the filesystem. A [`FaultScript`] is armed for the
//! duration of one closure on one thread by [`scoped`]; writes on any
//! other thread, and on this one outside the closure, pass through. When
//! nothing is armed the check is one thread-local read, so production
//! runs pay nothing measurable. While armed, faults fire at exact
//! per-site operation counts: the same script against the same run
//! injects the same failures at the same instants, which is what makes
//! chaos runs replayable and shrinkable, and lets independent runs arm
//! their own scripts side by side on a worker pool.
//!
//! A run's write paths never spawn threads, so a scope covers every write
//! the run makes. Threads a run starts do not inherit the scope: the
//! sweep supervisor's attempt threads run unarmed.
//!
//! What faults do to a run is reported by the run itself
//! (`RunReport::checkpoint_failures` and `RunReport::degraded` in
//! `btfluid-harness`), not tallied here.

use crate::flightrec::{FlightKind, FlightRecord, SharedRecorder};
use std::cell::{Cell, RefCell};
use std::io;

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
    flight: Option<SharedRecorder>,
}

thread_local! {
    static SCOPE: RefCell<Option<Armed>> = const { RefCell::new(None) };
    /// `SCOPE.is_some()` in a cell without a destructor, so the disarmed
    /// consult is one plain thread-local read.
    static ARMED: Cell<bool> = const { Cell::new(false) };
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

/// Runs `f` with `script` armed on the calling thread, every per-site
/// operation counter starting at zero, and returns its result. The scope
/// that was armed before (normally none) is restored when `f` returns
/// or unwinds.
///
/// With `flight` given, every consult inside the scope also records a
/// [`FlightKind::FaultConsult`] into it: `a` = site index, `b` = matched
/// kind code + 1 (0 when the consult passed through clean); `t` is
/// `-1.0` because no simulated clock is in scope at the I/O layer.
pub fn scoped<T>(script: FaultScript, flight: Option<SharedRecorder>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Armed>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ARMED.set(self.0.is_some());
            SCOPE.set(self.0.take());
        }
    }
    let _restore = Restore(SCOPE.replace(Some(Armed {
        script,
        ops: [0; FAULT_SITES],
        flight,
    })));
    ARMED.set(true);
    f()
}

/// Whether a script is armed on this thread — the fast path every
/// instrumented write starts with.
pub fn armed() -> bool {
    ARMED.get()
}

/// Consults this thread's armed script for `site`, advancing its
/// operation counter. `None` (always, outside [`scoped`]) means "perform
/// the real operation". Inline, so the disarmed consult stays one
/// thread-local read in every caller whatever the crate's codegen-unit
/// split.
#[inline]
pub fn intercept(site: FaultSite) -> Option<FaultKind> {
    if !ARMED.get() {
        return None;
    }
    SCOPE.with_borrow_mut(|scope| {
        let armed = scope.as_mut()?;
        let op = armed.ops[site.index()];
        armed.ops[site.index()] += 1;
        let kind = armed
            .script
            .rules
            .iter()
            .find(|r| r.matches(site, op))
            .map(|r| r.kind);
        if let Some(rec) = &armed.flight {
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
    })
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

    fn rule(site: FaultSite, kind: FaultKind, from_op: u64, count: u64) -> FaultRule {
        FaultRule {
            site,
            kind,
            from_op,
            count,
        }
    }

    #[test]
    fn scripts_fire_at_exact_ops_and_disarm_restores_passthrough() {
        assert!(!armed());
        assert_eq!(intercept(FaultSite::CheckpointWrite), None);
        let script = FaultScript {
            rules: vec![
                rule(FaultSite::CheckpointWrite, FaultKind::Enospc, 1, 2),
                rule(FaultSite::TraceFinish, FaultKind::RenameFail, 0, 1),
            ],
        };
        let seen = scoped(script, None, || {
            assert!(armed());
            let ckpt: Vec<_> = (0..4)
                .map(|_| intercept(FaultSite::CheckpointWrite))
                .collect();
            let finish: Vec<_> = (0..2).map(|_| intercept(FaultSite::TraceFinish)).collect();
            (ckpt, finish)
        });
        // Op 0 clean, ops 1-2 fail, op 3 clean again.
        let enospc = Some(FaultKind::Enospc);
        assert_eq!(seen.0, [None, enospc, enospc, None]);
        assert_eq!(seen.1, [Some(FaultKind::RenameFail), None]);
        assert!(!armed());
        assert_eq!(intercept(FaultSite::CheckpointWrite), None);
    }

    #[test]
    fn each_scope_starts_its_counters_at_zero() {
        let script = FaultScript {
            rules: vec![rule(FaultSite::ManifestAppend, FaultKind::ShortWrite, 0, 1)],
        };
        for _ in 0..2 {
            scoped(script.clone(), None, || {
                match write_plan(FaultSite::ManifestAppend, 10) {
                    WritePlan::Short(5, _) => {}
                    other => panic!("expected Short(5, _), got {other:?}"),
                }
                assert!(matches!(
                    write_plan(FaultSite::ManifestAppend, 10),
                    WritePlan::Full
                ));
            });
        }
    }

    #[test]
    fn the_scope_is_cleared_on_unwind_and_other_threads_never_see_it() {
        let script = FaultScript {
            rules: vec![rule(FaultSite::BundleWrite, FaultKind::Eio, 0, u64::MAX)],
        };
        let unwound = std::panic::catch_unwind(|| {
            scoped(script.clone(), None, || {
                let other = std::thread::spawn(|| intercept(FaultSite::BundleWrite));
                assert_eq!(other.join().unwrap(), None);
                assert_eq!(intercept(FaultSite::BundleWrite), Some(FaultKind::Eio));
                panic!("leg failed");
            })
        });
        assert!(unwound.is_err());
        assert!(!armed());
        assert_eq!(intercept(FaultSite::BundleWrite), None);
    }

    #[test]
    fn consults_are_flight_recorded_with_their_outcome() {
        let rec = crate::flightrec::shared_recorder(8);
        let script = FaultScript {
            rules: vec![rule(FaultSite::TraceWrite, FaultKind::CorruptWrite, 1, 1)],
        };
        scoped(script, Some(std::sync::Arc::clone(&rec)), || {
            intercept(FaultSite::TraceWrite);
            intercept(FaultSite::TraceWrite);
        });
        let ring = rec.lock().unwrap();
        let seen: Vec<_> = ring.iter().map(|r| (r.kind, r.a, r.b)).collect();
        let consult = FlightKind::FaultConsult;
        assert_eq!(seen, [(consult, 2, 0), (consult, 2, 5)]);
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
