//! Crash-safe execution for the btfluid simulator.
//!
//! The engine (`btfluid-des`) guarantees that run → snapshot → restore →
//! run is bit-identical to an uninterrupted run. This crate turns that
//! guarantee into operational robustness:
//!
//! * [`checkpoint::drive`] — a resumable run driver: step in chunks,
//!   checkpoint atomically between chunks, pick up from the checkpoint
//!   after a crash, and honor event/wall-clock budgets cooperatively.
//! * [`supervisor::run_sweep`] — replicate/parameter-grid sweeps where
//!   every cell runs behind `catch_unwind` with a watchdog; panicking
//!   cells are retried with bounded backoff and then **quarantined**
//!   without sinking the sweep, and completed cells are journaled to an
//!   append-only JSONL [`manifest`] so a restarted sweep skips exactly
//!   the finished work.
//! * [`supervisor::run_batch`] — many whole runs on the same worker pool
//!   ([`supervisor::pool`]) with no journal and no checkpoints, returning
//!   each run's outcome and counters in input order; the path for seed
//!   replications and mode-equivalence checks.
//! * [`bundle::ReproBundle`] — a quarantined cell's config, seed,
//!   scenario reference, and last checkpoint, packaged as a directory
//!   that `btfluid repro <dir>` replays deterministically.
//!
//! Failures stay typed end to end: [`HarnessError`] wraps the engine's
//! `DesError`/`SnapshotError` hierarchy so the CLI can map each failure
//! class to a documented exit code instead of panicking.

#![warn(missing_docs)]

pub mod bundle;
pub mod checkpoint;
pub mod error;
pub mod manifest;
pub mod supervisor;

/// The JSON codec, which lives in `btfluid-telemetry`; re-exported because
/// the `benchmark/` package imports it as `btfluid_harness::json`.
pub use btfluid_telemetry::json;

pub use bundle::{config_from_json, config_to_json, load_trace, ReproBundle, ScenarioRef};
pub use checkpoint::{
    atomic_write, clean_stale_tmp, drive, CheckpointPlan, RetryPolicy, RunEnd, RunLimits,
    RunReport, SnapshotObserver,
};
pub use error::HarnessError;
pub use manifest::{CellRecord, CellStatus, ManifestWriter};
pub use supervisor::{
    bundle_path, panic_message, pool, run_batch, run_sweep, Budget, CellResult, CellSpec,
    FailedCell, SupervisorConfig, SweepReport,
};
