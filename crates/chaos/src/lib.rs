//! # btfluid-chaos
//!
//! The adversarial counterpart to the cooperative `selfcheck` oracle: a
//! seeded generator of random *chaos plans* — scenario fault windows ×
//! I/O fault schedules × kill/resume points — executed against an
//! invariant catalog, with greedy shrinking of any violation down to a
//! minimal failing plan and a replayable on-disk repro bundle.
//!
//! The pipeline is deterministic end to end: plans are derived from a
//! SplitMix64 stream, I/O faults fire at exact per-site operation indices
//! through [`btfluid_telemetry::faults`], and kill points are event or
//! boundary counts — so the same master seed always produces the same
//! plans *and* the same verdicts, and a shrunk plan replays to the same
//! typed failure on any machine.
//!
//! * [`plan`] — [`ChaosPlan`] generation and its JSON codec.
//! * [`exec`] — the executor and invariant catalog ([`Violation`]).
//! * [`shrink`](mod@shrink) — greedy minimization of failing plans.
//! * [`bundle`] — `chaos.json` repro bundles for `btfluid repro`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod exec;
pub mod plan;
pub mod shrink;

pub use bundle::ChaosBundle;
pub use exec::{run_plan, Verdict, Violation};
pub use plan::{canary, generate, ChaosMode, ChaosPlan};
pub use shrink::shrink;
