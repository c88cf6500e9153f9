//! # btfluid-telemetry
//!
//! Observability substrate for the btfluid workspace: engine probes,
//! hot-loop counters, a versioned JSONL trace sink, the flight recorder,
//! and the `diag!` leveled stderr diagnostics macro. It also holds the
//! workspace's one JSON codec, [`json`], and each record format's one
//! reader beside its writer: [`read_trace`] for traces and flight dumps
//! (one btfluid-trace schema), [`Counters::from_json`] for the counters
//! traces and sweep manifests embed. One observer, [`TelemetryProbe`],
//! feeds a run's trace sink and flight ring; [`ScratchDir`] is the
//! self-removing working directory of commands and tests.
//!
//! The crate depends on nothing and sits *below* `btfluid-des` and
//! `btfluid-workload` in the dependency graph (the engine calls into it),
//! so it carries no simulator types — probes see plain slices and scalars
//! through [`Sample`]. Three invariants the rest of the workspace relies
//! on:
//!
//! * **Zero perturbation**: a probe only *observes*. Nothing here feeds
//!   back into the engine's RNG streams, event order, or float
//!   computations, so a run with telemetry attached is bit-identical to
//!   the same seed without it (enforced by proptests in `btfluid-des`).
//! * **Near-zero cost when disabled**: with no probe attached the engine
//!   pays only plain integer counter increments and one float compare per
//!   event — no allocation, no dynamic dispatch.
//! * **Result files stay clean**: `diag!` writes to stderr only; the
//!   trace sink writes to its own file with the snapshot layer's atomic
//!   temp-file-and-rename discipline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod diag;
pub mod faults;
pub mod flightrec;
pub mod json;
pub mod probe;
pub mod profiler;
pub mod scratch;
pub mod sink;

pub use counters::Counters;
pub use diag::{enabled, level, set_level, Level};
pub use faults::{FaultKind, FaultRule, FaultScript, FaultSite};
pub use flightrec::{
    shared_recorder, FlightKind, FlightRecord, FlightRecorder, SharedRecorder,
    DEFAULT_FLIGHT_CAPACITY,
};
pub use json::{non_finite_null_count, Json};
pub use probe::{MemoryProbe, NoopProbe, OwnedSample, Probe, Sample, TelemetryProbe};
pub use profiler::{Phase, PhaseStats, ProfileTable, Profiler, PHASES};
pub use scratch::ScratchDir;
pub use sink::{
    read_trace, SharedSink, TraceFlight, TraceProfile, TraceRun, TraceSample, TraceSink, TraceSpan,
    TRACE_SCHEMA, TRACE_VERSION,
};

/// Default sampling cadence (simulated time units) for trace-producing
/// probes when the caller does not choose one.
pub const DEFAULT_SAMPLE_EVERY: f64 = 5.0;
