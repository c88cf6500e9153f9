//! # btfluid-des
//!
//! A flow-level discrete-event simulator of multiple-file BitTorrent
//! downloading, built to validate the fluid models of `btfluid-core` at the
//! peer level and to evaluate the **Adapt** mechanism the paper leaves as
//! future work.
//!
//! ## Fidelity contract
//!
//! The simulator realizes exactly the service assumptions of the paper's
//! fluid models, peer by peer:
//!
//! * **Tit-for-tat**: a downloader receives `η ×` (its own upload allocated
//!   to that subtorrent) from other downloaders.
//! * **Altruistic seeds**: all seed bandwidth directed at a (sub)torrent is
//!   split across its downloaders in proportion to their download capacity
//!   (equal users ⇒ proportional to `1/class` under concurrent schemes,
//!   uniform under sequential ones).
//! * **Arrivals** are Poisson with binomially sampled request sets
//!   (`btfluid-workload`), **seed residence** is exponential with rate `γ`.
//!
//! Chunk-level detail is deliberately abstracted away — the fluid model
//! already folds it into `η` — so rates change only at events (arrival,
//! completion, departure, Adapt epoch) and progress is linear in between.
//! Each event advances every active download analytically; there is no
//! time-stepping error.
//!
//! ## Scheme semantics
//!
//! * **MTSD** — one torrent at a time in random order; full `μ` upload;
//!   seeds each file for `Exp(γ)` before moving on.
//! * **MTCD** — all torrents concurrently at `μ/i`; each finished file is
//!   seeded for an independent `Exp(γ)`, then that virtual peer leaves.
//! * **MFCD** — like MTCD inside one multi-file torrent, but the user's
//!   virtual seeds persist until the user departs as a whole (`Exp(γ)`
//!   after the *last* completion) — the real-client behaviour the paper
//!   argues is fluid-equivalent to MTCD; the simulator lets us measure the
//!   residual difference.
//! * **CMFSD** — sequential in random order; once a peer has a finished
//!   file it uploads `ρμ` via TFT and `(1−ρ)μ` as a *virtual seed* over its
//!   finished subtorrents, split in proportion to their current demand (the
//!   realization of the fluid model's global pooling — see
//!   [`rate`] for why a one-subtorrent pin starves at ρ → 0); after the
//!   last file it seeds all its files as a real seed for `Exp(γ)`.
//!
//! The [`adapt`] layer attaches a per-peer
//! [`btfluid_core::adapt::AdaptController`] that adjusts the individual ρ
//! from the observed virtual-seed give/take imbalance Δ, with a
//! configurable fraction of cheaters pinned at ρ = 1.

#![forbid(unsafe_code)]
// `!(x > 0.0)` is used deliberately throughout: unlike `x <= 0.0` it also
// rejects NaN, which is exactly what parameter validation wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod adapt;
pub mod agg;
pub mod chunklevel;
pub mod config;
pub mod engine;
pub mod error;
pub mod event_queue;
pub mod hook;
pub mod observer;
pub mod peer;
pub mod rate;
pub mod rate_cache;
pub mod single;
pub mod snapshot;

pub use agg::AggCache;
pub use chunklevel::{estimate_eta, ChunkLevelConfig, EtaEstimate};
pub use config::{AdaptSetup, DesConfig, OrderPolicy, SchemeKind};
pub use engine::Simulation;
pub use error::{DesError, InvariantKind};
pub use hook::ScenarioHook;
pub use observer::{AbortRecord, ClassStats, PopulationStats, SimOutcome, UserRecord};
pub use rate_cache::RateCache;
pub use single::{run_single_torrent, SingleTorrentConfig, SingleTorrentOutcome};
pub use snapshot::{Snapshot, SnapshotError};

// Observability surface, re-exported so downstream crates can attach
// probes without depending on `btfluid-telemetry` directly.
pub use btfluid_telemetry::{
    shared_recorder, Counters, FanoutProbe, FlightKind, FlightRecord, FlightRecorder, MemoryProbe,
    NoopProbe, OwnedSample, Probe, ProfileTable, Profiler, RecorderProbe, Sample, SharedRecorder,
    SinkProbe, TraceSink,
};
