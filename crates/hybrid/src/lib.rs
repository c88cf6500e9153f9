//! # btfluid-hybrid — the multiscale fluid–DES switching engine
//!
//! The paper's evaluation is pure fluid ODE; the workspace's DES is exact
//! but pays per event. Kesidis–Konstantopoulos–Sousi (arXiv:0811.1003)
//! prove the peer-level stochastic model converges to the deterministic
//! fluid limit as populations grow, so above a tolerance-derived
//! threshold the ODE carries everything the DES knows — and below it
//! (flash-crowd onset, seed outages, abort storms, endgame drain) only
//! the DES is honest. This crate runs both, switching per decision
//! boundary:
//!
//! - [`SwitchPolicy`] — hysteresis bands `hi = ⌈1/tol²⌉`, `lo = hi/2` on
//!   the total downloading population, plus fault-plan windows forced
//!   discrete ([`policy`]).
//! - [`FluidModel`] — the scheme ODE (MTCD per-torrent or MTSD staged)
//!   plus the membrane: `fold` projects a peer slab onto fluid state,
//!   `sample` materializes peers from fluid masses on a dedicated RNG
//!   stream ([`handoff`]).
//! - [`HybridRunner`] — the driver: one global clock, per-class
//!   downloading-user integrals accumulated engine-agnostically,
//!   discrete segments with shifted hooks and derived seeds
//!   ([`driver`]).
//! - Hybrid snapshots — deterministic checkpoint/resume of the whole
//!   hybrid state, embedded engine snapshot body included, on the
//!   engine's codec ([`snapshot`]).
//!
//! Handoffs are observable as telemetry trace spans
//! (`handoff:des->fluid` / `handoff:fluid->des`, anchored to simulated
//! time) and `btfluid inspect` summarizes them and flags switch thrash.

pub mod driver;
pub mod handoff;
pub mod policy;
pub mod snapshot;

pub use driver::{
    amplified_flash_crowd, HybridConfig, HybridError, HybridOutcome, HybridRunner, ShiftedHook,
    HANDOFF_STREAM,
};
pub use handoff::{FluidModel, HandoffRecord};
pub use policy::{Regime, SwitchPolicy};
pub use snapshot::HYBRID_SNAPSHOT_VERSION;
