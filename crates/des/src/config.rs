//! Simulation configuration and validation.

use btfluid_core::adapt::AdaptConfig;
use btfluid_core::FluidParams;
use btfluid_numkit::NumError;
use btfluid_workload::CorrelationModel;

/// Which downloading scheme the simulated peers follow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeKind {
    /// Multi-torrent sequential downloading.
    Mtsd,
    /// Multi-torrent concurrent downloading.
    Mtcd,
    /// Multi-file-torrent concurrent downloading (virtual peers depart as a
    /// whole).
    Mfcd,
    /// Collaborative multi-file-torrent sequential downloading with the
    /// given *default* bandwidth allocation ratio ρ (individual peers may
    /// override it through Adapt).
    Cmfsd {
        /// Default ρ for every obedient peer.
        rho: f64,
    },
}

impl SchemeKind {
    /// Short display name.
    pub fn name(&self) -> String {
        match self {
            SchemeKind::Mtsd => "MTSD".into(),
            SchemeKind::Mtcd => "MTCD".into(),
            SchemeKind::Mfcd => "MFCD".into(),
            SchemeKind::Cmfsd { rho } => format!("CMFSD(ρ={rho})"),
        }
    }

    /// Whether peers download their files sequentially (MTSD, CMFSD) or
    /// concurrently (MTCD, MFCD).
    pub fn is_sequential(&self) -> bool {
        matches!(self, SchemeKind::Mtsd | SchemeKind::Cmfsd { .. })
    }
}

/// How a sequential peer (MTSD/CMFSD) picks the next file to download.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderPolicy {
    /// A fixed uniformly random permutation per peer — the paper's
    /// "downloading sequence is randomized".
    #[default]
    Random,
    /// Pick the unfinished file with the fewest current holders (finished
    /// copies among present peers), ties broken randomly — BitTorrent's
    /// local-rarest-first heuristic lifted from chunks to files.
    ///
    /// This matters at `ρ → 0` under CMFSD: with [`OrderPolicy::Random`]
    /// the swarm self-organizes into a single-file convoy (everyone's last
    /// file is a file almost nobody still holds) and the realized times
    /// blow past the fluid prediction; rarest-first burns down scarcity
    /// early and recovers the fluid model's well-mixed behaviour. See
    /// EXPERIMENTS.md, finding X3b.
    RarestFirst,
}

/// Configuration of the Adapt evaluation layer (only meaningful with
/// [`SchemeKind::Cmfsd`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptSetup {
    /// Controller constants (thresholds, steps, patience).
    pub controller: AdaptConfig,
    /// Period between Δ observations.
    pub epoch: f64,
    /// Fraction of arriving peers that cheat (pin ρ = 1, never donate).
    pub cheater_fraction: f64,
}

impl AdaptSetup {
    /// Validates the setup.
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] for a non-positive epoch, a
    /// cheater fraction outside `[0, 1]`, or an invalid controller config.
    pub fn validate(&self) -> Result<(), NumError> {
        self.controller.validate()?;
        if !(self.epoch > 0.0) || !self.epoch.is_finite() {
            return Err(NumError::InvalidInput {
                what: "AdaptSetup",
                detail: format!("epoch must be finite and > 0, got {}", self.epoch),
            });
        }
        if !(0.0..=1.0).contains(&self.cheater_fraction) {
            return Err(NumError::InvalidInput {
                what: "AdaptSetup",
                detail: format!(
                    "cheater fraction must lie in [0,1], got {}",
                    self.cheater_fraction
                ),
            });
        }
        Ok(())
    }
}

/// Full simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DesConfig {
    /// Fluid parameters `μ, η, γ` shared by all peers.
    pub params: FluidParams,
    /// Workload: `K`, correlation `p`, visiting rate `λ₀`.
    pub model: CorrelationModel,
    /// Downloading scheme.
    pub scheme: SchemeKind,
    /// Simulated horizon; arrivals stop here, in-flight peers keep running
    /// until [`DesConfig::drain`] beyond it.
    pub horizon: f64,
    /// Warm-up: users arriving before this time are excluded from the
    /// statistics (transient removal).
    pub warmup: f64,
    /// Extra time after the horizon during which in-flight peers may
    /// finish (avoids censoring the slowest classes).
    pub drain: f64,
    /// RNG seed; every derived stream is deterministic in it.
    ///
    /// The engine derives three independent streams: 0 (arrival times and
    /// request sets), 1 (service randomness: orders, seed residences,
    /// Adapt assignment), 2 (scenario events: abort candidates and
    /// victims). Attaching a [`crate::hook::ScenarioHook`] therefore never
    /// perturbs the draws of streams 0 and 1 relative to a stationary run
    /// with the same seed.
    pub seed: u64,
    /// Optional Adapt layer (CMFSD only).
    pub adapt: Option<AdaptSetup>,
    /// Publisher ("origin") seeds: permanent peers holding **all** `K`
    /// files, each serving with bandwidth `μ` split demand-aware.
    ///
    /// The paper's server–torrent architecture (Figure 1) always has the
    /// publisher online; the fluid model leaves it out because its capacity
    /// is negligible against the swarm's. The simulator needs it for
    /// cold-start liveness: at `ρ → 0` a CMFSD swarm bootstrapping from an
    /// empty torrent can gridlock on its scarcest file (every parked peer
    /// donates bandwidth nobody can use — see EXPERIMENTS.md, finding X3b),
    /// exactly the situation an origin seed exists to prevent.
    pub origin_seeds: usize,
    /// Initialize the swarm at the fluid model's steady state instead of
    /// empty (CMFSD only).
    ///
    /// Stage populations come from the CMFSD fixed point; peers get random
    /// file sets, uniformly distributed residual work on their current file,
    /// and seeds get fresh `Exp(γ)` residence. Removes both the long
    /// cold-start transient and the ρ → 0 bootstrap fragility; the
    /// warm-start peers themselves are excluded from the statistics (their
    /// arrival predates the warm-up cut).
    pub warm_start: bool,
    /// Next-file selection for sequential schemes (ignored by MTCD/MFCD,
    /// which download everything concurrently).
    pub order_policy: OrderPolicy,
    /// When set, record total downloader/seed populations into a
    /// [`btfluid_numkit::series::TimeSeries`] every this many time units
    /// (`SimOutcome::trajectory`). `None` disables recording.
    pub record_every: Option<f64>,
    /// Opt-in invariant validation: after every event the engine audits
    /// rate finiteness, event-queue/live-count consistency, and incremental
    /// rate-cache agreement with a from-scratch recompute, turning a
    /// violation into a typed [`crate::DesError::Invariant`] from
    /// [`crate::engine::Simulation::step`] /
    /// [`crate::engine::Simulation::try_run`] instead of a downstream
    /// panic. O(peers) per event — meant for tests and debugging, not
    /// production sweeps. Does not perturb the simulated trajectory.
    pub checked: bool,
    /// Class-aggregated completion scheduling: instead of one heap deadline
    /// per active download, the engine keeps **one** exponential completion
    /// event per (file, class, upload-band) group, keyed by the group's
    /// total service rate, and samples *which* member completed uniformly
    /// at pop time. The event queue then holds O(classes·files) completion
    /// entries instead of O(peers), making the per-event cost roughly flat
    /// in the swarm size.
    ///
    /// Peers inside a group are rate-homogeneous under the paper's fluid
    /// service model, so uniform member sampling is unbiased and the
    /// per-class *mean* populations and sojourn times match the per-peer
    /// path within statistical tolerance (deterministic residual work is
    /// replaced by an exponential with the same mean — the class-level
    /// Markov description). Trajectories are **not** bit-identical to the
    /// per-peer path; snapshot/resume stays bit-identical *within* the
    /// mode. Mutually exclusive with Adapt (which needs per-peer progress accounting); requires `K ≤ 64`
    /// (collaborative source sets are tracked as 64-bit file masks).
    pub aggregate: bool,
}

impl DesConfig {
    /// A small, fast-running default around the paper's parameters, useful
    /// in tests and examples: scale `λ₀` down to keep populations modest.
    pub fn paper_small(scheme: SchemeKind, p: f64, seed: u64) -> Result<Self, NumError> {
        Ok(Self {
            params: FluidParams::paper(),
            model: CorrelationModel::new(10, p, 0.25)?,
            scheme,
            horizon: 4000.0,
            warmup: 800.0,
            drain: 4000.0,
            seed,
            adapt: None,
            origin_seeds: 0,
            warm_start: false,
            order_policy: OrderPolicy::default(),
            record_every: None,
            checked: false,
            aggregate: false,
        })
    }

    /// Validates cross-field constraints.
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] for non-positive horizon/drain,
    /// warm-up beyond the horizon, `p = 0` (nobody would ever arrive),
    /// Adapt attached to a non-CMFSD scheme, or an invalid ρ.
    pub fn validate(&self) -> Result<(), NumError> {
        if !(self.horizon > 0.0) || !self.horizon.is_finite() {
            return Err(NumError::InvalidInput {
                what: "DesConfig",
                detail: format!("horizon must be finite and > 0, got {}", self.horizon),
            });
        }
        if !(self.warmup >= 0.0) || self.warmup >= self.horizon {
            return Err(NumError::InvalidInput {
                what: "DesConfig",
                detail: format!(
                    "warmup must lie in [0, horizon), got {} with horizon {}",
                    self.warmup, self.horizon
                ),
            });
        }
        if !(self.drain >= 0.0) || !self.drain.is_finite() {
            return Err(NumError::InvalidInput {
                what: "DesConfig",
                detail: format!("drain must be finite and >= 0, got {}", self.drain),
            });
        }
        if self.model.p() == 0.0 {
            return Err(NumError::InvalidInput {
                what: "DesConfig",
                detail: "p = 0: no user ever requests a file".into(),
            });
        }
        if let SchemeKind::Cmfsd { rho } = self.scheme {
            if !(0.0..=1.0).contains(&rho) {
                return Err(NumError::InvalidInput {
                    what: "DesConfig",
                    detail: format!("CMFSD ρ must lie in [0,1], got {rho}"),
                });
            }
        }
        if let Some(adapt) = &self.adapt {
            adapt.validate()?;
            if !matches!(self.scheme, SchemeKind::Cmfsd { .. }) {
                return Err(NumError::InvalidInput {
                    what: "DesConfig",
                    detail: format!("Adapt only applies to CMFSD, not {}", self.scheme.name()),
                });
            }
        }
        if self.warm_start && !matches!(self.scheme, SchemeKind::Cmfsd { .. }) {
            return Err(NumError::InvalidInput {
                what: "DesConfig",
                detail: format!(
                    "warm_start is implemented for CMFSD only, not {}",
                    self.scheme.name()
                ),
            });
        }
        if let Some(dt) = self.record_every {
            if !(dt > 0.0) || !dt.is_finite() {
                return Err(NumError::InvalidInput {
                    what: "DesConfig",
                    detail: format!("record_every must be finite and > 0, got {dt}"),
                });
            }
        }
        if self.aggregate {
            if self.adapt.is_some() {
                return Err(NumError::InvalidInput {
                    what: "DesConfig",
                    detail: "aggregate mode is incompatible with Adapt \
                             (the controller needs per-peer progress accounting)"
                        .into(),
                });
            }
            if self.model.k() > 64 {
                return Err(NumError::InvalidInput {
                    what: "DesConfig",
                    detail: format!(
                        "aggregate mode requires K <= 64 (file masks are u64), got {}",
                        self.model.k()
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_and_kinds() {
        assert_eq!(SchemeKind::Mtsd.name(), "MTSD");
        assert_eq!(SchemeKind::Cmfsd { rho: 0.25 }.name(), "CMFSD(ρ=0.25)");
        assert!(SchemeKind::Mtsd.is_sequential());
        assert!(SchemeKind::Cmfsd { rho: 0.0 }.is_sequential());
        assert!(!SchemeKind::Mtcd.is_sequential());
        assert!(!SchemeKind::Mfcd.is_sequential());
    }

    #[test]
    fn paper_small_is_valid() {
        let cfg = DesConfig::paper_small(SchemeKind::Mtsd, 0.5, 1).unwrap();
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_failures() {
        let mut cfg = DesConfig::paper_small(SchemeKind::Mtsd, 0.5, 1).unwrap();
        cfg.horizon = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = DesConfig::paper_small(SchemeKind::Mtsd, 0.5, 1).unwrap();
        cfg.warmup = cfg.horizon;
        assert!(cfg.validate().is_err());

        let mut cfg = DesConfig::paper_small(SchemeKind::Mtsd, 0.5, 1).unwrap();
        cfg.drain = -1.0;
        assert!(cfg.validate().is_err());

        let cfg = DesConfig::paper_small(SchemeKind::Cmfsd { rho: 1.5 }, 0.5, 1).unwrap();
        assert!(cfg.validate().is_err());

        // p = 0 passes model construction but fails config validation.
        let cfg = DesConfig::paper_small(SchemeKind::Mtsd, 0.0, 1).unwrap();
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn adapt_requires_cmfsd() {
        let setup = AdaptSetup {
            controller: AdaptConfig::default_for_mu(0.02),
            epoch: 10.0,
            cheater_fraction: 0.2,
        };
        assert!(setup.validate().is_ok());

        let mut cfg = DesConfig::paper_small(SchemeKind::Mtcd, 0.5, 1).unwrap();
        cfg.adapt = Some(setup);
        assert!(cfg.validate().is_err());

        let mut cfg = DesConfig::paper_small(SchemeKind::Cmfsd { rho: 0.0 }, 0.5, 1).unwrap();
        cfg.adapt = Some(setup);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn aggregate_mode_constraints() {
        let mut cfg = DesConfig::paper_small(SchemeKind::Mtsd, 0.5, 1).unwrap();
        cfg.aggregate = true;
        assert!(cfg.validate().is_ok());

        let mut cfg = DesConfig::paper_small(SchemeKind::Cmfsd { rho: 0.5 }, 0.5, 1).unwrap();
        cfg.aggregate = true;
        cfg.adapt = Some(AdaptSetup {
            controller: AdaptConfig::default_for_mu(0.02),
            epoch: 10.0,
            cheater_fraction: 0.0,
        });
        assert!(cfg.validate().is_err(), "aggregate excludes Adapt");
        cfg.adapt = None;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn adapt_setup_validation() {
        let mut setup = AdaptSetup {
            controller: AdaptConfig::default_for_mu(0.02),
            epoch: 0.0,
            cheater_fraction: 0.2,
        };
        assert!(setup.validate().is_err());
        setup.epoch = 5.0;
        setup.cheater_fraction = 1.5;
        assert!(setup.validate().is_err());
    }
}
