//! Scenario programs: a complete non-stationary experiment description.
//!
//! A [`ScenarioProgram`] bundles the time-varying workload (visitor rate
//! `λ₀(t)` and correlation `p(t)`), a [`FaultPlan`], the fluid parameters,
//! and the run geometry (horizon, warm-up, drain, phase boundaries). It
//! compiles down to the two artefacts the rest of the workspace consumes:
//! a [`ProgramHook`] for the DES engine and a [`DesConfig`] per scheme.

use crate::fault::{in_window, next_edge, FaultPlan};
use crate::schedule::Schedule;
use btfluid_core::FluidParams;
use btfluid_des::{DesConfig, OrderPolicy, ScenarioHook, SchemeKind};
use btfluid_numkit::NumError;
use btfluid_workload::CorrelationModel;

/// A named sub-interval of a scenario, used to bucket statistics
/// (pre-surge / surge / recovery, and so on).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPhase {
    /// Human-readable phase name.
    pub name: String,
    /// Phase start (inclusive).
    pub start: f64,
    /// Phase end (exclusive).
    pub end: f64,
}

impl ScenarioPhase {
    /// Convenience constructor.
    pub fn new(name: &str, start: f64, end: f64) -> Self {
        Self {
            name: name.into(),
            start,
            end,
        }
    }
}

/// A complete non-stationary experiment: workload schedules, faults, fluid
/// parameters, and run geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioProgram {
    /// Registry name (`flash_crowd`, …).
    pub name: String,
    /// One-line description for `btfluid scenario list`.
    pub description: String,
    /// Visitor arrival rate `λ₀(t)`.
    pub lambda0: Schedule,
    /// Request correlation `p(t)`; values are probabilities in `[0, 1]`.
    pub correlation: Schedule,
    /// Churn and fault injection.
    pub faults: FaultPlan,
    /// Fluid parameters `μ, η, γ`.
    pub params: FluidParams,
    /// Number of files `K`.
    pub k: u32,
    /// Arrival horizon.
    pub horizon: f64,
    /// Warm-up cut for stationary-window statistics.
    pub warmup: f64,
    /// Drain time beyond the horizon.
    pub drain: f64,
    /// Baseline number of origin (publisher) seeds; outage windows drop the
    /// count to zero.
    pub origin_seeds: usize,
    /// Population-trajectory recording interval.
    pub record_every: f64,
    /// Reporting phases (may be empty; need not cover the horizon).
    pub phases: Vec<ScenarioPhase>,
}

impl ScenarioProgram {
    /// A stationary (constant-schedule, fault-free) program — the bridge
    /// between the non-stationary machinery and the paper's steady-state
    /// models. Used by the self-check oracle to compare the transient ODE,
    /// the closed forms, and the DES on identical inputs. `origin_seeds`
    /// is 0 because the fluid model has no publisher term.
    pub fn stationary(
        name: &str,
        lambda0: f64,
        p: f64,
        k: u32,
        horizon: f64,
        warmup: f64,
        drain: f64,
    ) -> Self {
        Self {
            name: name.into(),
            description: format!("stationary λ₀={lambda0}, p={p}, K={k}"),
            lambda0: Schedule::Constant(lambda0),
            correlation: Schedule::Constant(p),
            faults: FaultPlan::default(),
            params: FluidParams::paper(),
            k,
            horizon,
            warmup,
            drain,
            origin_seeds: 0,
            record_every: 50.0,
            phases: Vec::new(),
        }
    }

    /// Validates schedules, faults, geometry, and phases.
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] for invalid schedules or windows,
    /// a `λ₀` that is zero everywhere, a correlation leaving `[0, 1]`,
    /// inconsistent horizon/warm-up/drain, or an empty/inverted phase.
    pub fn validate(&self) -> Result<(), NumError> {
        let fail = |detail: String| {
            Err(NumError::InvalidInput {
                what: "ScenarioProgram::validate",
                detail,
            })
        };
        self.lambda0.validate()?;
        self.correlation.validate()?;
        self.faults.validate()?;
        if self.k == 0 {
            return fail("k must be >= 1".into());
        }
        if !(self.lambda0.upper_bound() > 0.0) {
            return fail("λ₀(t) is zero everywhere; nobody would ever arrive".into());
        }
        if self.correlation.upper_bound() > 1.0 {
            return fail(format!(
                "correlation reaches {} > 1; p(t) must stay a probability",
                self.correlation.upper_bound()
            ));
        }
        if !(self.horizon > 0.0) || !self.horizon.is_finite() {
            return fail(format!(
                "horizon must be finite and > 0, got {}",
                self.horizon
            ));
        }
        if !(self.warmup >= 0.0) || self.warmup >= self.horizon {
            return fail(format!(
                "warmup must lie in [0, horizon), got {} with horizon {}",
                self.warmup, self.horizon
            ));
        }
        if !(self.drain >= 0.0) || !self.drain.is_finite() {
            return fail(format!("drain must be finite and >= 0, got {}", self.drain));
        }
        if !(self.record_every > 0.0) || !self.record_every.is_finite() {
            return fail(format!(
                "record_every must be finite and > 0, got {}",
                self.record_every
            ));
        }
        for ph in &self.phases {
            if !(ph.start < ph.end) || ph.start < 0.0 {
                return fail(format!(
                    "phase '{}' window [{}, {}) is empty, inverted, or negative",
                    ph.name, ph.start, ph.end
                ));
            }
        }
        Ok(())
    }

    /// Compiles the program into the engine-facing hook.
    pub fn hook(&self) -> ProgramHook {
        ProgramHook {
            lambda0: self.lambda0.clone(),
            correlation: self.correlation.clone(),
            faults: self.faults.clone(),
            origin_base: self.origin_seeds,
        }
    }

    /// Builds the DES configuration for one scheme.
    ///
    /// The embedded [`CorrelationModel`] carries *reference* values (`λ₀`
    /// upper bound, `p(0)` clamped away from zero): a hooked engine samples
    /// arrivals and request sets from the hook's schedules, not from the
    /// model, so these only anchor validation and `K`.
    ///
    /// # Errors
    /// Propagates model and configuration validation errors.
    pub fn des_config(&self, scheme: SchemeKind, seed: u64) -> Result<DesConfig, NumError> {
        let p_ref = self.correlation.value(0.0).clamp(0.01, 1.0);
        let cfg = DesConfig {
            params: self.params,
            model: CorrelationModel::new(self.k, p_ref, self.lambda0.upper_bound())?,
            scheme,
            horizon: self.horizon,
            warmup: self.warmup,
            drain: self.drain,
            seed,
            adapt: None,
            origin_seeds: self.origin_seeds,
            warm_start: false,
            order_policy: OrderPolicy::default(),
            record_every: Some(self.record_every),
            aggregate: false,
            checked: false,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Rescales every time parameter by `factor` — the `--smoke` variant
    /// runs the same shapes on a compressed axis.
    pub fn time_scaled(&self, factor: f64) -> Self {
        Self {
            name: self.name.clone(),
            description: self.description.clone(),
            lambda0: self.lambda0.time_scaled(factor),
            correlation: self.correlation.time_scaled(factor),
            faults: self.faults.time_scaled(factor),
            params: self.params,
            k: self.k,
            horizon: self.horizon * factor,
            warmup: self.warmup * factor,
            drain: self.drain * factor,
            origin_seeds: self.origin_seeds,
            record_every: self.record_every * factor,
            phases: self
                .phases
                .iter()
                .map(|ph| ScenarioPhase::new(&ph.name, ph.start * factor, ph.end * factor))
                .collect(),
        }
    }
}

/// The [`ScenarioHook`] implementation compiled from a
/// [`ScenarioProgram`] — a pure function of time, as the engine requires.
#[derive(Debug, Clone)]
pub struct ProgramHook {
    lambda0: Schedule,
    correlation: Schedule,
    faults: FaultPlan,
    origin_base: usize,
}

impl ScenarioHook for ProgramHook {
    fn arrival_rate(&self, t: f64) -> f64 {
        self.lambda0.value(t)
    }

    fn arrival_rate_bound(&self) -> f64 {
        self.lambda0.upper_bound()
    }

    fn correlation(&self, t: f64) -> f64 {
        self.correlation.value(t)
    }

    fn abort_rate(&self, t: f64) -> f64 {
        self.faults.abort.value(t)
    }

    fn abort_rate_bound(&self) -> f64 {
        self.faults.abort.upper_bound()
    }

    fn origin_seeds(&self, t: f64) -> usize {
        if in_window(&self.faults.seed_outages, t) {
            0
        } else {
            self.origin_base
        }
    }

    fn tracker_up(&self, t: f64) -> bool {
        !in_window(&self.faults.tracker_blackouts, t)
    }

    fn next_boundary(&self, t: f64) -> Option<f64> {
        match (
            next_edge(&self.faults.seed_outages, t),
            next_edge(&self.faults.tracker_blackouts, t),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn hook_state(&self) -> Vec<u8> {
        // The hook is a pure function of `t`; its full parameterization is
        // its state. The `Debug` rendering covers every field, so equal
        // bytes ⇒ the re-attached hook replays the same scenario.
        format!("{self:?}").into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_program() -> ScenarioProgram {
        ScenarioProgram {
            name: "test".into(),
            description: "test program".into(),
            lambda0: Schedule::Constant(0.25),
            correlation: Schedule::Constant(0.4),
            faults: FaultPlan::default(),
            params: FluidParams::paper(),
            k: 10,
            horizon: 4000.0,
            warmup: 800.0,
            drain: 4000.0,
            origin_seeds: 1,
            record_every: 50.0,
            phases: vec![ScenarioPhase::new("all", 0.0, 4000.0)],
        }
    }

    #[test]
    fn base_program_validates() {
        assert!(base_program().validate().is_ok());
    }

    #[test]
    fn validation_rejections() {
        let mut p = base_program();
        p.lambda0 = Schedule::Constant(0.0);
        assert!(p.validate().is_err());

        let mut p = base_program();
        p.correlation = Schedule::Ramp {
            from: 0.5,
            to: 1.5,
            t0: 0.0,
            t1: 100.0,
        };
        assert!(p.validate().is_err());

        let mut p = base_program();
        p.warmup = p.horizon;
        assert!(p.validate().is_err());

        let mut p = base_program();
        p.record_every = 0.0;
        assert!(p.validate().is_err());

        let mut p = base_program();
        p.phases = vec![ScenarioPhase::new("bad", 100.0, 100.0)];
        assert!(p.validate().is_err());

        let mut p = base_program();
        p.k = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn hook_reflects_faults() {
        let mut p = base_program();
        p.faults.seed_outages = vec![(1000.0, 2000.0)];
        p.faults.tracker_blackouts = vec![(500.0, 600.0)];
        let h = p.hook();
        assert_eq!(h.origin_seeds(0.0), 1);
        assert_eq!(h.origin_seeds(1500.0), 0);
        assert_eq!(h.origin_seeds(2000.0), 1);
        assert!(h.tracker_up(0.0));
        assert!(!h.tracker_up(550.0));
        assert_eq!(h.tracker_release(550.0), 600.0);
        assert_eq!(h.next_boundary(0.0), Some(500.0));
        assert_eq!(h.next_boundary(600.0), Some(1000.0));
        assert_eq!(h.next_boundary(2000.0), None);
    }

    #[test]
    fn des_config_builds_for_every_scheme() {
        let p = base_program();
        for scheme in [
            SchemeKind::Mtsd,
            SchemeKind::Mtcd,
            SchemeKind::Mfcd,
            SchemeKind::Cmfsd { rho: 0.5 },
        ] {
            let cfg = p.des_config(scheme, 42).unwrap();
            assert_eq!(cfg.seed, 42);
            assert_eq!(cfg.record_every, Some(50.0));
            assert_eq!(cfg.origin_seeds, 1);
        }
    }

    #[test]
    fn time_scaling_compresses_geometry() {
        let p = base_program().time_scaled(0.25);
        assert_eq!(p.horizon, 1000.0);
        assert_eq!(p.warmup, 200.0);
        assert_eq!(p.drain, 1000.0);
        assert_eq!(p.record_every, 12.5);
        assert_eq!(p.phases[0].end, 1000.0);
        assert!(p.validate().is_ok());
    }
}
