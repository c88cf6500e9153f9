//! The multiscale driver: one clock, two engines.
//!
//! A [`HybridRunner`] walks a grid of *decision boundaries* (every
//! `record_every`, plus forced-window edges) from 0 to the horizon. Between
//! boundaries it advances whichever engine the [`SwitchPolicy`] last
//! selected — the scheme ODE for large populations, the DES for small or
//! critical ones — and accumulates per-class downloading-user time
//! integrals over the stationary window `[warmup, horizon]` in *global*
//! time, so the reported means are engine-agnostic. At each boundary the
//! policy re-decides; on a change the full system state crosses the
//! fluid↔DES membrane via [`FluidModel::fold`] / [`FluidModel::sample`].
//!
//! Discrete stretches run as one engine instance with a *shifted* scenario
//! hook (segment-local `t = 0` maps to the global segment start), a
//! deterministic per-segment seed, and no statistics window of their own —
//! the driver does all accounting. Handoff randomness lives on a dedicated
//! stream ([`HANDOFF_STREAM`]) so segment engines stay bit-reproducible.

use crate::handoff::{FluidModel, HandoffRecord};
use crate::policy::{Regime, SwitchPolicy};
use btfluid_des::{DesConfig, DesError, ScenarioHook, SchemeKind, Simulation, SnapshotError};
use btfluid_numkit::dist::Exponential;
use btfluid_numkit::ode::StepScratch;
use btfluid_numkit::rng::{SplitMix64, Xoshiro256StarStar};
use btfluid_numkit::NumError;
use btfluid_scenario::{registry, ProgramHook, ScenarioProgram};
use btfluid_telemetry::{FlightKind, FlightRecord, TelemetryProbe};
use std::fmt;
use std::time::Instant;

/// RNG stream index of the handoff sampler (engine streams use 0–3).
pub const HANDOFF_STREAM: u64 = 16;

/// Everything a hybrid run is parameterized by. The config (not any
/// derived state) is what the snapshot digest covers.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// The scenario to run.
    pub program: ScenarioProgram,
    /// Scheme — MTCD or MTSD (the schemes with scheduled fluid models).
    pub scheme: SchemeKind,
    /// Master seed; segment and handoff streams derive from it.
    pub seed: u64,
    /// Relative error budget in `(0, 1]`; maps to hysteresis thresholds
    /// `hi = ⌈1/tol²⌉`, `lo = hi/2`.
    pub tol: f64,
    /// Run DES segments in class-aggregated mode (PR 6) instead of
    /// incremental per-peer mode.
    pub aggregate: bool,
}

/// Errors a hybrid run can surface.
#[derive(Debug)]
pub enum HybridError {
    /// Invalid configuration or numerics.
    Num(NumError),
    /// A DES segment failed (checked-mode invariant, restore mismatch).
    Des(DesError),
    /// A hybrid snapshot failed to decode.
    Snapshot(String),
}

impl fmt::Display for HybridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Num(e) => write!(f, "{e}"),
            Self::Des(e) => write!(f, "{e}"),
            Self::Snapshot(msg) => write!(f, "hybrid snapshot: {msg}"),
        }
    }
}

impl std::error::Error for HybridError {}

impl From<NumError> for HybridError {
    fn from(e: NumError) -> Self {
        Self::Num(e)
    }
}

impl From<DesError> for HybridError {
    fn from(e: DesError) -> Self {
        Self::Des(e)
    }
}

/// The envelope's own decode failures (its reader is the engine codec's).
impl From<SnapshotError> for HybridError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e.to_string())
    }
}

/// What a finished hybrid run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridOutcome {
    /// Time-averaged downloading users per class over
    /// `[warmup, horizon]` (index `class − 1`).
    pub class_means: Vec<f64>,
    /// Every regime switch, in time order.
    pub handoffs: Vec<HandoffRecord>,
    /// DES events dispatched across all discrete segments.
    pub des_events: u64,
    /// RK4 substeps taken across all fluid stretches.
    pub fluid_steps: u64,
    /// Final simulated time (the horizon).
    pub final_t: f64,
}

impl HybridOutcome {
    /// Total time-averaged downloading users.
    pub fn total_mean(&self) -> f64 {
        self.class_means.iter().sum()
    }
}

/// A [`ScenarioHook`] that replays another hook on a shifted time axis:
/// segment-local `t` maps to global `t + offset`. Pure function of time,
/// exactly as the engine requires; the fingerprint state appends the
/// offset so a restore with the wrong segment anchor is rejected.
#[derive(Debug)]
pub struct ShiftedHook {
    inner: ProgramHook,
    offset: f64,
}

impl ShiftedHook {
    /// Wraps `inner`, mapping local time `t` to `t + offset`.
    pub fn new(inner: ProgramHook, offset: f64) -> Self {
        Self { inner, offset }
    }
}

impl ScenarioHook for ShiftedHook {
    fn arrival_rate(&self, t: f64) -> f64 {
        self.inner.arrival_rate(t + self.offset)
    }

    fn arrival_rate_bound(&self) -> f64 {
        self.inner.arrival_rate_bound()
    }

    fn correlation(&self, t: f64) -> f64 {
        self.inner.correlation(t + self.offset)
    }

    fn abort_rate(&self, t: f64) -> f64 {
        self.inner.abort_rate(t + self.offset)
    }

    fn abort_rate_bound(&self) -> f64 {
        self.inner.abort_rate_bound()
    }

    fn origin_seeds(&self, t: f64) -> usize {
        self.inner.origin_seeds(t + self.offset)
    }

    fn tracker_up(&self, t: f64) -> bool {
        self.inner.tracker_up(t + self.offset)
    }

    fn next_boundary(&self, t: f64) -> Option<f64> {
        self.inner
            .next_boundary(t + self.offset)
            .map(|b| b - self.offset)
    }

    fn tracker_release(&self, t: f64) -> f64 {
        self.inner.tracker_release(t + self.offset) - self.offset
    }

    fn hook_state(&self) -> Vec<u8> {
        let mut state = self.inner.hook_state();
        state.extend_from_slice(&self.offset.to_bits().to_le_bytes());
        state
    }
}

/// Derives the engine seed for discrete segment `segment` of a run.
fn segment_seed(master: u64, segment: u64) -> u64 {
    SplitMix64::new(master ^ segment.wrapping_mul(0x9E37_79B9_7F4A_7C15)).split()
}

/// The multiscale driver. See the module docs for the regime model.
pub struct HybridRunner {
    cfg: HybridConfig,
    policy: SwitchPolicy,
    model: FluidModel,
    gamma: Exponential,
    boundaries: Vec<f64>,
    pub(crate) next_boundary: usize,
    pub(crate) t: f64,
    pub(crate) regime: Regime,
    pub(crate) fluid: Vec<f64>,
    pub(crate) sim: Option<Simulation>,
    pub(crate) seg_t0: f64,
    pub(crate) seg_seed: u64,
    pub(crate) segment: u64,
    pub(crate) rng_handoff: Xoshiro256StarStar,
    pub(crate) integrals: Vec<f64>,
    pub(crate) des_events: u64,
    pub(crate) fluid_steps: u64,
    pub(crate) handoffs: Vec<HandoffRecord>,
    telemetry: TelemetryProbe,
    fluid_h: f64,
    scratch: Vec<f64>,
    /// RK4 stage buffers, kept across fluid steps.
    stages: StepScratch,
}

impl HybridRunner {
    /// Builds a runner at `t = 0` in the discrete regime (the swarm
    /// starts empty — below any threshold).
    ///
    /// # Errors
    /// Propagates program/scheme/tolerance validation failures.
    pub fn new(cfg: HybridConfig) -> Result<Self, HybridError> {
        let policy = SwitchPolicy::from_program(&cfg.program, cfg.tol)?;
        let model = FluidModel::new(&cfg.program, cfg.scheme)?;
        let gamma = Exponential::new(cfg.program.params.gamma())?;
        let boundaries = decision_boundaries(&cfg.program, &policy);
        let k = model.k();
        let dim = model.dim();
        let fluid_h = (cfg.program.record_every / 8.0).min(0.5);
        let rng_handoff = Xoshiro256StarStar::stream(cfg.seed, HANDOFF_STREAM);
        Ok(Self {
            cfg,
            policy,
            model,
            gamma,
            boundaries,
            next_boundary: 0,
            t: 0.0,
            regime: Regime::Discrete,
            fluid: vec![0.0; dim],
            sim: None,
            seg_t0: 0.0,
            seg_seed: 0,
            segment: 0,
            rng_handoff,
            integrals: vec![0.0; k],
            des_events: 0,
            fluid_steps: 0,
            handoffs: Vec::new(),
            telemetry: TelemetryProbe::default(),
            fluid_h,
            scratch: vec![0.0; k],
            stages: StepScratch::new(),
        })
    }

    /// Convenience: build, run to the horizon, finish.
    ///
    /// # Errors
    /// Propagates construction and stepping failures.
    pub fn run(cfg: HybridConfig) -> Result<HybridOutcome, HybridError> {
        let mut runner = Self::new(cfg)?;
        while runner.step_boundary()? {}
        Ok(runner.finish())
    }

    /// The configuration.
    pub fn config(&self) -> &HybridConfig {
        &self.cfg
    }

    /// Current simulated time (a decision boundary, between steps).
    pub fn sim_time(&self) -> f64 {
        self.t
    }

    /// The active regime.
    pub fn regime(&self) -> Regime {
        self.regime
    }

    /// Regime switches so far.
    pub fn handoffs(&self) -> &[HandoffRecord] {
        &self.handoffs
    }

    /// Attaches the run's telemetry: its sink receives handoff and
    /// checkpoint spans, its ring a [`FlightKind::Handoff`] record at
    /// every regime switch (and a checkpoint record for each checkpoint a
    /// driver commits). The sink's cadence is unused: the runner emits no
    /// samples. Observer-only: excluded from snapshots, never affects
    /// results.
    pub fn attach_probe(&mut self, probe: TelemetryProbe) {
        self.telemetry = probe;
    }

    /// Writes a span timing record, anchored at the current simulated
    /// time, to the attached sink (if any).
    pub fn emit_span(&self, name: &str, micros: u64) {
        self.telemetry.span_at(name, micros, self.t);
    }

    /// Records a flight record at the current time and DES event count
    /// (every segment so far, the live one included) in the attached
    /// ring (if any).
    pub fn emit_flight(&self, kind: FlightKind, a: u64, b: u64) {
        let live = self.sim.as_ref().map_or(0, Simulation::events);
        self.telemetry.record(FlightRecord {
            t: self.t,
            events: self.des_events + live,
            kind,
            a,
            b,
        });
    }

    /// Decision boundaries passed since `t = 0` (restored on resume).
    pub fn boundaries(&self) -> u64 {
        self.next_boundary as u64
    }

    /// Total downloading users under the active engine.
    pub fn population(&self) -> f64 {
        match self.regime {
            Regime::Fluid => self.model.total_downloaders(&self.fluid),
            Regime::Discrete => self
                .sim
                .as_ref()
                .map_or(0.0, |s| s.class_downloaders().iter().sum::<usize>() as f64),
        }
    }

    /// Advances to the next decision boundary, re-evaluates the policy,
    /// and performs a handoff if the regime changes. Returns `false`
    /// once the horizon is reached.
    ///
    /// # Errors
    /// Propagates DES segment errors.
    pub fn step_boundary(&mut self) -> Result<bool, HybridError> {
        if self.next_boundary >= self.boundaries.len() {
            return Ok(false);
        }
        let target = self.boundaries[self.next_boundary];
        match self.regime {
            Regime::Fluid => self.advance_fluid(target),
            Regime::Discrete => self.advance_discrete(target)?,
        }
        self.t = target;
        self.next_boundary += 1;
        if self.next_boundary < self.boundaries.len() {
            let pop = self.population();
            let decided = self.policy.decide(self.t, pop, self.regime);
            if decided != self.regime {
                self.switch_to(decided, pop)?;
            }
        }
        Ok(self.next_boundary < self.boundaries.len())
    }

    /// Finishes the run: folds any live segment's event count and
    /// normalizes the integrals into means.
    pub fn finish(mut self) -> HybridOutcome {
        if let Some(sim) = self.sim.take() {
            self.des_events += sim.events();
        }
        let window = self.cfg.program.horizon - self.cfg.program.warmup;
        HybridOutcome {
            class_means: self.integrals.iter().map(|v| v / window).collect(),
            handoffs: self.handoffs,
            des_events: self.des_events,
            fluid_steps: self.fluid_steps,
            final_t: self.t,
        }
    }

    /// Integrates the fluid state from `self.t` to `target`, trapezoid-
    /// accumulating per-class downloaders clipped to the stationary
    /// window.
    fn advance_fluid(&mut self, target: f64) {
        let (warmup, horizon) = (self.cfg.program.warmup, self.cfg.program.horizon);
        let k = self.model.k();
        let mut t = self.t;
        let mut d_prev = vec![0.0; k];
        let mut d_now = vec![0.0; k];
        self.model.class_downloaders(&self.fluid, &mut d_prev);
        while t < target - 1e-12 {
            let h = self.fluid_h.min(target - t);
            self.model.rk4_step(t, &mut self.fluid, h, &mut self.stages);
            self.fluid_steps += 1;
            self.model.class_downloaders(&self.fluid, &mut d_now);
            let lo = t.max(warmup);
            let hi = (t + h).min(horizon);
            if hi > lo {
                let w = 0.5 * (hi - lo);
                for c in 0..k {
                    self.integrals[c] += w * (d_prev[c] + d_now[c]);
                }
            }
            d_prev.copy_from_slice(&d_now);
            t += h;
        }
    }

    /// Steps the live DES segment until its clock reaches the boundary
    /// (building the segment first if none is live), accumulating
    /// pre-event per-class counts over each inter-event interval in
    /// global time.
    fn advance_discrete(&mut self, target: f64) -> Result<(), HybridError> {
        if self.sim.is_none() {
            self.build_segment(Vec::new())?;
        }
        let (warmup, horizon) = (self.cfg.program.warmup, self.cfg.program.horizon);
        let seg_t0 = self.seg_t0;
        let local_target = target - seg_t0;
        let sim = self.sim.as_mut().expect("segment built above");
        loop {
            let before = sim.sim_time();
            if before >= local_target - 1e-12 {
                break;
            }
            for (slot, &n) in self.scratch.iter_mut().zip(sim.class_downloaders()) {
                *slot = n as f64;
            }
            let more = sim.step()?;
            let after = sim.sim_time();
            let lo = (seg_t0 + before).max(warmup);
            let hi = (seg_t0 + after).min(horizon);
            if hi > lo {
                let w = hi - lo;
                for (acc, &n) in self.integrals.iter_mut().zip(self.scratch.iter()) {
                    *acc += w * n;
                }
            }
            if !more {
                break;
            }
        }
        Ok(())
    }

    /// Crosses the membrane at the current boundary.
    fn switch_to(&mut self, decided: Regime, pop: f64) -> Result<(), HybridError> {
        let started = Instant::now();
        match decided {
            Regime::Fluid => {
                let sim = self.sim.take().expect("discrete regime has a live segment");
                self.des_events += sim.events();
                self.fluid = self.model.fold(sim.peers());
            }
            Regime::Discrete => {
                let (peers, realized) =
                    self.model
                        .sample(&self.fluid, &mut self.rng_handoff, &self.gamma);
                self.fluid = realized;
                self.build_segment(peers)?;
            }
        }
        self.regime = decided;
        self.handoffs.push(HandoffRecord {
            t: self.t,
            to: decided,
            pop,
        });
        let name = match decided {
            Regime::Fluid => "handoff:des->fluid",
            Regime::Discrete => "handoff:fluid->des",
        };
        self.emit_span(name, started.elapsed().as_micros() as u64);
        // Direction code 0 = DES->fluid, 1 = fluid->DES; payload `b`
        // carries the population at the membrane, rounded.
        let direction = u64::from(decided == Regime::Discrete);
        self.emit_flight(FlightKind::Handoff, direction, pop.round() as u64);
        Ok(())
    }

    /// Builds a fresh DES segment starting at global `self.t`, seeded
    /// deterministically, with the driver's statistics windows disabled
    /// (the driver accounts in global time itself).
    fn build_segment(&mut self, inject: Vec<btfluid_des::peer::Peer>) -> Result<(), HybridError> {
        let seed = segment_seed(self.cfg.seed, self.segment);
        self.segment += 1;
        let mut sim = Simulation::new(segment_config(&self.cfg, self.t, seed)?)?;
        if !inject.is_empty() {
            sim.inject_peers(inject)?;
        }
        sim.attach_hook(Box::new(ShiftedHook::new(self.cfg.program.hook(), self.t)))?;
        self.seg_t0 = self.t;
        self.seg_seed = seed;
        self.sim = Some(sim);
        Ok(())
    }
}

/// The DES configuration of a discrete segment anchored at global `t0`:
/// the program's config with a shifted, statistics-free window.
pub(crate) fn segment_config(
    cfg: &HybridConfig,
    t0: f64,
    seed: u64,
) -> Result<DesConfig, NumError> {
    let mut des = cfg.program.des_config(cfg.scheme, seed)?;
    des.horizon = cfg.program.horizon - t0;
    des.warmup = 0.0;
    des.drain = 0.0;
    des.record_every = None;
    des.aggregate = cfg.aggregate;
    des.validate()?;
    Ok(des)
}

/// The sorted decision grid: every `record_every` plus forced-window
/// edges, in `(0, horizon]`.
pub(crate) fn decision_boundaries(program: &ScenarioProgram, policy: &SwitchPolicy) -> Vec<f64> {
    let mut b = Vec::new();
    let mut t = program.record_every;
    while t < program.horizon - 1e-9 {
        b.push(t);
        t += program.record_every;
    }
    for &(s, e) in policy.forced() {
        for v in [s, e] {
            if v > 1e-9 && v < program.horizon - 1e-9 {
                b.push(v);
            }
        }
    }
    b.push(program.horizon);
    b.sort_by(f64::total_cmp);
    b.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    b
}

/// The flash_crowd scenario amplified to `peak` visitors per time unit
/// (base load scales proportionally) on a time axis compressed by
/// `time_scale` — the workload the hybrid oracle check and the
/// `hybrid_scale` bench share. With `peak = 2048`, `time_scale = 0.005`
/// the spike hits the acceptance-criteria scale in a horizon of 20 time
/// units.
pub fn amplified_flash_crowd(peak: f64, time_scale: f64) -> ScenarioProgram {
    let base = registry::by_name("flash_crowd").expect("flash_crowd is a registry scenario");
    let factor = peak / base.lambda0.upper_bound();
    let mut program = base.time_scaled(time_scale);
    program.lambda0 = program.lambda0.rate_scaled(factor);
    program.name = format!("flash_crowd@{peak}");
    program
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(scheme: SchemeKind, aggregate: bool) -> HybridConfig {
        HybridConfig {
            program: amplified_flash_crowd(512.0, 0.005),
            scheme,
            seed: 41,
            tol: 0.1,
            aggregate,
        }
    }

    #[test]
    fn boundaries_are_sorted_unique_and_end_at_horizon() {
        let cfg = small_cfg(SchemeKind::Mtcd, false);
        let policy = SwitchPolicy::from_program(&cfg.program, cfg.tol).unwrap();
        let b = decision_boundaries(&cfg.program, &policy);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert!((b.last().unwrap() - cfg.program.horizon).abs() < 1e-9);
        assert!(b[0] > 0.0);
    }

    #[test]
    fn shifted_hook_replays_global_schedules() {
        let program = amplified_flash_crowd(512.0, 1.0);
        let hook = program.hook();
        let shifted = ShiftedHook::new(program.hook(), 1700.0);
        // Global t = 1700 is inside the flash-crowd spike window.
        assert_eq!(shifted.arrival_rate(0.0), hook.arrival_rate(1700.0));
        assert_eq!(shifted.arrival_rate(600.0), hook.arrival_rate(2300.0));
        assert_eq!(
            shifted.next_boundary(0.0).map(|b| b + 1700.0),
            hook.next_boundary(1700.0)
        );
        // Fingerprints of different offsets differ.
        assert_ne!(
            shifted.hook_state(),
            ShiftedHook::new(program.hook(), 0.0).hook_state()
        );
    }

    #[test]
    fn segment_seeds_are_deterministic_and_distinct() {
        assert_eq!(segment_seed(41, 3), segment_seed(41, 3));
        assert_ne!(segment_seed(41, 3), segment_seed(41, 4));
        assert_ne!(segment_seed(41, 3), segment_seed(42, 3));
    }

    #[test]
    fn hybrid_run_switches_to_fluid_under_load() {
        let out = HybridRunner::run(small_cfg(SchemeKind::Mtcd, true)).unwrap();
        assert!(
            out.handoffs.iter().any(|h| h.to == Regime::Fluid),
            "λ₀ = 512 must push the population over the threshold: {:?}",
            out.handoffs
        );
        assert!(out.total_mean() > 100.0, "means: {:?}", out.class_means);
        assert!(out.fluid_steps > 0 && out.des_events > 0);
        assert!((out.final_t - small_cfg(SchemeKind::Mtcd, true).program.horizon).abs() < 1e-9);
    }

    /// Class means, fluid steps, DES events and switches of `small_cfg`
    /// runs, pinned so fluid drift shows in the unit tests.
    #[test]
    fn small_runs_are_pinned_bit_for_bit() {
        let pins: [(SchemeKind, bool, [u64; 10]); 2] = [
            (
                SchemeKind::Mtcd,
                true,
                [
                    0x4056_4e9f_3cd3_fb9f,
                    0x4070_ceec_a75d_c7c8,
                    0x407d_dff1_79af_1243,
                    0x4081_cc6d_03b7_f4cb,
                    0x407c_5676_3492_ef47,
                    0x4070_1731_19fb_7f73,
                    0x4058_01ad_4fca_1bf7,
                    0x4036_cd2f_dda9_2c79,
                    0x4011_7968_7fac_8231,
                    0x3fcc_dec8_10b1_1055,
                ],
            ),
            (
                SchemeKind::Mtsd,
                false,
                [
                    0x4056_3981_f72e_efe9,
                    0x4070_6ed0_ce65_07f6,
                    0x407c_e755_dca0_14c4,
                    0x4081_1f9d_e31a_b50e,
                    0x407b_2df5_5fa2_8808,
                    0x406e_c93f_1436_227e,
                    0x4056_f13b_dc15_b22f,
                    0x4035_cb66_8f92_dfae,
                    0x4010_9693_e569_8cb1,
                    0x3fcb_8d76_e956_7022,
                ],
            ),
        ];
        for (scheme, aggregate, means) in pins {
            let out = HybridRunner::run(small_cfg(scheme, aggregate)).unwrap();
            let bits: Vec<u64> = out.class_means.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, means, "{scheme:?} class means");
            assert_eq!(out.fluid_steps, 608, "{scheme:?} fluid steps");
            assert_eq!(out.des_events, 133, "{scheme:?} DES events");
            assert_eq!(out.handoffs.len(), 1, "{scheme:?} switches");
        }
    }

    #[test]
    fn same_seed_same_outcome_across_modes_of_invocation() {
        let a = HybridRunner::run(small_cfg(SchemeKind::Mtsd, false)).unwrap();
        let mut runner = HybridRunner::new(small_cfg(SchemeKind::Mtsd, false)).unwrap();
        while runner.step_boundary().unwrap() {}
        let b = runner.finish();
        assert_eq!(a, b);
    }
}
