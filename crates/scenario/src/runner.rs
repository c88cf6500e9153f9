//! Running a scenario program against the DES schemes and bucketing the
//! outcome into per-phase timelines.

use crate::program::ScenarioProgram;
use btfluid_core::adapt::AdaptConfig;
use btfluid_des::{AdaptSetup, ClassStats, Probe, SchemeKind, SimOutcome, Simulation, UserRecord};
use btfluid_numkit::NumError;

/// Per-phase aggregation of one scenario run: users are bucketed by
/// arrival time, aborts by the time the abort fired.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Phase name from the program.
    pub name: String,
    /// Phase start (inclusive).
    pub start: f64,
    /// Phase end (exclusive).
    pub end: f64,
    /// Per-class statistics over users who *arrived* inside the phase and
    /// completed (index 0 ↔ class 1).
    pub classes: Vec<ClassStats>,
    /// Aborts that fired inside the phase.
    pub aborted: usize,
}

impl PhaseStats {
    /// Users counted across all classes.
    pub fn completed(&self) -> u64 {
        self.classes.iter().map(ClassStats::count).sum()
    }

    /// Mean online time per file over the phase's completed users, or
    /// `None` when nobody completed.
    pub fn online_per_file(&self) -> Option<f64> {
        let mut online = 0.0;
        let mut files = 0.0;
        for (idx, c) in self.classes.iter().enumerate() {
            online += c.online.mean() * c.count() as f64;
            files += (idx + 1) as f64 * c.count() as f64;
        }
        (files > 0.0).then(|| online / files)
    }
}

/// One scheme's run of a scenario program.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Display label (`MTCD`, `CMFSD+Adapt`, …).
    pub label: String,
    /// The scheme simulated.
    pub scheme: SchemeKind,
    /// The full simulation outcome (trajectory included).
    pub outcome: SimOutcome,
    /// Per-phase timeline in program order.
    pub phases: Vec<PhaseStats>,
}

/// Buckets an outcome into the program's reporting phases — the same
/// aggregation [`run_one`] applies, exposed for callers that drive the
/// engine themselves (e.g. the crash-safe checkpoint driver).
pub fn phase_stats(program: &ScenarioProgram, outcome: &SimOutcome) -> Vec<PhaseStats> {
    bucket_phases(program, outcome)
}

fn bucket_phases(program: &ScenarioProgram, outcome: &SimOutcome) -> Vec<PhaseStats> {
    program
        .phases
        .iter()
        .map(|ph| {
            let mut classes = vec![ClassStats::default(); program.k as usize];
            for r in &outcome.records {
                if (ph.start..ph.end).contains(&r.arrival) {
                    push_record(&mut classes[r.class - 1], r);
                }
            }
            let aborted = outcome
                .aborts
                .iter()
                .filter(|a| (ph.start..ph.end).contains(&a.time))
                .count();
            PhaseStats {
                name: ph.name.clone(),
                start: ph.start,
                end: ph.end,
                classes,
                aborted,
            }
        })
        .collect()
}

fn push_record(stats: &mut ClassStats, r: &UserRecord) {
    stats.download.push(r.download_span);
    stats.online.push(r.online_fluid);
    stats.rho.push(r.final_rho);
}

/// Which rate-scheduling engine a scenario run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RateMode {
    /// Incremental dirty-tracking refresh — the production default.
    #[default]
    Incremental,
    /// Class-aggregated completion scheduling: one exponential completion
    /// event per (file, class, band) group, flat per-event cost.
    /// Distribution-equivalent to the per-peer mode, not bit-identical;
    /// incompatible with Adapt (which needs per-peer progress accounting).
    Aggregate,
}

impl RateMode {
    /// Applies the mode to an engine configuration.
    pub fn apply(self, cfg: &mut btfluid_des::DesConfig) {
        cfg.aggregate = self == RateMode::Aggregate;
    }
}

/// Runs one scheme (optionally with Adapt) against the program.
///
/// # Errors
/// Propagates configuration validation errors.
pub fn run_one(
    program: &ScenarioProgram,
    scheme: SchemeKind,
    adapt: Option<AdaptSetup>,
    label: &str,
    seed: u64,
    mode: RateMode,
) -> Result<ScenarioRun, NumError> {
    run_one_probed(program, scheme, adapt, label, seed, mode, None)
}

/// [`run_one`] with a telemetry probe attached to the engine. Probes only
/// observe, so the outcome is bit-identical to the probe-free run.
///
/// # Errors
/// Propagates configuration validation errors.
#[allow(clippy::too_many_arguments)]
pub fn run_one_probed(
    program: &ScenarioProgram,
    scheme: SchemeKind,
    adapt: Option<AdaptSetup>,
    label: &str,
    seed: u64,
    mode: RateMode,
    probe: Option<Box<dyn Probe>>,
) -> Result<ScenarioRun, NumError> {
    program.validate()?;
    let mut cfg = program.des_config(scheme, seed)?;
    cfg.adapt = adapt;
    mode.apply(&mut cfg);
    cfg.validate()?;
    let mut sim = Simulation::with_hook(cfg, Box::new(program.hook()))?;
    if let Some(probe) = probe {
        sim.attach_probe(probe);
    }
    let outcome = sim.run();
    let phases = bucket_phases(program, &outcome);
    Ok(ScenarioRun {
        label: label.into(),
        scheme,
        outcome,
        phases,
    })
}

/// The scheme line-up every scenario is run against: the paper's four
/// schemes plus CMFSD with the Adapt layer attached.
pub fn scheme_lineup(program: &ScenarioProgram) -> Vec<(SchemeKind, Option<AdaptSetup>, String)> {
    let cmfsd = SchemeKind::Cmfsd { rho: 0.5 };
    let adapt = AdaptSetup {
        controller: AdaptConfig::default_for_mu(program.params.mu()),
        epoch: 20.0,
        cheater_fraction: 0.0,
    };
    vec![
        (SchemeKind::Mtsd, None, "MTSD".into()),
        (SchemeKind::Mtcd, None, "MTCD".into()),
        (SchemeKind::Mfcd, None, "MFCD".into()),
        (cmfsd, None, cmfsd.name()),
        (cmfsd, Some(adapt), "CMFSD+Adapt".into()),
    ]
}

/// Runs the full scheme line-up against the program with a shared seed.
///
/// # Errors
/// Propagates configuration validation errors from any run.
pub fn run_all(
    program: &ScenarioProgram,
    seed: u64,
    mode: RateMode,
) -> Result<Vec<ScenarioRun>, NumError> {
    run_all_probed(program, seed, mode, &mut |_| None)
}

/// [`run_all`] with a per-scheme telemetry probe: `make_probe` is called
/// with each run's label and may return a probe for it (e.g. one
/// [`btfluid_des::TelemetryProbe`] per scheme sharing a trace sink).
///
/// In [`RateMode::Aggregate`] the CMFSD+Adapt cell is omitted: Adapt
/// steers individual ρ from per-peer progress, which the aggregate engine
/// does not track (its config is rejected by validation). The shorter
/// line-up is visible in the returned runs rather than silently downgraded
/// to a different mode.
///
/// # Errors
/// Propagates configuration validation errors from any run.
pub fn run_all_probed(
    program: &ScenarioProgram,
    seed: u64,
    mode: RateMode,
    make_probe: &mut dyn FnMut(&str) -> Option<Box<dyn Probe>>,
) -> Result<Vec<ScenarioRun>, NumError> {
    scheme_lineup(program)
        .into_iter()
        .filter(|(_, adapt, _)| !(mode == RateMode::Aggregate && adapt.is_some()))
        .map(|(scheme, adapt, label)| {
            let probe = make_probe(&label);
            run_one_probed(program, scheme, adapt, &label, seed, mode, probe)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    /// A tiny flash crowd (quarter scale) runs end to end on every scheme
    /// and produces per-phase stats.
    #[test]
    fn smoke_flash_crowd_all_schemes() {
        let program = registry::flash_crowd().time_scaled(0.25);
        let runs = run_all(&program, 7, RateMode::Incremental).expect("runs");
        assert_eq!(runs.len(), 5);
        for run in &runs {
            assert_eq!(run.phases.len(), 3, "{}", run.label);
            assert!(run.outcome.arrivals > 0, "{}: no arrivals", run.label);
            let completed: u64 = run.phases.iter().map(PhaseStats::completed).sum();
            assert!(completed > 0, "{}: nobody completed", run.label);
            // The surge phase must see more arrivals per unit time than the
            // pre phase: count raw records bucketed by arrival.
            let per_rate = |ph: &PhaseStats| {
                run.outcome
                    .records
                    .iter()
                    .filter(|r| (ph.start..ph.end).contains(&r.arrival))
                    .count() as f64
                    / (ph.end - ph.start)
            };
            let pre = per_rate(&run.phases[0]);
            let surge = per_rate(&run.phases[1]);
            assert!(
                surge > pre,
                "{}: surge rate {surge} not above pre rate {pre}",
                run.label
            );
        }
    }

    /// Abort storm actually aborts peers, and all aborts land in the storm
    /// phase or later (the abort schedule is zero before it).
    #[test]
    fn abort_storm_produces_aborts() {
        let program = registry::abort_storm().time_scaled(0.25);
        let run = run_one(
            &program,
            SchemeKind::Mtcd,
            None,
            "MTCD",
            11,
            RateMode::Incremental,
        )
        .expect("run");
        assert!(
            !run.outcome.aborts.is_empty(),
            "storm injected no aborts at all"
        );
        let storm_start = program.faults.abort.boundaries()[0];
        for a in &run.outcome.aborts {
            assert!(a.time >= storm_start, "abort at {} before storm", a.time);
        }
    }

    /// Telemetry probes never perturb hooked runs: with a sampling probe
    /// attached the outcome is bit-identical to the bare run, through the
    /// runner's probed path and under the forced-full-recompute reference
    /// (the des-level proptest covers hookless runs).
    #[test]
    fn probe_never_perturbs_hooked_runs() {
        use btfluid_des::MemoryProbe;
        use std::sync::{Arc, Mutex};

        let program = registry::flash_crowd().time_scaled(0.25);
        let cfg = program.des_config(SchemeKind::Mtcd, 9).expect("config");
        // The engine built by hand, since the full recompute is not a
        // runner mode.
        let full_recompute_run = |probe: Option<Box<dyn Probe>>| {
            let mut sim = Simulation::with_hook(cfg.clone(), Box::new(program.hook()))
                .expect("hooked engine");
            sim.force_full_recompute_for_test();
            if let Some(probe) = probe {
                sim.attach_probe(probe);
            }
            sim.run()
        };
        for full_recompute in [false, true] {
            let shared = Arc::new(Mutex::new(MemoryProbe::new(5.0)));
            let probe: Box<dyn Probe> = Box::new(Arc::clone(&shared));
            let (bare, probed) = if full_recompute {
                (full_recompute_run(None), full_recompute_run(Some(probe)))
            } else {
                let mode = RateMode::Incremental;
                let bare = run_one(&program, SchemeKind::Mtcd, None, "MTCD", 9, mode);
                let probed = run_one_probed(
                    &program,
                    SchemeKind::Mtcd,
                    None,
                    "MTCD",
                    9,
                    mode,
                    Some(probe),
                );
                (bare.expect("bare").outcome, probed.expect("probed").outcome)
            };
            assert_eq!(bare.events, probed.events);
            assert_eq!(bare.arrivals, probed.arrivals);
            assert_eq!(bare.records.len(), probed.records.len());
            for (a, b) in bare.records.iter().zip(&probed.records) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.departure.to_bits(), b.departure.to_bits());
                assert_eq!(a.download_span.to_bits(), b.download_span.to_bits());
                assert_eq!(a.online_fluid.to_bits(), b.online_fluid.to_bits());
            }
            assert_eq!(bare.aborts.len(), probed.aborts.len());
            assert_eq!(
                bare.population.window.to_bits(),
                probed.population.window.to_bits()
            );
            let mem = shared.lock().unwrap();
            assert!(
                !mem.samples.is_empty(),
                "sampler never fired (full recompute: {full_recompute})"
            );
            assert!(mem.finished.is_some(), "on_finish not called");
        }
    }

    /// Phase online-per-file helper is consistent with the outcome.
    #[test]
    fn phase_metric_sanity() {
        let program = registry::diurnal().time_scaled(0.25);
        let run = run_one(
            &program,
            SchemeKind::Mtsd,
            None,
            "MTSD",
            3,
            RateMode::Incremental,
        )
        .expect("run");
        for ph in &run.phases {
            if ph.completed() > 0 {
                let v = ph.online_per_file().expect("metric");
                assert!(v.is_finite() && v > 0.0);
            }
        }
    }
}
