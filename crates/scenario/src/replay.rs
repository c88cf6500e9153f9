//! Trace replay: feeding a recorded [`ArrivalTrace`] into the DES and
//! into the scheduled fluid model, from the same file.
//!
//! Two adapters share one trace:
//!
//! * [`TraceHook`] implements [`ScenarioHook`] in *replay* mode
//!   ([`ScenarioHook::replays`]): the engine consumes the recorded
//!   arrivals by index instead of thinning a stochastic process, so the
//!   arrival stream is exactly the trace — in both rate modes and the
//!   full-recompute test reference, since none of them touches the
//!   arrival path. The hook's state bytes encode the full trace, so
//!   snapshots fingerprint it and a resumed run refuses a different
//!   trace.
//! * [`trace_program`] bins the trace's empirical entering rate λ(t)
//!   into a [`Schedule::Piecewise`] and pairs it with the fitted
//!   correlation `p̂` ([`fit_model`]), yielding a [`ScenarioProgram`]
//!   whose [`crate::fluid::ScheduledMtcd`] ODE is driven by the *same*
//!   workload — the trace-driven DES-vs-fluid comparison used by the
//!   `trace-fit-closure` oracle check.

use crate::program::ScenarioProgram;
use crate::schedule::Schedule;
use btfluid_des::ScenarioHook;
use btfluid_numkit::NumError;
use btfluid_workload::requests::FileId;
use btfluid_workload::{fit_model, ArrivalTrace, TRACE_VERSION};

/// [`ScenarioHook`] that replays a recorded trace verbatim (module docs).
#[derive(Debug, Clone)]
pub struct TraceHook {
    times: Vec<f64>,
    files: Vec<Vec<FileId>>,
    horizon: f64,
    k: u32,
    /// Empirical entering rate, reported as the (constant) arrival rate
    /// for attachment validation and observability.
    rate: f64,
    /// Mean per-file selection probability, reported by
    /// [`ScenarioHook::correlation`] for observability only — replay
    /// never samples request sets.
    correlation: f64,
    origin_seeds: usize,
}

impl TraceHook {
    /// Wraps a trace for replay.
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] for an empty trace: the engine
    /// requires a finite positive arrival-rate bound, and an empty trace
    /// has no rate information.
    pub fn new(trace: &ArrivalTrace) -> Result<Self, NumError> {
        if trace.is_empty() {
            return Err(NumError::InvalidInput {
                what: "TraceHook::new",
                detail: "cannot replay an empty trace (no arrivals, no rate)".into(),
            });
        }
        let n = trace.len() as f64;
        Ok(Self {
            times: trace.arrivals().iter().map(|a| a.time).collect(),
            files: trace.arrivals().iter().map(|a| a.files.clone()).collect(),
            horizon: trace.horizon(),
            k: trace.k(),
            rate: trace.empirical_rate(),
            correlation: (trace.total_files() as f64 / (n * trace.k() as f64)).clamp(0.0, 1.0),
            origin_seeds: 0,
        })
    }

    /// Sets the origin-seed count the hook reports (default 0, matching
    /// the fluid model's publisher-free convention).
    pub fn with_origin_seeds(mut self, origin_seeds: usize) -> Self {
        self.origin_seeds = origin_seeds;
        self
    }

    /// Number of recorded arrivals.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trace is empty (never true for a constructed hook).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

impl ScenarioHook for TraceHook {
    fn arrival_rate(&self, _t: f64) -> f64 {
        self.rate
    }

    fn arrival_rate_bound(&self) -> f64 {
        self.rate
    }

    fn correlation(&self, _t: f64) -> f64 {
        self.correlation
    }

    fn abort_rate(&self, _t: f64) -> f64 {
        0.0
    }

    fn abort_rate_bound(&self) -> f64 {
        0.0
    }

    fn origin_seeds(&self, _t: f64) -> usize {
        self.origin_seeds
    }

    fn tracker_up(&self, _t: f64) -> bool {
        true
    }

    fn next_boundary(&self, _t: f64) -> Option<f64> {
        None
    }

    fn replays(&self) -> bool {
        true
    }

    fn replay_arrival(&self, idx: u64) -> Option<(f64, Vec<FileId>)> {
        let i = usize::try_from(idx).ok()?;
        Some((*self.times.get(i)?, self.files.get(i)?.clone()))
    }

    /// Stable byte encoding of the full trace (plus the origin-seed
    /// knob), so the snapshot fingerprint pins the replayed workload: a
    /// restore against a different trace is refused.
    fn hook_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.times.len() * 16);
        out.extend_from_slice(b"TRHK");
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.horizon.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.origin_seeds as u64).to_le_bytes());
        out.extend_from_slice(&(self.times.len() as u64).to_le_bytes());
        for (t, files) in self.times.iter().zip(&self.files) {
            out.extend_from_slice(&t.to_bits().to_le_bytes());
            out.extend_from_slice(&(files.len() as u32).to_le_bytes());
            for &f in files {
                out.extend_from_slice(&f.to_le_bytes());
            }
        }
        out
    }
}

/// Compiles a trace into a [`ScenarioProgram`] whose workload schedules
/// are the trace's own empirical moments: λ₀(t) is the entering rate
/// binned into `bins` equal slices of the horizon (converted back to a
/// *visitor* rate through the fitted entering fraction), and the
/// correlation is the fitted `p̂` (falling back to the mean per-file
/// selection frequency when `p` is unidentifiable, e.g. an all-class-1
/// trace). Driving [`crate::fluid::ScheduledMtcd`] with this program
/// replays the same workload through the fluid path that [`TraceHook`]
/// replays through the DES.
///
/// # Errors
/// Returns [`NumError::InvalidInput`] for an empty trace, `bins = 0`, or
/// a `warmup` outside `[0, horizon)`; propagates program validation
/// failures.
pub fn trace_program(
    trace: &ArrivalTrace,
    bins: usize,
    warmup: f64,
) -> Result<ScenarioProgram, NumError> {
    const WHAT: &str = "trace_program";
    if trace.is_empty() {
        return Err(NumError::InvalidInput {
            what: WHAT,
            detail: "cannot compile an empty trace (no rate information)".into(),
        });
    }
    if bins == 0 {
        return Err(NumError::InvalidInput {
            what: WHAT,
            detail: "bins must be >= 1".into(),
        });
    }
    let k = trace.k();
    let horizon = trace.horizon();
    // Fitted correlation, with the mean-selection-frequency fallback for
    // traces where p is unidentifiable (all arrivals class 1).
    let p_hat = match fit_model(trace) {
        Ok(m) => m.p(),
        Err(_) => (trace.total_files() as f64 / (trace.len() as f64 * k as f64))
            .clamp(1.0 / (10.0 * k as f64), 1.0),
    };
    // Entering fraction 1 − (1−p̂)^K, in log space for small p̂.
    let frac = -f64::exp_m1(k as f64 * f64::ln_1p(-p_hat));
    // Bin the empirical entering rate over [0, horizon).
    let width = horizon / bins as f64;
    let mut counts = vec![0usize; bins];
    for a in trace.arrivals() {
        let b = ((a.time / width) as usize).min(bins - 1);
        counts[b] += 1;
    }
    let lambda_bin: Vec<f64> = counts.iter().map(|&c| c as f64 / width / frac).collect();
    let lambda0 = if bins == 1 {
        Schedule::Constant(lambda_bin[0])
    } else {
        Schedule::Piecewise {
            initial: lambda_bin[0],
            steps: lambda_bin
                .iter()
                .enumerate()
                .skip(1)
                .map(|(j, &v)| (j as f64 * width, v))
                .collect(),
        }
    };
    let mut program = ScenarioProgram::stationary(
        "trace-replay",
        1.0, // placeholder, overwritten below
        p_hat.clamp(0.0, 1.0),
        k,
        horizon,
        warmup,
        horizon, // generous drain, as the scenario registry uses
    );
    program.description = format!(
        "trace replay: {} arrivals over [0, {horizon}), fitted p̂ = {p_hat:.4}",
        trace.len()
    );
    program.lambda0 = lambda0;
    program.record_every = (horizon / 80.0).max(1e-6);
    program.validate()?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_numkit::rng::Xoshiro256StarStar;
    use btfluid_workload::CorrelationModel;

    fn trace(seed: u64, horizon: f64) -> ArrivalTrace {
        let m = CorrelationModel::new(10, 0.4, 0.25).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        ArrivalTrace::generate(&m, horizon, &mut rng).unwrap()
    }

    #[test]
    fn hook_replays_the_trace_in_order() {
        let t = trace(1, 500.0);
        let hook = TraceHook::new(&t).unwrap();
        assert_eq!(hook.len(), t.len());
        for (i, a) in t.arrivals().iter().enumerate() {
            let (time, files) = hook.replay_arrival(i as u64).unwrap();
            assert_eq!(time, a.time);
            assert_eq!(files, a.files);
        }
        assert!(hook.replay_arrival(t.len() as u64).is_none());
        assert!(hook.replays());
        assert!(hook.tracker_up(0.0));
        assert!(hook.arrival_rate_bound() > 0.0);
    }

    #[test]
    fn empty_trace_is_rejected() {
        let empty = ArrivalTrace::from_parts(vec![], 10.0, 5).unwrap();
        assert!(TraceHook::new(&empty).is_err());
        assert!(trace_program(&empty, 4, 1.0).is_err());
    }

    #[test]
    fn hook_state_fingerprints_the_trace() {
        let a = TraceHook::new(&trace(1, 500.0)).unwrap();
        let b = TraceHook::new(&trace(2, 500.0)).unwrap();
        assert_eq!(
            a.hook_state(),
            TraceHook::new(&trace(1, 500.0)).unwrap().hook_state()
        );
        assert_ne!(a.hook_state(), b.hook_state());
        assert_ne!(a.hook_state(), a.clone().with_origin_seeds(3).hook_state());
    }

    #[test]
    fn trace_program_matches_empirical_moments() {
        let t = trace(3, 20_000.0);
        let program = trace_program(&t, 8, 800.0).unwrap();
        program.validate().unwrap();
        assert_eq!(program.k, 10);
        assert_eq!(program.horizon, t.horizon());
        // The mean entering rate implied by the program equals the
        // trace's empirical rate (the binning is exact in aggregate).
        let p_hat = program.correlation.value(0.0);
        let frac = -f64::exp_m1(10.0 * f64::ln_1p(-p_hat));
        let mean_entering = program.lambda0.integral(0.0, t.horizon()) / t.horizon() * frac;
        assert!(
            (mean_entering - t.empirical_rate()).abs() < 1e-9,
            "entering {mean_entering} vs empirical {}",
            t.empirical_rate()
        );
    }

    #[test]
    fn trace_program_handles_single_bin_and_bad_geometry() {
        let t = trace(4, 1000.0);
        assert!(trace_program(&t, 1, 0.0).is_ok());
        assert!(trace_program(&t, 0, 0.0).is_err());
        assert!(trace_program(&t, 4, 2000.0).is_err()); // warmup >= horizon
    }
}
