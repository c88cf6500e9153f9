//! The chaos executor: run one plan's baseline and faulted legs and
//! evaluate the invariant catalog.
//!
//! The catalog (each entry names the violation it reports):
//!
//! * `no-panic` — every leg runs behind `catch_unwind`; any panic is a
//!   violation (the workspace promise is typed errors end to end).
//! * `run-completes` — checkpoint/trace I/O faults are survivable by
//!   design (retry, then degrade), so a chaos leg returning an error is a
//!   violation. The expect-fail canary lands here: silently corrupted
//!   checkpoint bytes make the resume's checksum fail with a typed
//!   snapshot error, and the run cannot complete.
//! * `resume-bit-identity` — the faulted kill/resume run must produce
//!   results bit-identical to the uninterrupted, fault-free baseline
//!   (checkpointing and tracing are pure observers).
//! * `conservation` — completed + censored + aborted users never exceed
//!   arrivals.
//! * `monotone-clock` — record arrivals (DES) and handoff times (hybrid)
//!   are nondecreasing, and the final time is finite and nonnegative.

use crate::plan::{ChaosMode, ChaosPlan};
use btfluid_des::{ScenarioHook, SimOutcome};
use btfluid_harness::{
    committed_checkpoint, des_engine, drive, CheckpointPlan, Engine, HarnessError, RetryPolicy,
    RunLimits,
};
use btfluid_hybrid::{HybridConfig, HybridOutcome, HybridRunner};
use btfluid_telemetry::faults;
use btfluid_telemetry::{
    diag, shared_recorder, Level, SharedRecorder, TelemetryProbe, TraceSink,
    DEFAULT_FLIGHT_CAPACITY,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One invariant violation: which catalog entry, and what was seen.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Catalog entry name (`no-panic`, `run-completes`, …).
    pub invariant: String,
    /// Human-readable evidence.
    pub detail: String,
}

impl Violation {
    fn new(invariant: &str, detail: impl Into<String>) -> Self {
        Self {
            invariant: invariant.into(),
            detail: detail.into(),
        }
    }
}

/// The executor's verdict on one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The plan's index.
    pub index: u64,
    /// Violations found (empty = the plan was survived correctly).
    pub violations: Vec<Violation>,
    /// Flight-recorder dump (a btfluid-trace run) of the chaos legs'
    /// last happenings — populated only on a non-clean verdict.
    pub flight: Option<String>,
}

impl Verdict {
    /// True when the plan was survived with no violations.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs `plan` in `work_dir`. The plan's fault script is armed only on
/// the calling thread, so distinct plans may run concurrently; scratch
/// files are keyed by plan index, so plans sharing an index (a plan and
/// its shrink candidates) need distinct dirs to run side by side.
pub fn run_plan(plan: &ChaosPlan, work_dir: &Path) -> Verdict {
    let mut violations = Vec::new();
    let flight = shared_recorder(DEFAULT_FLIGHT_CAPACITY);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match plan.mode {
        ChaosMode::Des => run_des(plan, work_dir, &flight),
        ChaosMode::Hybrid => run_hybrid(plan, work_dir, &flight),
    }));
    match outcome {
        Ok(mut v) => violations.append(&mut v),
        Err(payload) => {
            let msg = btfluid_harness::panic_message(payload.as_ref());
            violations.push(Violation::new("no-panic", format!("panicked: {msg}")));
        }
    }
    let flight = {
        let ring = flight.lock().unwrap_or_else(|e| e.into_inner());
        (!violations.is_empty() && !ring.is_empty()).then(|| ring.dump_string(None))
    };
    Verdict {
        index: plan.index,
        violations,
        flight,
    }
}

/// One plan's legs on one engine: an unobserved, fault-free `baseline`
/// run, then, under the armed fault script, a leg checkpointing every
/// `every` steps until the plan's kill point and a resume from whatever
/// the faulted checkpointing committed — possibly nothing, so the resume
/// restarts from scratch and must still land on the identical result.
/// `build` makes a chaos-leg engine, fresh or restored from checkpoint
/// bytes, with its observers attached. Returns both outcomes.
fn kill_and_resume<E: Engine>(
    plan: &ChaosPlan,
    flight: &SharedRecorder,
    checkpoint: PathBuf,
    every: u64,
    baseline: Result<E, HarnessError>,
    build: impl Fn(Option<&[u8]>) -> Result<E, HarnessError>,
) -> Result<(E::Outcome, E::Outcome), Violation> {
    let failed =
        |leg: &str, e: HarnessError| Violation::new("run-completes", format!("{leg}: {e:?}"));
    let unlimited = RunLimits::default();
    let baseline = baseline
        .and_then(|engine| drive(engine, None, &unlimited, None, None))
        .map_err(|e| failed("baseline", e))?
        .outcome
        .expect("an unlimited run completes");
    let _ = std::fs::remove_file(&checkpoint);
    let cplan = CheckpointPlan {
        path: Some(checkpoint),
        every_events: every,
        retry: RetryPolicy::immediate(),
    };
    let legs = || {
        let kill = RunLimits {
            max_events: plan.kill_at,
            ..Default::default()
        };
        let first = build(None)
            .and_then(|engine| drive(engine, Some(&cplan), &kill, None, None))
            .map_err(|e| failed("first leg", e))?;
        if let Some(outcome) = first.outcome {
            return Ok(outcome);
        }
        let resumed = committed_checkpoint(cplan.path.as_deref(), true)
            .and_then(|bytes| build(bytes.as_deref()))
            .and_then(|engine| drive(engine, Some(&cplan), &unlimited, None, None))
            .map_err(|e| failed("resume leg", e))?;
        resumed
            .outcome
            .ok_or_else(|| Violation::new("run-completes", "resume leg ended without completing"))
    };
    let chaos = faults::scoped(plan.script.clone(), Some(Arc::clone(flight)), legs)?;
    Ok((baseline, chaos))
}

fn run_des(plan: &ChaosPlan, work_dir: &Path, flight: &SharedRecorder) -> Vec<Violation> {
    let program = plan.program();
    let cfg = match program.des_config(plan.scheme, plan.seed) {
        Ok(mut cfg) => {
            cfg.checked = true; // fold the engine's own audits in
            cfg
        }
        Err(e) => return vec![Violation::new("run-completes", format!("config: {e}"))],
    };
    let hook = || -> Box<dyn ScenarioHook> { Box::new(program.hook()) };
    let trace_path = work_dir.join(format!("plan-{}.trace.jsonl", plan.index));
    let sink = plan.trace.then(|| {
        let _ = std::fs::remove_file(&trace_path);
        TraceSink::create(&trace_path).map(TraceSink::shared)
    });
    let sink = match sink.transpose() {
        Ok(sink) => sink,
        Err(e) => return vec![Violation::new("run-completes", format!("trace: {e}"))],
    };
    let checkpoint = work_dir.join(format!("plan-{}.snap", plan.index));
    let probe = TelemetryProbe {
        sink: sink.clone().map(|s| (s, 10.0)),
        flight: Some(Arc::clone(flight)),
    };
    let baseline = des_engine(cfg.clone(), Some(hook()), None);
    let outcomes = kill_and_resume(plan, flight, checkpoint, 128, baseline, |bytes| {
        let mut sim = des_engine(cfg.clone(), Some(hook()), bytes)?;
        sim.attach_probe(Box::new(probe.clone()));
        Ok(sim)
    });
    // A trace-site fault surfaces here as a typed, tolerated error: the
    // sink is an observer, so it must not affect the verdict.
    if let Some(sink) = sink {
        if let Err(e) = sink.lock().unwrap_or_else(|e| e.into_inner()).finish() {
            diag!(Level::Info, "chaos: trace sink failed (tolerated): {e}");
        }
    }
    match outcomes {
        Ok(((baseline, _), (chaos, _))) => check_des(&baseline, &chaos),
        Err(violation) => vec![violation],
    }
}

fn check_des(baseline: &SimOutcome, chaos: &SimOutcome) -> Vec<Violation> {
    let mut violations = Vec::new();
    if baseline.events != chaos.events
        || baseline.records != chaos.records
        || baseline.aborts != chaos.aborts
        || baseline.censored != chaos.censored
        || baseline.arrivals != chaos.arrivals
    {
        violations.push(Violation::new(
            "resume-bit-identity",
            format!(
                "baseline (events {}, records {}, aborts {}) != chaos \
                 (events {}, records {}, aborts {})",
                baseline.events,
                baseline.records.len(),
                baseline.aborts.len(),
                chaos.events,
                chaos.records.len(),
                chaos.aborts.len()
            ),
        ));
    }
    let accounted = chaos.records.len() + chaos.censored + chaos.aborts.len();
    if accounted > chaos.arrivals {
        violations.push(Violation::new(
            "conservation",
            format!("{accounted} users accounted > {} arrivals", chaos.arrivals),
        ));
    }
    // Records are pushed at completion, so departures are the engine's
    // clock: nondecreasing, each at or after its own arrival, all finite.
    let sorted = chaos
        .records
        .windows(2)
        .all(|w| w[0].departure <= w[1].departure);
    let causal = chaos
        .records
        .iter()
        .all(|r| r.arrival.is_finite() && r.departure.is_finite() && r.arrival <= r.departure);
    if !sorted || !causal {
        violations.push(Violation::new(
            "monotone-clock",
            "record departures not finite/nondecreasing/causal",
        ));
    }
    violations
}

fn run_hybrid(plan: &ChaosPlan, work_dir: &Path, flight: &SharedRecorder) -> Vec<Violation> {
    let peak = 256.0 * (1 << (plan.seed % 3)) as f64; // 256 / 512 / 1024
    let cfg = HybridConfig {
        program: btfluid_hybrid::amplified_flash_crowd(peak, 0.005),
        scheme: plan.scheme,
        seed: plan.seed,
        tol: 0.1,
        aggregate: false,
    };
    let checkpoint = work_dir.join(format!("plan-{}.hsnap", plan.index));
    let baseline = HybridRunner::new(cfg.clone()).map_err(HarnessError::from);
    let outcomes = kill_and_resume(plan, flight, checkpoint, 8, baseline, |bytes| {
        let mut runner = match bytes {
            Some(bytes) => HybridRunner::resume(cfg.clone(), bytes)?,
            None => HybridRunner::new(cfg.clone())?,
        };
        runner.attach_probe(TelemetryProbe {
            flight: Some(Arc::clone(flight)),
            sink: None,
        });
        Ok(runner)
    });
    match outcomes {
        Ok((baseline, chaos)) => check_hybrid(&baseline, &chaos),
        Err(violation) => vec![violation],
    }
}

fn check_hybrid(baseline: &HybridOutcome, chaos: &HybridOutcome) -> Vec<Violation> {
    let mut violations = Vec::new();
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&baseline.class_means) != bits(&chaos.class_means)
        || baseline.final_t.to_bits() != chaos.final_t.to_bits()
        || baseline.handoffs.len() != chaos.handoffs.len()
    {
        violations.push(Violation::new(
            "resume-bit-identity",
            format!(
                "baseline (means {:?}, final_t {}, {} handoffs) != chaos \
                 (means {:?}, final_t {}, {} handoffs)",
                baseline.class_means,
                baseline.final_t,
                baseline.handoffs.len(),
                chaos.class_means,
                chaos.final_t,
                chaos.handoffs.len()
            ),
        ));
    }
    let sorted = chaos.handoffs.windows(2).all(|w| w[0].t <= w[1].t);
    if !sorted || !chaos.final_t.is_finite() || chaos.final_t < 0.0 {
        violations.push(Violation::new(
            "monotone-clock",
            "handoff times not nondecreasing or final_t not finite",
        ));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan;
    use btfluid_telemetry::{FaultScript, ScratchDir};

    #[test]
    fn clean_plans_pass_and_the_canary_is_caught() {
        let scratch = ScratchDir::new("chaos-exec").unwrap();
        let dir = &scratch;

        // A fault-free DES plan with kill/resume survives cleanly.
        let mut plans = plan::generate(11, 8);
        let des = plans
            .iter_mut()
            .find(|p| p.mode == ChaosMode::Des)
            .expect("generator emits DES plans");
        des.script.rules.clear();
        des.kill_at = Some(300);
        let verdict = run_plan(des, dir);
        assert!(verdict.clean(), "violations: {:?}", verdict.violations);

        // Permanent checkpoint ENOSPC + kill: degradation means the resume
        // leg restarts from scratch and still matches the baseline.
        des.script = FaultScript {
            rules: vec![btfluid_telemetry::FaultRule {
                site: btfluid_telemetry::FaultSite::CheckpointWrite,
                kind: btfluid_telemetry::FaultKind::Enospc,
                from_op: 0,
                count: plan::PERMANENT,
            }],
        };
        let verdict = run_plan(des, dir);
        assert!(verdict.clean(), "violations: {:?}", verdict.violations);

        // The canary (silent checkpoint corruption) must be caught as a
        // typed run-completes violation, never a panic.
        let verdict = run_plan(&plan::canary(11), dir);
        assert!(!verdict.clean(), "canary must be caught");
        assert!(verdict.violations.iter().all(|v| v.invariant != "no-panic"));
        assert!(verdict
            .violations
            .iter()
            .any(|v| v.invariant == "run-completes"));
        // Same plan, same verdict: the executor is deterministic.
        assert_eq!(verdict, run_plan(&plan::canary(11), dir));
    }
}
