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
use btfluid_des::SimOutcome;
use btfluid_harness::{drive, CheckpointPlan, RetryPolicy, RunEnd, RunLimits};
use btfluid_hybrid::{HybridConfig, HybridOutcome, HybridRunner};
use btfluid_telemetry::faults;
use btfluid_telemetry::{
    diag, shared_recorder, FanoutProbe, Level, RecorderProbe, SharedRecorder, SinkProbe, TraceSink,
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
    /// Flight-recorder dump (`flightrec v1` JSONL) of the chaos legs'
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

fn ckpt_plan(path: PathBuf) -> CheckpointPlan {
    CheckpointPlan {
        path: Some(path),
        every_events: 128,
        retry: RetryPolicy::immediate(),
    }
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
    let hook_factory = || -> Box<dyn btfluid_des::ScenarioHook> { Box::new(plan.program().hook()) };

    // Baseline: uninterrupted, fault-free, no checkpointing.
    let baseline = match drive(
        cfg.clone(),
        Some(&hook_factory),
        None,
        false,
        &RunLimits::default(),
        None,
        None,
        None,
    ) {
        Ok(report) => report.outcome.expect("unlimited drive completes"),
        Err(e) => return vec![Violation::new("run-completes", format!("baseline: {e:?}"))],
    };

    // Chaos legs: armed script, checkpointing on, kill then resume.
    let ckpt = work_dir.join(format!("plan-{}.snap", plan.index));
    let _ = std::fs::remove_file(&ckpt);
    let trace_path = work_dir.join(format!("plan-{}.trace.jsonl", plan.index));
    let sink = plan.trace.then(|| {
        let _ = std::fs::remove_file(&trace_path);
        TraceSink::create(&trace_path).map(TraceSink::shared)
    });
    let sink = match sink {
        Some(Ok(s)) => Some(s),
        Some(Err(e)) => return vec![Violation::new("run-completes", format!("trace: {e}"))],
        None => None,
    };

    let cplan = ckpt_plan(ckpt.clone());
    let armed = || -> Result<Option<SimOutcome>, Violation> {
        let first_probe: Box<dyn btfluid_des::Probe> = {
            let mut probes: Vec<Box<dyn btfluid_des::Probe>> =
                vec![Box::new(RecorderProbe::new(Arc::clone(flight)))];
            if let Some(s) = sink.clone() {
                probes.push(Box::new(SinkProbe::new(s, 10.0)));
            }
            Box::new(FanoutProbe::new(probes))
        };
        let first = drive(
            cfg.clone(),
            Some(&hook_factory),
            Some(&cplan),
            false,
            &RunLimits {
                max_events: plan.kill_at,
                ..Default::default()
            },
            None,
            None,
            Some(first_probe),
        )
        .map_err(|e| Violation::new("run-completes", format!("first leg: {e:?}")))?;
        if first.end == RunEnd::Completed {
            return Ok(first.outcome);
        }
        // Killed at the budget; tear down and resume from whatever the
        // faulted checkpointing left behind (possibly nothing — then the
        // resume leg restarts from scratch, which must still land on the
        // identical result).
        let resumed = drive(
            cfg.clone(),
            Some(&hook_factory),
            Some(&cplan),
            true,
            &RunLimits::default(),
            None,
            None,
            Some(Box::new(RecorderProbe::new(Arc::clone(flight)))),
        )
        .map_err(|e| Violation::new("run-completes", format!("resume leg: {e:?}")))?;
        Ok(resumed.outcome)
    };
    let chaos = match faults::scoped(plan.script.clone(), Some(Arc::clone(flight)), armed) {
        Ok(outcome) => outcome,
        Err(violation) => return vec![violation],
    };
    // A trace-site fault surfaces here as a typed, tolerated error: the
    // sink is an observer, so it must not affect the verdict.
    if let Some(sink) = sink {
        if let Err(e) = sink.lock().unwrap_or_else(|e| e.into_inner()).finish() {
            diag!(Level::Info, "chaos: trace sink failed (tolerated): {e}");
        }
    }
    let Some(chaos) = chaos else {
        return vec![Violation::new(
            "run-completes",
            "resume leg ended without completing",
        )];
    };
    check_des(&baseline, &chaos)
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
    let baseline = match HybridRunner::run(cfg.clone()) {
        Ok(outcome) => outcome,
        Err(e) => return vec![Violation::new("run-completes", format!("baseline: {e:?}"))],
    };

    let ckpt = work_dir.join(format!("plan-{}.hsnap", plan.index));
    let _ = std::fs::remove_file(&ckpt);
    let armed = || -> Result<HybridOutcome, String> {
        let mut runner = HybridRunner::new(cfg.clone()).map_err(|e| format!("new: {e:?}"))?;
        runner.attach_flight(Arc::clone(flight));
        let mut boundary = 0u64;
        let mut killed = false;
        loop {
            let more = runner
                .step_boundary()
                .map_err(|e| format!("boundary {boundary}: {e:?}"))?;
            boundary += 1;
            if !more {
                break;
            }
            if !killed && plan.kill_at == Some(boundary) {
                killed = true;
                // Checkpoint through the (faulted) atomic writer; on
                // persistent failure keep the live runner — degradation,
                // not death.
                let bytes = runner.snapshot();
                let mut wrote = false;
                for _ in 0..3 {
                    if btfluid_harness::atomic_write(&ckpt, &bytes).is_ok() {
                        wrote = true;
                        break;
                    }
                }
                if wrote {
                    drop(runner);
                    let on_disk =
                        std::fs::read(&ckpt).map_err(|e| format!("read checkpoint: {e}"))?;
                    runner = HybridRunner::resume(cfg.clone(), &on_disk)
                        .map_err(|e| format!("resume: {e:?}"))?;
                    runner.attach_flight(Arc::clone(flight));
                }
            }
        }
        Ok(runner.finish())
    };
    let chaos = match faults::scoped(plan.script.clone(), Some(Arc::clone(flight)), armed) {
        Ok(outcome) => outcome,
        Err(detail) => return vec![Violation::new("run-completes", detail)],
    };
    check_hybrid(&baseline, &chaos)
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
    use btfluid_telemetry::FaultScript;

    fn work() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("btfs-chaos-exec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn clean_plans_pass_and_the_canary_is_caught() {
        let dir = work();

        // A fault-free DES plan with kill/resume survives cleanly.
        let mut plans = plan::generate(11, 8);
        let des = plans
            .iter_mut()
            .find(|p| p.mode == ChaosMode::Des)
            .expect("generator emits DES plans");
        des.script.rules.clear();
        des.kill_at = Some(300);
        let verdict = run_plan(des, &dir);
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
        let verdict = run_plan(des, &dir);
        assert!(verdict.clean(), "violations: {:?}", verdict.violations);

        // The canary (silent checkpoint corruption) must be caught as a
        // typed run-completes violation, never a panic.
        let verdict = run_plan(&plan::canary(11), &dir);
        assert!(!verdict.clean(), "canary must be caught");
        assert!(verdict.violations.iter().all(|v| v.invariant != "no-panic"));
        assert!(verdict
            .violations
            .iter()
            .any(|v| v.invariant == "run-completes"));
        // Same plan, same verdict: the executor is deterministic.
        assert_eq!(verdict, run_plan(&plan::canary(11), &dir));
    }
}
