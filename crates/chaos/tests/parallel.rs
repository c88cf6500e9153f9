//! Concurrent execution is invisible to the verdicts: each plan arms its
//! fault script on its own thread, so plans run on a worker pool give the
//! same verdicts (flight dumps included) and the same shrunk repros as
//! plans run one after another.

use btfluid_chaos::{canary, run_plan, shrink, ChaosMode, ChaosPlan, Verdict};
use btfluid_des::SchemeKind;
use btfluid_harness::pool;
use btfluid_telemetry::{FaultKind, FaultRule, FaultScript, FaultSite, ScratchDir};
use std::path::Path;

fn work(tag: &str) -> ScratchDir {
    ScratchDir::new(&format!("chaos-par-{tag}")).unwrap()
}

fn rule(site: FaultSite, kind: FaultKind, from_op: u64, count: u64) -> FaultRule {
    FaultRule {
        site,
        kind,
        from_op,
        count,
    }
}

fn plan(index: u64, mode: ChaosMode, rules: Vec<FaultRule>, kill_at: u64) -> ChaosPlan {
    ChaosPlan {
        index,
        seed: 4 * index, // λ₀ = 1, the cheapest stationary program
        mode,
        scheme: SchemeKind::Mtcd,
        seed_outage: None,
        tracker_blackout: None,
        script: FaultScript { rules },
        kill_at: Some(kill_at),
        trace: false,
    }
}

/// Faulted DES and hybrid plans plus the canary (index 0, so the others
/// start at 1: plans running side by side need distinct scratch files).
fn plans() -> Vec<ChaosPlan> {
    let mut traced = plan(
        1,
        ChaosMode::Des,
        vec![
            rule(FaultSite::CheckpointWrite, FaultKind::Eio, 1, 2),
            rule(FaultSite::TraceWrite, FaultKind::ShortWrite, 2, 1),
        ],
        300,
    );
    traced.trace = true;
    vec![
        canary(2006),
        traced,
        plan(
            2,
            ChaosMode::Des,
            vec![rule(
                FaultSite::CheckpointRename,
                FaultKind::RenameFail,
                0,
                u64::MAX,
            )],
            200,
        ),
        plan(
            3,
            ChaosMode::Hybrid,
            vec![rule(FaultSite::CheckpointWrite, FaultKind::Enospc, 0, 1)],
            2,
        ),
    ]
}

#[test]
fn pool_verdicts_equal_serial_verdicts() {
    let plans = plans();
    let dir = work("verdicts");
    let serial: Vec<Verdict> = plans.iter().map(|p| run_plan(p, &dir)).collect();
    let parallel = pool(2, plans.iter().collect(), |p| run_plan(p, &dir));
    assert_eq!(serial, parallel);
    let canary = &serial[0];
    assert!(!canary.clean(), "canary must be caught");
    assert!(
        canary.flight.is_some(),
        "a caught plan carries its flight dump"
    );
    assert!(serial[1..].iter().all(Verdict::clean), "{serial:?}");
}

#[test]
fn canary_shrinks_to_the_same_repro_on_two_threads_at_once() {
    let shrink_in = |dir: &Path| {
        // A small budget keeps the debug build quick; the CLI's budget
        // only runs the same deterministic loop longer.
        let (small, evals) = shrink(&canary(2006), |cand| !run_plan(cand, dir).clean(), 4);
        let verdict = run_plan(&small, dir);
        (small, evals, verdict)
    };
    let dirs = [work("shrink-a"), work("shrink-b")];
    let [a, b]: [_; 2] = pool(2, dirs.iter().collect(), |dir| shrink_in(dir))
        .try_into()
        .unwrap();
    assert_eq!(a, b);
    let (small, evals, verdict) = a;
    assert_eq!(evals, 4);
    assert!(small.script.rules[0].count < canary(2006).script.rules[0].count);
    assert!(!verdict.clean() && verdict.flight.is_some());
}
