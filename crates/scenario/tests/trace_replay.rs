//! Trace replay determinism (DESIGN.md §18): a recorded trace fed
//! through [`TraceHook`] must drive the DES identically — against the
//! forced-full-recompute reference (bit-identical), across reruns in every
//! mode including aggregate, and across a SIGKILL→resume cut at an
//! arbitrary event (the snapshot carries the replay cursor).

use btfluid_des::snapshot::{Snapshot, SnapshotError};
use btfluid_des::{DesConfig, DesError, SchemeKind, SimOutcome, Simulation};
use btfluid_numkit::rng::Xoshiro256StarStar;
use btfluid_scenario::{trace_program, RateMode, TraceHook};
use btfluid_workload::{ArrivalTrace, CorrelationModel};

fn trace(seed: u64, horizon: f64) -> ArrivalTrace {
    let m = CorrelationModel::new(10, 0.4, 0.25).unwrap();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    ArrivalTrace::generate(&m, horizon, &mut rng).unwrap()
}

/// An engine mode under test: a [`RateMode`], or the incremental engine
/// switched to its forced-full-recompute test reference.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Rate(RateMode),
    FullRecompute,
}

const MODES: [Mode; 3] = [
    Mode::Rate(RateMode::Incremental),
    Mode::FullRecompute,
    Mode::Rate(RateMode::Aggregate),
];

impl Mode {
    fn apply(self, cfg: &mut DesConfig) {
        if let Mode::Rate(mode) = self {
            mode.apply(cfg);
        }
    }

    fn prepare(self, mut sim: Simulation) -> Simulation {
        if self == Mode::FullRecompute {
            sim.force_full_recompute_for_test();
        }
        sim
    }
}

fn replay(trace: &ArrivalTrace, scheme: SchemeKind, seed: u64, mode: Mode) -> SimOutcome {
    let program = trace_program(trace, 8, 100.0).unwrap();
    let mut cfg = program.des_config(scheme, seed).unwrap();
    mode.apply(&mut cfg);
    mode.prepare(Simulation::with_hook(cfg, Box::new(TraceHook::new(trace).unwrap())).unwrap())
        .run()
}

const INCREMENTAL: Mode = Mode::Rate(RateMode::Incremental);

fn assert_same_streams(a: &SimOutcome, b: &SimOutcome, label: &str) {
    assert_eq!(a.events, b.events, "{label}: event count differs");
    assert_eq!(a.arrivals, b.arrivals, "{label}: arrival count differs");
    assert_eq!(a.records, b.records, "{label}: user records differ");
    assert_eq!(a.aborts, b.aborts, "{label}: abort records differ");
}

#[test]
fn replay_consumes_every_in_horizon_arrival() {
    let t = trace(1, 600.0);
    let out = replay(&t, SchemeKind::Mtcd, 7, INCREMENTAL);
    assert_eq!(
        out.arrivals,
        t.len(),
        "replay must admit exactly the recorded arrivals"
    );
}

#[test]
fn incremental_and_full_recompute_replay_are_bit_identical() {
    let t = trace(2, 600.0);
    for scheme in [
        SchemeKind::Mtsd,
        SchemeKind::Mtcd,
        SchemeKind::Mfcd,
        SchemeKind::Cmfsd { rho: 0.5 },
    ] {
        let a = replay(&t, scheme, 42, INCREMENTAL);
        let b = replay(&t, scheme, 42, Mode::FullRecompute);
        assert_same_streams(&a, &b, &format!("incr-vs-full/{}", scheme.name()));
    }
}

#[test]
fn every_mode_is_deterministic_across_reruns() {
    let t = trace(3, 600.0);
    for mode in MODES {
        let a = replay(&t, SchemeKind::Mtcd, 9, mode);
        let b = replay(&t, SchemeKind::Mtcd, 9, mode);
        assert_same_streams(&a, &b, &format!("rerun/{mode:?}"));
        assert!(a.arrivals > 0, "{mode:?}: replay admitted nobody");
    }
}

#[test]
fn different_seeds_same_arrival_stream() {
    // Replay pins the arrival stream to the trace: the service RNG still
    // varies with the seed, but the admitted arrivals cannot.
    let t = trace(4, 600.0);
    let a = replay(&t, SchemeKind::Mtcd, 1, INCREMENTAL);
    let b = replay(&t, SchemeKind::Mtcd, 2, INCREMENTAL);
    assert_eq!(a.arrivals, b.arrivals);
}

#[test]
fn mid_replay_snapshot_resumes_bit_identical() {
    // SIGKILL→resume mid-replay: the cursor rides in the snapshot, so the
    // resumed run replays the exact tail of the trace.
    let t = trace(5, 600.0);
    let program = trace_program(&t, 8, 100.0).unwrap();
    for mode in MODES {
        let mut cfg = program.des_config(SchemeKind::Mtcd, 21).unwrap();
        mode.apply(&mut cfg);
        let hooked = || {
            mode.prepare(
                Simulation::with_hook(cfg.clone(), Box::new(TraceHook::new(&t).unwrap())).unwrap(),
            )
        };
        let straight = hooked().run();
        for cut in [0usize, 137, 2500] {
            let mut sim = hooked();
            let mut alive = true;
            for _ in 0..cut {
                if !sim.step().unwrap() {
                    alive = false;
                    break;
                }
            }
            let snap = Snapshot::from_bytes(&sim.snapshot().to_bytes()).expect("codec roundtrip");
            drop(sim);
            let mut resumed = mode.prepare(
                Simulation::restore_with_hook(
                    cfg.clone(),
                    &snap,
                    Box::new(TraceHook::new(&t).unwrap()),
                )
                .expect("restore"),
            );
            if alive {
                while resumed.step().unwrap() {}
            }
            let out = resumed.finish();
            assert_same_streams(&straight, &out, &format!("{mode:?}/cut={cut}"));
        }
    }
}

#[test]
fn restore_refuses_a_different_trace() {
    let t = trace(6, 600.0);
    let program = trace_program(&t, 8, 100.0).unwrap();
    let cfg = program.des_config(SchemeKind::Mtcd, 3).unwrap();
    let mut sim =
        Simulation::with_hook(cfg.clone(), Box::new(TraceHook::new(&t).unwrap())).unwrap();
    for _ in 0..200 {
        assert!(sim.step().unwrap());
    }
    let snap = sim.snapshot();
    let other = trace(7, 600.0);
    match Simulation::restore_with_hook(cfg, &snap, Box::new(TraceHook::new(&other).unwrap()))
        .map(|_| ())
    {
        Err(DesError::Snapshot(SnapshotError::HookMismatch)) => {}
        other => panic!("expected HookMismatch, got {other:?}"),
    }
}
