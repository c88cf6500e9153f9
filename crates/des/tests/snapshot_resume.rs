//! The checkpoint contract: run → snapshot → (serialize → deserialize) →
//! restore → run is bit-identical to an uninterrupted run.
//!
//! A property test cuts a run at a random event index, round-trips the
//! snapshot through the on-disk byte format, resumes, and compares every
//! field of the two outcomes by bits — across all four schemes plus
//! CMFSD+Adapt, incremental and under the forced-full-recompute test
//! reference, with trajectory recording on,
//! plus two aggregate-scheduling variants (snapshot format v3): the
//! bit-identity contract holds *within* each scheduling mode.

use btfluid_core::adapt::AdaptConfig;
use btfluid_des::config::{AdaptSetup, DesConfig, OrderPolicy, SchemeKind};
use btfluid_des::engine::Simulation;
use btfluid_des::observer::SimOutcome;
use btfluid_des::snapshot::{Snapshot, SnapshotError, SNAPSHOT_VERSION};
use btfluid_des::DesError;
use btfluid_telemetry::ScratchDir;
use proptest::prelude::*;

/// The seven engine configurations the contract must hold for (5 and 6
/// run under aggregate scheduling, which has no per-peer rates to force).
fn variant_cfg(variant: usize, seed: u64) -> DesConfig {
    let scheme = match variant {
        0 | 5 => SchemeKind::Mtsd,
        1 => SchemeKind::Mtcd,
        2 => SchemeKind::Mfcd,
        _ => SchemeKind::Cmfsd { rho: 0.3 },
    };
    let mut cfg = DesConfig::paper_small(scheme, 0.5, seed).unwrap();
    cfg.horizon = 600.0;
    cfg.warmup = 150.0;
    cfg.drain = 600.0;
    cfg.record_every = Some(25.0);
    cfg.aggregate = variant >= 5;
    if variant == 4 {
        cfg.adapt = Some(AdaptSetup {
            controller: AdaptConfig::default_for_mu(cfg.params.mu()),
            epoch: 40.0,
            cheater_fraction: 0.2,
        });
        cfg.order_policy = OrderPolicy::RarestFirst;
        cfg.origin_seeds = 1;
    }
    cfg
}

/// Asserts two outcomes are identical down to every float's bit pattern.
fn assert_bit_identical(a: &SimOutcome, b: &SimOutcome) {
    assert_eq!(a.events, b.events);
    assert_eq!(a.arrivals, b.arrivals);
    assert_eq!(a.censored, b.censored);
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.id, rb.id);
        assert_eq!(ra.class, rb.class);
        assert_eq!(ra.arrival.to_bits(), rb.arrival.to_bits());
        assert_eq!(ra.departure.to_bits(), rb.departure.to_bits());
        assert_eq!(ra.download_span.to_bits(), rb.download_span.to_bits());
        assert_eq!(ra.online_fluid.to_bits(), rb.online_fluid.to_bits());
        assert_eq!(ra.final_rho.to_bits(), rb.final_rho.to_bits());
        assert_eq!(ra.cheater, rb.cheater);
    }
    assert_eq!(a.aborts.len(), b.aborts.len());
    for (aa, ab) in a.aborts.iter().zip(&b.aborts) {
        assert_eq!(aa.id, ab.id);
        assert_eq!(aa.time.to_bits(), ab.time.to_bits());
        assert_eq!(aa.done, ab.done);
    }
    for (ca, cb) in a.classes.iter().zip(&b.classes) {
        assert_eq!(ca.download.raw_parts(), cb.download.raw_parts());
        assert_eq!(ca.online.raw_parts(), cb.online.raw_parts());
        assert_eq!(ca.rho.raw_parts(), cb.rho.raw_parts());
    }
    assert_eq!(a.population.window.to_bits(), b.population.window.to_bits());
    for (xa, xb) in a
        .population
        .downloader_peer_integral
        .iter()
        .zip(&b.population.downloader_peer_integral)
    {
        assert_eq!(xa.to_bits(), xb.to_bits());
    }
    for (xa, xb) in a
        .population
        .seed_pair_integral
        .iter()
        .zip(&b.population.seed_pair_integral)
    {
        assert_eq!(xa.to_bits(), xb.to_bits());
    }
    match (&a.trajectory, &b.trajectory) {
        (Some(ta), Some(tb)) => {
            assert_eq!(ta.times().len(), tb.times().len());
            for (xa, xb) in ta.times().iter().zip(tb.times()) {
                assert_eq!(xa.to_bits(), xb.to_bits());
            }
            for (xa, xb) in ta.raw_values().iter().zip(tb.raw_values()) {
                assert_eq!(xa.to_bits(), xb.to_bits());
            }
        }
        (None, None) => {}
        _ => panic!("one run recorded a trajectory, the other did not"),
    }
}

/// Switches a per-peer engine to the forced-full-recompute reference when
/// `exact` is set (the flag is not snapshotted, so restores re-apply it).
fn with_mode(mut sim: Simulation, exact: bool) -> Simulation {
    if exact {
        sim.force_full_recompute_for_test();
    }
    sim
}

/// Runs to completion straight through.
fn run_straight(cfg: DesConfig, exact: bool) -> SimOutcome {
    with_mode(Simulation::new(cfg).unwrap(), exact).run()
}

/// Runs `cut` steps, snapshots, round-trips the snapshot through bytes,
/// restores into a fresh engine, and finishes the run there.
fn run_interrupted(cfg: DesConfig, cut: usize, exact: bool) -> SimOutcome {
    let mut sim = with_mode(Simulation::new(cfg.clone()).unwrap(), exact);
    let mut alive = true;
    for _ in 0..cut {
        if !sim.step().unwrap() {
            alive = false;
            break;
        }
    }
    let snap = sim.snapshot();
    drop(sim);
    let snap = Snapshot::from_bytes(&snap.to_bytes()).expect("codec roundtrip");
    let mut resumed = with_mode(Simulation::restore(cfg, &snap).expect("restore"), exact);
    if alive {
        while resumed.step().unwrap() {}
    }
    resumed.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn resume_is_bit_identical(
        variant in 0usize..7,
        exact in 0usize..2,
        cut in 0usize..700,
        seed in 1u64..500,
    ) {
        let cfg = variant_cfg(variant, seed);
        let exact = exact == 1 && !cfg.aggregate;
        let straight = run_straight(cfg.clone(), exact);
        let resumed = run_interrupted(cfg, cut, exact);
        assert_bit_identical(&straight, &resumed);
    }
}

#[test]
fn resume_from_disk_file() {
    let cfg = variant_cfg(3, 11);
    let straight = run_straight(cfg.clone(), false);

    let mut sim = Simulation::new(cfg.clone()).unwrap();
    for _ in 0..200 {
        assert!(sim.step().unwrap());
    }
    let dir = ScratchDir::new("resume-test").unwrap();
    let path = dir.join("mid.snap");
    sim.snapshot().write_file(&path).unwrap();
    drop(sim);

    let snap = Snapshot::read_file(&path).unwrap();
    let mut resumed = Simulation::restore(cfg, &snap).unwrap();
    while resumed.step().unwrap() {}
    assert_bit_identical(&straight, &resumed.finish());
}

#[test]
fn snapshot_before_first_step_resumes() {
    let cfg = variant_cfg(0, 5);
    let straight = run_straight(cfg.clone(), false);
    let resumed = run_interrupted(cfg, 0, false);
    assert_bit_identical(&straight, &resumed);
}

#[test]
fn checked_mode_resume_holds() {
    let mut cfg = variant_cfg(4, 3);
    cfg.checked = true;
    cfg.horizon = 300.0;
    cfg.warmup = 100.0;
    cfg.drain = 300.0;
    let straight = Simulation::new(cfg.clone()).unwrap().try_run().unwrap();
    let resumed = run_interrupted(cfg, 150, false);
    assert_bit_identical(&straight, &resumed);
}

#[test]
fn aggregate_snapshot_resumes_from_disk() {
    // The aggregate analog of a SIGKILL mid-run: snapshot to disk, drop the
    // engine, read the file back cold, and finish in a fresh process image.
    let cfg = variant_cfg(6, 17);
    let straight = run_straight(cfg.clone(), false);

    let mut sim = Simulation::new(cfg.clone()).unwrap();
    for _ in 0..250 {
        assert!(sim.step().unwrap());
    }
    let bytes = sim.snapshot().to_bytes();
    let dir = ScratchDir::new("agg-resume").unwrap();
    let path = dir.join("mid.snap");
    Snapshot::write_file_bytes(&path, &bytes).unwrap();
    drop(sim);

    let snap = Snapshot::read_file(&path).unwrap();
    let mut resumed = Simulation::restore(cfg, &snap).unwrap();
    while resumed.step().unwrap() {}
    assert_bit_identical(&straight, &resumed.finish());
}

#[test]
fn both_rate_modes_encode_one_version() {
    // Variant 0 schedules per peer, variant 6 in aggregate.
    for variant in [0, 6] {
        let mut sim = Simulation::new(variant_cfg(variant, 17)).unwrap();
        for _ in 0..50 {
            assert!(sim.step().unwrap());
        }
        let bytes = sim.snapshot().to_bytes();
        assert_eq!(
            u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            SNAPSHOT_VERSION,
            "variant {variant}"
        );
    }
}

#[test]
fn aggregate_checked_mode_resume_holds() {
    let mut cfg = variant_cfg(5, 23);
    cfg.checked = true;
    cfg.horizon = 300.0;
    cfg.warmup = 100.0;
    cfg.drain = 300.0;
    let straight = Simulation::new(cfg.clone()).unwrap().try_run().unwrap();
    let resumed = run_interrupted(cfg, 150, false);
    assert_bit_identical(&straight, &resumed);
}

#[test]
fn aggregate_snapshot_refused_for_per_peer_config() {
    let cfg = variant_cfg(5, 29);
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    for _ in 0..50 {
        assert!(sim.step().unwrap());
    }
    let snap = sim.snapshot();
    let mut other = cfg;
    other.aggregate = false;
    // The aggregate flag folds into the config digest, so offering the
    // per-peer twin of the config must be refused outright.
    match Simulation::restore(other, &snap).map(|_| ()) {
        Err(DesError::Snapshot(SnapshotError::ConfigMismatch)) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn mismatched_config_is_refused() {
    let cfg = variant_cfg(0, 9);
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    for _ in 0..50 {
        assert!(sim.step().unwrap());
    }
    let snap = sim.snapshot();
    let mut other = cfg;
    other.seed += 1;
    match Simulation::restore(other, &snap).map(|_| ()) {
        Err(DesError::Snapshot(SnapshotError::ConfigMismatch)) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn hookless_snapshot_refuses_a_hook() {
    struct Flat;
    impl btfluid_des::ScenarioHook for Flat {
        fn arrival_rate(&self, _t: f64) -> f64 {
            0.25
        }
        fn arrival_rate_bound(&self) -> f64 {
            0.25
        }
        fn correlation(&self, _t: f64) -> f64 {
            0.5
        }
        fn abort_rate(&self, _t: f64) -> f64 {
            0.0
        }
        fn abort_rate_bound(&self) -> f64 {
            0.0
        }
        fn origin_seeds(&self, _t: f64) -> usize {
            0
        }
        fn tracker_up(&self, _t: f64) -> bool {
            true
        }
        fn next_boundary(&self, _t: f64) -> Option<f64> {
            None
        }
        fn hook_state(&self) -> Vec<u8> {
            b"flat".to_vec()
        }
    }
    let cfg = variant_cfg(0, 9);
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    for _ in 0..50 {
        assert!(sim.step().unwrap());
    }
    let snap = sim.snapshot();
    match Simulation::restore_with_hook(cfg, &snap, Box::new(Flat)).map(|_| ()) {
        Err(DesError::Snapshot(SnapshotError::HookMismatch)) => {}
        other => panic!("expected HookMismatch, got {other:?}"),
    }
}
