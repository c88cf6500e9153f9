//! Scenario determinism and DES-vs-fluid transient agreement.
//!
//! * Same seed + same program ⇒ bit-identical user-record and abort
//!   streams, across reruns and against the engine's forced-full-recompute
//!   test reference, for every scheme.
//! * The flash-crowd transient: the DES's time-averaged downloading users
//!   agree with the schedule-driven MTCD fluid model within the same
//!   relative tolerance the stationary validation harness uses.

use btfluid_des::{SchemeKind, SimOutcome, Simulation};
use btfluid_scenario::{
    des_avg_downloaders, fluid_avg_downloaders, registry, runner, RateMode, ScenarioProgram,
};

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Mtsd,
    SchemeKind::Mtcd,
    SchemeKind::Mfcd,
    SchemeKind::Cmfsd { rho: 0.5 },
];

/// DES-vs-fluid tolerance, matching `bench/validate.rs`.
const REL_TOL: f64 = 0.12;

/// The program run with every rate recomputed on every event.
fn full_recompute(program: &ScenarioProgram, scheme: SchemeKind, seed: u64) -> SimOutcome {
    let cfg = program.des_config(scheme, seed).expect("config");
    let mut sim = Simulation::with_hook(cfg, Box::new(program.hook())).expect("engine");
    sim.force_full_recompute_for_test();
    sim.run()
}

fn assert_identical(program_name: &str) {
    let program = registry::by_name(program_name)
        .expect("registry name")
        .time_scaled(0.25);
    for scheme in SCHEMES {
        let a = runner::run_one(&program, scheme, None, "a", 42, RateMode::Incremental)
            .expect("incremental run");
        let b = full_recompute(&program, scheme, 42);
        let c = runner::run_one(&program, scheme, None, "c", 42, RateMode::Incremental)
            .expect("repeat run");
        for (label, other) in [("full recompute", &b), ("repeat", &c.outcome)] {
            assert_eq!(
                a.outcome.arrivals,
                other.arrivals,
                "{program_name}/{}: arrival count differs vs {label}",
                scheme.name()
            );
            assert_eq!(
                a.outcome.records,
                other.records,
                "{program_name}/{}: user records differ vs {label}",
                scheme.name()
            );
            assert_eq!(
                a.outcome.aborts,
                other.aborts,
                "{program_name}/{}: abort records differ vs {label}",
                scheme.name()
            );
            assert_eq!(
                a.outcome.events,
                other.events,
                "{program_name}/{}: event count differs vs {label}",
                scheme.name()
            );
        }
        // A different seed must actually change the realization.
        let d = runner::run_one(&program, scheme, None, "d", 43, RateMode::Incremental)
            .expect("reseeded run");
        assert_ne!(
            a.outcome.records,
            d.outcome.records,
            "{program_name}/{}: seed 43 reproduced seed 42 exactly",
            scheme.name()
        );
    }
}

#[test]
fn flash_crowd_is_deterministic_across_modes() {
    assert_identical("flash_crowd");
}

#[test]
fn seed_outage_is_deterministic_across_modes() {
    assert_identical("seed_outage");
}

#[test]
fn abort_storm_is_deterministic_across_modes() {
    // Aborts draw from the scenario stream and mutate the slab; the
    // full-recompute/incremental equivalence must survive them too.
    assert_identical("abort_storm");
}

#[test]
fn flash_crowd_des_matches_fluid_transient() {
    let mut program = registry::flash_crowd();
    // The fluid model has no publisher; under MTSD/MTCD an origin seed
    // pins a full μ per subtorrent, which is a ~20% service boost at this
    // swarm scale. Zero it on both sides for an apples-to-apples check.
    program.origin_seeds = 0;
    let run = runner::run_one(
        &program,
        SchemeKind::Mtcd,
        None,
        "MTCD",
        1,
        RateMode::Incremental,
    )
    .expect("DES run");
    let des = des_avg_downloaders(&run.outcome);
    let fluid = fluid_avg_downloaders(&program, 0.5).expect("fluid transient");
    let rel = (des - fluid).abs() / fluid.max(1e-9);
    assert!(
        rel < REL_TOL,
        "flash-crowd transient: DES {des:.2} vs fluid {fluid:.2} downloading users (rel {rel:.3})"
    );
}
