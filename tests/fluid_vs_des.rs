//! Experiment X3 — the peer-level simulator agrees with the fluid models'
//! steady-state predictions (a validation the paper never ran).
//!
//! Tolerances are statistical: the DES runs a finite swarm, so per-file
//! means carry sampling noise; replications + a generous band keep the
//! tests deterministic without being vacuous.

use btfluid::core::{evaluate_scheme, FluidParams, Scheme};
use btfluid::des::{run_replications, DesConfig, OrderPolicy, SchemeKind};
use btfluid::workload::CorrelationModel;

fn des_cfg(scheme: SchemeKind, p: f64) -> DesConfig {
    DesConfig {
        params: FluidParams::paper(),
        model: CorrelationModel::new(10, p, 0.25).unwrap(),
        scheme,
        horizon: 4000.0,
        warmup: 1000.0,
        drain: 4000.0,
        seed: 0,
        adapt: None,
        origin_seeds: 0,
        warm_start: false,
        order_policy: OrderPolicy::default(),
        record_every: None,
        aggregate: false,
        checked: false,
    }
}

fn check(scheme: SchemeKind, fluid_scheme: Scheme, p: f64, tol: f64) {
    let fluid = evaluate_scheme(
        FluidParams::paper(),
        &CorrelationModel::new(10, p, 0.25).unwrap(),
        fluid_scheme,
    )
    .unwrap();
    let summary = run_replications(&des_cfg(scheme, p), 3, 777).unwrap();
    let sim = summary.online_per_file.mean();
    let rel = ((sim - fluid.avg_online_per_file) / fluid.avg_online_per_file).abs();
    assert!(
        rel < tol,
        "{}: sim {sim:.2} vs fluid {:.2} ({:.1}% off)",
        scheme.name(),
        fluid.avg_online_per_file,
        rel * 100.0
    );
    let sim_dl = summary.download_per_file.mean();
    let rel_dl = ((sim_dl - fluid.avg_download_per_file) / fluid.avg_download_per_file).abs();
    assert!(
        rel_dl < tol,
        "{} download: sim {sim_dl:.2} vs fluid {:.2}",
        scheme.name(),
        fluid.avg_download_per_file
    );
}

#[test]
fn mtsd_agrees_with_fluid() {
    check(SchemeKind::Mtsd, Scheme::Mtsd, 0.5, 0.10);
}

#[test]
fn mtcd_agrees_with_fluid() {
    check(SchemeKind::Mtcd, Scheme::Mtcd, 0.5, 0.10);
}

#[test]
fn mfcd_agrees_with_fluid() {
    // MFCD's "virtual peers depart as a whole" gives slightly more seed
    // capacity than the model assumes; the paper argues the difference is
    // negligible — allow a slightly wider band and expect the sim to be
    // FASTER, not slower.
    let p = 0.5;
    let fluid = evaluate_scheme(
        FluidParams::paper(),
        &CorrelationModel::new(10, p, 0.25).unwrap(),
        Scheme::Mfcd,
    )
    .unwrap();
    let summary = run_replications(&des_cfg(SchemeKind::Mfcd, p), 3, 999).unwrap();
    let sim = summary.online_per_file.mean();
    let rel = (sim - fluid.avg_online_per_file) / fluid.avg_online_per_file;
    assert!(
        rel.abs() < 0.15,
        "MFCD: sim {sim:.2} vs fluid {:.2}",
        fluid.avg_online_per_file
    );
    assert!(
        rel < 0.02,
        "lingering virtual seeds should make the sim at least as fast as the fluid model \
         (rel = {rel:.3})"
    );
}

fn cmfsd_cfg(p: f64, rho: f64) -> DesConfig {
    DesConfig {
        params: FluidParams::paper(),
        model: CorrelationModel::new(10, p, 0.1).unwrap(),
        scheme: SchemeKind::Cmfsd { rho },
        horizon: 6_000.0,
        warmup: 1_000.0,
        drain: 8_000.0,
        seed: 0,
        adapt: None,
        origin_seeds: 1,
        warm_start: true,
        order_policy: OrderPolicy::default(),
        record_every: None,
        aggregate: false,
        checked: false,
    }
}

#[test]
fn cmfsd_agrees_with_fluid_for_positive_rho() {
    // Warm-started from the fluid fixed point; for every ρ ≥ 0.1 the
    // peer-level system tracks the fluid prediction within a few percent
    // (measured: −0.2 % at ρ = 0.1 down to −3.6 % at ρ = 1.0; the origin
    // seed and finite-size effects make the sim slightly fast).
    let p = 0.7;
    for rho in [0.1, 0.5, 1.0] {
        let fluid = evaluate_scheme(
            FluidParams::paper(),
            &CorrelationModel::new(10, p, 0.1).unwrap(),
            Scheme::Cmfsd { rho },
        )
        .unwrap();
        let summary = run_replications(&cmfsd_cfg(p, rho), 2, 777).unwrap();
        let counted: usize = summary.outcomes.iter().map(|o| o.records.len()).sum();
        assert!(
            summary.censored * 20 < counted,
            "ρ = {rho}: censored {} of {counted} — not stationary",
            summary.censored
        );
        let sim = summary.online_per_file.mean();
        let rel = ((sim - fluid.avg_online_per_file) / fluid.avg_online_per_file).abs();
        assert!(
            rel < 0.08,
            "CMFSD(ρ={rho}): sim {sim:.2} vs fluid {:.2} ({:.1}% off)",
            fluid.avg_online_per_file,
            rel * 100.0
        );
    }
}

#[test]
fn cmfsd_rho_zero_is_a_singular_point() {
    // Finding X3b: the fluid model's optimum ρ = 0 is not realizable by the
    // literal scheme. With no TFT floor (ημρ = 0) a downloader's progress
    // depends entirely on someone *holding* its current file wanting to
    // serve it; finite swarms then convoy on their scarcest file and the
    // realized times blow far past the fluid prediction — even when the
    // simulation starts AT the fluid equilibrium with an origin seed
    // present. Any ρ ≥ 0.1 restores agreement (previous test).
    let p = 0.7;
    let fluid = evaluate_scheme(
        FluidParams::paper(),
        &CorrelationModel::new(10, p, 0.1).unwrap(),
        Scheme::Cmfsd { rho: 0.0 },
    )
    .unwrap();
    let mut cfg = cmfsd_cfg(p, 0.0);
    cfg.horizon = 4_000.0;
    cfg.drain = 6_000.0;
    let outcome = btfluid::des::Simulation::new(cfg).unwrap().run();
    let sim = outcome.avg_online_per_file().unwrap();
    assert!(
        sim > 2.0 * fluid.avg_online_per_file,
        "expected the ρ = 0 pathology (≥2× the fluid prediction); \
         sim {sim:.1} vs fluid {:.1}",
        fluid.avg_online_per_file
    );
}

#[test]
fn simulated_scheme_ordering_matches_fluid() {
    // The qualitative result survives the stochastic system: at high
    // correlation, collaborative CMFSD (small positive ρ) < MTSD < MFCD in
    // online time per file. (ρ = 0.1 rather than the fluid optimum ρ = 0 —
    // see `cmfsd_rho_zero_is_a_singular_point`.)
    let p = 0.9;
    let collab = run_replications(&cmfsd_cfg(p, 0.1), 2, 5)
        .unwrap()
        .online_per_file
        .mean();
    let seq = run_replications(&des_cfg(SchemeKind::Mtsd, p), 2, 5)
        .unwrap()
        .online_per_file
        .mean();
    let conc = run_replications(&des_cfg(SchemeKind::Mfcd, p), 2, 5)
        .unwrap()
        .online_per_file
        .mean();
    assert!(
        collab < seq && seq < conc,
        "ordering violated: CMFSD(0) {collab:.1}, MTSD {seq:.1}, MFCD {conc:.1}"
    );
}

#[test]
fn population_counts_match_littles_law() {
    // Little's law at the population level: time-averaged downloading
    // users ≈ (entering rate) × (mean download span). MTSD's download span
    // excludes seeding gaps, so compare download pairs (= active users for
    // a sequential scheme).
    let cfg = des_cfg(SchemeKind::Mtsd, 0.5);
    let outcome = btfluid::des::Simulation::new(cfg).unwrap().run();
    let model = CorrelationModel::new(10, 0.5, 0.25).unwrap();
    let mut expected = 0.0;
    for i in 1..=10u32 {
        // class-i users: λᵢ entering, each downloading for i·T = i·60.
        expected += model.class_rate(i) * i as f64 * 60.0;
    }
    let measured: f64 = (1..=10)
        .map(|i| outcome.population.avg_download_pairs(i))
        .sum();
    let rel = ((measured - expected) / expected).abs();
    assert!(
        rel < 0.12,
        "downloading pairs: measured {measured:.1} vs Little {expected:.1}"
    );
}
