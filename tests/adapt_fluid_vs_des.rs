//! Experiment X4 cross-check: the mixed-population fluid model's analytic
//! Adapt equilibrium against the simulated Adapt controller.
//!
//! The fluid prediction (`btfluid::core::cmfsd_mixed::adapt_equilibrium`)
//! says where the obedient population's give/take imbalance Δ̄ re-enters
//! the controller's dead band; the DES actually runs the per-peer
//! controllers against cheaters. We check *qualitative* agreement: both say
//! "stay at 0" for honest swarms and both move ρ up under heavy cheating.

use btfluid::core::adapt::AdaptConfig;
use btfluid::core::cmfsd_mixed::adapt_equilibrium;
use btfluid::core::FluidParams;
use btfluid::des::{AdaptSetup, DesConfig, OrderPolicy, SchemeKind, Simulation};
use btfluid::numkit::stats::Welford;
use btfluid::workload::CorrelationModel;

fn controller() -> AdaptConfig {
    AdaptConfig::default_for_mu(0.02)
}

fn simulated_rho(cheater_fraction: f64, seed: u64) -> f64 {
    let cfg = DesConfig {
        params: FluidParams::paper(),
        model: CorrelationModel::new(10, 0.9, 0.25).unwrap(),
        scheme: SchemeKind::Cmfsd { rho: 0.0 },
        horizon: 4000.0,
        warmup: 1500.0,
        drain: 4000.0,
        seed,
        adapt: Some(AdaptSetup {
            controller: controller(),
            epoch: 20.0,
            cheater_fraction,
        }),
        origin_seeds: 1,
        warm_start: false,
        order_policy: OrderPolicy::Random,
        record_every: None,
        aggregate: false,
        checked: false,
    };
    let outcome = Simulation::new(cfg).unwrap().run();
    let mut rho = Welford::new();
    for r in &outcome.records {
        if !r.cheater && r.class >= 2 {
            rho.push(r.final_rho);
        }
    }
    assert!(rho.count() > 50, "need support, got {}", rho.count());
    rho.mean()
}

fn fluid_rho(cheater_fraction: f64) -> f64 {
    let all = CorrelationModel::new(10, 0.9, 0.25).unwrap().class_rates();
    let obedient: Vec<f64> = all.iter().map(|l| l * (1.0 - cheater_fraction)).collect();
    let cheaters: Vec<f64> = all.iter().map(|l| l * cheater_fraction).collect();
    adapt_equilibrium(FluidParams::paper(), obedient, cheaters, &controller()).unwrap()
}

#[test]
fn honest_swarm_agrees_on_full_collaboration() {
    assert_eq!(fluid_rho(0.0), 0.0);
    let sim = simulated_rho(0.0, 21);
    assert!(
        sim < 0.25,
        "simulated honest swarm should stay near ρ = 0, got {sim}"
    );
}

#[test]
fn heavy_cheating_drives_rho_up_in_both() {
    let fluid = fluid_rho(0.7);
    assert!(fluid > 0.2, "fluid ρ* = {fluid}");
    let sim = simulated_rho(0.7, 22);
    let honest_sim = simulated_rho(0.0, 22);
    assert!(
        sim > honest_sim + 0.1,
        "cheating should visibly raise the simulated ρ: {sim} vs honest {honest_sim}"
    );
}

#[test]
fn fluid_prediction_is_monotone_in_cheating() {
    let mut prev = -1.0;
    for frac in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let r = fluid_rho(frac);
        assert!(r >= prev - 1e-9, "ρ*({frac}) = {r} < {prev}");
        prev = r;
    }
}
