//! Experiment X4: the Adapt mechanism under cheaters — the systematic
//! evaluation the paper lists as future work.
//!
//! Obedient peers join a CMFSD torrent at ρ = 0 and adapt from the observed
//! virtual-seed imbalance Δ; cheaters pin ρ = 1. The experiment sweeps the
//! cheater fraction and reports where the obedient population's ρ settles
//! and what everyone's per-file times become.
//!
//! Expected shape: with no cheaters, Δ hovers around 0 and obedient peers
//! stay near ρ = 0 (full collaboration); as the cheater fraction grows the
//! obedient peers consistently donate more than they receive, their ρ
//! rises, and the system degenerates toward MFCD — exactly the
//! self-protection story of Section 4.3.

use crate::table::Table;
use btfluid_core::adapt::AdaptConfig;
use btfluid_core::FluidParams;
use btfluid_des::{AdaptSetup, DesConfig, OrderPolicy, SchemeKind};
use btfluid_harness::{run_batch, HarnessError};
use btfluid_numkit::stats::Welford;
use btfluid_workload::CorrelationModel;

/// Configuration of the Adapt sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptExpConfig {
    /// Fluid parameters.
    pub params: FluidParams,
    /// Workload.
    pub model: CorrelationModel,
    /// Cheater fractions to sweep.
    pub cheater_fractions: Vec<f64>,
    /// Adapt controller constants.
    pub controller: AdaptConfig,
    /// Observation epoch.
    pub epoch: f64,
    /// DES replications per point.
    pub replications: usize,
    /// DES horizon.
    pub horizon: f64,
    /// Warm-up cut.
    pub warmup: f64,
    /// Base seed.
    pub seed: u64,
}

impl Default for AdaptExpConfig {
    fn default() -> Self {
        Self {
            params: FluidParams::paper(),
            model: CorrelationModel::new(10, 0.9, 0.25).expect("valid workload"),
            cheater_fractions: vec![0.0, 0.25, 0.5, 0.75],
            controller: AdaptConfig::default_for_mu(0.02),
            epoch: 20.0,
            replications: 3,
            horizon: 4000.0,
            warmup: 1000.0,
            seed: 43,
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptPoint {
    /// Cheater fraction.
    pub cheater_fraction: f64,
    /// Mean final ρ of obedient multi-file peers.
    pub obedient_rho: f64,
    /// Fluid prediction of the obedient equilibrium ρ*
    /// ([`btfluid_core::cmfsd_mixed::adapt_equilibrium`]).
    pub fluid_rho_star: f64,
    /// Obedient peers' mean online time per file.
    pub obedient_online_per_file: f64,
    /// Cheaters' mean online time per file (NaN when there are none).
    pub cheater_online_per_file: f64,
    /// Population mean online time per file.
    pub online_per_file: f64,
}

/// The Adapt sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptResult {
    /// Points in sweep order.
    pub points: Vec<AdaptPoint>,
}

impl AdaptResult {
    /// Renders the sweep table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "X4 — Adapt under cheaters (CMFSD, obedient peers start at ρ = 0)",
            vec![
                "cheaters",
                "obedient ρ",
                "fluid ρ*",
                "obedient online/file",
                "cheater online/file",
                "population online/file",
            ],
        );
        for p in &self.points {
            t.push_row(vec![
                format!("{:.2}", p.cheater_fraction),
                format!("{:.3}", p.obedient_rho),
                format!("{:.3}", p.fluid_rho_star),
                format!("{:.2}", p.obedient_online_per_file),
                if p.cheater_online_per_file.is_nan() {
                    "-".into()
                } else {
                    format!("{:.2}", p.cheater_online_per_file)
                },
                format!("{:.2}", p.online_per_file),
            ]);
        }
        t
    }
}

/// Runs the sweep: `replications` runs per cheater fraction, seeds
/// `seed + r`.
///
/// # Errors
/// Refuses zero replications (an empty batch); propagates configuration
/// and simulation errors, and fails when a replication records no
/// completed user.
pub fn run(cfg: &AdaptExpConfig) -> Result<AdaptResult, HarnessError> {
    let mut points = Vec::with_capacity(cfg.cheater_fractions.len());
    for &frac in &cfg.cheater_fractions {
        let cfgs = (0..cfg.replications as u64)
            .map(|r| DesConfig {
                params: cfg.params,
                model: cfg.model,
                scheme: SchemeKind::Cmfsd { rho: 0.0 },
                horizon: cfg.horizon,
                warmup: cfg.warmup,
                drain: cfg.horizon,
                seed: cfg.seed.wrapping_add(r),
                adapt: Some(AdaptSetup {
                    controller: cfg.controller,
                    epoch: cfg.epoch,
                    cheater_fraction: frac,
                }),
                origin_seeds: 1,
                warm_start: false,
                order_policy: OrderPolicy::default(),
                record_every: None,
                aggregate: false,
                checked: false,
            })
            .collect();
        let runs = run_batch(cfgs)?;
        // Aggregate per-record so classes weight naturally.
        let mut rho = Welford::new();
        let mut obedient_online = Welford::new();
        let mut cheater_online = Welford::new();
        let mut online = Welford::new();
        for (outcome, _) in &runs {
            // A replication without a completed user fails the sweep.
            outcome.avg_online_per_file()?;
            for r in &outcome.records {
                let per_file = r.online_fluid / r.class as f64;
                online.push(per_file);
                if r.cheater {
                    cheater_online.push(per_file);
                } else {
                    obedient_online.push(per_file);
                    if r.class >= 2 {
                        rho.push(r.final_rho);
                    }
                }
            }
        }
        // Fluid prediction: split the workload by the cheater fraction.
        let all = cfg.model.class_rates();
        let obedient_rates: Vec<f64> = all.iter().map(|l| l * (1.0 - frac)).collect();
        let cheater_rates: Vec<f64> = all.iter().map(|l| l * frac).collect();
        let fluid_rho_star = btfluid_core::cmfsd_mixed::adapt_equilibrium(
            cfg.params,
            obedient_rates,
            cheater_rates,
            &cfg.controller,
        )?;
        points.push(AdaptPoint {
            cheater_fraction: frac,
            obedient_rho: rho.mean(),
            fluid_rho_star,
            obedient_online_per_file: obedient_online.mean(),
            cheater_online_per_file: if cheater_online.count() > 0 {
                cheater_online.mean()
            } else {
                f64::NAN
            },
            online_per_file: online.mean(),
        });
    }
    Ok(AdaptResult { points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adapt_reacts_to_cheaters() {
        let cfg = AdaptExpConfig {
            cheater_fractions: vec![0.0, 0.6],
            replications: 2,
            horizon: 3000.0,
            warmup: 800.0,
            ..Default::default()
        };
        let r = run(&cfg).unwrap();
        assert_eq!(r.points.len(), 2);
        let honest = &r.points[0];
        let infested = &r.points[1];
        // With no cheaters the obedient ρ stays low…
        assert!(
            honest.obedient_rho < 0.35,
            "honest swarm ρ = {}",
            honest.obedient_rho
        );
        // …and rises when the majority cheat.
        assert!(
            infested.obedient_rho > honest.obedient_rho,
            "ρ should rise with cheaters: {} vs {}",
            infested.obedient_rho,
            honest.obedient_rho
        );
        // Cheater column present only when there are cheaters.
        assert!(honest.cheater_online_per_file.is_nan());
        assert!(infested.cheater_online_per_file.is_finite());
        assert!(r.table().render().contains("obedient"));
    }
}
