//! Experiment X3: fluid-model predictions vs the peer-level simulator.
//!
//! For each scheme the harness runs independent DES replications and
//! compares the measured average online/download time per file against the
//! fluid steady state — the peer-level check the paper itself never ran.

use crate::table::Table;
use btfluid_core::{evaluate_scheme, FluidParams, Scheme};
use btfluid_des::{run_replications, DesConfig, OrderPolicy, SchemeKind};
use btfluid_numkit::NumError;
use btfluid_workload::CorrelationModel;

/// Configuration of the validation experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateConfig {
    /// Fluid parameters.
    pub params: FluidParams,
    /// Workload (the DES scales `λ₀` directly from this model).
    pub model: CorrelationModel,
    /// Schemes to validate.
    pub schemes: Vec<SchemeKind>,
    /// DES replications per scheme.
    pub replications: usize,
    /// DES horizon.
    pub horizon: f64,
    /// Warm-up cut.
    pub warmup: f64,
    /// Base seed.
    pub seed: u64,
}

impl Default for ValidateConfig {
    fn default() -> Self {
        Self {
            params: FluidParams::paper(),
            model: CorrelationModel::new(10, 0.5, 0.25).expect("valid workload"),
            schemes: vec![
                SchemeKind::Mtsd,
                SchemeKind::Mtcd,
                SchemeKind::Mfcd,
                SchemeKind::Cmfsd { rho: 0.5 },
            ],
            replications: 4,
            horizon: 4000.0,
            warmup: 1000.0,
            seed: 2006,
        }
    }
}

/// One scheme's fluid-vs-simulation comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateRow {
    /// Scheme name.
    pub scheme: String,
    /// Fluid-model average online time per file.
    pub fluid_online: f64,
    /// Simulated mean (over replications).
    pub sim_online: f64,
    /// 95% CI half-width of the simulated mean.
    pub sim_online_ci: f64,
    /// Fluid-model average download time per file.
    pub fluid_download: f64,
    /// Simulated mean.
    pub sim_download: f64,
    /// Censored users across replications (should be 0).
    pub censored: usize,
}

/// The validation result.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateResult {
    /// One row per scheme.
    pub rows: Vec<ValidateRow>,
}

impl ValidateResult {
    /// Renders the comparison table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "X3 — fluid model vs peer-level simulation (online/download time per file)",
            vec![
                "scheme",
                "fluid online",
                "sim online",
                "±95%",
                "fluid dl",
                "sim dl",
                "censored",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.scheme.clone(),
                format!("{:.2}", r.fluid_online),
                format!("{:.2}", r.sim_online),
                format!("{:.2}", r.sim_online_ci),
                format!("{:.2}", r.fluid_download),
                format!("{:.2}", r.sim_download),
                format!("{}", r.censored),
            ]);
        }
        t
    }

    /// Largest relative online-time error across schemes.
    pub fn worst_online_error(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| ((r.sim_online - r.fluid_online) / r.fluid_online).abs())
            .fold(0.0, f64::max)
    }
}

fn to_fluid_scheme(kind: SchemeKind) -> Scheme {
    match kind {
        SchemeKind::Mtsd => Scheme::Mtsd,
        SchemeKind::Mtcd => Scheme::Mtcd,
        SchemeKind::Mfcd => Scheme::Mfcd,
        SchemeKind::Cmfsd { rho } => Scheme::Cmfsd { rho },
    }
}

/// Runs the validation.
///
/// # Errors
/// Propagates fluid-model and simulation errors.
pub fn run(cfg: &ValidateConfig) -> Result<ValidateResult, NumError> {
    let mut rows = Vec::with_capacity(cfg.schemes.len());
    for &kind in &cfg.schemes {
        let fluid = evaluate_scheme(cfg.params, &cfg.model, to_fluid_scheme(kind))?;
        let des_cfg = DesConfig {
            params: cfg.params,
            model: cfg.model,
            scheme: kind,
            horizon: cfg.horizon,
            warmup: cfg.warmup,
            drain: cfg.horizon,
            seed: cfg.seed,
            adapt: None,
            origin_seeds: 0,
            warm_start: false,
            order_policy: OrderPolicy::default(),
            record_every: None,
            aggregate: false,
            checked: false,
        };
        let summary = run_replications(&des_cfg, cfg.replications, cfg.seed)?;
        rows.push(ValidateRow {
            scheme: kind.name(),
            fluid_online: fluid.avg_online_per_file,
            sim_online: summary.online_per_file.mean(),
            sim_online_ci: summary.online_ci95(),
            fluid_download: fluid.avg_download_per_file,
            sim_download: summary.download_per_file.mean(),
            censored: summary.censored,
        });
    }
    Ok(ValidateResult { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluid_and_simulation_agree() {
        // Smaller config to keep the test quick: two schemes, 2 reps.
        let cfg = ValidateConfig {
            schemes: vec![SchemeKind::Mtsd, SchemeKind::Cmfsd { rho: 0.5 }],
            replications: 2,
            horizon: 3000.0,
            warmup: 800.0,
            ..Default::default()
        };
        let r = run(&cfg).unwrap();
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            let rel = ((row.sim_online - row.fluid_online) / row.fluid_online).abs();
            assert!(
                rel < 0.12,
                "{}: sim {} vs fluid {} ({}% off)",
                row.scheme,
                row.sim_online,
                row.fluid_online,
                rel * 100.0
            );
        }
        assert!(r.worst_online_error() < 0.12);
        assert!(r.table().render().contains("MTSD"));
    }
}
