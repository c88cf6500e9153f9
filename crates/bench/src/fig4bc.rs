//! Figures 4(b) and 4(c): per-class online and download time per file
//! under CMFSD (ρ = 0.1 and ρ = 0.9) and MFCD, at `p = 0.9` (panel b) and
//! `p = 0.1` (panel c).
//!
//! Expected shape: single-file peers download fastest under CMFSD (the
//! class unfairness); at high correlation with small ρ, *every* class beats
//! MFCD by a wide margin; at low correlation with large ρ the multi-file
//! classes gain nothing over MFCD.

use crate::table::Table;
use btfluid_core::cmfsd::Cmfsd;
use btfluid_core::mfcd::Mfcd;
use btfluid_core::FluidParams;
use btfluid_numkit::NumError;
use btfluid_workload::CorrelationModel;

/// Configuration of the Figure 4(b)/(c) evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4bcConfig {
    /// Fluid parameters.
    pub params: FluidParams,
    /// Number of files `K`.
    pub k: u32,
    /// Panel correlations (paper: 0.9 for (b), 0.1 for (c)).
    pub correlations: Vec<f64>,
    /// The two polarized ρ values (paper: 0.1 and 0.9).
    pub rhos: (f64, f64),
}

impl Default for Fig4bcConfig {
    fn default() -> Self {
        Self {
            params: FluidParams::paper(),
            k: 10,
            correlations: vec![0.9, 0.1],
            rhos: (0.1, 0.9),
        }
    }
}

/// Per-class curves at one correlation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4bcPanel {
    /// Panel correlation.
    pub p: f64,
    /// CMFSD at the low ρ: (online per file, download per file) per class.
    pub cmfsd_low: (Vec<f64>, Vec<f64>),
    /// CMFSD at the high ρ.
    pub cmfsd_high: (Vec<f64>, Vec<f64>),
    /// MFCD reference.
    pub mfcd: (Vec<f64>, Vec<f64>),
}

/// The Figure 4(b)/(c) result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4bcResult {
    /// Low/high ρ used.
    pub rhos: (f64, f64),
    /// Panels in config order.
    pub panels: Vec<Fig4bcPanel>,
}

impl Fig4bcResult {
    /// Renders one aligned table per panel.
    pub fn tables(&self) -> Vec<Table> {
        let (rl, rh) = self.rhos;
        self.panels
            .iter()
            .map(|panel| {
                let mut t = Table::new(
                    format!(
                        "Figure 4(b/c) — per-class times per file at p = {}",
                        panel.p
                    ),
                    vec![
                        "class",
                        &format!("CMFSD(ρ={rl}) online"),
                        &format!("CMFSD(ρ={rl}) dl"),
                        &format!("CMFSD(ρ={rh}) online"),
                        &format!("CMFSD(ρ={rh}) dl"),
                        "MFCD online",
                        "MFCD dl",
                    ],
                );
                for i in 0..panel.mfcd.0.len() {
                    t.push_row(vec![
                        format!("{}", i + 1),
                        format!("{:.3}", panel.cmfsd_low.0[i]),
                        format!("{:.3}", panel.cmfsd_low.1[i]),
                        format!("{:.3}", panel.cmfsd_high.0[i]),
                        format!("{:.3}", panel.cmfsd_high.1[i]),
                        format!("{:.3}", panel.mfcd.0[i]),
                        format!("{:.3}", panel.mfcd.1[i]),
                    ]);
                }
                t
            })
            .collect()
    }
}

/// Evaluates the panels.
///
/// # Errors
/// Propagates model validity errors.
pub fn run(cfg: &Fig4bcConfig) -> Result<Fig4bcResult, NumError> {
    // Panels are independent; evaluate them in order.
    let panels = cfg
        .correlations
        .iter()
        .map(|&p| -> Result<Fig4bcPanel, NumError> {
            let model = CorrelationModel::new(cfg.k, p, 1.0)?;
            let eval_cmfsd = |rho: f64| -> Result<(Vec<f64>, Vec<f64>), NumError> {
                let t = Cmfsd::new(cfg.params, model.class_rates(), rho)?.class_times()?;
                Ok((t.online_per_file_vec(), t.download_per_file_vec()))
            };
            let mfcd_t = Mfcd::from_correlation(cfg.params, &model)?.class_times()?;
            Ok(Fig4bcPanel {
                p,
                cmfsd_low: eval_cmfsd(cfg.rhos.0)?,
                cmfsd_high: eval_cmfsd(cfg.rhos.1)?,
                mfcd: (mfcd_t.online_per_file_vec(), mfcd_t.download_per_file_vec()),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Fig4bcResult {
        rhos: cfg.rhos,
        panels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape_reproduced() {
        let r = run(&Fig4bcConfig::default()).unwrap();
        assert_eq!(r.panels.len(), 2);
        let high_p = &r.panels[0]; // p = 0.9
        let low_p = &r.panels[1]; // p = 0.1

        // (b) p = 0.9, ρ = 0.1: every class improves a lot over MFCD.
        for i in 0..10 {
            assert!(
                high_p.cmfsd_low.0[i] < high_p.mfcd.0[i] - 10.0,
                "class {}: CMFSD {} vs MFCD {}",
                i + 1,
                high_p.cmfsd_low.0[i],
                high_p.mfcd.0[i]
            );
        }
        // Class unfairness: class 1 downloads faster than class 10
        // whenever ρ < 1.
        for panel in &r.panels {
            assert!(panel.cmfsd_low.1[0] < panel.cmfsd_low.1[9]);
            assert!(panel.cmfsd_high.1[0] < panel.cmfsd_high.1[9]);
        }
        // (c) p = 0.1, ρ = 0.9: class 10 gains essentially nothing vs MFCD.
        let gain = low_p.mfcd.0[9] - low_p.cmfsd_high.0[9];
        assert!(
            gain < 2.0,
            "multi-file peers should gain little at low p, high ρ (gain = {gain})"
        );
    }

    #[test]
    fn mfcd_columns_are_class_fair_in_download() {
        let r = run(&Fig4bcConfig::default()).unwrap();
        for panel in &r.panels {
            let g = panel.mfcd.1[0];
            for &d in &panel.mfcd.1 {
                assert!((d - g).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn tables_render() {
        let r = run(&Fig4bcConfig::default()).unwrap();
        let tables = r.tables();
        assert_eq!(tables.len(), 2);
        assert!(tables[0].render().contains("MFCD online"));
        assert_eq!(tables[0].len(), 10);
    }
}
