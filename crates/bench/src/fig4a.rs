//! Figure 4(a): average online time per file under CMFSD over the
//! `(p, ρ) ∈ [0,1]²` grid.
//!
//! Expected shape: for every correlation `p`, the online time per file
//! increases monotonically with ρ (less collaboration); the improvement of
//! ρ = 0 over ρ = 1 grows with `p`; the ρ = 1 column coincides with MFCD.

use crate::table::Table;
use btfluid_core::{evaluate_scheme, FluidParams, Scheme};
use btfluid_numkit::NumError;
use btfluid_workload::CorrelationModel;

/// Configuration of the Figure 4(a) grid sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4aConfig {
    /// Fluid parameters.
    pub params: FluidParams,
    /// Number of files `K`.
    pub k: u32,
    /// Correlation grid values (paper varies `p` from 0 to 1; `p = 0` is
    /// excluded because nobody enters).
    pub ps: Vec<f64>,
    /// Allocation-ratio grid values.
    pub rhos: Vec<f64>,
}

impl Default for Fig4aConfig {
    fn default() -> Self {
        Self {
            params: FluidParams::paper(),
            k: 10,
            ps: (1..=10).map(|i| i as f64 / 10.0).collect(),
            rhos: (0..=10).map(|i| i as f64 / 10.0).collect(),
        }
    }
}

/// The grid of averages: `values[pi][ri]` is the average online time per
/// file at `ps[pi], rhos[ri]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4aResult {
    /// Correlation grid.
    pub ps: Vec<f64>,
    /// ρ grid.
    pub rhos: Vec<f64>,
    /// Row-per-p, column-per-ρ matrix of averages.
    pub values: Vec<Vec<f64>>,
}

impl Fig4aResult {
    /// Renders the matrix as an aligned table (rows: p; columns: ρ).
    pub fn table(&self) -> Table {
        let mut headers = vec!["p \\ ρ".to_string()];
        headers.extend(self.rhos.iter().map(|r| format!("{r:.1}")));
        let mut t = Table::new(
            "Figure 4(a) — CMFSD average online time per file",
            headers.iter().map(String::as_str).collect(),
        );
        for (pi, row) in self.values.iter().enumerate() {
            let mut cells = vec![format!("{:.1}", self.ps[pi])];
            cells.extend(row.iter().map(|v| format!("{v:.2}")));
            t.push_row(cells);
        }
        t
    }

    /// The value at grid point `(pi, ri)`.
    pub fn at(&self, pi: usize, ri: usize) -> f64 {
        self.values[pi][ri]
    }
}

/// Runs the grid.
///
/// # Errors
/// Propagates model validity errors for any grid cell.
pub fn run(cfg: &Fig4aConfig) -> Result<Fig4aResult, NumError> {
    if cfg.ps.is_empty() || cfg.rhos.is_empty() {
        return Err(NumError::InvalidInput {
            what: "fig4a::run",
            detail: "need non-empty p and ρ grids".into(),
        });
    }
    let values: Result<Vec<Vec<f64>>, NumError> = cfg
        .ps
        .iter()
        .map(|&p| {
            let model = CorrelationModel::new(cfg.k, p, 1.0)?;
            cfg.rhos
                .iter()
                .map(|&rho| {
                    let r = evaluate_scheme(cfg.params, &model, Scheme::Cmfsd { rho })?;
                    Ok(r.avg_online_per_file)
                })
                .collect()
        })
        .collect();
    Ok(Fig4aResult {
        ps: cfg.ps.clone(),
        rhos: cfg.rhos.clone(),
        values: values?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_core::Scheme;

    #[test]
    fn paper_shape_reproduced() {
        let r = run(&Fig4aConfig::default()).unwrap();
        assert_eq!(r.values.len(), 10);
        assert_eq!(r.values[0].len(), 11);
        // Every row is monotone increasing in ρ.
        for (pi, row) in r.values.iter().enumerate() {
            for w in row.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-9,
                    "row p = {} not monotone in ρ: {row:?}",
                    r.ps[pi]
                );
            }
        }
        // Improvement of ρ = 0 over ρ = 1 grows with p.
        let gains: Vec<f64> = r
            .values
            .iter()
            .map(|row| row[row.len() - 1] - row[0])
            .collect();
        assert!(
            gains.last().unwrap() > &gains[0],
            "gain at p = 1 ({}) should exceed gain at p = 0.1 ({})",
            gains.last().unwrap(),
            gains[0]
        );
        assert!(*gains.last().unwrap() > 20.0, "gains = {gains:?}");
    }

    #[test]
    fn rho_one_column_matches_mfcd() {
        let r = run(&Fig4aConfig::default()).unwrap();
        for (pi, &p) in r.ps.iter().enumerate() {
            let model = CorrelationModel::new(10, p, 1.0).unwrap();
            let mfcd = evaluate_scheme(FluidParams::paper(), &model, Scheme::Mfcd).unwrap();
            let cell = r.at(pi, r.rhos.len() - 1);
            assert!(
                (cell - mfcd.avg_online_per_file).abs() < 1e-6,
                "p = {p}: CMFSD(1) {cell} vs MFCD {}",
                mfcd.avg_online_per_file
            );
        }
    }

    #[test]
    fn empty_grids_rejected() {
        let cfg = Fig4aConfig {
            ps: vec![],
            ..Default::default()
        };
        assert!(run(&cfg).is_err());
    }

    #[test]
    fn table_renders() {
        let r = run(&Fig4aConfig {
            ps: vec![0.5],
            rhos: vec![0.0, 1.0],
            ..Default::default()
        })
        .unwrap();
        let t = r.table();
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("0.5"));
    }
}
