//! Figure 2: average online time per file vs file correlation `p`, MTCD vs
//! MTSD. `K = 10, μ = 0.02, η = 0.5, γ = 0.05`.
//!
//! Expected shape: MTSD is the constant `(γ−μ)/(γμη) + 1/γ = 80`; MTCD
//! starts there at `p → 0` and worsens monotonically to
//! `(Kγ−μ)/(γμη·K) + ... = 98` at `p = 1`.

use crate::table::Table;
use btfluid_core::{evaluate_scheme, FluidParams, Scheme};
use btfluid_numkit::NumError;
use btfluid_workload::CorrelationModel;

/// Configuration of the Figure 2 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Config {
    /// Fluid parameters (paper: `μ = 0.02, η = 0.5, γ = 0.05`).
    pub params: FluidParams,
    /// Number of files `K` (paper: 10).
    pub k: u32,
    /// Number of sweep points over `p ∈ (0, 1]`.
    pub points: usize,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Self {
            params: FluidParams::paper(),
            k: 10,
            points: 50,
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Point {
    /// File correlation.
    pub p: f64,
    /// MTCD average online time per file.
    pub mtcd: f64,
    /// MTSD average online time per file.
    pub mtsd: f64,
}

/// The full Figure 2 series.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Result {
    /// Sweep points in increasing `p`.
    pub points: Vec<Fig2Point>,
}

impl Fig2Result {
    /// Renders the aligned table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 2 — average online time per file vs file correlation",
            vec!["p", "MTCD", "MTSD"],
        );
        for pt in &self.points {
            t.push_nums(&[pt.p, pt.mtcd, pt.mtsd], 3);
        }
        t
    }
}

/// Runs the sweep.
///
/// # Errors
/// Propagates model validity errors for any sweep point.
pub fn run(cfg: &Fig2Config) -> Result<Fig2Result, NumError> {
    if cfg.points < 2 {
        return Err(NumError::InvalidInput {
            what: "fig2::run",
            detail: "need at least two sweep points".into(),
        });
    }
    let ps: Vec<f64> = (1..=cfg.points)
        .map(|i| i as f64 / cfg.points as f64)
        .collect();
    let points: Result<Vec<Fig2Point>, NumError> = ps
        .iter()
        .map(|&p| {
            let model = CorrelationModel::new(cfg.k, p, 1.0)?;
            let mtcd = evaluate_scheme(cfg.params, &model, Scheme::Mtcd)?;
            let mtsd = evaluate_scheme(cfg.params, &model, Scheme::Mtsd)?;
            Ok(Fig2Point {
                p,
                mtcd: mtcd.avg_online_per_file,
                mtsd: mtsd.avg_online_per_file,
            })
        })
        .collect();
    Ok(Fig2Result { points: points? })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape_reproduced() {
        let r = run(&Fig2Config::default()).unwrap();
        assert_eq!(r.points.len(), 50);
        // MTSD flat at 80.
        for pt in &r.points {
            assert!((pt.mtsd - 80.0).abs() < 1e-9, "p = {}", pt.p);
        }
        // MTCD monotone increasing, from ≈80 to 98.
        for w in r.points.windows(2) {
            assert!(w[1].mtcd >= w[0].mtcd, "not monotone at p = {}", w[1].p);
        }
        let last = r.points.last().unwrap();
        assert!((last.mtcd - 98.0).abs() < 1e-9, "p = 1 value {}", last.mtcd);
        // The gap at low correlation is small ("similar performance").
        let first = &r.points[0];
        assert!(first.mtcd - first.mtsd < 5.0);
    }

    #[test]
    fn table_and_csv_render() {
        let r = run(&Fig2Config {
            points: 5,
            ..Default::default()
        })
        .unwrap();
        let t = r.table();
        assert_eq!(t.len(), 5);
        assert!(t.render().contains("MTCD"));
        assert!(t.to_csv().starts_with("p,MTCD,MTSD"));
    }

    #[test]
    fn too_few_points_rejected() {
        let cfg = Fig2Config {
            points: 1,
            ..Default::default()
        };
        assert!(run(&cfg).is_err());
    }

    #[test]
    fn k1_collapses_schemes() {
        // With one file there is nothing to be concurrent about.
        let r = run(&Fig2Config {
            k: 1,
            points: 5,
            ..Default::default()
        })
        .unwrap();
        for pt in &r.points {
            assert!((pt.mtcd - pt.mtsd).abs() < 1e-9);
        }
    }
}
