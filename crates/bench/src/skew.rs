//! Experiment X8 (extension): popularity skew and multi-torrent
//! downloading.
//!
//! The paper's correlation model treats all `K` files as equally popular;
//! its future work asks how real (skewed) correlation patterns behave.
//! Here the per-file probabilities follow Zipf(`s`) with the *mean*
//! request probability held fixed (the total workload is invariant in
//! `s`), and each torrent's MTCD fluid model is solved with its own
//! Poisson-binomial class rates.
//!
//! The system-wide average online time per file weighs torrent `j` by its
//! file-request rate `λ₀·p_j`:
//!
//! ```text
//! T̄ = Σⱼ λ₀·p_j·T̄ⱼ / Σⱼ λ₀·p_j
//! ```
//!
//! where `T̄ⱼ` is torrent `j`'s per-file online time averaged over its
//! peers. MTSD stays at the flat 80 regardless of skew (each download
//! still gets the user's full bandwidth), so the table directly shows what
//! skew does to concurrent downloading.

use crate::table::Table;
use btfluid_core::mtcd::Mtcd;
use btfluid_core::mtsd::Mtsd;
use btfluid_core::FluidParams;
use btfluid_numkit::NumError;
use btfluid_workload::popularity::NonUniformModel;

/// Configuration of the skew sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewConfig {
    /// Fluid parameters.
    pub params: FluidParams,
    /// Number of files `K`.
    pub k: u32,
    /// Mean per-file request probability (held fixed across the sweep).
    pub p_mean: f64,
    /// Zipf exponents to sweep (0 = the paper's uniform case).
    pub exponents: Vec<f64>,
}

impl Default for SkewConfig {
    fn default() -> Self {
        Self {
            params: FluidParams::paper(),
            k: 10,
            p_mean: 0.5,
            exponents: vec![0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0],
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewPoint {
    /// Zipf exponent.
    pub s: f64,
    /// MTCD system-wide average online time per file.
    pub mtcd: f64,
    /// The hottest torrent's per-file online time under MTCD.
    pub mtcd_hottest: f64,
    /// The coldest torrent's per-file online time under MTCD.
    pub mtcd_coldest: f64,
    /// MTSD average (constant in `s`).
    pub mtsd: f64,
}

/// The skew sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewResult {
    /// Points in sweep order.
    pub points: Vec<SkewPoint>,
}

impl SkewResult {
    /// Renders the sweep table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "X8 — Zipf popularity skew (mean p fixed): online time per file",
            vec!["s", "MTCD", "hottest", "coldest", "MTSD"],
        );
        for p in &self.points {
            t.push_nums(&[p.s, p.mtcd, p.mtcd_hottest, p.mtcd_coldest, p.mtsd], 3);
        }
        t
    }
}

/// Per-torrent MTCD per-file online time, averaged over the torrent's
/// peers weighted by their per-torrent entry rates.
fn torrent_online_per_file(params: FluidParams, rates: &[f64]) -> Result<f64, NumError> {
    let mtcd = Mtcd::new(params, rates.to_vec())?;
    let times = mtcd.class_times()?;
    // Per-torrent peers of class i arrive at λⱼⁱ; each accounts for one
    // file in this torrent with per-file online time Tᵢ/i.
    let mut num = 0.0;
    let mut den = 0.0;
    for (idx, &l) in rates.iter().enumerate() {
        if l > 0.0 {
            num += l * times.online_per_file(idx + 1);
            den += l;
        }
    }
    Ok(num / den)
}

/// Runs the sweep.
///
/// # Errors
/// Propagates model validity errors.
pub fn run(cfg: &SkewConfig) -> Result<SkewResult, NumError> {
    let mtsd = Mtsd::new(cfg.params);
    let mtsd_value = mtsd.download_time()? + cfg.params.seed_residence();
    let points: Result<Vec<SkewPoint>, NumError> = cfg
        .exponents
        .iter()
        .map(|&s| {
            let model = NonUniformModel::zipf(cfg.k, s, cfg.p_mean, 1.0)?;
            let mut weighted = 0.0;
            let mut weight = 0.0;
            let mut hottest = f64::NAN;
            let mut coldest = f64::NAN;
            for j in 0..cfg.k as usize {
                let rates = model.per_torrent_rates(j);
                let t_j = torrent_online_per_file(cfg.params, &rates)?;
                let w = model.probs()[j];
                weighted += w * t_j;
                weight += w;
                if j == 0 {
                    hottest = t_j;
                }
                if j == cfg.k as usize - 1 {
                    coldest = t_j;
                }
            }
            Ok(SkewPoint {
                s,
                mtcd: weighted / weight,
                mtcd_hottest: hottest,
                mtcd_coldest: coldest,
                mtsd: mtsd_value,
            })
        })
        .collect();
    Ok(SkewResult { points: points? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_core::{evaluate_scheme, Scheme};
    use btfluid_workload::CorrelationModel;

    #[test]
    fn uniform_point_matches_fig2() {
        // s = 0 must reproduce the Figure 2 MTCD value at p = 0.5.
        let r = run(&SkewConfig::default()).unwrap();
        let s0 = &r.points[0];
        assert_eq!(s0.s, 0.0);
        let reference = evaluate_scheme(
            FluidParams::paper(),
            &CorrelationModel::new(10, 0.5, 1.0).unwrap(),
            Scheme::Mtcd,
        )
        .unwrap();
        assert!(
            (s0.mtcd - reference.avg_online_per_file).abs() < 1e-6,
            "s=0: {} vs fig2 {}",
            s0.mtcd,
            reference.avg_online_per_file
        );
        // Uniform ⇒ hottest = coldest.
        assert!((s0.mtcd_hottest - s0.mtcd_coldest).abs() < 1e-9);
    }

    #[test]
    fn mtsd_flat_across_skew() {
        let r = run(&SkewConfig::default()).unwrap();
        for p in &r.points {
            assert!((p.mtsd - 80.0).abs() < 1e-9);
        }
    }

    #[test]
    fn skew_separates_hot_and_cold_torrents() {
        let r = run(&SkewConfig::default()).unwrap();
        let steep = r.points.last().unwrap();
        assert!(steep.s >= 1.5);
        assert!(
            (steep.mtcd_hottest - steep.mtcd_coldest).abs() > 1.0,
            "skew should separate torrents: hot {} vs cold {}",
            steep.mtcd_hottest,
            steep.mtcd_coldest
        );
    }

    #[test]
    fn table_renders() {
        let r = run(&SkewConfig {
            exponents: vec![0.0, 1.0],
            ..Default::default()
        })
        .unwrap();
        let t = r.table();
        assert_eq!(t.len(), 2);
        assert!(t.render().contains("hottest"));
    }
}
