//! Multi-torrent **sequential** downloading (MTSD) — Section 3.3.
//!
//! A user requesting `i` files joins the torrents one at a time with full
//! bandwidth. Each torrent is then an ordinary single-file Qiu–Srikant
//! system (Eq. 3) with download time `T = (γ−μ)/(γμη)`, and the class-`i`
//! user's total online time is `Tᵢ = i·(T + 1/γ)` (Eq. 4): after finishing
//! (and seeding) one file it moves on to the next torrent.
//!
//! Per file, *every* class pays the same `T + 1/γ` — MTSD is flat across
//! classes and across correlation `p`, which is exactly the MTSD horizontal
//! line of Figure 2.

use crate::metrics::ClassTimes;
use crate::params::FluidParams;
use btfluid_numkit::NumError;

/// The MTSD performance model.
///
/// MTSD needs no per-class rates: the per-file times are class-independent.
/// (The aggregate *population* average still weights classes via a
/// [`btfluid_workload::ClassMix`], but for MTSD that average equals the
/// constant per-file time.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mtsd {
    params: FluidParams,
}

impl Mtsd {
    /// Wraps the fluid parameters.
    pub fn new(params: FluidParams) -> Self {
        Self { params }
    }

    /// Model parameters.
    pub fn params(&self) -> &FluidParams {
        &self.params
    }

    /// Single-torrent download time `T = (γ−μ)/(γμη)`.
    ///
    /// Returns the value without validity checks; use
    /// [`Mtsd::download_time`] for the checked variant.
    fn t_raw(&self) -> f64 {
        let (mu, eta, gamma) = (self.params.mu(), self.params.eta(), self.params.gamma());
        (gamma - mu) / (gamma * mu * eta)
    }

    /// Download time per file `T`.
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] when `γ ≤ μ` (Eq. 4 requires
    /// `γ > μ`).
    pub fn download_time(&self) -> Result<f64, NumError> {
        self.params.require_upload_constrained()?;
        Ok(self.t_raw())
    }

    /// Online time per file `T + 1/γ` — the MTSD flat line of Figure 2
    /// (80 time units with the paper's parameters).
    ///
    /// # Panics
    /// Panics when `γ ≤ μ`; use [`Mtsd::download_time`] first when the
    /// regime is uncertain. (Kept panicking for ergonomic plotting code;
    /// the checked path is `class_times`.)
    pub fn online_time_per_file(&self) -> f64 {
        assert!(
            self.params.upload_constrained(),
            "MTSD online time requires γ > μ"
        );
        self.t_raw() + self.params.seed_residence()
    }

    /// Steady per-user service rate `1/T = γμη/(γ−μ)` — the rate at which
    /// a downloading MTSD user completes its current file once each torrent
    /// has relaxed to the Qiu–Srikant fixed point (1/60 per time unit with
    /// the paper's parameters).
    ///
    /// The transient fluid ODE (`btfluid-scenario`'s staged MTSD system)
    /// must converge to exactly this rate under a constant workload; the
    /// hybrid engine uses it as the reference scale for its tolerance model.
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] when `γ ≤ μ`.
    pub fn steady_service_rate(&self) -> Result<f64, NumError> {
        Ok(1.0 / self.download_time()?)
    }

    /// Per-class user totals for classes `1..=k`:
    /// download `i·T`, online `i·(T + 1/γ)`.
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] when `γ ≤ μ` or `k == 0`.
    pub fn class_times(&self, k: usize) -> Result<ClassTimes, NumError> {
        if k == 0 {
            return Err(NumError::InvalidInput {
                what: "Mtsd::class_times",
                detail: "need at least one class".into(),
            });
        }
        let t = self.download_time()?;
        let per_file_online = t + self.params.seed_residence();
        let download: Vec<f64> = (1..=k).map(|i| i as f64 * t).collect();
        let online: Vec<f64> = (1..=k).map(|i| i as f64 * per_file_online).collect();
        ClassTimes::new(download, online)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_workload::{ClassMix, CorrelationModel};

    #[test]
    fn paper_values() {
        let m = Mtsd::new(FluidParams::paper());
        assert!((m.download_time().unwrap() - 60.0).abs() < 1e-12);
        assert!((m.online_time_per_file() - 80.0).abs() < 1e-12);
        assert!((m.steady_service_rate().unwrap() - 1.0 / 60.0).abs() < 1e-15);
    }

    #[test]
    fn class_totals_scale_linearly() {
        let m = Mtsd::new(FluidParams::paper());
        let t = m.class_times(10).unwrap();
        for i in 1..=10 {
            assert!((t.download_total(i) - 60.0 * i as f64).abs() < 1e-9);
            assert!((t.online_total(i) - 80.0 * i as f64).abs() < 1e-9);
            // Per-file times are class independent.
            assert!((t.online_per_file(i) - 80.0).abs() < 1e-12);
            assert!((t.download_per_file(i) - 60.0).abs() < 1e-12);
        }
    }

    #[test]
    fn population_average_is_flat_in_p() {
        // Figure 2's MTSD line: the average online time per file does not
        // depend on the correlation p.
        let m = Mtsd::new(FluidParams::paper());
        let times = m.class_times(10).unwrap();
        for &p in &[0.05, 0.3, 0.6, 0.95] {
            let model = CorrelationModel::new(10, p, 1.0).unwrap();
            let mix = ClassMix::system_wide(&model).unwrap();
            let avg = times.avg_online_per_file(&mix).unwrap();
            assert!((avg - 80.0).abs() < 1e-9, "p = {p}: avg = {avg}");
        }
    }

    #[test]
    fn invalid_regime_rejected() {
        let m = Mtsd::new(FluidParams::new(0.06, 0.5, 0.05).unwrap());
        assert!(m.download_time().is_err());
        assert!(m.class_times(5).is_err());
    }

    #[test]
    #[should_panic(expected = "requires γ > μ")]
    fn online_time_panics_outside_regime() {
        let m = Mtsd::new(FluidParams::new(0.06, 0.5, 0.05).unwrap());
        let _ = m.online_time_per_file();
    }

    #[test]
    fn zero_classes_rejected() {
        let m = Mtsd::new(FluidParams::paper());
        assert!(m.class_times(0).is_err());
    }

    #[test]
    fn fairness_is_perfect() {
        let m = Mtsd::new(FluidParams::paper());
        let t = m.class_times(10).unwrap();
        assert!((t.download_fairness().unwrap() - 1.0).abs() < 1e-12);
    }
}
