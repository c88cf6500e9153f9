//! Multi-torrent **concurrent** downloading (MTCD) — Section 3.2.
//!
//! A class-`i` user joins `i` torrents at once with `μ/i` upload (and
//! `c/i` download) bandwidth per torrent. By symmetry every torrent obeys
//! the same fluid model (Eq. 1 of the paper); for torrent `t_j` with
//! per-class entry rates `λⱼⁱ`:
//!
//! ```text
//! dxⱼⁱ/dt = λⱼⁱ − η(μ/i)xⱼⁱ − wᵢ · Σₗ (μ/l)·yⱼˡ
//! dyⱼⁱ/dt = η(μ/i)xⱼⁱ + wᵢ · Σₗ (μ/l)·yⱼˡ − γ·yⱼⁱ
//!           with wᵢ = (xⱼⁱ/i) / Σₗ (xⱼˡ/l)
//! ```
//!
//! The closed-form steady state (Eq. 2) is
//!
//! ```text
//! xⱼⁱ = i·λⱼⁱ·G,   yⱼⁱ = λⱼⁱ/γ,
//! G = (γ·Σλⱼˡ − μ·Σ λⱼˡ/l) / (γμη·Σλⱼˡ)
//! ```
//!
//! giving class-`i` download time `i·G` (per file: the fair constant `G`)
//! and online time `i·G + 1/γ` (per file: `G + 1/(iγ)`, *decreasing* in `i`
//! — the "peers requesting more files do better" observation of Figure 3).

use crate::metrics::ClassTimes;
use crate::params::FluidParams;
use btfluid_numkit::ode::OdeSystem;
use btfluid_numkit::NumError;

/// The MTCD fluid model for one (symmetric) torrent.
///
/// # Examples
///
/// ```
/// use btfluid_core::mtcd::Mtcd;
/// use btfluid_core::FluidParams;
/// use btfluid_workload::CorrelationModel;
///
/// let model = CorrelationModel::new(10, 1.0, 1.0)?;
/// let mtcd = Mtcd::new(FluidParams::paper(), model.per_torrent_rates())?;
/// // At p = 1, Eq. (2) gives G = (Kγ − μ)/(γμη) / K = 96.
/// assert!((mtcd.g()? - 96.0).abs() < 1e-9);
/// # Ok::<(), btfluid_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mtcd {
    params: FluidParams,
    /// Per-torrent entry rates `λⱼⁱ` (index 0 ↔ class 1). May contain
    /// zeros; at least one entry must be positive.
    lambdas: Vec<f64>,
    /// Per-class seed upload bandwidth `μ/i` (index 0 ↔ class 1).
    seed_bw: Vec<f64>,
    /// Per-class tit-for-tat coefficient `η·μ/i` (index 0 ↔ class 1).
    tft_coef: Vec<f64>,
}

/// Closed-form steady state of [`Mtcd`].
#[derive(Debug, Clone, PartialEq)]
pub struct MtcdSteady {
    /// Per-class downloader populations `xⱼⁱ` (index 0 ↔ class 1).
    pub downloaders: Vec<f64>,
    /// Per-class seed populations `yⱼⁱ`.
    pub seeds: Vec<f64>,
    /// The shared per-file download time `G`.
    pub g: f64,
}

impl Mtcd {
    /// Creates the model from validated parameters and per-torrent class
    /// entry rates.
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] if `lambdas` is empty, has a
    /// negative/non-finite entry, or sums to zero.
    pub fn new(params: FluidParams, lambdas: Vec<f64>) -> Result<Self, NumError> {
        if lambdas.is_empty() {
            return Err(NumError::InvalidInput {
                what: "Mtcd::new",
                detail: "need at least one class".into(),
            });
        }
        let mut total = 0.0;
        for (idx, &l) in lambdas.iter().enumerate() {
            if !l.is_finite() || l < 0.0 {
                return Err(NumError::InvalidInput {
                    what: "Mtcd::new",
                    detail: format!("λ for class {} is {l}", idx + 1),
                });
            }
            total += l;
        }
        if total <= 0.0 {
            return Err(NumError::InvalidInput {
                what: "Mtcd::new",
                detail: "all class entry rates are zero".into(),
            });
        }
        // The right-hand side's per-class constants, as the same
        // left-associative expressions it would otherwise evaluate per call.
        let (mu, eta) = (params.mu(), params.eta());
        let classes = || (1..=lambdas.len()).map(|i| i as f64);
        let seed_bw = classes().map(|class| mu / class).collect();
        let tft_coef = classes().map(|class| eta * mu / class).collect();
        Ok(Self {
            params,
            lambdas,
            seed_bw,
            tft_coef,
        })
    }

    /// Number of classes `K`.
    pub fn k(&self) -> usize {
        self.lambdas.len()
    }

    /// Model parameters.
    pub fn params(&self) -> &FluidParams {
        &self.params
    }

    /// Per-torrent entry rates (index 0 ↔ class 1).
    pub fn lambdas(&self) -> &[f64] {
        &self.lambdas
    }

    /// Total per-torrent entry rate `B = Σ λⱼˡ`.
    pub fn total_rate(&self) -> f64 {
        self.lambdas.iter().sum()
    }

    /// The bandwidth-weighted rate `D = Σ λⱼˡ/l`.
    pub fn weighted_rate(&self) -> f64 {
        self.lambdas
            .iter()
            .enumerate()
            .map(|(idx, &l)| l / (idx + 1) as f64)
            .sum()
    }

    /// The shared per-file download time
    /// `G = (γB − μD)/(γμηB)` from Eq. (2).
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] when `γB ≤ μD` — the regime where
    /// seed capacity alone covers the arrival flow and the closed form
    /// breaks down (for `γ > μ` this never happens since `D ≤ B`).
    pub fn g(&self) -> Result<f64, NumError> {
        let (mu, eta, gamma) = (self.params.mu(), self.params.eta(), self.params.gamma());
        let b = self.total_rate();
        let d = self.weighted_rate();
        let g = (gamma * b - mu * d) / (gamma * mu * eta * b);
        if g <= 0.0 {
            return Err(NumError::InvalidInput {
                what: "Mtcd::g",
                detail: format!(
                    "closed form requires γ·Σλ > μ·Σλ/l (got γB = {}, μD = {}); \
                     the torrent is seed-capacity constrained",
                    gamma * b,
                    mu * d
                ),
            });
        }
        Ok(g)
    }

    /// Closed-form steady state (Eq. 2).
    ///
    /// # Errors
    /// Propagates [`Mtcd::g`] validity errors.
    pub fn steady_state(&self) -> Result<MtcdSteady, NumError> {
        let g = self.g()?;
        let gamma = self.params.gamma();
        let downloaders = self
            .lambdas
            .iter()
            .enumerate()
            .map(|(idx, &l)| (idx + 1) as f64 * l * g)
            .collect();
        let seeds = self.lambdas.iter().map(|&l| l / gamma).collect();
        Ok(MtcdSteady {
            downloaders,
            seeds,
            g,
        })
    }

    /// Per-class user-total times: class `i` downloads each of its `i`
    /// files concurrently in `i·G`, then seeds for `1/γ`; the fluid model's
    /// Little's-law online time (Eq. 2) is `Tᵢ = i·G + 1/γ`.
    ///
    /// # Errors
    /// Propagates [`Mtcd::g`] validity errors.
    pub fn class_times(&self) -> Result<ClassTimes, NumError> {
        let g = self.g()?;
        let seed = self.params.seed_residence();
        let k = self.k();
        let download: Vec<f64> = (1..=k).map(|i| i as f64 * g).collect();
        let online: Vec<f64> = download.iter().map(|&d| d + seed).collect();
        ClassTimes::new(download, online)
    }
}

impl OdeSystem for Mtcd {
    fn dim(&self) -> usize {
        2 * self.k()
    }

    /// State layout: `[x₁..x_K, y₁..y_K]`.
    fn rhs(&self, _t: f64, state: &[f64], d: &mut [f64]) {
        let k = self.k();
        let gamma = self.params.gamma();
        let (xs, ys) = state.split_at(k);
        let (dx, dy) = d.split_at_mut(k);

        // Seed service pool Σₗ (μ/l)·yₗ and downloader share weights xᵢ/i;
        // each weight waits in `dx[i]` until the second pass overwrites it.
        let mut seed_pool = 0.0;
        let mut weight_total = 0.0;
        for i in 0..k {
            let class = (i + 1) as f64;
            seed_pool += self.seed_bw[i] * ys[i].max(0.0);
            let weight = xs[i].max(0.0) / class;
            dx[i] = weight;
            weight_total += weight;
        }

        for i in 0..k {
            let tft = self.tft_coef[i] * xs[i].max(0.0);
            let from_seeds = if weight_total > 0.0 {
                dx[i] / weight_total * seed_pool
            } else {
                // No downloaders anywhere: seed capacity idles.
                0.0
            };
            let served = tft + from_seeds;
            dx[i] = self.lambdas[i] - served;
            dy[i] = served - gamma * ys[i].max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_numkit::ode::{steady_state, SteadyOptions};
    use btfluid_workload::CorrelationModel;

    fn paper_mtcd(p: f64) -> Mtcd {
        let model = CorrelationModel::new(10, p, 1.0).unwrap();
        Mtcd::new(FluidParams::paper(), model.per_torrent_rates()).unwrap()
    }

    #[test]
    fn validation() {
        let params = FluidParams::paper();
        assert!(Mtcd::new(params, vec![]).is_err());
        assert!(Mtcd::new(params, vec![0.0, 0.0]).is_err());
        assert!(Mtcd::new(params, vec![-1.0, 1.0]).is_err());
        assert!(Mtcd::new(params, vec![0.0, 1.0]).is_ok());
    }

    #[test]
    fn k1_degenerates_to_single_torrent() {
        // Section 3.3: with K = 1 and i = 1 the model must reproduce the
        // Qiu–Srikant result T = (γ−μ)/(γμη) = 60 and online 80.
        let m = Mtcd::new(FluidParams::paper(), vec![1.0]).unwrap();
        let g = m.g().unwrap();
        assert!((g - 60.0).abs() < 1e-12);
        let times = m.class_times().unwrap();
        assert!((times.online_total(1) - 80.0).abs() < 1e-12);
    }

    #[test]
    fn p_one_all_mass_on_class_k() {
        // At p = 1 every user requests all K = 10 files: B = λ, D = λ/10,
        // G = (γ − μ/10)/(γμη) = (0.05 − 0.002)/0.0005 = 96.
        let m = paper_mtcd(1.0);
        let g = m.g().unwrap();
        assert!((g - 96.0).abs() < 1e-9, "G = {g}");
        let times = m.class_times().unwrap();
        // Class-10 user: download 960, online 980, per file 98.
        assert!((times.download_total(10) - 960.0).abs() < 1e-6);
        assert!((times.online_per_file(10) - 98.0).abs() < 1e-8);
    }

    #[test]
    fn low_correlation_approaches_mtsd() {
        // As p → 0 the mix concentrates on class 1 and G → 60.
        let m = paper_mtcd(1e-6);
        let g = m.g().unwrap();
        assert!((g - 60.0).abs() < 1e-3, "G = {g}");
    }

    #[test]
    fn g_increases_with_correlation() {
        let gs: Vec<f64> = [0.1, 0.3, 0.5, 0.7, 0.9]
            .iter()
            .map(|&p| paper_mtcd(p).g().unwrap())
            .collect();
        assert!(
            gs.windows(2).all(|w| w[0] < w[1]),
            "G should increase with p: {gs:?}"
        );
    }

    #[test]
    fn online_per_file_decreases_with_class() {
        // Figure 3's observation: higher classes do better per file.
        let times = paper_mtcd(0.1).class_times().unwrap();
        let per_file = times.online_per_file_vec();
        assert!(
            per_file.windows(2).all(|w| w[0] > w[1]),
            "per-file online should decrease: {per_file:?}"
        );
        // Download per file is the fair constant G for every class.
        let d = times.download_per_file_vec();
        let g = paper_mtcd(0.1).g().unwrap();
        for v in d {
            assert!((v - g).abs() < 1e-9);
        }
        assert!((times.download_fairness().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn seeds_closed_form_is_lambda_over_gamma() {
        let m = paper_mtcd(0.5);
        let ss = m.steady_state().unwrap();
        for (idx, &l) in m.lambdas().iter().enumerate() {
            assert!((ss.seeds[idx] - l / 0.05).abs() < 1e-12);
        }
    }

    #[test]
    fn ode_equilibrium_matches_closed_form() {
        let m = paper_mtcd(0.3);
        let ss_closed = m.steady_state().unwrap();
        let x0 = vec![0.0; m.dim()];
        let ss = steady_state(&m, &x0, SteadyOptions::default()).unwrap();
        for i in 0..m.k() {
            assert!(
                (ss.x[i] - ss_closed.downloaders[i]).abs()
                    < 1e-4 * ss_closed.downloaders[i].max(1.0),
                "x[{i}] = {}, closed form {}",
                ss.x[i],
                ss_closed.downloaders[i]
            );
            assert!(
                (ss.x[m.k() + i] - ss_closed.seeds[i]).abs() < 1e-4 * ss_closed.seeds[i].max(1.0),
                "y[{i}]"
            );
        }
    }

    #[test]
    fn rhs_balances_at_closed_form() {
        let m = paper_mtcd(0.7);
        let ss = m.steady_state().unwrap();
        let mut state = ss.downloaders.clone();
        state.extend_from_slice(&ss.seeds);
        let mut d = vec![0.0; m.dim()];
        m.rhs(0.0, &state, &mut d);
        for (i, &di) in d.iter().enumerate() {
            assert!(di.abs() < 1e-12, "rhs[{i}] = {di}");
        }
    }

    #[test]
    fn seed_capacity_constrained_regime_rejected() {
        // γ < μ with all mass on class 1 ⇒ γB < μD.
        let params = FluidParams::new(0.06, 0.5, 0.05).unwrap();
        let m = Mtcd::new(params, vec![1.0]).unwrap();
        assert!(m.g().is_err());
        assert!(m.steady_state().is_err());
        assert!(m.class_times().is_err());
    }

    #[test]
    fn gamma_below_mu_can_still_be_valid_for_high_classes() {
        // With γ slightly below μ but all users splitting across 10 files,
        // D = B/10, so γB > μB/10 still holds: the closed form is valid.
        let params = FluidParams::new(0.06, 0.5, 0.05).unwrap();
        let m = Mtcd::new(params, vec![0.0; 9].into_iter().chain([1.0]).collect()).unwrap();
        let g = m.g().unwrap();
        assert!(g > 0.0);
    }

    #[test]
    fn zero_rate_classes_have_zero_population() {
        let m = paper_mtcd(1.0); // only class 10 arrives
        let ss = m.steady_state().unwrap();
        for i in 0..9 {
            assert_eq!(ss.downloaders[i], 0.0);
            assert_eq!(ss.seeds[i], 0.0);
        }
        assert!(ss.downloaders[9] > 0.0);
    }
}
