//! The binomial file-correlation model of Section 4.1.

use btfluid_numkit::special::{binomial_pmf, binomial_pmf_row};
use btfluid_numkit::NumError;

/// The paper's file-correlation model: `K` files, index visiting rate `λ₀`,
/// per-file request probability `p`.
///
/// # Examples
///
/// ```
/// use btfluid_workload::CorrelationModel;
///
/// let m = CorrelationModel::new(10, 0.5, 2.0)?;
/// // Class rates are a binomial pmf scaled by λ₀…
/// assert!((m.class_rates().iter().sum::<f64>() - m.entering_rate()).abs() < 1e-12);
/// // …and each torrent sees λ₀·p peers per time unit in total.
/// assert!((m.per_torrent_total_rate() - 1.0).abs() < 1e-12);
/// # Ok::<(), btfluid_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelationModel {
    k: u32,
    p: f64,
    lambda0: f64,
}

impl CorrelationModel {
    /// Creates the model.
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] unless `k ≥ 1`, `p ∈ [0, 1]` and
    /// `λ₀ > 0` (finite).
    pub fn new(k: u32, p: f64, lambda0: f64) -> Result<Self, NumError> {
        if k == 0 {
            return Err(NumError::InvalidInput {
                what: "CorrelationModel::new",
                detail: "the system must serve at least one file (k >= 1)".into(),
            });
        }
        if !(0.0..=1.0).contains(&p) {
            return Err(NumError::InvalidInput {
                what: "CorrelationModel::new",
                detail: format!("file correlation p must lie in [0,1], got {p}"),
            });
        }
        if !(lambda0 > 0.0) || !lambda0.is_finite() {
            return Err(NumError::InvalidInput {
                what: "CorrelationModel::new",
                detail: format!("visiting rate λ₀ must be finite and > 0, got {lambda0}"),
            });
        }
        Ok(Self { k, p, lambda0 })
    }

    /// Number of files `K` in the system.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// File correlation `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Index visiting rate `λ₀`.
    pub fn lambda0(&self) -> f64 {
        self.lambda0
    }

    /// System-wide entry rate of class-`i` users,
    /// `λᵢ = λ₀·C(K,i)·pⁱ(1−p)^{K−i}`, for `1 ≤ i ≤ K`.
    ///
    /// `i = 0` returns the rate of users who request nothing (they never
    /// enter a torrent but the mass is useful for sanity checks).
    ///
    /// # Panics
    /// Panics when `i > K` (programming error).
    pub fn class_rate(&self, i: u32) -> f64 {
        assert!(i <= self.k, "class {i} exceeds K = {}", self.k);
        self.lambda0 * binomial_pmf(self.k, i, self.p).expect("p validated at construction")
    }

    /// Per-torrent entry rate of class-`i` peers,
    /// `λⱼⁱ = λ₀·C(K−1,i−1)·pⁱ(1−p)^{K−i}` (identical for every torrent by
    /// symmetry), for `1 ≤ i ≤ K`.
    ///
    /// Derivation: a class-`i` user enters torrent `tⱼ` iff file `j` is among
    /// its `i` choices; conditioning on that choice leaves `C(K−1, i−1)` ways
    /// to pick the rest.
    ///
    /// # Panics
    /// Panics when `i == 0` or `i > K`.
    pub fn per_torrent_rate(&self, i: u32) -> f64 {
        assert!(
            (1..=self.k).contains(&i),
            "per-torrent classes run 1..=K, got {i}"
        );
        if self.p == 0.0 {
            return 0.0;
        }
        // λ₀ · C(K−1, i−1) · pⁱ (1−p)^{K−i}
        //   = λ₀ · pmf_{K−1,p}(i−1) · p
        self.lambda0 * binomial_pmf(self.k - 1, i - 1, self.p).expect("p validated") * self.p
    }

    /// All system-wide class rates `λ₁..λ_K` as a vector (index 0 ↔ class 1),
    /// each bit-equal to [`class_rate`](Self::class_rate), from one pmf row.
    pub fn class_rates(&self) -> Vec<f64> {
        let row = binomial_pmf_row(self.k, self.p).expect("p validated at construction");
        row[1..].iter().map(|w| self.lambda0 * w).collect()
    }

    /// All per-torrent class rates `λⱼ¹..λⱼᴷ` as a vector (index 0 ↔ class 1),
    /// each bit-equal to [`per_torrent_rate`](Self::per_torrent_rate), from
    /// one pmf row.
    pub fn per_torrent_rates(&self) -> Vec<f64> {
        if self.p == 0.0 {
            return vec![0.0; self.k as usize];
        }
        let row = binomial_pmf_row(self.k - 1, self.p).expect("p validated");
        row.iter().map(|w| self.lambda0 * w * self.p).collect()
    }

    /// Fraction of visitors who request at least one file,
    /// `1 − (1−p)^K`, evaluated as `−expm1(K·ln1p(−p))` so that tiny `p`
    /// does not cancel to 0 (for `p` below machine epsilon the naive form
    /// rounds `(1−p)^K` to exactly 1).
    fn entering_fraction(&self) -> f64 {
        -f64::exp_m1(self.k as f64 * f64::ln_1p(-self.p))
    }

    /// Total rate of users who actually enter the system,
    /// `λ₀·(1 − (1−p)^K)`.
    pub fn entering_rate(&self) -> f64 {
        self.lambda0 * self.entering_fraction()
    }

    /// Total per-torrent peer entry rate `Σᵢ λⱼⁱ = λ₀·p` (each file is
    /// requested with probability `p`).
    pub fn per_torrent_total_rate(&self) -> f64 {
        self.lambda0 * self.p
    }

    /// Expected number of files requested per *visiting* user, `K·p`.
    pub fn mean_files_per_visitor(&self) -> f64 {
        self.k as f64 * self.p
    }

    /// Expected number of files per *entering* user,
    /// `K·p / (1 − (1−p)^K)`.
    ///
    /// At `p = 0` the raw expression is `0/0`; the limit as `p → 0⁺` is 1
    /// (an entrant requests at least one file, and in the limit exactly
    /// one), so this returns 1 there rather than NaN. The result always
    /// lies in `[max(1, K·p), K]`.
    pub fn mean_files_per_entrant(&self) -> f64 {
        if self.p == 0.0 {
            return 1.0;
        }
        self.mean_files_per_visitor() / self.entering_fraction()
    }

    /// Rate at which *files* are requested across the system, `λ₀·K·p`
    /// (equals `Σᵢ i·λᵢ`).
    pub fn file_request_rate(&self) -> f64 {
        self.lambda0 * self.k as f64 * self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(p: f64) -> CorrelationModel {
        CorrelationModel::new(10, p, 2.0).unwrap()
    }

    #[test]
    fn validation() {
        assert!(CorrelationModel::new(0, 0.5, 1.0).is_err());
        assert!(CorrelationModel::new(10, -0.1, 1.0).is_err());
        assert!(CorrelationModel::new(10, 1.5, 1.0).is_err());
        assert!(CorrelationModel::new(10, 0.5, 0.0).is_err());
        assert!(CorrelationModel::new(10, 0.5, f64::NAN).is_err());
        assert!(CorrelationModel::new(1, 0.0, 1.0).is_ok());
    }

    #[test]
    fn rate_vectors_are_the_single_entries() {
        for &p in &[0.0, 1e-300, 0.1, 0.4, 0.9, 1.0 - 1e-16, 1.0] {
            for k in [1, 2, 10, 40] {
                let m = CorrelationModel::new(k, p, 2.5).unwrap();
                let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let single = (1..=k).map(|i| m.class_rate(i)).collect();
                assert_eq!(bits(m.class_rates()), bits(single), "k = {k}, p = {p}");
                let single = (1..=k).map(|i| m.per_torrent_rate(i)).collect();
                assert_eq!(
                    bits(m.per_torrent_rates()),
                    bits(single),
                    "k = {k}, p = {p}"
                );
            }
        }
    }

    #[test]
    fn class_rates_sum_to_lambda0() {
        let m = model(0.3);
        let total: f64 = (0..=10).map(|i| m.class_rate(i)).sum();
        assert!((total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn entering_rate_excludes_class_zero() {
        let m = model(0.3);
        let entering: f64 = (1..=10).map(|i| m.class_rate(i)).sum();
        assert!((entering - m.entering_rate()).abs() < 1e-12);
    }

    #[test]
    fn per_torrent_rates_sum_to_lambda0_p() {
        for &p in &[0.0, 0.1, 0.5, 0.9, 1.0] {
            let m = model(p);
            let total: f64 = if p == 0.0 {
                0.0
            } else {
                (1..=10).map(|i| m.per_torrent_rate(i)).sum()
            };
            assert!(
                (total - m.per_torrent_total_rate()).abs() < 1e-12,
                "p = {p}: {total} vs {}",
                m.per_torrent_total_rate()
            );
        }
    }

    #[test]
    fn per_torrent_matches_paper_formula() {
        // λⱼⁱ = λ₀·C(K−1,i−1)·pⁱ(1−p)^{K−i}, checked literally for K=10.
        let m = model(0.1);
        for i in 1..=10u32 {
            let expect = 2.0
                * btfluid_numkit::special::choose(9, i - 1)
                * 0.1f64.powi(i as i32)
                * 0.9f64.powi(10 - i as i32);
            let got = m.per_torrent_rate(i);
            assert!(
                (got - expect).abs() < 1e-12,
                "class {i}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn p_one_concentrates_on_class_k() {
        let m = model(1.0);
        assert!((m.class_rate(10) - 2.0).abs() < 1e-12);
        for i in 0..10 {
            assert_eq!(m.class_rate(i), 0.0);
        }
        assert!((m.per_torrent_rate(10) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn p_zero_means_nobody_enters() {
        let m = model(0.0);
        assert_eq!(m.entering_rate(), 0.0);
        // The conditional mean over entrants has the p → 0⁺ limit 1: the
        // (vanishingly rare) entrant requests exactly one file. It must
        // never be NaN or 0.
        assert_eq!(m.mean_files_per_entrant(), 1.0);
        for i in 1..=10 {
            assert_eq!(m.per_torrent_rate(i), 0.0);
        }
    }

    #[test]
    fn entrant_mean_is_continuous_at_tiny_p() {
        // Regression: with the naive 1 − (1−p)^K denominator, p below
        // machine epsilon rounded (1−p)^K to exactly 1 and the mean blew
        // up to ∞ (and 0/0 = NaN in intermediate forms).
        for &p in &[1e-18, 1e-12, 1e-9] {
            let m = CorrelationModel::new(10, p, 2.0).unwrap();
            let mean = m.mean_files_per_entrant();
            assert!(
                mean.is_finite() && (mean - 1.0).abs() < 1e-6,
                "p = {p}: mean = {mean}"
            );
            assert!(m.entering_rate().is_finite());
            assert!(m.entering_rate() > 0.0, "p = {p}: entering rate vanished");
        }
    }

    #[test]
    fn boundary_p_and_k_edges() {
        // p = 1: everyone requests all K files.
        let m = model(1.0);
        assert_eq!(m.mean_files_per_entrant(), 10.0);
        assert!((m.entering_rate() - 2.0).abs() < 1e-12);
        // K = 1: an entrant requests exactly the one file for any p.
        for &p in &[0.0, 0.25, 1.0] {
            let m = CorrelationModel::new(1, p, 4.0).unwrap();
            assert!(
                (m.mean_files_per_entrant() - 1.0).abs() < 1e-12,
                "K = 1, p = {p}"
            );
            if p > 0.0 {
                assert!((m.per_torrent_rate(1) - m.entering_rate()).abs() < 1e-12);
            }
        }
        // The entrant mean is bounded by [max(1, K·p), K] across the range.
        for &p in &[0.0, 1e-6, 0.1, 0.5, 0.9, 1.0] {
            let m = model(p);
            let mean = m.mean_files_per_entrant();
            assert!(
                mean >= m.mean_files_per_visitor().max(1.0) - 1e-12,
                "p = {p}"
            );
            assert!(mean <= 10.0 + 1e-12, "p = {p}");
        }
    }

    #[test]
    fn mean_files_relations() {
        let m = model(0.4);
        assert!((m.mean_files_per_visitor() - 4.0).abs() < 1e-12);
        // Entrant mean is visitor mean inflated by the entering fraction.
        let frac = 1.0 - 0.6f64.powi(10);
        assert!((m.mean_files_per_entrant() - 4.0 / frac).abs() < 1e-12);
        // Entrant mean must exceed visitor mean (zero-class removed)...
        assert!(m.mean_files_per_entrant() > m.mean_files_per_visitor());
        // ...and equal Σ i λᵢ / Σ λᵢ.
        let num: f64 = (1..=10).map(|i| i as f64 * m.class_rate(i)).sum();
        let den: f64 = (1..=10).map(|i| m.class_rate(i)).sum();
        assert!((m.mean_files_per_entrant() - num / den).abs() < 1e-12);
    }

    #[test]
    fn file_request_rate_identity() {
        let m = model(0.7);
        let by_classes: f64 = (1..=10).map(|i| i as f64 * m.class_rate(i)).sum();
        assert!((m.file_request_rate() - by_classes).abs() < 1e-12);
        // Also equals K × per-torrent total (each torrent sees λ₀·p peers).
        assert!((m.file_request_rate() - 10.0 * m.per_torrent_total_rate()).abs() < 1e-12);
    }

    #[test]
    fn k_equals_one_degenerates() {
        let m = CorrelationModel::new(1, 0.25, 4.0).unwrap();
        assert!((m.class_rate(1) - 1.0).abs() < 1e-12);
        assert!((m.per_torrent_rate(1) - 1.0).abs() < 1e-12);
        assert!((m.entering_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds K")]
    fn class_rate_out_of_range_panics() {
        let _ = model(0.5).class_rate(11);
    }

    #[test]
    #[should_panic(expected = "per-torrent classes")]
    fn per_torrent_rate_zero_panics() {
        let _ = model(0.5).per_torrent_rate(0);
    }

    #[test]
    fn vectors_match_scalars() {
        let m = model(0.2);
        let cr = m.class_rates();
        let ptr = m.per_torrent_rates();
        assert_eq!(cr.len(), 10);
        assert_eq!(ptr.len(), 10);
        for i in 1..=10u32 {
            assert_eq!(cr[(i - 1) as usize], m.class_rate(i));
            assert_eq!(ptr[(i - 1) as usize], m.per_torrent_rate(i));
        }
    }
}
