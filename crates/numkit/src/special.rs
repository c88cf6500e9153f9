//! Special functions: `ln_gamma`, binomial coefficients and pmf (one
//! entry, or a whole row at once).
//!
//! The file-correlation model of the paper (Section 4.1) needs binomial
//! probabilities `C(K,i)·pⁱ(1−p)^{K−i}` for entry rates. For the paper's
//! `K = 10` direct multiplication would do, but the library supports
//! arbitrary `K`, so everything is computed in log space.

use crate::error::NumError;

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Lanczos approximation (g = 7, n = 9 coefficients), accurate to ~1e-13
/// over the positive reals, which is far beyond what the binomial pmf needs.
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7.
    const G: f64 = 7.0;
    #[allow(clippy::excessive_precision)] // Lanczos coefficients quoted verbatim
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// # Panics
/// Panics if `k > n` (a programming error, not a data error).
pub fn ln_choose(n: u32, k: u32) -> f64 {
    assert!(k <= n, "ln_choose: k = {k} > n = {n}");
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Binomial coefficient `C(n, k)` as `f64` (exact for small arguments,
/// accurate to ~1e-12 relative otherwise).
pub fn choose(n: u32, k: u32) -> f64 {
    if k > n {
        return 0.0;
    }
    ln_choose(n, k).exp().round_ties_even_if_integer()
}

/// Binomial pmf `P[X = k]` for `X ~ Binomial(n, p)`, computed in log space.
///
/// # Errors
/// Returns [`NumError::InvalidInput`] unless `p ∈ [0, 1]`.
pub fn binomial_pmf(n: u32, k: u32, p: f64) -> Result<f64, NumError> {
    check_probability("binomial_pmf", p)?;
    if k > n {
        return Ok(0.0);
    }
    // Handle the degenerate endpoints exactly (log(0) traps below).
    if p == 0.0 {
        return Ok(if k == 0 { 1.0 } else { 0.0 });
    }
    if p == 1.0 {
        return Ok(if k == n { 1.0 } else { 0.0 });
    }
    let ln_pmf = ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln_1p_neg();
    Ok(ln_pmf.exp())
}

/// The whole binomial pmf row `P[X = k]`, `k = 0..=n`, for
/// `X ~ Binomial(n, p)`.
///
/// Entry `k` is bit-equal to [`binomial_pmf`]`(n, k, p)`: the row takes
/// `ln p`, `ln(1−p)` and `ln Γ(j+1)` once each and forms every entry
/// with the same operations in the same order, so it costs `n + 3`
/// special-function calls plus one `exp` per entry instead of six per
/// entry.
///
/// # Errors
/// Returns [`NumError::InvalidInput`] unless `p ∈ [0, 1]`.
pub fn binomial_pmf_row(n: u32, p: f64) -> Result<Vec<f64>, NumError> {
    check_probability("binomial_pmf_row", p)?;
    let mut row = vec![0.0; n as usize + 1];
    if p == 0.0 {
        row[0] = 1.0;
        return Ok(row);
    }
    if p == 1.0 {
        row[n as usize] = 1.0;
        return Ok(row);
    }
    let (ln_p, ln_q) = (p.ln(), (1.0 - p).ln_1p_neg());
    let ln_fact: Vec<f64> = (0..=n).map(|j| ln_gamma(j as f64 + 1.0)).collect();
    for (k, slot) in (0..=n).zip(row.iter_mut()) {
        // `ln_choose(n, k)` from the tabulated factorials.
        let ln_c = if k == 0 || k == n {
            0.0
        } else {
            ln_fact[n as usize] - ln_fact[k as usize] - ln_fact[(n - k) as usize]
        };
        *slot = (ln_c + k as f64 * ln_p + (n - k) as f64 * ln_q).exp();
    }
    Ok(row)
}

fn check_probability(what: &'static str, p: f64) -> Result<(), NumError> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(NumError::InvalidInput {
            what,
            detail: format!("p must lie in [0,1], got {p}"),
        })
    }
}

/// Helper extension: `(1-p).ln()` written as `ln_1p(-p)` for accuracy near
/// `p → 0`, plus integer rounding for `choose`.
trait F64Ext {
    fn ln_1p_neg(self) -> f64;
    fn round_ties_even_if_integer(self) -> f64;
}

impl F64Ext for f64 {
    /// For an input that is already `1 - p`, compute `ln(1-p)` accurately by
    /// recovering `p` and using `ln_1p`.
    fn ln_1p_neg(self) -> f64 {
        // self == 1 - p  =>  ln(self) = ln_1p(self - 1)
        (self - 1.0).ln_1p()
    }

    /// Round to the nearest integer when within 1e-6 of one (binomial
    /// coefficients are integers; the exp/ln round trip leaves dust).
    fn round_ties_even_if_integer(self) -> f64 {
        let r = self.round();
        if (self - r).abs() < 1e-6 * r.max(1.0) {
            r
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n+1) = n!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (n, &f) in facts.iter().enumerate() {
            let lg = ln_gamma(n as f64 + 1.0);
            assert!(
                (lg - f64::ln(f)).abs() < 1e-10,
                "ln Γ({}) = {lg}, expected {}",
                n + 1,
                f64::ln(f)
            );
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(π)
        let expect = 0.5 * std::f64::consts::PI.ln();
        assert!((ln_gamma(0.5) - expect).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_reflection_small_x() {
        // Γ(0.25)·Γ(0.75) = π / sin(π/4) = π·sqrt(2)
        let lhs = ln_gamma(0.25) + ln_gamma(0.75);
        let rhs = (std::f64::consts::PI * std::f64::consts::SQRT_2).ln();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn choose_small_values_exact() {
        assert_eq!(choose(10, 0), 1.0);
        assert_eq!(choose(10, 1), 10.0);
        assert_eq!(choose(10, 5), 252.0);
        assert_eq!(choose(10, 10), 1.0);
        assert_eq!(choose(9, 4), 126.0);
        assert_eq!(choose(5, 7), 0.0);
    }

    #[test]
    fn choose_large_values_accurate() {
        // C(60, 30) = 118264581564861424
        let expect = 1.182_645_815_648_614_2e17;
        let got = choose(60, 30);
        assert!((got - expect).abs() / expect < 1e-9, "got {got}");
    }

    #[test]
    #[should_panic(expected = "ln_choose")]
    fn ln_choose_panics_on_k_above_n() {
        let _ = ln_choose(3, 4);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        for &p in &[0.0, 0.1, 0.5, 0.9, 1.0] {
            let total: f64 = (0..=10).map(|k| binomial_pmf(10, k, p).unwrap()).sum();
            assert!((total - 1.0).abs() < 1e-12, "p = {p}, total = {total}");
        }
    }

    #[test]
    fn binomial_pmf_known_values() {
        // Binomial(10, 0.5): P[X=5] = 252/1024
        let v = binomial_pmf(10, 5, 0.5).unwrap();
        assert!((v - 252.0 / 1024.0).abs() < 1e-12);
        // Binomial(10, 0.1): P[X=1] = 10 * 0.1 * 0.9^9
        let v = binomial_pmf(10, 1, 0.1).unwrap();
        assert!((v - 10.0 * 0.1 * 0.9f64.powi(9)).abs() < 1e-12);
    }

    #[test]
    fn binomial_pmf_degenerate_p() {
        assert_eq!(binomial_pmf(5, 0, 0.0).unwrap(), 1.0);
        assert_eq!(binomial_pmf(5, 3, 0.0).unwrap(), 0.0);
        assert_eq!(binomial_pmf(5, 5, 1.0).unwrap(), 1.0);
        assert_eq!(binomial_pmf(5, 4, 1.0).unwrap(), 0.0);
    }

    #[test]
    fn binomial_pmf_rejects_bad_p() {
        assert!(binomial_pmf(5, 2, -0.1).is_err());
        assert!(binomial_pmf(5, 2, 1.1).is_err());
    }

    #[test]
    fn binomial_pmf_k_above_n_is_zero() {
        assert_eq!(binomial_pmf(5, 6, 0.5).unwrap(), 0.0);
    }

    #[test]
    fn binomial_pmf_row_is_the_entries() {
        for &p in &[0.0, 1e-300, 0.1, 0.5, 0.9, 1.0 - 1e-16, 1.0] {
            for n in [0, 1, 2, 9, 10] {
                let row = binomial_pmf_row(n, p).unwrap();
                assert_eq!(row.len(), n as usize + 1);
                for (k, v) in (0..=n).zip(&row) {
                    let want = binomial_pmf(n, k, p).unwrap();
                    assert_eq!(v.to_bits(), want.to_bits(), "n = {n}, k = {k}, p = {p}");
                }
            }
        }
        assert!(binomial_pmf_row(5, -0.1).is_err());
        assert!(binomial_pmf_row(5, f64::NAN).is_err());
    }

    #[test]
    fn binomial_pmf_tiny_p_accurate() {
        // P[X=0] for p = 1e-12, n = 10 is (1-p)^10 ≈ 1 - 1e-11; ln_1p keeps
        // the digits.
        let v = binomial_pmf(10, 0, 1e-12).unwrap();
        assert!((v - (1.0 - 1e-11)).abs() < 1e-13);
    }
}
