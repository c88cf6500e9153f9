//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics; `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Interquartile range as a share of the median (0 for fewer than two
/// samples or a zero median).
pub fn rel_iqr(samples: &[f64]) -> f64 {
    let m = median(samples);
    if samples.len() < 2 || m == 0.0 {
        return 0.0;
    }
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / m.abs()
}

/// The smallest sample; `NaN` for an empty slice.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Number of samples strictly above the `q`-quantile.
pub fn count_beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

/// Splits `samples` into ten consecutive blocks (one per sample when
/// there are fewer) and reduces each with `stat`: the spread of the
/// result is how far `stat` drifts within one run.
pub fn blocks(samples: &[f64], stat: fn(&[f64]) -> f64) -> Vec<f64> {
    let n = samples.len();
    let k = n.min(10);
    (0..k)
        .map(|b| stat(&samples[b * n / k..(b + 1) * n / k]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.25), 1.75);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn spread_and_tail_counts() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((rel_iqr(&s) - 49.5 / 50.5).abs() < 1e-12);
        assert_eq!(count_beyond(&s, 0.9), 10);
        assert_eq!(rel_iqr(&[3.0]), 0.0);
    }

    #[test]
    fn block_reduction() {
        let s: Vec<f64> = (0..25).map(f64::from).collect();
        let b = blocks(&s, min);
        assert_eq!(b.len(), 10);
        assert_eq!(b[0], 0.0);
        assert_eq!(b[9], 22.0);
        assert_eq!(blocks(&[3.0, 1.0], min), vec![3.0, 1.0]);
        assert!(blocks(&[], min).is_empty());
    }
}
