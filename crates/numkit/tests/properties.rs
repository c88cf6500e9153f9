//! Property tests for the numeric kernels (proptest).

use btfluid_numkit::linalg::{Lu, Matrix};
use btfluid_numkit::ode::{Dopri5, Dopri5Options, FixedStep, LinearSystem, Rk4};
use btfluid_numkit::roots::{bisect, brent, RootOptions};
use btfluid_numkit::stats::Welford;
use proptest::prelude::*;

/// Strategy: a stable 2×2 linear system (negative-definite-ish matrix) with
/// bounded forcing.
fn stable_system() -> impl Strategy<Value = (LinearSystem, Vec<f64>)> {
    (
        0.1f64..3.0,
        0.1f64..3.0,
        -1.0f64..1.0,
        -1.0f64..1.0,
        -2.0f64..2.0,
        -2.0f64..2.0,
        -2.0f64..2.0,
        -2.0f64..2.0,
    )
        .prop_map(|(d1, d2, o1, o2, b1, b2, x1, x2)| {
            // Diagonally dominant negative matrix ⇒ stable.
            let a = vec![-(d1 + o1.abs()), o1, o2, -(d2 + o2.abs())];
            (LinearSystem::new(a, vec![b1, b2]), vec![x1, x2])
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rk4_and_dopri5_agree_on_stable_systems((sys, x0) in stable_system()) {
        let mut a = x0.clone();
        Rk4.integrate(&sys, 0.0, &mut a, 5.0, 1e-3);
        let mut b = x0;
        Dopri5
            .integrate(&sys, 0.0, &mut b, 5.0, Dopri5Options::default(), |_, _| {})
            .unwrap();
        for (ai, bi) in a.iter().zip(&b) {
            prop_assert!((ai - bi).abs() < 1e-5, "rk4 {ai} vs dopri5 {bi}");
        }
    }

    #[test]
    fn root_finders_agree_on_monotone_cubics(
        a in 0.1f64..5.0,
        b in -3.0f64..3.0,
        c in -20.0f64..20.0,
    ) {
        // f(x) = a·x³ + b·x + c with a > 0 and b ≥ 0 is strictly monotone…
        let b = b.abs();
        let f = |x: f64| a * x * x * x + b * x + c;
        // …so it has exactly one real root inside a wide bracket.
        let (lo, hi) = (-100.0, 100.0);
        prop_assume!(f(lo) < 0.0 && f(hi) > 0.0);
        let opts = RootOptions::default();
        let r1 = bisect(f, lo, hi, opts).unwrap().x;
        let r2 = brent(f, lo, hi, opts).unwrap().x;
        prop_assert!((r1 - r2).abs() < 1e-6, "bisect {r1} vs brent {r2}");
        prop_assert!(f(r2).abs() < 1e-6);
    }

    #[test]
    fn welford_merge_is_order_independent(
        xs in prop::collection::vec(-1e3f64..1e3, 4..120),
        split in 1usize..3,
    ) {
        let k = xs.len() * split / 4;
        let k = k.clamp(1, xs.len() - 1);
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..k] {
            left.push(x);
        }
        for &x in &xs[k..] {
            right.push(x);
        }
        // Merge in both orders.
        let mut lr = left;
        lr.merge(&right);
        let mut rl = right;
        rl.merge(&left);
        for m in [lr, rl] {
            prop_assert_eq!(m.count(), whole.count());
            prop_assert!((m.mean() - whole.mean()).abs() < 1e-9);
            prop_assert!((m.variance() - whole.variance()).abs() < 1e-6 * whole.variance().max(1.0));
        }
    }

    #[test]
    fn lu_solves_diagonally_dominant_systems(
        entries in prop::collection::vec(-1.0f64..1.0, 16),
        rhs in prop::collection::vec(-10.0f64..10.0, 4),
    ) {
        let n = 4;
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                let v = entries[i * n + j];
                m[(i, j)] = v;
                row_sum += v.abs();
            }
            m[(i, i)] += row_sum + 1.0; // dominance ⇒ invertible
        }
        let lu = Lu::factor(&m).unwrap();
        let x = lu.solve(&rhs);
        let back = m.mul_vec(&x);
        for (bi, ri) in back.iter().zip(&rhs) {
            prop_assert!((bi - ri).abs() < 1e-8, "residual {}", bi - ri);
        }
    }

    #[test]
    fn binomial_pmf_is_a_distribution(n in 1u32..40, p in 0.0f64..=1.0) {
        let total: f64 = (0..=n)
            .map(|k| btfluid_numkit::special::binomial_pmf(n, k, p).unwrap())
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let mean: f64 = (0..=n)
            .map(|k| k as f64 * btfluid_numkit::special::binomial_pmf(n, k, p).unwrap())
            .sum();
        prop_assert!((mean - n as f64 * p).abs() < 1e-8);
    }

    #[test]
    fn binomial_pmf_row_is_bit_equal_to_the_entries(
        n in 0u32..=64,
        p in prop_oneof![
            Just(0.0f64),
            Just(1.0f64),
            Just(1e-300f64),
            Just(1.0f64 - 1e-16),
            0.0f64..=1.0,
        ],
    ) {
        let row = btfluid_numkit::special::binomial_pmf_row(n, p).unwrap();
        prop_assert_eq!(row.len(), n as usize + 1);
        for (k, v) in (0..=n).zip(&row) {
            let want = btfluid_numkit::special::binomial_pmf(n, k, p).unwrap();
            prop_assert_eq!(v.to_bits(), want.to_bits(), "n = {}, k = {}, p = {}", n, k, p);
        }
    }

    #[test]
    fn quadrature_linearity(
        a in -5.0f64..5.0,
        b in -5.0f64..5.0,
        hi in 0.1f64..10.0,
    ) {
        // ∫(a·x + b) over [0, hi] = a·hi²/2 + b·hi, exact for trapezoid.
        let got = btfluid_numkit::quadrature::trapezoid(|x| a * x + b, 0.0, hi, 16).unwrap();
        let expect = a * hi * hi / 2.0 + b * hi;
        prop_assert!((got - expect).abs() < 1e-9 * expect.abs().max(1.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn welford_merge_matches_sequential_any_split(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
        cut in 0usize..200,
    ) {
        let cut = cut % (xs.len() + 1);
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        // One side of the split may be empty — merging it must neither
        // poison min/max nor shift the moments.
        let mut a = Welford::default();
        let mut b = Welford::default();
        for &x in &xs[..cut] {
            a.push(x);
        }
        for &x in &xs[cut..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), all.count());
        prop_assert!((a.mean() - all.mean()).abs() < 1e-9 * all.mean().abs().max(1.0));
        prop_assert!((a.variance() - all.variance()).abs() < 1e-6 * all.variance().max(1.0));
        prop_assert_eq!(a.min(), all.min());
        prop_assert_eq!(a.max(), all.max());
    }

    #[test]
    fn welford_raw_parts_round_trip_is_bit_exact(
        xs in proptest::collection::vec(-1e3f64..1e3, 0..64),
    ) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let (n, mean, m2, min, max) = w.raw_parts();
        let back = Welford::from_raw_parts(n, mean, m2, min, max);
        prop_assert_eq!(back.count(), w.count());
        prop_assert_eq!(back.mean().to_bits(), w.mean().to_bits());
        prop_assert_eq!(back.min().to_bits(), w.min().to_bits());
        prop_assert_eq!(back.max().to_bits(), w.max().to_bits());
        // Continuing the statistic after the round-trip matches never
        // having serialized at all.
        let mut cont = back;
        let mut direct = w;
        cont.push(0.5);
        direct.push(0.5);
        prop_assert_eq!(cont.mean().to_bits(), direct.mean().to_bits());
    }

    #[test]
    fn percentile_bounded_by_extremes(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
        q in 0.0f64..=1.0,
    ) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let v = btfluid_numkit::stats::percentile(&xs, q).unwrap();
        prop_assert!(v >= lo && v <= hi, "percentile {v} outside [{lo}, {hi}]");
        prop_assert_eq!(btfluid_numkit::stats::percentile(&xs, 0.0).unwrap(), lo);
        prop_assert_eq!(btfluid_numkit::stats::percentile(&xs, 1.0).unwrap(), hi);
    }

    #[test]
    fn percentile_never_panics_on_nan(
        xs in proptest::collection::vec(
            prop_oneof![(-1e3f64..1e3).prop_map(|x| x), Just(f64::NAN)],
            1..32,
        ),
        q in 0.0f64..=1.0,
    ) {
        // Either a clean value or a typed error — a panic fails the test.
        let res = btfluid_numkit::stats::percentile(&xs, q);
        if xs.iter().any(|v| v.is_nan()) {
            prop_assert!(res.is_err());
        } else {
            prop_assert!(res.unwrap().is_finite());
        }
    }
}
