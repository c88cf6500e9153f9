//! `Mtcd::rhs` against the textbook form of Eq. (1), bit for bit.
//!
//! The model tabulates `μ/i` and `η·μ/i` once and reuses each downloader
//! weight `xᵢ/i`; the reference below recomputes every term per class, as
//! the equation reads, so any drift in the tabulated path shows as a bit
//! difference.

use btfluid_core::mtcd::Mtcd;
use btfluid_core::FluidParams;
use btfluid_numkit::ode::OdeSystem;
use proptest::prelude::*;

/// Eq. (1) evaluated term by term, with negative populations clamped to 0.
fn textbook_rhs(params: &FluidParams, lambdas: &[f64], state: &[f64]) -> Vec<f64> {
    let (mu, eta, gamma) = (params.mu(), params.eta(), params.gamma());
    let k = lambdas.len();
    let (xs, ys) = state.split_at(k);
    let mut seed_pool = 0.0;
    let mut weight_total = 0.0;
    for i in 0..k {
        let class = (i + 1) as f64;
        seed_pool += mu / class * ys[i].max(0.0);
        weight_total += xs[i].max(0.0) / class;
    }
    let mut d = vec![0.0; 2 * k];
    for i in 0..k {
        let class = (i + 1) as f64;
        let x = xs[i].max(0.0);
        let from_seeds = if weight_total > 0.0 {
            (x / class) / weight_total * seed_pool
        } else {
            0.0
        };
        let served = eta * mu / class * x + from_seeds;
        d[i] = lambdas[i] - served;
        d[k + i] = served - gamma * ys[i].max(0.0);
    }
    d
}

/// A model of `K = 1..=12` classes with `K` strictly positive rates and a
/// state of `2K` entries, some of them negative.
fn model_and_state() -> impl Strategy<Value = (FluidParams, Vec<f64>, Vec<f64>)> {
    (1usize..=12, 0.001f64..0.1, 0.1f64..1.0, 0.01f64..0.2).prop_flat_map(|(k, mu, eta, gamma)| {
        (
            prop::collection::vec(0.01f64..5.0, k),
            prop::collection::vec(-10.0f64..100.0, 2 * k),
        )
            .prop_map(move |(lambdas, state)| {
                let params = FluidParams::new(mu, eta, gamma).unwrap();
                (params, lambdas, state)
            })
    })
}

fn assert_bits(got: &[f64], want: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (c, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.to_bits(), w.to_bits(), "d[{}]: {} vs {}", c, g, w);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rhs_matches_textbook_eq1((params, lambdas, state) in model_and_state()) {
        let mtcd = Mtcd::new(params, lambdas.clone()).unwrap();
        let mut d = vec![f64::NAN; mtcd.dim()];
        mtcd.rhs(0.0, &state, &mut d);
        assert_bits(&d, &textbook_rhs(&params, &lambdas, &state))?;
    }

    #[test]
    fn rhs_matches_textbook_eq1_without_downloaders(
        (params, lambdas, mut state) in model_and_state(),
    ) {
        // Every downloader population at or below zero: `weight_total` is
        // 0 and the seed pool idles.
        let k = lambdas.len();
        for x in &mut state[..k] {
            *x = -x.abs();
        }
        let mtcd = Mtcd::new(params, lambdas.clone()).unwrap();
        let mut d = vec![f64::NAN; mtcd.dim()];
        mtcd.rhs(0.0, &state, &mut d);
        assert_bits(&d, &textbook_rhs(&params, &lambdas, &state))?;
    }
}
