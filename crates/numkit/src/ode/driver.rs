//! Observed integration: record a trajectory into a [`TimeSeries`].

use super::fixed::{FixedStep, StepScratch};
use super::system::OdeSystem;
use crate::error::NumError;
use crate::series::TimeSeries;

/// Sampling policy for [`integrate_observed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObserveEvery {
    /// Record every integration step.
    Step,
    /// Record at (approximately) fixed time intervals `dt`.
    Time(f64),
}

/// Integrates `sys` from `t0` to `t1` with a fixed-step method, recording the
/// sampled trajectory into a fresh [`TimeSeries`] whose channels are named
/// `x0, x1, …` (or the provided `names`).
///
/// # Errors
/// Returns [`NumError::InvalidInput`] for inconsistent names/step/interval.
#[allow(clippy::too_many_arguments)] // a flat argument list mirrors the math: (method, system, t0, x0, t1, h, sampling, names)
pub fn integrate_observed<M, S>(
    method: &M,
    sys: &S,
    t0: f64,
    x0: &[f64],
    t1: f64,
    h: f64,
    observe: ObserveEvery,
    names: Option<Vec<String>>,
) -> Result<TimeSeries, NumError>
where
    M: FixedStep,
    S: OdeSystem,
{
    let n = sys.dim();
    if x0.len() != n {
        return Err(NumError::InvalidInput {
            what: "integrate_observed",
            detail: format!("x0 has {} entries, system dim is {n}", x0.len()),
        });
    }
    if !(h > 0.0) {
        return Err(NumError::InvalidInput {
            what: "integrate_observed",
            detail: format!("step must be > 0, got {h}"),
        });
    }
    if t1 < t0 {
        return Err(NumError::InvalidInput {
            what: "integrate_observed",
            detail: format!("t1 = {t1} < t0 = {t0}"),
        });
    }
    let names = match names {
        Some(ns) => {
            if ns.len() != n {
                return Err(NumError::InvalidInput {
                    what: "integrate_observed",
                    detail: format!("{} names for {n} channels", ns.len()),
                });
            }
            ns
        }
        None => (0..n).map(|i| format!("x{i}")).collect(),
    };
    if let ObserveEvery::Time(dt) = observe {
        if !(dt > 0.0) {
            return Err(NumError::InvalidInput {
                what: "integrate_observed",
                detail: format!("observation interval must be > 0, got {dt}"),
            });
        }
    }

    let mut series = TimeSeries::new(names)?;
    let mut x = x0.to_vec();
    let mut scratch = StepScratch::new();
    let mut t = t0;
    series.push(t, &x)?;
    let mut next_obs = match observe {
        ObserveEvery::Step => t0,
        ObserveEvery::Time(dt) => t0 + dt,
    };
    while t < t1 {
        let step = h.min(t1 - t);
        method.step_with(sys, t, &mut x, step, &mut scratch);
        t += step;
        let record = match observe {
            ObserveEvery::Step => true,
            ObserveEvery::Time(_) => t + 1e-12 >= next_obs || t >= t1,
        };
        if record {
            series.push(t, &x)?;
            if let ObserveEvery::Time(dt) = observe {
                while next_obs <= t {
                    next_obs += dt;
                }
            }
        }
    }
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ode::fixed::Rk4;
    use crate::ode::system::LinearSystem;

    fn decay() -> LinearSystem {
        LinearSystem::new(vec![-1.0], vec![0.0])
    }

    #[test]
    fn records_every_step() {
        let s = integrate_observed(
            &Rk4,
            &decay(),
            0.0,
            &[1.0],
            1.0,
            0.125,
            ObserveEvery::Step,
            None,
        )
        .unwrap();
        // 8 exactly representable steps + initial row.
        assert_eq!(s.len(), 9);
        assert_eq!(s.names()[0], "x0");
        let last = s.last().unwrap();
        assert!((last.0 - 1.0).abs() < 1e-12);
        assert!((last.1[0] - (-1.0f64).exp()).abs() < 1e-6);
    }

    #[test]
    fn records_at_time_intervals() {
        let s = integrate_observed(
            &Rk4,
            &decay(),
            0.0,
            &[1.0],
            1.0,
            0.01,
            ObserveEvery::Time(0.25),
            None,
        )
        .unwrap();
        // t = 0, .25, .5, .75, 1.0 -> 5 rows.
        assert_eq!(s.len(), 5);
        for (i, &t) in s.times().iter().enumerate() {
            assert!((t - 0.25 * i as f64).abs() < 1e-9, "t[{i}] = {t}");
        }
    }

    #[test]
    fn custom_names_used() {
        let s = integrate_observed(
            &Rk4,
            &decay(),
            0.0,
            &[1.0],
            0.5,
            0.1,
            ObserveEvery::Step,
            Some(vec!["downloaders".into()]),
        )
        .unwrap();
        assert_eq!(s.names()[0], "downloaders");
    }

    #[test]
    fn validation_errors() {
        let bad_x0 = integrate_observed(
            &Rk4,
            &decay(),
            0.0,
            &[1.0, 2.0],
            1.0,
            0.1,
            ObserveEvery::Step,
            None,
        );
        assert!(bad_x0.is_err());
        let bad_h = integrate_observed(
            &Rk4,
            &decay(),
            0.0,
            &[1.0],
            1.0,
            0.0,
            ObserveEvery::Step,
            None,
        );
        assert!(bad_h.is_err());
        let bad_interval = integrate_observed(
            &Rk4,
            &decay(),
            0.0,
            &[1.0],
            1.0,
            0.1,
            ObserveEvery::Time(0.0),
            None,
        );
        assert!(bad_interval.is_err());
        let bad_names = integrate_observed(
            &Rk4,
            &decay(),
            0.0,
            &[1.0],
            1.0,
            0.1,
            ObserveEvery::Step,
            Some(vec!["a".into(), "b".into()]),
        );
        assert!(bad_names.is_err());
        let bad_t = integrate_observed(
            &Rk4,
            &decay(),
            1.0,
            &[1.0],
            0.0,
            0.1,
            ObserveEvery::Step,
            None,
        );
        assert!(bad_t.is_err());
    }

    #[test]
    fn trajectory_matches_analytic_solution_pointwise() {
        let s = integrate_observed(
            &Rk4,
            &decay(),
            0.0,
            &[1.0],
            2.0,
            0.05,
            ObserveEvery::Step,
            None,
        )
        .unwrap();
        let xs = s.channel(0);
        for (&t, &x) in s.times().iter().zip(&xs) {
            assert!((x - (-t).exp()).abs() < 1e-7, "t = {t}");
        }
    }
}
