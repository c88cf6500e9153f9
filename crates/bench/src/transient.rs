//! Experiment X5 (ablation): flash-crowd transients of the fluid models.
//!
//! The paper evaluates only steady states; this ablation integrates the
//! MTCD ODE (Eq. 1) and the single-torrent baseline from a flash-crowd
//! initial condition and reports how long each takes to come within 5% of
//! its equilibrium downloader population.

use crate::table::Table;
use btfluid_core::base::SingleTorrent;
use btfluid_core::mtcd::Mtcd;
use btfluid_core::FluidParams;
use btfluid_numkit::ode::{integrate_observed, ObserveEvery, OdeSystem, Rk4};
use btfluid_numkit::series::TimeSeries;
use btfluid_numkit::NumError;
use btfluid_workload::CorrelationModel;

/// Configuration of the transient experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// Fluid parameters.
    pub params: FluidParams,
    /// Number of files `K`.
    pub k: u32,
    /// File correlation for the MTCD scenario.
    pub p: f64,
    /// Flash-crowd size: initial downloaders dropped into the system at
    /// `t = 0` (spread over classes proportionally to their entry rates).
    pub flash_crowd: f64,
    /// Integration horizon.
    pub horizon: f64,
    /// Fixed RK4 step.
    pub step: f64,
}

impl Default for TransientConfig {
    fn default() -> Self {
        Self {
            params: FluidParams::paper(),
            k: 10,
            p: 0.5,
            flash_crowd: 200.0,
            horizon: 2000.0,
            step: 0.5,
        }
    }
}

/// The transient trajectories and settling times.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    /// Total downloader population over time under MTCD (channels:
    /// `downloaders`, `seeds`).
    pub mtcd: TimeSeries,
    /// Single-torrent baseline trajectory (channels: `downloaders`,
    /// `seeds`).
    pub single: TimeSeries,
    /// Time for MTCD total downloaders to come within 5% of equilibrium.
    pub mtcd_settling: Option<f64>,
    /// Same for the single torrent.
    pub single_settling: Option<f64>,
}

impl TransientResult {
    /// Renders the settling-time summary.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "X5 — flash-crowd settling times (5% band around equilibrium)",
            vec!["system", "settling time"],
        );
        let fmt = |v: &Option<f64>| match v {
            Some(x) => format!("{x:.1}"),
            None => "did not settle".into(),
        };
        t.push_row(vec!["MTCD (Eq. 1)".into(), fmt(&self.mtcd_settling)]);
        t.push_row(vec!["single torrent".into(), fmt(&self.single_settling)]);
        t
    }
}

/// Last time the trajectory is *outside* the ±5% band around `target`
/// (after which it stays inside); `None` when it never enters for good.
fn settling_time(times: &[f64], values: &[f64], target: f64) -> Option<f64> {
    let band = 0.05 * target.abs().max(1e-9);
    let mut last_outside = None;
    for (&t, &v) in times.iter().zip(values) {
        if (v - target).abs() > band {
            last_outside = Some(t);
        }
    }
    match last_outside {
        // Outside at the very end means it never settled.
        Some(t) if (t - *times.last().expect("non-empty")).abs() < 1e-9 => None,
        Some(t) => Some(t),
        None => Some(0.0),
    }
}

/// Runs the experiment.
///
/// # Errors
/// Propagates model and integration errors.
pub fn run(cfg: &TransientConfig) -> Result<TransientResult, NumError> {
    let model = CorrelationModel::new(cfg.k, cfg.p, 1.0)?;

    // MTCD with a flash crowd: initial downloaders distributed over
    // classes in proportion to the entry rates.
    let mtcd = Mtcd::new(cfg.params, model.per_torrent_rates())?;
    let total_rate: f64 = mtcd.lambdas().iter().sum();
    let mut x0 = vec![0.0; mtcd.dim()];
    for (i, &l) in mtcd.lambdas().iter().enumerate() {
        x0[i] = cfg.flash_crowd * l / total_rate;
    }
    let raw = integrate_observed(
        &Rk4,
        &mtcd,
        0.0,
        &x0,
        cfg.horizon,
        cfg.step,
        ObserveEvery::Time(cfg.horizon / 400.0),
        None,
    )?;
    // Collapse per-class channels into totals.
    let k = mtcd.k();
    let mut mtcd_series = TimeSeries::new(vec!["downloaders", "seeds"])?;
    for (i, &t) in raw.times().iter().enumerate() {
        let (xs, ys) = raw.row(i).split_at(k);
        let mut x_tot = 0.0;
        let mut y_tot = 0.0;
        for (x, y) in xs.iter().zip(ys) {
            x_tot += x;
            y_tot += y;
        }
        mtcd_series.push(t, &[x_tot, y_tot])?;
    }
    let eq = mtcd.steady_state()?;
    let eq_downloaders: f64 = eq.downloaders.iter().sum();
    let mtcd_settling = settling_time(mtcd_series.times(), &mtcd_series.channel(0), eq_downloaders);

    // Single-torrent baseline with the same per-torrent arrival mass.
    let single = SingleTorrent::new(cfg.params, model.per_torrent_total_rate())?;
    let single_series = integrate_observed(
        &Rk4,
        &single,
        0.0,
        &[cfg.flash_crowd / cfg.k as f64, 0.0],
        cfg.horizon,
        cfg.step,
        ObserveEvery::Time(cfg.horizon / 400.0),
        Some(vec!["downloaders".into(), "seeds".into()]),
    )?;
    let single_eq = single.steady_state()?;
    let single_settling = settling_time(
        single_series.times(),
        &single_series.channel(0),
        single_eq.downloaders,
    );

    Ok(TransientResult {
        mtcd: mtcd_series,
        single: single_series,
        mtcd_settling,
        single_settling,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_crowd_settles() {
        let r = run(&TransientConfig::default()).unwrap();
        let s = r.mtcd_settling.expect("MTCD should settle");
        assert!(s > 0.0 && s < 2000.0, "settling = {s}");
        let s1 = r.single_settling.expect("single torrent should settle");
        assert!(s1 > 0.0 && s1 < 2000.0);
        // Final populations match the closed forms.
        let (t_last, last) = r.mtcd.last().unwrap();
        assert!(t_last >= 1999.0);
        assert!(last[0] > 0.0);
        assert!(r.table().render().contains("settling"));
    }

    #[test]
    fn settling_time_helper() {
        // Trajectory: outside, outside, inside, inside.
        let times = [0.0, 1.0, 2.0, 3.0];
        let values = [10.0, 8.0, 5.1, 5.0];
        assert_eq!(settling_time(&times, &values, 5.0), Some(1.0));
        // Never settles (outside at the end).
        let values = [10.0, 8.0, 5.1, 9.0];
        assert_eq!(settling_time(&times, &values, 5.0), None);
        // Always inside.
        let values = [5.0, 5.1, 5.0, 5.05];
        assert_eq!(settling_time(&times, &values, 5.0), Some(0.0));
    }

    #[test]
    fn no_flash_crowd_settles_fast() {
        // Starting from empty still converges (smaller settling than the
        // big flash crowd at equal parameters is not guaranteed, but it
        // must settle).
        let r = run(&TransientConfig {
            flash_crowd: 1e-9,
            ..Default::default()
        })
        .unwrap();
        assert!(r.mtcd_settling.is_some());
    }
}
