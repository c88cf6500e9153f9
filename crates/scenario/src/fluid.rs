//! Time-varying fluid model: the MTCD ODE driven by the same schedules
//! the DES hook consumes, for transient DES-vs-fluid comparison beyond
//! steady state.
//!
//! [`ScheduledMtcd`] is [`btfluid_core::mtcd::Mtcd`] with the constant
//! per-torrent entry rates replaced by
//! `λⱼⁱ(t) = λ₀(t) · C(K−1, i−1) p(t)^{i−1} (1−p(t))^{K−i} · p(t)`
//! — the correlation model's per-torrent rates evaluated along the
//! program's schedules. By symmetry one torrent's trajectory suffices;
//! system-wide download pairs are `K · Σᵢ xⱼⁱ`. [`ScheduledMtsd`] is the
//! staged per-class counterpart for MTSD.
//!
//! **Cost of a right-hand side.** The binomial weights `pmf_{n,p}(0..=n)`
//! depend on the correlation level only. Each `rhs` call reads `p(t)` and
//! `λ₀(t)` once. For a `Constant` correlation the weight row is computed
//! once, on the first read, and reused, so an evaluation is `O(K)` (MTCD)
//! or `O(K²)` (MTSD) arithmetic with no special function. Any other
//! correlation shape costs one [`binomial_pmf_row`] per call. Either way
//! every rate is bit-equal to the per-class formula
//! `λ₀·binomial_pmf(n, i, p)·…`.

use crate::program::ScenarioProgram;
use crate::schedule::Schedule;
use btfluid_core::FluidParams;
use btfluid_numkit::ode::{integrate_observed, ObserveEvery, OdeSystem, Rk4};
use btfluid_numkit::series::TimeSeries;
use btfluid_numkit::special::binomial_pmf_row;
use btfluid_numkit::NumError;
use std::borrow::Cow;
use std::sync::OnceLock;

/// `λ₀(t)` and the binomial entry weights `pmf_{n,p(t)}(0..=n)` the
/// scheduled models build their entry rates from.
#[derive(Debug, Clone)]
struct EntryWeights {
    lambda0: Schedule,
    correlation: Schedule,
    n: u32,
    /// The weight row of a `Constant` correlation, filled on the first
    /// read.
    constant: OnceLock<Vec<f64>>,
}

/// The entry-rate factors at one time, for `p(t) > 0`.
struct Entry<'a> {
    p: f64,
    lambda0: f64,
    weights: Cow<'a, [f64]>,
}

impl Entry<'_> {
    /// MTCD's per-torrent rate of the class with `j` other files,
    /// `λ₀·pmf_{K−1,p}(j)·p`.
    fn per_torrent(&self, j: usize) -> f64 {
        self.lambda0 * self.weights[j] * self.p
    }

    /// MTSD's system-wide rate of class `i`, `λ₀·pmf_{K,p}(i)`.
    fn class(&self, i: usize) -> f64 {
        self.lambda0 * self.weights[i]
    }
}

impl EntryWeights {
    fn new(program: &ScenarioProgram, n: u32) -> Self {
        Self {
            lambda0: program.lambda0.clone(),
            correlation: program.correlation.clone(),
            n,
            constant: OnceLock::new(),
        }
    }

    /// `p(t)` clamped to `[0, 1]`, `λ₀(t)` and the weights at `p(t)`;
    /// `None` when `p(t) = 0` (no one enters).
    fn at(&self, t: f64) -> Option<Entry<'_>> {
        let p = self.correlation.value(t).clamp(0.0, 1.0);
        if p == 0.0 {
            return None;
        }
        let weights = match self.correlation {
            Schedule::Constant(_) => {
                Cow::Borrowed(self.constant.get_or_init(|| self.row(p)).as_slice())
            }
            _ => Cow::Owned(self.row(p)),
        };
        Some(Entry {
            p,
            lambda0: self.lambda0.value(t),
            weights,
        })
    }

    /// The weight row at `p ∈ [0, 1]`.
    fn row(&self, p: f64) -> Vec<f64> {
        binomial_pmf_row(self.n, p)
            .expect("validated schedules are finite, so p(t) clamps into [0, 1]")
    }
}

/// The MTCD fluid model of one symmetric torrent with schedule-driven
/// entry rates. State layout `[x₁..x_K, y₁..y_K]`.
#[derive(Debug, Clone)]
pub struct ScheduledMtcd {
    params: FluidParams,
    k: usize,
    /// Weights over the `K − 1` other files of a class.
    entry: EntryWeights,
}

impl ScheduledMtcd {
    /// Builds the system from a validated program's parameters and
    /// schedules.
    ///
    /// # Errors
    /// Propagates [`ScenarioProgram::validate`] failures.
    pub fn from_program(program: &ScenarioProgram) -> Result<Self, NumError> {
        program.validate()?;
        Ok(Self {
            params: program.params,
            k: program.k as usize,
            entry: EntryWeights::new(program, program.k - 1),
        })
    }

    /// Number of classes `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Per-torrent entry rate `λⱼⁱ(t)` for class `i` (1-based).
    pub fn lambda_at(&self, t: f64, i: usize) -> f64 {
        self.entry.at(t).map_or(0.0, |e| e.per_torrent(i - 1))
    }
}

impl OdeSystem for ScheduledMtcd {
    fn dim(&self) -> usize {
        2 * self.k
    }

    fn rhs(&self, t: f64, state: &[f64], d: &mut [f64]) {
        let k = self.k;
        let (mu, eta, gamma) = (self.params.mu(), self.params.eta(), self.params.gamma());
        let (xs, ys) = state.split_at(k);
        let entry = self.entry.at(t);

        // Seed service pool Σₗ (μ/l)·yₗ and downloader share weights xᵢ/i,
        // exactly as in the stationary MTCD rhs.
        let mut seed_pool = 0.0;
        let mut weight_total = 0.0;
        for i in 0..k {
            let class = (i + 1) as f64;
            seed_pool += mu / class * ys[i].max(0.0);
            weight_total += xs[i].max(0.0) / class;
        }

        for i in 0..k {
            let class = (i + 1) as f64;
            let x = xs[i].max(0.0);
            let tft = eta * mu / class * x;
            let from_seeds = if weight_total > 0.0 {
                (x / class) / weight_total * seed_pool
            } else {
                0.0
            };
            let served = tft + from_seeds;
            d[i] = entry.as_ref().map_or(0.0, |e| e.per_torrent(i)) - served;
            d[k + i] = served - gamma * ys[i].max(0.0);
        }
    }
}

/// The staged MTSD fluid model of the whole system with schedule-driven
/// class entry rates.
///
/// A class-`i` MTSD user downloads its `i` files one at a time, seeding
/// each finished file for `Exp(γ)` before moving on. The fluid state
/// tracks, for every class `i = 1..=K` and stage `j = 1..=i`,
/// `x_{i,j}` (users downloading their `j`-th file) and `s_{i,j}` (users
/// seeding their `j`-th file) — `K(K+1)` components total, laid out
/// `[x-block | s-block]` with class `i` occupying `i` consecutive stages
/// at offset `i(i−1)/2` inside each block.
///
/// Every downloader works in a single-file Qiu–Srikant torrent, so its
/// completion rate is `μη + μ·(seeds/downloaders)` in *its* torrent;
/// under the symmetric workload the seed/downloader ratio is the same in
/// every torrent and the aggregate closure
/// `r(t) = μη + μ·S_tot/X_tot` (0 seed term when `X_tot = 0`) is exact.
/// At the fixed point `r = γμη/(γ−μ)` — the closed form
/// [`btfluid_core::mtsd::Mtsd::steady_service_rate`].
///
/// Flows: `ẋ_{i,1} = λᵢ(t) − r·x_{i,1}`, `ṡ_{i,j} = r·x_{i,j} − γ·s_{i,j}`,
/// `ẋ_{i,j+1} = γ·s_{i,j} − r·x_{i,j+1}`; class-`K` seeds in stage `K`
/// drain out of the system (the user departs). Unlike [`ScheduledMtcd`]
/// this system is per *class*, not per torrent:
/// `λᵢ(t) = λ₀(t)·C(K,i)pⁱ(1−p)^{K−i}` and downloading users of class `i`
/// are simply `Σⱼ x_{i,j}`.
#[derive(Debug, Clone)]
pub struct ScheduledMtsd {
    params: FluidParams,
    k: usize,
    /// Weights over all `K` files.
    entry: EntryWeights,
}

impl ScheduledMtsd {
    /// Builds the system from a validated program's parameters and
    /// schedules.
    ///
    /// # Errors
    /// Propagates [`ScenarioProgram::validate`] failures.
    pub fn from_program(program: &ScenarioProgram) -> Result<Self, NumError> {
        program.validate()?;
        Ok(Self {
            params: program.params,
            k: program.k as usize,
            entry: EntryWeights::new(program, program.k),
        })
    }

    /// Number of classes `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// System-wide class entry rate `λᵢ(t) = λ₀(t)·C(K,i)pⁱ(1−p)^{K−i}`
    /// for class `i` (1-based).
    pub fn class_rate_at(&self, t: f64, i: usize) -> f64 {
        self.entry.at(t).map_or(0.0, |e| e.class(i))
    }

    /// Index of `x_{i,j}` (class `i`, stage `j`, both 1-based) in the
    /// state vector. The matching seed stage `s_{i,j}` lives at
    /// `stage_index + dim()/2`.
    pub fn stage_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(1 <= j && j <= i && i <= self.k);
        i * (i - 1) / 2 + (j - 1)
    }

    /// Per-class downloading users `Σⱼ x_{i,j}` (index `class − 1`),
    /// clamped at zero against transient undershoot.
    pub fn class_downloaders(&self, state: &[f64], out: &mut [f64]) {
        let xs = &state[..self.dim() / 2];
        for i in 1..=self.k {
            out[i - 1] = (0..i)
                .map(|j| xs[self.stage_index(i, j + 1)].max(0.0))
                .sum();
        }
    }
}

impl OdeSystem for ScheduledMtsd {
    fn dim(&self) -> usize {
        self.k * (self.k + 1)
    }

    fn rhs(&self, t: f64, state: &[f64], d: &mut [f64]) {
        let half = self.dim() / 2;
        let (mu, eta, gamma) = (self.params.mu(), self.params.eta(), self.params.gamma());
        let (xs, ss) = state.split_at(half);
        let entry = self.entry.at(t);

        let x_tot: f64 = xs.iter().map(|x| x.max(0.0)).sum();
        let s_tot: f64 = ss.iter().map(|s| s.max(0.0)).sum();
        let r = if x_tot > 0.0 {
            mu * eta + mu * s_tot / x_tot
        } else {
            mu * eta
        };

        for i in 1..=self.k {
            for j in 1..=i {
                let idx = self.stage_index(i, j);
                let inflow = if j == 1 {
                    entry.as_ref().map_or(0.0, |e| e.class(i))
                } else {
                    gamma * ss[idx - 1].max(0.0)
                };
                let served = r * xs[idx].max(0.0);
                d[idx] = inflow - served;
                d[half + idx] = served - gamma * ss[idx].max(0.0);
            }
        }
    }
}

/// Integrates the scheduled MTCD model from an empty torrent over
/// `[0, horizon]`, sampling every `program.record_every`. Channels are
/// named `x1..xK, y1..yK`.
///
/// # Errors
/// Propagates program validation and integration errors.
pub fn transient(program: &ScenarioProgram, h: f64) -> Result<TimeSeries, NumError> {
    let sys = ScheduledMtcd::from_program(program)?;
    let k = sys.k();
    let names = (1..=k)
        .map(|i| format!("x{i}"))
        .chain((1..=k).map(|i| format!("y{i}")))
        .collect();
    let x0 = vec![0.0; sys.dim()];
    integrate_observed(
        &Rk4,
        &sys,
        0.0,
        &x0,
        program.horizon,
        h,
        ObserveEvery::Time(program.record_every),
        Some(names),
    )
}

/// Time-averaged system-wide **downloading users** predicted by the fluid
/// model over the program's stationary window `[warmup, horizon]`:
/// `Σᵢ K·x̄ⱼⁱ/i` (a class-`i` user appears in `i` of the `K` symmetric
/// torrents, so per-torrent populations over-count users by `i/K`).
///
/// This is the population whose Little's-law dual — the user's full
/// download span — is what the stationary X3 validation showed the DES
/// reproduces; per-(peer,file) pairs finish staggered in the DES and sit
/// systematically below the fluid `xⱼⁱ`.
///
/// # Errors
/// Propagates [`transient`] errors.
pub fn fluid_avg_downloaders(program: &ScenarioProgram, h: f64) -> Result<f64, NumError> {
    let series = transient(program, h)?;
    let k = program.k as usize;
    let times = series.times();
    let mut total = 0.0;
    let mut count = 0usize;
    for (idx, &t) in times.iter().enumerate() {
        if t < program.warmup || t > program.horizon {
            continue;
        }
        for (i, &x) in series.row(idx)[..k].iter().enumerate() {
            total += k as f64 * x.max(0.0) / (i + 1) as f64;
        }
        count += 1;
    }
    if count == 0 {
        return Err(NumError::InvalidInput {
            what: "fluid_avg_downloaders",
            detail: "no samples fell inside the stationary window".into(),
        });
    }
    Ok(total / count as f64)
}

/// The DES counterpart: time-averaged number of users in a downloading
/// phase, summed over classes, from a run's population statistics.
pub fn des_avg_downloaders(outcome: &btfluid_des::SimOutcome) -> f64 {
    (1..=outcome.k())
        .map(|i| outcome.population.avg_downloader_peers(i))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn stationary_schedule_matches_closed_form() {
        // With constant schedules the scheduled system must settle at the
        // stationary Mtcd closed form.
        let mut program = registry::flash_crowd();
        program.lambda0 = Schedule::Constant(0.25);
        let sys = ScheduledMtcd::from_program(&program).unwrap();

        let model = btfluid_workload::CorrelationModel::new(10, 0.4, 0.25).unwrap();
        let mtcd =
            btfluid_core::mtcd::Mtcd::new(program.params, model.per_torrent_rates()).unwrap();
        let steady = mtcd.steady_state().unwrap();

        // Entry rates must agree exactly with the correlation model.
        for (i, &l) in model.per_torrent_rates().iter().enumerate() {
            assert!(
                (sys.lambda_at(1234.5, i + 1) - l).abs() < 1e-12,
                "λ[{i}] mismatch"
            );
        }

        // Long integration converges to the closed-form fixed point.
        let series = transient(&program, 0.5).unwrap();
        let last = series.times().len() - 1;
        for i in 0..10 {
            let x = series.channel(i)[last];
            let want = steady.downloaders[i];
            assert!(
                (x - want).abs() < 0.05 * want.max(0.5),
                "x[{i}] = {x}, closed form {want}"
            );
        }
    }

    #[test]
    fn avg_downloaders_matches_column_copy_sum_bit_for_bit() {
        let program = registry::flash_crowd();
        let got = fluid_avg_downloaders(&program, 0.5).unwrap();
        // Reference: the same sum with each class's column copied out.
        let series = transient(&program, 0.5).unwrap();
        let k = program.k as usize;
        let columns: Vec<Vec<f64>> = (0..k).map(|i| series.channel(i)).collect();
        let (mut total, mut count) = (0.0, 0usize);
        for (idx, &t) in series.times().iter().enumerate() {
            if t < program.warmup || t > program.horizon {
                continue;
            }
            for (i, column) in columns.iter().enumerate() {
                total += k as f64 * column[idx].max(0.0) / (i + 1) as f64;
            }
            count += 1;
        }
        assert!(count > 0);
        assert_eq!(got.to_bits(), (total / count as f64).to_bits());
    }

    #[test]
    fn flash_crowd_surge_raises_fluid_population() {
        let program = registry::flash_crowd();
        let series = transient(&program, 0.5).unwrap();
        let total_at = |t_target: f64| {
            let idx = series
                .times()
                .iter()
                .position(|&t| t >= t_target)
                .expect("time in range");
            series.row(idx)[..10].iter().sum::<f64>()
        };
        let before = total_at(1550.0);
        let peak = total_at(2200.0);
        assert!(
            peak > 2.0 * before,
            "surge should visibly grow the swarm: before {before}, peak {peak}"
        );
    }

    #[test]
    fn mtsd_stationary_stages_match_closed_form() {
        // Constant workload: every stage must settle at x_{i,j} = λᵢ·T,
        // s_{i,j} = λᵢ/γ with T = 1/steady_service_rate = 60.
        let mut program = registry::flash_crowd();
        program.lambda0 = Schedule::Constant(0.25);
        let sys = ScheduledMtsd::from_program(&program).unwrap();
        let rate = btfluid_core::mtsd::Mtsd::new(program.params)
            .steady_service_rate()
            .unwrap();
        let t_dl = 1.0 / rate;
        let gamma = program.params.gamma();

        let x0 = vec![0.0; sys.dim()];
        let series = integrate_observed(
            &Rk4,
            &sys,
            0.0,
            &x0,
            20_000.0,
            0.5,
            ObserveEvery::Time(1000.0),
            None,
        )
        .unwrap();
        let last = series.times().len() - 1;
        let half = sys.dim() / 2;
        for i in 1..=10usize {
            let li = sys.class_rate_at(0.0, i);
            for j in 1..=i {
                let x = series.channel(sys.stage_index(i, j))[last];
                let s = series.channel(half + sys.stage_index(i, j))[last];
                assert!(
                    (x - li * t_dl).abs() < 0.02 * (li * t_dl).max(0.05),
                    "x[{i},{j}] = {x}, want {}",
                    li * t_dl
                );
                assert!(
                    (s - li / gamma).abs() < 0.02 * (li / gamma).max(0.05),
                    "s[{i},{j}] = {s}, want {}",
                    li / gamma
                );
            }
        }
        // Total downloading users Σᵢ i·λᵢ·T = λ₀·K·p·T.
        let mut dl = vec![0.0; 10];
        let state: Vec<f64> = (0..sys.dim()).map(|c| series.channel(c)[last]).collect();
        sys.class_downloaders(&state, &mut dl);
        let total: f64 = dl.iter().sum();
        let want = 0.25 * 10.0 * 0.4 * t_dl;
        assert!(
            (total - want).abs() < 0.02 * want,
            "total downloaders {total}, want {want}"
        );
    }

    #[test]
    fn mtsd_class_rates_sum_to_entrant_rate() {
        let program = registry::flash_crowd();
        let sys = ScheduledMtsd::from_program(&program).unwrap();
        let total: f64 = (1..=10).map(|i| sys.class_rate_at(1000.0, i)).sum();
        // Σᵢ λᵢ = λ₀(1 − (1−p)^K).
        let want = program.lambda0.value(1000.0) * (1.0 - 0.6f64.powi(10));
        assert!((total - want).abs() < 1e-12, "Σλᵢ = {total}, want {want}");
    }

    #[test]
    fn zero_correlation_clamps_to_zero_rate() {
        let mut program = registry::flash_crowd();
        program.correlation = Schedule::Piecewise {
            initial: 0.4,
            steps: vec![(2000.0, 0.0)],
        };
        let sys = ScheduledMtcd::from_program(&program).unwrap();
        assert!(sys.lambda_at(1000.0, 1) > 0.0);
        assert_eq!(sys.lambda_at(3000.0, 1), 0.0);
    }
}
