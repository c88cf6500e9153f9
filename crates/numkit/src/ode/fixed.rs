//! Fixed-step explicit Runge–Kutta methods: Euler, Heun and classical RK4.
//!
//! **Scratch contract.** A method works in stage buffers taken from a
//! caller-owned [`StepScratch`]: [`FixedStep::step_with`] sizes them to
//! the system on every call (allocating only when they must grow) and
//! writes each one before reading it, so a scratch can be carried across
//! steps, systems and methods. [`FixedStep::integrate`] and
//! [`integrate_observed`](super::integrate_observed) keep one scratch for
//! the whole run; [`FixedStep::step`] passes a fresh one. The contents a
//! scratch carries in never change a step's result, provided the system's
//! [`rhs`](OdeSystem::rhs) writes every component of its output, as the
//! trait requires.

use super::system::OdeSystem;

/// Caller-owned stage buffers for [`FixedStep::step_with`]. Empty until
/// the first step; it then holds one allocation sized for the largest
/// system and method it has served.
#[derive(Debug, Clone, Default)]
pub struct StepScratch {
    buf: Vec<f64>,
}

impl StepScratch {
    /// An empty scratch (allocates nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// `N` disjoint stage buffers of length `n`.
    fn stages<const N: usize>(&mut self, n: usize) -> [&mut [f64]; N] {
        if self.buf.len() < N * n {
            self.buf.resize(N * n, 0.0);
        }
        let mut rest = &mut self.buf[..N * n];
        std::array::from_fn(|_| {
            let (stage, tail) = std::mem::take(&mut rest).split_at_mut(n);
            rest = tail;
            stage
        })
    }
}

/// A fixed-step one-step method.
///
/// `step_with` advances the state in place by `h`; the default `integrate`
/// walks from `t0` to `t1` with steps of at most `h`, shrinking the final
/// step to land on `t1` exactly.
pub trait FixedStep {
    /// Classical order of accuracy of the method (for tests/step heuristics).
    fn order(&self) -> usize;

    /// Advances `x` from `t` to `t + h` in place, working in `scratch`'s
    /// stage buffers.
    fn step_with<S: OdeSystem>(
        &self,
        sys: &S,
        t: f64,
        x: &mut [f64],
        h: f64,
        scratch: &mut StepScratch,
    );

    /// Advances `x` from `t` to `t + h` in place with fresh stage buffers.
    fn step<S: OdeSystem>(&self, sys: &S, t: f64, x: &mut [f64], h: f64) {
        self.step_with(sys, t, x, h, &mut StepScratch::new());
    }

    /// Integrates from `t0` to `t1` with step `h` (the last step shrinks to
    /// hit `t1` exactly). `x` holds `x(t0)` on entry and `x(t1)` on exit.
    ///
    /// # Panics
    /// Panics when `h <= 0` or `t1 < t0` (programming errors — all call
    /// sites in this workspace construct these from validated parameters).
    fn integrate<S: OdeSystem>(&self, sys: &S, t0: f64, x: &mut [f64], t1: f64, h: f64) {
        assert!(h > 0.0, "step size must be positive, got {h}");
        assert!(t1 >= t0, "t1 = {t1} must be >= t0 = {t0}");
        let mut scratch = StepScratch::new();
        let mut t = t0;
        while t < t1 {
            let step = h.min(t1 - t);
            self.step_with(sys, t, x, step, &mut scratch);
            t += step;
        }
    }
}

/// Forward Euler (order 1). Mostly useful as a baseline in convergence tests
/// and for very smooth relaxation dynamics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Euler;

impl FixedStep for Euler {
    fn order(&self) -> usize {
        1
    }

    fn step_with<S: OdeSystem>(
        &self,
        sys: &S,
        t: f64,
        x: &mut [f64],
        h: f64,
        scratch: &mut StepScratch,
    ) {
        let n = sys.dim();
        debug_assert_eq!(x.len(), n);
        let [k] = scratch.stages(n);
        sys.rhs(t, x, k);
        for (xi, ki) in x.iter_mut().zip(k.iter()) {
            *xi += h * ki;
        }
    }
}

/// Heun's method (explicit trapezoid, order 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Heun;

impl FixedStep for Heun {
    fn order(&self) -> usize {
        2
    }

    fn step_with<S: OdeSystem>(
        &self,
        sys: &S,
        t: f64,
        x: &mut [f64],
        h: f64,
        scratch: &mut StepScratch,
    ) {
        let n = sys.dim();
        let [k1, k2, pred] = scratch.stages(n);
        sys.rhs(t, x, k1);
        for i in 0..n {
            pred[i] = x[i] + h * k1[i];
        }
        sys.rhs(t + h, pred, k2);
        for i in 0..n {
            x[i] += 0.5 * h * (k1[i] + k2[i]);
        }
    }
}

/// Classical fourth-order Runge–Kutta.
///
/// The default fixed-step method for transient fluid-model trajectories
/// (Figure X5, flash-crowd analysis); cheap, fourth order, and the step can
/// be chosen from the slowest time constant `1/γ`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rk4;

impl FixedStep for Rk4 {
    fn order(&self) -> usize {
        4
    }

    fn step_with<S: OdeSystem>(
        &self,
        sys: &S,
        t: f64,
        x: &mut [f64],
        h: f64,
        scratch: &mut StepScratch,
    ) {
        let n = sys.dim();
        let [k1, k2, k3, k4, tmp] = scratch.stages(n);

        sys.rhs(t, x, k1);
        for i in 0..n {
            tmp[i] = x[i] + 0.5 * h * k1[i];
        }
        sys.rhs(t + 0.5 * h, tmp, k2);
        for i in 0..n {
            tmp[i] = x[i] + 0.5 * h * k2[i];
        }
        sys.rhs(t + 0.5 * h, tmp, k3);
        for i in 0..n {
            tmp[i] = x[i] + h * k3[i];
        }
        sys.rhs(t + h, tmp, k4);
        for i in 0..n {
            x[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ode::system::LinearSystem;

    /// dx/dt = -x, exact solution e^{-t}.
    fn decay() -> LinearSystem {
        LinearSystem::new(vec![-1.0], vec![0.0])
    }

    fn integrate_decay<M: FixedStep>(m: &M, h: f64) -> f64 {
        let mut x = vec![1.0];
        m.integrate(&decay(), 0.0, &mut x, 1.0, h);
        (x[0] - (-1.0f64).exp()).abs()
    }

    #[test]
    fn euler_converges_first_order() {
        let e1 = integrate_decay(&Euler, 1e-2);
        let e2 = integrate_decay(&Euler, 5e-3);
        let ratio = e1 / e2;
        assert!(
            (ratio - 2.0).abs() < 0.2,
            "halving h should halve the error, ratio = {ratio}"
        );
    }

    #[test]
    fn heun_converges_second_order() {
        let e1 = integrate_decay(&Heun, 1e-2);
        let e2 = integrate_decay(&Heun, 5e-3);
        let ratio = e1 / e2;
        assert!(
            (ratio - 4.0).abs() < 0.5,
            "halving h should quarter the error, ratio = {ratio}"
        );
    }

    #[test]
    fn rk4_converges_fourth_order() {
        let e1 = integrate_decay(&Rk4, 1e-1);
        let e2 = integrate_decay(&Rk4, 5e-2);
        let ratio = e1 / e2;
        assert!(
            (ratio - 16.0).abs() < 3.0,
            "halving h should give 16x smaller error, ratio = {ratio}"
        );
    }

    #[test]
    fn rk4_high_accuracy_small_step() {
        assert!(integrate_decay(&Rk4, 1e-3) < 1e-12);
    }

    #[test]
    fn orders_reported() {
        assert_eq!(Euler.order(), 1);
        assert_eq!(Heun.order(), 2);
        assert_eq!(Rk4.order(), 4);
    }

    #[test]
    fn harmonic_oscillator_energy_rk4() {
        // x'' = -x as a 2-system; energy x² + v² should be conserved to
        // O(h⁴) per unit time.
        let sys = LinearSystem::new(vec![0.0, 1.0, -1.0, 0.0], vec![0.0, 0.0]);
        let mut x = vec![1.0, 0.0];
        Rk4.integrate(&sys, 0.0, &mut x, 2.0 * std::f64::consts::PI, 1e-2);
        let energy = x[0] * x[0] + x[1] * x[1];
        assert!((energy - 1.0).abs() < 1e-7, "energy drifted to {energy}");
        // One full period returns to the start.
        assert!((x[0] - 1.0).abs() < 1e-6 && x[1].abs() < 1e-6);
    }

    #[test]
    fn integrate_lands_exactly_on_t1() {
        // h does not divide the interval; the final shortened step must land
        // on t1 so the comparison against the analytic value is fair.
        let mut x = vec![1.0];
        Rk4.integrate(&decay(), 0.0, &mut x, 0.95, 0.1);
        // RK4 global error at h = 0.1 is O(h⁴) ≈ 1e-7 for this problem.
        assert!((x[0] - (-0.95f64).exp()).abs() < 1e-6);
    }

    #[test]
    fn zero_length_interval_is_identity() {
        let mut x = vec![7.0];
        Rk4.integrate(&decay(), 3.0, &mut x, 3.0, 0.1);
        assert_eq!(x[0], 7.0);
    }

    #[test]
    #[should_panic(expected = "step size must be positive")]
    fn nonpositive_step_panics() {
        let mut x = vec![1.0];
        Euler.integrate(&decay(), 0.0, &mut x, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be >=")]
    fn backwards_interval_panics() {
        let mut x = vec![1.0];
        Euler.integrate(&decay(), 1.0, &mut x, 0.0, 0.1);
    }

    /// A random `n × n` linear system with entries in `[-1, 1)`.
    fn random_system(n: usize, seed: u64) -> LinearSystem {
        use crate::rng::{RngCore, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut draw = || 2.0 * rng.next_f64() - 1.0;
        let a = (0..n * n).map(|_| draw()).collect();
        let b = (0..n).map(|_| draw()).collect();
        LinearSystem::new(a, b)
    }

    /// 100 steps with one carried scratch against 100 fresh-buffer steps.
    fn reused_scratch_is_bit_identical<M: FixedStep>(m: &M, scratch: &mut StepScratch) {
        for (n, seed) in [(6, 11), (3, 12), (9, 13)] {
            let sys = random_system(n, seed);
            let x0: Vec<f64> = (0..n).map(|i| 0.5 - i as f64 * 0.1).collect();
            let (mut fresh, mut reused) = (x0.clone(), x0);
            for s in 0..100 {
                let t = s as f64 * 0.01;
                m.step(&sys, t, &mut fresh, 0.01);
                m.step_with(&sys, t, &mut reused, 0.01, scratch);
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fresh), bits(&reused), "order {}, n = {n}", m.order());
        }
    }

    #[test]
    fn reused_scratch_steps_match_fresh_steps() {
        reused_scratch_is_bit_identical(&Euler, &mut StepScratch::new());
        reused_scratch_is_bit_identical(&Heun, &mut StepScratch::new());
        reused_scratch_is_bit_identical(&Rk4, &mut StepScratch::new());
        // One scratch carried across methods, largest first.
        let mut shared = StepScratch::new();
        reused_scratch_is_bit_identical(&Rk4, &mut shared);
        reused_scratch_is_bit_identical(&Heun, &mut shared);
        reused_scratch_is_bit_identical(&Euler, &mut shared);
        reused_scratch_is_bit_identical(&Rk4, &mut shared);
    }

    #[test]
    fn integrate_matches_a_walk_of_fresh_steps() {
        let sys = random_system(5, 21);
        let mut walked = vec![1.0, -0.5, 0.25, 0.0, 2.0];
        let mut integrated = walked.clone();
        let mut t = 0.0;
        while t < 0.95 {
            let h = 0.1f64.min(0.95 - t);
            Rk4.step(&sys, t, &mut walked, h);
            t += h;
        }
        Rk4.integrate(&sys, 0.0, &mut integrated, 0.95, 0.1);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&walked), bits(&integrated));
    }

    #[test]
    fn forced_linear_system_reaches_fixed_point() {
        // dx/dt = -(x - 5) relaxes to 5.
        let sys = LinearSystem::new(vec![-1.0], vec![5.0]);
        let mut x = vec![0.0];
        Rk4.integrate(&sys, 0.0, &mut x, 40.0, 0.05);
        assert!((x[0] - 5.0).abs() < 1e-9);
    }
}
