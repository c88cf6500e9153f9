//! Ordinary differential equation integration.
//!
//! All of the paper's fluid models (Eqs. 1, 3 and 5) are autonomous ODE
//! systems `dx/dt = f(t, x)`. This module provides:
//!
//! * [`OdeSystem`] — the right-hand-side trait every model implements.
//! * Fixed-step methods: [`Euler`], [`Heun`] (order 2), [`Rk4`] (order 4),
//!   all through the [`FixedStep`] trait, stepping in caller-owned
//!   [`StepScratch`] stage buffers.
//! * [`Dopri5`] — adaptive Dormand–Prince 5(4) with PI step-size control,
//!   the workhorse for stiff-ish multi-class systems.
//! * [`BackwardEuler`] — L-stable implicit Euler with damped Newton and
//!   finite-difference Jacobians, for genuinely stiff bandwidth mixes.
//! * [`integrate_observed`] — observed integration that records
//!   trajectories into a [`crate::series::TimeSeries`].
//! * [`steady_state`] — integrate-to-equilibrium with a residual-based
//!   stopping rule, used for every steady-state figure.

mod dopri5;
mod driver;
mod fixed;
mod implicit;
mod steady;
mod system;

pub use dopri5::{Dopri5, Dopri5Options, Dopri5Stats};
pub use driver::{integrate_observed, ObserveEvery};
pub use fixed::{Euler, FixedStep, Heun, Rk4, StepScratch};
pub use implicit::{BackwardEuler, ImplicitOptions};
pub use steady::{steady_state, SteadyOptions, SteadyState};
pub use system::{LinearSystem, OdeSystem};
