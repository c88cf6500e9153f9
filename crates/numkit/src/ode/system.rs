//! The ODE right-hand-side trait and simple reference systems.

/// A first-order ODE system `dx/dt = f(t, x)` with fixed dimension.
///
/// Implementations write the derivative into `dxdt` (pre-sized to
/// [`OdeSystem::dim`]) instead of allocating, so the inner integration loops
/// are allocation-free — the fluid-model sweeps solve hundreds of thousands
/// of these.
pub trait OdeSystem {
    /// State dimension (number of equations).
    fn dim(&self) -> usize;

    /// Evaluates the right-hand side at `(t, x)`, writing into `dxdt`.
    ///
    /// `x.len()` and `dxdt.len()` both equal [`OdeSystem::dim`]. Every
    /// component of `dxdt` must be written: integrators reuse their stage
    /// buffers, so `dxdt` may hold an earlier evaluation on entry.
    fn rhs(&self, t: f64, x: &[f64], dxdt: &mut [f64]);
}

/// Blanket impl so `&S` can be passed where an owned system is expected.
impl<S: OdeSystem + ?Sized> OdeSystem for &S {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn rhs(&self, t: f64, x: &[f64], dxdt: &mut [f64]) {
        (**self).rhs(t, x, dxdt)
    }
}

/// A constant-coefficient linear system `dx/dt = A·x + b`.
///
/// Reference system for integrator order/accuracy tests (its exact solution
/// is known) and a convenient building block for linearized fluid models.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSystem {
    /// Row-major `n × n` matrix.
    a: Vec<f64>,
    /// Constant forcing vector of length `n`.
    b: Vec<f64>,
    n: usize,
}

impl LinearSystem {
    /// Builds the system from a row-major matrix and forcing vector.
    ///
    /// # Panics
    /// Panics when `a.len() != b.len()²` (programming error).
    pub fn new(a: Vec<f64>, b: Vec<f64>) -> Self {
        let n = b.len();
        assert_eq!(a.len(), n * n, "matrix/vector size mismatch");
        Self { a, b, n }
    }

    /// The matrix entry `A[i][j]`.
    pub fn a(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }
}

impl OdeSystem for LinearSystem {
    fn dim(&self) -> usize {
        self.n
    }

    fn rhs(&self, _t: f64, x: &[f64], dxdt: &mut [f64]) {
        for (i, out) in dxdt.iter_mut().enumerate().take(self.n) {
            let mut acc = self.b[i];
            let row = &self.a[i * self.n..(i + 1) * self.n];
            for (aij, xj) in row.iter().zip(x) {
                acc += aij * xj;
            }
            *out = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_system_rhs() {
        // dx/dt = [[0, 1], [-1, 0]] x + [0, 0]  (harmonic oscillator)
        let sys = LinearSystem::new(vec![0.0, 1.0, -1.0, 0.0], vec![0.0, 0.0]);
        let mut d = vec![0.0; 2];
        sys.rhs(0.0, &[1.0, 0.0], &mut d);
        assert_eq!(d, vec![0.0, -1.0]);
        assert_eq!(sys.dim(), 2);
        assert_eq!(sys.a(0, 1), 1.0);
    }

    #[test]
    fn linear_system_with_forcing() {
        let sys = LinearSystem::new(vec![-1.0], vec![2.0]);
        let mut d = vec![0.0];
        sys.rhs(0.0, &[0.0], &mut d);
        assert_eq!(d[0], 2.0);
        // Fixed point at x = 2.
        sys.rhs(0.0, &[2.0], &mut d);
        assert_eq!(d[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn linear_system_size_mismatch_panics() {
        let _ = LinearSystem::new(vec![1.0, 2.0, 3.0], vec![0.0, 0.0]);
    }

    #[test]
    fn reference_impl_through_borrow() {
        let sys = LinearSystem::new(vec![-1.0], vec![0.0]);
        let by_ref: &dyn OdeSystem = &sys;
        let mut d = vec![0.0];
        by_ref.rhs(0.0, &[3.0], &mut d);
        assert_eq!(d[0], -3.0);
    }
}
