//! Small dense matrices, row-major.
//!
//! Used for the exact eigendecomposition baseline (paper Table 2, the
//! "Eigen" column) and for cross-checking the stochastic estimators in
//! tests. Not intended for large `n` — that is the whole point of §5.

/// A dense `n × n` matrix stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// The zero matrix of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix { n, data: vec![0.0; n * n] }
    }

    /// The identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != n * n`.
    pub fn from_row_major(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "from_row_major: buffer size");
        DenseMatrix { n, data }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Sets entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// Adds `v` to entry `(i, j)`.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] += v;
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Whether the matrix is symmetric to within `tol`.
    // ctlint::allow(dead-pub): dense-oracle precondition check; its caller is dense::tests::symmetry_detection (ROADMAP item 6)
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for i in 0..self.n {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            y[i] = acc;
        }
    }

    /// Allocating version of [`DenseMatrix::matvec`].
    pub fn matvec_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.matvec(x, &mut y);
        y
    }

    /// `C = A B`.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.n, other.n, "matmul: dimension mismatch");
        let n = self.n;
        let mut c = DenseMatrix::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let crow = &mut c.data[i * n..(i + 1) * n];
                for j in 0..n {
                    crow[j] += aik * brow[j];
                }
            }
        }
        c
    }

    /// Sum of the diagonal.
    pub fn trace(&self) -> f64 {
        (0..self.n).map(|i| self.get(i, i)).sum()
    }

    /// Maximum absolute column sum (the induced 1-norm).
    pub fn norm_one(&self) -> f64 {
        let mut best = 0.0f64;
        for j in 0..self.n {
            let s: f64 = (0..self.n).map(|i| self.get(i, j).abs()).sum();
            best = best.max(s);
        }
        best
    }

    /// Matrix exponential `e^A` by scaling-and-squaring with a Taylor core.
    ///
    /// Intended for *test oracles* on small matrices: scale so
    /// `‖A/2^s‖₁ ≤ 1/2`, sum the Taylor series to machine precision, then
    /// square `s` times.
    // ctlint::allow(dead-pub): test oracle for Lanczos e^A v in tests/extensions.rs and tests/properties.rs
    pub fn expm(&self) -> DenseMatrix {
        let n = self.n;
        let norm = self.norm_one();
        let s = if norm <= 0.5 { 0 } else { (norm / 0.5).log2().ceil() as u32 };
        let scale = 1.0 / (2f64.powi(s as i32));
        let b = DenseMatrix::from_row_major(n, self.data.iter().map(|x| x * scale).collect());

        // Taylor: I + B + B²/2! + … ; ‖B‖ ≤ 0.5 ⇒ 24 terms are far below eps.
        let mut result = DenseMatrix::identity(n);
        let mut term = DenseMatrix::identity(n);
        for k in 1..=24u32 {
            term = term.matmul(&b);
            let inv = 1.0 / k as f64;
            for v in term.data.iter_mut() {
                *v *= inv;
            }
            for (r, t) in result.data.iter_mut().zip(&term.data) {
                *r += t;
            }
            // `term` now holds B^k / k!.
        }
        for _ in 0..s {
            result = result.matmul(&result);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_identity() {
        let i3 = DenseMatrix::identity(3);
        let x = vec![1.0, -2.0, 0.5];
        assert_eq!(i3.matvec_alloc(&x), x);
        assert_eq!(i3.trace(), 3.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = DenseMatrix::from_row_major(2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = DenseMatrix::from_row_major(2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn symmetry_detection() {
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 1, 1.0);
        assert!(!m.is_symmetric(1e-12));
        m.set(1, 0, 1.0);
        assert!(m.is_symmetric(1e-12));
    }

    #[test]
    fn expm_of_zero_is_identity() {
        let z = DenseMatrix::zeros(4);
        let e = z.expm();
        assert_eq!(e, DenseMatrix::identity(4));
    }

    #[test]
    fn expm_diagonal() {
        let mut d = DenseMatrix::zeros(2);
        d.set(0, 0, 1.0);
        d.set(1, 1, -2.0);
        let e = d.expm();
        assert!((e.get(0, 0) - 1f64.exp()).abs() < 1e-12);
        assert!((e.get(1, 1) - (-2f64).exp()).abs() < 1e-12);
        assert!(e.get(0, 1).abs() < 1e-14);
    }

    #[test]
    fn expm_known_2x2_symmetric() {
        // A = [[0,1],[1,0]] ⇒ e^A = [[cosh1, sinh1],[sinh1, cosh1]].
        let a = DenseMatrix::from_row_major(2, vec![0.0, 1.0, 1.0, 0.0]);
        let e = a.expm();
        assert!((e.get(0, 0) - 1f64.cosh()).abs() < 1e-12);
        assert!((e.get(0, 1) - 1f64.sinh()).abs() < 1e-12);
        assert!((e.get(1, 0) - 1f64.sinh()).abs() < 1e-12);
    }

    #[test]
    fn expm_trace_matches_eig_sum_on_path_graph() {
        // P3 path graph eigenvalues are -√2, 0, √2.
        let mut a = DenseMatrix::zeros(3);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 2, 1.0);
        a.set(2, 1, 1.0);
        let tr = a.expm().trace();
        let expect = (2f64.sqrt()).exp() + 1.0 + (-(2f64.sqrt())).exp();
        assert!((tr - expect).abs() < 1e-10, "tr={tr}, expect={expect}");
    }

    #[test]
    fn norm_one_column_sums() {
        let a = DenseMatrix::from_row_major(2, vec![1.0, -3.0, 2.0, 0.5]);
        assert_eq!(a.norm_one(), 3.5); // column 1: |-3| + |0.5|
    }
}
