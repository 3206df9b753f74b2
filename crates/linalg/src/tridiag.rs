//! Implicit-shift QL iteration for symmetric tridiagonal matrices.
//!
//! This is the workhorse behind both the exact eigendecomposition (after
//! Householder reduction) and the Lanczos method (whose Rayleigh quotient is
//! tridiagonal). The rotation stream is exposed through a callback so callers
//! can accumulate full eigenvector matrices, just the first eigenvector row
//! (all stochastic Lanczos quadrature needs), or nothing at all.

use crate::error::LinalgError;

/// Maximum QL iterations per eigenvalue before giving up.
const MAX_QL_ITERS: usize = 128;

/// `√(a² + b²)` without the libm `hypot` call on the common path.
///
/// The QL rotation loop evaluates this once per rotation and `hypot`'s
/// extra-precision dance dominates small-matrix eigensolves (the SLQ
/// quadrature runs one 10×10 solve per probe per candidate edge — millions
/// of calls per precompute). Lanczos/Householder tridiagonals have entries
/// bounded by the matrix norm, so the squares can neither overflow nor
/// wholly underflow; the guard still routes pathological magnitudes to
/// `f64::hypot` so the routine stays total.
#[inline]
fn rot_norm(a: f64, b: f64) -> f64 {
    let r2 = a * a + b * b;
    if (1e-280..=1e280).contains(&r2) {
        r2.sqrt()
    } else {
        a.hypot(b)
    }
}

/// Runs implicit-shift QL on the tridiagonal matrix with diagonal `d` and
/// subdiagonal `e` (`e[i]` couples rows `i` and `i + 1`; `e[n-1]` is ignored).
///
/// On success `d` holds the eigenvalues (unsorted). Every plane rotation
/// applied to columns `(i, i + 1)` is reported to `rotate(i, s, c)` so the
/// caller can accumulate eigenvector information.
pub fn tridiag_ql_implicit<F: FnMut(usize, f64, f64)>(
    d: &mut [f64],
    e: &mut [f64],
    mut rotate: F,
) -> Result<(), LinalgError> {
    let n = d.len();
    if n == 0 {
        return Err(LinalgError::EmptyInput("tridiagonal matrix"));
    }
    if e.len() < n {
        return Err(LinalgError::DimensionMismatch { expected: n, actual: e.len() });
    }
    if n == 1 {
        return Ok(());
    }
    e[n - 1] = 0.0;

    // Backward-stable absolute deflation floor: graph-adjacency spectra have
    // clusters of (near-)zero eigenvalues where the relative test
    // |e| ≤ ε(|d_m| + |d_{m+1}|) never fires (both diagonals → 0); deflating
    // at ε‖T‖ instead keeps the error within ε‖A‖.
    let anorm = (0..n)
        .map(|i| d[i].abs() + e[i].abs() + if i > 0 { e[i - 1].abs() } else { 0.0 })
        .fold(0.0f64, f64::max);
    let floor = f64::EPSILON * anorm.max(f64::MIN_POSITIVE);

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Look for a negligible subdiagonal element to split the matrix.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= (f64::EPSILON * dd).max(floor) {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_ITERS {
                return Err(LinalgError::NonConvergence {
                    routine: "tridiag_ql",
                    max_iters: MAX_QL_ITERS,
                });
            }

            // Form the implicit Wilkinson-like shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = rot_norm(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;

            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = rot_norm(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Deflation by underflow: recover and retry.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                // One reciprocal instead of two divisions; the ≤1-ulp
                // perturbation of (s, c) keeps the rotation orthogonal to
                // working precision (backward stable, like LAPACK's dlartg
                // family).
                let inv = 1.0 / r;
                s = f * inv;
                c = g * inv;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                rotate(i, s, c);
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Eigenvalues of a symmetric tridiagonal matrix, sorted ascending.
pub fn tridiag_eigenvalues(diag: &[f64], offdiag: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let mut d = diag.to_vec();
    let mut e = vec![0.0; d.len()];
    let m = offdiag.len().min(d.len().saturating_sub(1));
    e[..m].copy_from_slice(&offdiag[..m]);
    tridiag_ql_implicit(&mut d, &mut e, |_, _, _| {})?;
    d.sort_by(|a, b| a.partial_cmp(b).expect("eigenvalues are finite"));
    Ok(d)
}

/// Eigenvalues plus the **first row** of the eigenvector matrix, written
/// into caller-owned buffers (cleared and refilled; no reallocation once
/// their capacity covers `diag.len()`).
///
/// For a tridiagonal `T = Z Θ Zᵀ`, on success `d` holds the eigenvalues
/// `θ_j` ascending and `row` the matching first-row components `z_{0j}`;
/// `e` is scratch. These are exactly the Gauss quadrature nodes and weights
/// that stochastic Lanczos quadrature needs: `e₁ᵀ f(T) e₁ =
/// Σ_j z_{0j}² f(θ_j)`. The sort is stable, so equal eigenvalues keep the
/// order the QL iteration left them in.
pub fn tridiag_eigen_first_row_in(
    diag: &[f64],
    offdiag: &[f64],
    d: &mut Vec<f64>,
    e: &mut Vec<f64>,
    row: &mut Vec<f64>,
) -> Result<(), LinalgError> {
    let n = diag.len();
    d.clear();
    d.extend_from_slice(diag);
    e.clear();
    e.resize(n, 0.0);
    let m = offdiag.len().min(n.saturating_sub(1));
    e[..m].copy_from_slice(&offdiag[..m]);

    // Row 0 of the accumulated rotation product, started from the identity.
    row.clear();
    row.resize(n, 0.0);
    if n > 0 {
        row[0] = 1.0;
    }
    tridiag_ql_implicit(d, e, |i, s, c| {
        let f = row[i + 1];
        row[i + 1] = s * row[i] + c * f;
        row[i] = c * row[i] - s * f;
    })?;

    // Stable in-place insertion co-sort by eigenvalue (n is a Lanczos step
    // count, ~10, so O(n²) is cheaper than any allocating sort).
    for i in 1..n {
        let (dv, rv) = (d[i], row[i]);
        let mut j = i;
        while j > 0 && d[j - 1].partial_cmp(&dv).expect("eigenvalues are finite").is_gt() {
            d[j] = d[j - 1];
            row[j] = row[j - 1];
            j -= 1;
        }
        d[j] = dv;
        row[j] = rv;
    }
    Ok(())
}

/// Full eigendecomposition of a symmetric tridiagonal matrix.
///
/// Returns eigenvalues sorted ascending and a row-major `n × n` matrix whose
/// column `j` is the eigenvector for eigenvalue `j`.
pub fn tridiag_eigen_full(
    diag: &[f64],
    offdiag: &[f64],
) -> Result<(Vec<f64>, Vec<f64>), LinalgError> {
    let n = diag.len();
    let mut d = diag.to_vec();
    let mut e = vec![0.0; n];
    let m = offdiag.len().min(n.saturating_sub(1));
    e[..m].copy_from_slice(&offdiag[..m]);

    let mut z = vec![0.0; n * n];
    for i in 0..n {
        z[i * n + i] = 1.0;
    }
    tridiag_ql_implicit(&mut d, &mut e, |i, s, c| {
        for k in 0..n {
            let f = z[k * n + i + 1];
            z[k * n + i + 1] = s * z[k * n + i] + c * f;
            z[k * n + i] = c * z[k * n + i] - s * f;
        }
    })?;

    // Sort eigenpairs by eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("eigenvalues are finite"));
    let sorted_d: Vec<f64> = order.iter().map(|&j| d[j]).collect();
    let mut sorted_z = vec![0.0; n * n];
    for (new_j, &old_j) in order.iter().enumerate() {
        for k in 0..n {
            sorted_z[k * n + new_j] = z[k * n + old_j];
        }
    }
    Ok((sorted_d, sorted_z))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path-graph P_n adjacency eigenvalues: 2 cos(iπ/(n+1)), i = 1..n.
    fn path_eigs(n: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (1..=n)
            .map(|i| 2.0 * (i as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos())
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    #[test]
    fn eigenvalues_of_path_graph() {
        for n in [1usize, 2, 3, 5, 8, 21] {
            let diag = vec![0.0; n];
            let off = vec![1.0; n.saturating_sub(1)];
            let got = tridiag_eigenvalues(&diag, &off).unwrap();
            let want = path_eigs(n);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-10, "n={n}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_diagonal() {
        let got = tridiag_eigenvalues(&[3.0, -1.0, 2.0], &[0.0, 0.0]).unwrap();
        assert_eq!(got, vec![-1.0, 2.0, 3.0]);
    }

    #[test]
    fn trace_is_preserved() {
        let diag = [1.0, 2.0, 3.0, 4.0];
        let off = [0.5, -0.25, 1.5];
        let eigs = tridiag_eigenvalues(&diag, &off).unwrap();
        let tr: f64 = eigs.iter().sum();
        assert!((tr - 10.0).abs() < 1e-12);
    }

    #[test]
    fn first_row_weights_sum_to_one() {
        // Σ z_{0j}² = 1 because Z is orthogonal.
        let diag = [0.0, 0.0, 0.0, 0.0];
        let off = [1.0, 1.0, 1.0];
        let (mut d, mut e, mut row) = (Vec::new(), Vec::new(), Vec::new());
        tridiag_eigen_first_row_in(&diag, &off, &mut d, &mut e, &mut row).unwrap();
        let s: f64 = row.iter().map(|w| w * w).sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn first_row_reproduces_e1_exp_t_e1() {
        // Compare e₁ᵀ e^T e₁ via quadrature against dense expm.
        use crate::dense::DenseMatrix;
        let diag = [0.2, -0.5, 0.9];
        let off = [0.7, 0.3];
        let (mut d, mut e, mut row) = (Vec::new(), Vec::new(), Vec::new());
        tridiag_eigen_first_row_in(&diag, &off, &mut d, &mut e, &mut row).unwrap();
        let quad: f64 = d.iter().zip(&row).map(|(t, w)| w * w * t.exp()).sum();

        let mut m = DenseMatrix::zeros(3);
        for i in 0..3 {
            m.set(i, i, diag[i]);
        }
        for i in 0..2 {
            m.set(i, i + 1, off[i]);
            m.set(i + 1, i, off[i]);
        }
        let exact = m.expm().get(0, 0);
        assert!((quad - exact).abs() < 1e-10, "quad={quad} exact={exact}");
    }

    #[test]
    fn full_eigenvectors_reconstruct_matrix() {
        let diag = [1.0, -2.0, 0.5, 3.0];
        let off = [0.8, 0.1, -0.6];
        let n = diag.len();
        let (vals, z) = tridiag_eigen_full(&diag, &off).unwrap();
        // Check T v_j = θ_j v_j for every eigenpair.
        for j in 0..n {
            for i in 0..n {
                let mut tv = diag[i] * z[i * n + j];
                if i > 0 {
                    tv += off[i - 1] * z[(i - 1) * n + j];
                }
                if i + 1 < n {
                    tv += off[i] * z[(i + 1) * n + j];
                }
                assert!((tv - vals[j] * z[i * n + j]).abs() < 1e-9, "eigenpair {j} row {i}");
            }
        }
    }

    #[test]
    fn eigenvector_columns_are_orthonormal() {
        let diag = [0.0; 5];
        let off = [1.0, 2.0, 0.5, 1.5];
        let n = diag.len();
        let (_, z) = tridiag_eigen_full(&diag, &off).unwrap();
        for a in 0..n {
            for b in 0..n {
                let dot: f64 = (0..n).map(|k| z[k * n + a] * z[k * n + b]).sum();
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-10, "columns {a},{b}: {dot}");
            }
        }
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(tridiag_eigenvalues(&[], &[]).is_err());
    }

    #[test]
    fn converges_on_sparse_graph_style_spectra() {
        // Regression: adjacency spectra with many (near-)zero eigenvalues
        // used to starve the relative deflation test. Build a blocky
        // tridiagonal with long zero-diagonal stretches and weak couplings.
        let n = 600;
        let diag = vec![0.0; n];
        let mut off = vec![0.0; n - 1];
        for (i, o) in off.iter_mut().enumerate() {
            *o = match i % 7 {
                0 => 1.0,
                1 => 0.0,   // explicit splits
                2 => 1e-18, // couplings far below ε‖T‖
                _ => ((i % 3) as f64) * 0.5,
            };
        }
        let eigs = tridiag_eigenvalues(&diag, &off).expect("must converge");
        // Trace and Frobenius norm are preserved by similarity transforms.
        let tr: f64 = eigs.iter().sum();
        assert!(tr.abs() < 1e-9, "trace {tr}");
        let fro2: f64 = eigs.iter().map(|x| x * x).sum();
        let want: f64 = 2.0 * off.iter().map(|x| x * x).sum::<f64>();
        assert!((fro2 - want).abs() < 1e-9 * want.max(1.0), "{fro2} vs {want}");
    }

    #[test]
    fn single_element() {
        assert_eq!(tridiag_eigenvalues(&[7.0], &[]).unwrap(), vec![7.0]);
    }
}
