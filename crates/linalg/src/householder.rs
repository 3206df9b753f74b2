//! Householder reduction of a dense symmetric matrix to tridiagonal form.
//!
//! The reduction never accumulates the transformation: the exact
//! natural-connectivity baseline needs eigenvalues only (reduce `A` to
//! tridiagonal `T` in `O(n³)`, then QL on `T` in `O(n²)`). Callers that
//! need a few eigenvectors keep the reflectors the reduction leaves behind
//! and map each tridiagonal eigenvector back with
//! `householder_apply_q`, `O(n²)` per vector.

use crate::dense::DenseMatrix;

/// Reduces symmetric `a` (destroyed in place) to tridiagonal form.
///
/// Returns `(d, e)` where `d` is the diagonal and `e[i]` couples rows `i`
/// and `i + 1` (length `n`, last entry zero) — the convention expected by
/// [`crate::tridiag::tridiag_eigenvalues`].
pub fn householder_tridiagonalize(a: &mut DenseMatrix) -> (Vec<f64>, Vec<f64>) {
    let (d, e, _) = householder_tridiagonalize_with_reflectors(a);
    (d, e)
}

/// [`householder_tridiagonalize`] that also returns the reflector scales:
/// `(d, e, h)` with `T = Qᵀ A Q`, `Q = P_{n−1} ⋯ P_2` and
/// `P_i = I − u_i u_iᵀ / h[i]`, where `u_i` is left in row `i` of `a`,
/// columns `0..i`. `h[i] == 0` marks a step that needed no reflector.
/// `d` and `e` are bit-identical to [`householder_tridiagonalize`]'s.
pub(crate) fn householder_tridiagonalize_with_reflectors(
    a: &mut DenseMatrix,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = a.n();
    let mut d = vec![0.0; n];
    let mut hs = vec![0.0; n];
    // NR convention during the reduction: e_nr[i] couples rows i-1 and i.
    let mut e_nr = vec![0.0; n];

    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let mut scale = 0.0;
            for k in 0..=l {
                scale += a.get(i, k).abs();
            }
            if scale == 0.0 {
                e_nr[i] = a.get(i, l);
            } else {
                for k in 0..=l {
                    let v = a.get(i, k) / scale;
                    a.set(i, k, v);
                    h += v * v;
                }
                let mut f = a.get(i, l);
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e_nr[i] = scale * g;
                h -= f * g;
                a.set(i, l, f - g);
                f = 0.0;
                for j in 0..=l {
                    let mut g = 0.0;
                    for k in 0..=j {
                        g += a.get(j, k) * a.get(i, k);
                    }
                    for k in (j + 1)..=l {
                        g += a.get(k, j) * a.get(i, k);
                    }
                    e_nr[j] = g / h;
                    f += e_nr[j] * a.get(i, j);
                }
                let hh = f / (h + h);
                for j in 0..=l {
                    let f = a.get(i, j);
                    let g = e_nr[j] - hh * f;
                    e_nr[j] = g;
                    for k in 0..=j {
                        let v = a.get(j, k) - (f * e_nr[k] + g * a.get(i, k));
                        a.set(j, k, v);
                    }
                }
            }
        } else {
            e_nr[i] = a.get(i, l);
        }
        hs[i] = h;
    }
    e_nr[0] = 0.0;
    for i in 0..n {
        d[i] = a.get(i, i);
    }

    // Convert to the "e[i] couples i and i+1" convention.
    let mut e = vec![0.0; n];
    if n > 1 {
        e[..n - 1].copy_from_slice(&e_nr[1..]);
    }
    (d, e, hs)
}

/// Maps tridiagonal eigenvectors back to eigenvectors of the matrix that
/// [`householder_tridiagonalize_with_reflectors`] reduced: `x ← Q x` for
/// `width` vectors stored row-major in `x` (`x[r * width + p]` is entry
/// `r` of vector `p`), given the reduced matrix `reduced` and the scales
/// `h`. Costs `O(width · n²)`.
///
/// # Panics
/// Panics if `x.len() != reduced.n() * width` or `h.len() != reduced.n()`.
pub(crate) fn householder_apply_q(reduced: &DenseMatrix, h: &[f64], x: &mut [f64], width: usize) {
    let n = reduced.n();
    assert_eq!(x.len(), n * width, "householder_apply_q: buffer size");
    assert_eq!(h.len(), n, "householder_apply_q: reflector count");
    let mut dots = vec![0.0; width];
    // Q = P_{n−1} ⋯ P_2, so P_2 acts first.
    for i in 2..n {
        if h[i] == 0.0 {
            continue;
        }
        let u = &reduced.row(i)[..i];
        dots.fill(0.0);
        for (k, &uk) in u.iter().enumerate() {
            for (dp, xp) in dots.iter_mut().zip(&x[k * width..(k + 1) * width]) {
                *dp += uk * xp;
            }
        }
        for dp in dots.iter_mut() {
            *dp /= h[i];
        }
        for (k, &uk) in u.iter().enumerate() {
            for (xp, dp) in x[k * width..(k + 1) * width].iter_mut().zip(&dots) {
                *xp -= uk * dp;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tridiag::tridiag_eigenvalues;

    #[test]
    fn already_tridiagonal_is_fixed_point_up_to_sign() {
        // Eigenvalues must be preserved even if signs of e flip.
        let mut a = DenseMatrix::zeros(4);
        for i in 0..4 {
            a.set(i, i, i as f64);
        }
        for i in 0..3 {
            a.set(i, i + 1, 1.0);
            a.set(i + 1, i, 1.0);
        }
        let reference = {
            let d = vec![0.0, 1.0, 2.0, 3.0];
            let e = vec![1.0, 1.0, 1.0];
            tridiag_eigenvalues(&d, &e).unwrap()
        };
        let (d, e) = householder_tridiagonalize(&mut a);
        let got = tridiag_eigenvalues(&d, &e).unwrap();
        for (g, r) in got.iter().zip(&reference) {
            assert!((g - r).abs() < 1e-10);
        }
    }

    #[test]
    fn preserves_trace() {
        let mut a = DenseMatrix::zeros(5);
        let vals = [
            [2.0, 1.0, 0.5, 0.0, -1.0],
            [1.0, 3.0, 0.2, 0.7, 0.0],
            [0.5, 0.2, -1.0, 0.9, 0.3],
            [0.0, 0.7, 0.9, 4.0, 1.1],
            [-1.0, 0.0, 0.3, 1.1, 0.5],
        ];
        for i in 0..5 {
            for j in 0..5 {
                a.set(i, j, vals[i][j]);
            }
        }
        let trace_before = a.trace();
        let (d, _) = householder_tridiagonalize(&mut a);
        let trace_after: f64 = d.iter().sum();
        assert!((trace_before - trace_after).abs() < 1e-12);
    }

    #[test]
    fn two_by_two_matches_closed_form() {
        // [[a, b], [b, c]] has eigenvalues (a+c)/2 ± √(((a−c)/2)² + b²).
        let (aa, bb, cc) = (1.0, 2.0, -3.0);
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, aa);
        m.set(0, 1, bb);
        m.set(1, 0, bb);
        m.set(1, 1, cc);
        let (d, e) = householder_tridiagonalize(&mut m);
        let eigs = tridiag_eigenvalues(&d, &e).unwrap();
        let mid = (aa + cc) / 2.0;
        let rad = (((aa - cc) / 2.0f64).powi(2) + bb * bb).sqrt();
        assert!((eigs[0] - (mid - rad)).abs() < 1e-12);
        assert!((eigs[1] - (mid + rad)).abs() < 1e-12);
    }
}
