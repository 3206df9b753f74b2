//! Symmetric tridiagonal kernels: implicit-shift QL and the SLQ quadrature.
//!
//! QL is the workhorse behind the exact eigendecomposition (after
//! Householder reduction) and the Lanczos eigenvalue and `e^A v` solvers
//! (whose Rayleigh quotient is tridiagonal). Its rotation stream is exposed
//! through a callback so callers can accumulate full eigenvector matrices
//! or nothing at all.
//!
//! Stochastic Lanczos quadrature needs only `e₁ᵀ e^T e₁` of each probe's
//! `T`, and [`tridiag_exp11_lanes`] computes that for a whole lane tile of
//! tridiagonals at once with a scaled Taylor series, never diagonalizing
//! `T`. The first-row Gauss rule `Σ_j z₀ⱼ² e^{θⱼ}` it replaced lives on in
//! the test module as its oracle.

use crate::error::LinalgError;

/// Maximum QL iterations per eigenvalue before giving up.
const MAX_QL_ITERS: usize = 128;

/// `√(a² + b²)` without the libm `hypot` call on the common path.
///
/// The QL rotation loop evaluates this once per rotation, and `hypot`'s
/// extra-precision dance dominates small-matrix eigensolves (the Lanczos
/// eigenvalue and `e^A v` solvers run many of them). Lanczos/Householder
/// tridiagonals have entries
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

/// Most `e^H` applications [`tridiag_exp11_lanes`] runs for one lane. Its
/// cost is linear in the Gershgorin half-width `r` (one application per 4
/// units of `r`), so a lane needing more is refused rather than run for
/// minutes. Lanczos tridiagonals of the city networks need one.
const MAX_HALF_STEPS: f64 = 65_536.0;

/// `e₁ᵀ e^T e₁` for `L` symmetric tridiagonal matrices `T` at once, without
/// diagonalizing any of them. This is the quadrature of stochastic Lanczos
/// quadrature: one lane per probe's `T`.
///
/// Lane `l`'s matrix has diagonal `alphas[i][l]` and subdiagonal
/// `betas[i][l]` (coupling rows `i` and `i + 1`). All lanes share the
/// dimension `t = alphas.len()`; `betas` needs `t − 1` rows (later rows
/// are ignored), and the scratch `z` and `term` at least `t` rows each.
///
/// Per lane, with `[c − r, c + r]` the Gershgorin interval of `T`:
/// * `m = max(1, ⌈r/4⌉)` and `H = (T − cI)/(2m)`, so `‖H‖₂ ≤ ρ = r/(2m) ≤ 2`;
/// * `z = (e^H)^m e₁`, each `e^H` applied as a Taylor series of `K` terms,
///   `K` the smallest with `e^{2ρ}·ρ^{K+1}/(K+1)! ≤ ε/4` (at most 25);
/// * the result is `e^c·‖z‖²`, because `e^T = e^c·(e^H)^{2m}` and `e^H` is
///   symmetric.
///
/// The half steps keep every series short and free of cancellation however
/// wide the spectrum, and a sum of squares cannot cancel either.
///
/// No lane reads another lane's data, no multiply-add is fused, and
/// per-lane masks stand in for branches on `K` and `m`. So lane `l` of an
/// `L`-wide call is bit-identical to an `L = 1` call on lane `l`'s matrix.
///
/// # Errors
/// [`LinalgError::EmptyInput`] when `t = 0`;
/// [`LinalgError::DimensionMismatch`] for short `betas` or scratch;
/// [`LinalgError::NonFinite`] for a NaN or infinite coefficient in any
/// lane; [`LinalgError::NonConvergence`] when a lane would need more than
/// 65 536 applications of `e^H` (`r` above 262 144).
pub fn tridiag_exp11_lanes<const L: usize>(
    alphas: &[[f64; L]],
    betas: &[[f64; L]],
    z: &mut [[f64; L]],
    term: &mut [[f64; L]],
) -> Result<[f64; L], LinalgError> {
    let t = alphas.len();
    if t == 0 {
        return Err(LinalgError::EmptyInput("tridiagonal matrix"));
    }
    if betas.len() + 1 < t {
        return Err(LinalgError::DimensionMismatch { expected: t - 1, actual: betas.len() });
    }
    let scratch = z.len().min(term.len());
    if scratch < t {
        return Err(LinalgError::DimensionMismatch { expected: t, actual: scratch });
    }
    let betas = &betas[..t - 1];
    let (z, term) = (&mut z[..t], &mut term[..t]);
    if alphas.iter().chain(betas).flatten().any(|x| !x.is_finite()) {
        return Err(LinalgError::NonFinite("tridiagonal coefficient"));
    }

    // Gershgorin interval per lane: row i spans α_i ± (|β_{i−1}| + |β_i|).
    let (mut lo, mut hi) = ([f64::INFINITY; L], [f64::NEG_INFINITY; L]);
    for i in 0..t {
        for l in 0..L {
            let up = if i > 0 { betas[i - 1][l].abs() } else { 0.0 };
            let down = if i + 1 < t { betas[i][l].abs() } else { 0.0 };
            lo[l] = lo[l].min(alphas[i][l] - (up + down));
            hi[l] = hi[l].max(alphas[i][l] + (up + down));
        }
    }
    // Shift c, half steps m and Taylor terms K per lane.
    let (mut c, mut steps, mut terms) = ([0.0; L], [0usize; L], [0usize; L]);
    let mut half_inv_m = [0.0; L];
    for l in 0..L {
        c[l] = 0.5 * lo[l] + 0.5 * hi[l];
        let r = 0.5 * (hi[l] - lo[l]);
        let m = (0.25 * r).ceil().max(1.0);
        // Finite coefficients leave `r` finite or +∞ (overflow), never NaN.
        if m > MAX_HALF_STEPS {
            return Err(LinalgError::NonConvergence {
                routine: "tridiag_exp11_lanes",
                max_iters: MAX_HALF_STEPS as usize,
            });
        }
        steps[l] = m as usize;
        half_inv_m[l] = 0.5 / m;
        terms[l] = taylor_terms(r / (2.0 * m));
    }
    let max_steps = steps.iter().copied().max().unwrap_or(0);
    let max_terms = terms.iter().copied().max().unwrap_or(0);

    // z = (e^H)^m e₁. Pass s starts term at z and adds each series term
    // H·term/k into z in place, row by row (`prev` holds the old row i − 1
    // of term). A lane adds only while k ≤ K and s < m (`on`); past that
    // it computes and discards, so no lane branches on another's counts.
    z.fill([0.0; L]);
    z[0] = [1.0; L];
    for s in 0..max_steps {
        term.copy_from_slice(z);
        for k in 1..=max_terms {
            let (mut f, mut on) = ([0.0; L], [false; L]);
            let inv_k = 1.0 / k as f64;
            for l in 0..L {
                f[l] = half_inv_m[l] * inv_k;
                on[l] = s < steps[l] && k <= terms[l];
            }
            let mut prev = [0.0; L];
            for i in 0..t {
                let cur = term[i];
                let mut x = [0.0; L];
                for l in 0..L {
                    x[l] = (alphas[i][l] - c[l]) * cur[l];
                }
                if i > 0 {
                    for l in 0..L {
                        x[l] += betas[i - 1][l] * prev[l];
                    }
                }
                if i + 1 < t {
                    let next = term[i + 1];
                    for l in 0..L {
                        x[l] += betas[i][l] * next[l];
                    }
                }
                let zi = &mut z[i];
                for l in 0..L {
                    x[l] *= f[l];
                    zi[l] = if on[l] { zi[l] + x[l] } else { zi[l] };
                }
                term[i] = x;
                prev = cur;
            }
        }
    }

    // e^c·‖z‖², the squares summed in row order.
    let mut out = [0.0; L];
    for row in z.iter() {
        for l in 0..L {
            out[l] += row[l] * row[l];
        }
    }
    for l in 0..L {
        out[l] *= c[l].exp();
    }
    Ok(out)
}

/// Taylor terms for `e^H` with `‖H‖₂ ≤ ρ`: the smallest `K` with
/// `e^{2ρ}·ρ^{K+1}/(K+1)! ≤ ε/4`. The tail past `K` is at most
/// `e^ρ·ρ^{K+1}/(K+1)!` in norm, and `‖e^H x‖ ≥ e^{−ρ}‖x‖`, so each
/// application is accurate to `ε/4` relative.
fn taylor_terms(rho: f64) -> usize {
    let mut k = 0;
    let mut tail = (2.0 * rho).exp() * rho;
    while tail > f64::EPSILON / 4.0 {
        k += 1;
        tail *= rho / (k + 1) as f64;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The kernel's oracle, the QL Gauss rule: eigenvalues plus the **first
    /// row** of the eigenvector matrix, written into caller-owned buffers.
    ///
    /// For a tridiagonal `T = Z Θ Zᵀ`, on success `d` holds the eigenvalues
    /// `θ_j` ascending and `row` the matching first-row components `z_{0j}`;
    /// `e` is scratch. These are exactly the Gauss quadrature nodes and weights
    /// that stochastic Lanczos quadrature needs: `e₁ᵀ f(T) e₁ =
    /// Σ_j z_{0j}² f(θ_j)`. The sort is stable, so equal eigenvalues keep the
    /// order the QL iteration left them in.
    fn tridiag_eigen_first_row_in(
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

    /// `Σ_j z₀ⱼ² e^{θⱼ}` by the oracle, summed over ascending eigenvalues,
    /// and the scale of its own rounding error, `ε·Σ_j |z₀ⱼ| e^{θⱼ}`: QL gets
    /// each `z₀ⱼ` to `O(ε)` absolute, not relative, so a tiny weight on a
    /// large eigenvalue can carry most of the sum and most of the error.
    fn ql_exp11(diag: &[f64], off: &[f64]) -> (f64, f64) {
        let (mut d, mut e, mut row) = (Vec::new(), Vec::new(), Vec::new());
        tridiag_eigen_first_row_in(diag, off, &mut d, &mut e, &mut row).unwrap();
        let quad = d.iter().zip(&row).map(|(&t, &w)| w * w * t.exp()).sum();
        let err: f64 = d.iter().zip(&row).map(|(&t, &w)| w.abs() * t.exp()).sum();
        (quad, f64::EPSILON * err)
    }

    /// The kernel's `L = 1` instance on one matrix.
    fn exp11(diag: &[f64], off: &[f64]) -> Result<f64, LinalgError> {
        let a: Vec<[f64; 1]> = diag.iter().map(|&x| [x]).collect();
        let b: Vec<[f64; 1]> = off.iter().map(|&x| [x]).collect();
        let (mut z, mut term) = (vec![[0.0]; diag.len()], vec![[0.0]; diag.len()]);
        Ok(tridiag_exp11_lanes(&a, &b, &mut z, &mut term)?[0])
    }

    /// The `L`-wide kernel over `mats` (all of one size, a multiple of `L`
    /// of them) tile by tile, on scratch that starts out NaN.
    fn tiled<const L: usize>(mats: &[(Vec<f64>, Vec<f64>)]) -> Vec<f64> {
        let t = mats[0].0.len();
        let mut out = Vec::new();
        for tile in mats.chunks_exact(L) {
            let a: Vec<[f64; L]> = (0..t).map(|i| std::array::from_fn(|l| tile[l].0[i])).collect();
            let b: Vec<[f64; L]> =
                (0..t - 1).map(|i| std::array::from_fn(|l| tile[l].1[i])).collect();
            let (mut z, mut term) = (vec![[f64::NAN; L]; t], vec![[f64::NAN; L]; t]);
            out.extend(tridiag_exp11_lanes(&a, &b, &mut z, &mut term).unwrap());
        }
        out
    }

    /// Every lane of the 2-, 4-, 8- and 16-wide kernel equals the `L = 1`
    /// kernel on that lane's matrix, bit for bit.
    fn assert_lane_width_independent(mats: &[(Vec<f64>, Vec<f64>)]) {
        let single: Vec<u64> = tiled::<1>(mats).iter().map(|x| x.to_bits()).collect();
        let widths = [tiled::<2>(mats), tiled::<4>(mats), tiled::<8>(mats), tiled::<16>(mats)];
        for (wide, width) in widths.iter().zip([2, 4, 8, 16]) {
            let bits: Vec<u64> = wide.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, single, "L = {width}");
        }
    }

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
    fn kernel_matches_dense_expm_and_single_entries() {
        // The matrix `first_row_reproduces_e1_exp_t_e1` checks the oracle on.
        use crate::dense::DenseMatrix;
        let (diag, off) = ([0.2, -0.5, 0.9], [0.7, 0.3]);
        let mut m = DenseMatrix::zeros(3);
        for i in 0..3 {
            m.set(i, i, diag[i]);
        }
        for i in 0..2 {
            m.set(i, i + 1, off[i]);
            m.set(i + 1, i, off[i]);
        }
        let exact = m.expm().get(0, 0);
        let got = exp11(&diag, &off).unwrap();
        assert!((got - exact).abs() < 1e-12 * exact, "kernel={got} exact={exact}");
        // A 1×1 T is its own shift: e^α exactly.
        for a in [-3.5, 0.0, 0.25, 7.0] {
            assert_eq!(exp11(&[a], &[]).unwrap().to_bits(), a.exp().to_bits(), "α = {a}");
        }
        // Small weights on large eigenvalues, where QL's weights lose
        // digits: QL reads 360079277807.2611 (1.1e-12 high), the kernel
        // must read the 60-digit value 360079277806.85945563684...
        let diag = [
            19.303270978892343,
            -37.30991781288044,
            27.830641161310652,
            10.485941503269494,
            -14.626279685195378,
            30.07117846464746,
            35.3590747277802,
            -20.158716125701226,
            39.968538618322015,
            16.638612536995907,
            7.362727937895954,
            -13.222132388355831,
            15.202694306160957,
        ];
        let off = [
            1.6464003213146894,
            18.289539586893675,
            14.006657591032575,
            9.92679355511717,
            17.11178917579779,
            9.261706393145545,
            8.336939264056266,
            2.6488907823313457,
            16.918488393170307,
            15.108658888301829,
            6.743106425572329,
            7.7186529732372495,
        ]
        .map(|u| 20.0 - u);
        let exact = 360_079_277_806.859_46;
        let got = exp11(&diag, &off).unwrap();
        assert!((got - exact).abs() < 1e-14 * exact, "kernel={got} exact={exact}");
        // ρ ≤ 2 caps the series at 25 terms; ρ = 0 needs none.
        assert_eq!(taylor_terms(0.0), 0);
        assert_eq!(taylor_terms(2.0), 25);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random unreduced tridiagonals, t ≤ 16, α ∈ [−40, 40] and
        /// β ∈ (0, 20]: the kernel reads the oracle's `Σ z₀ⱼ² e^{θⱼ}` to
        /// 1e-12 relative, give or take the oracle's own rounding error.
        /// That allowance is below 1e-15 relative on well-spread weights;
        /// on 20 000 such draws QL strayed up to 6e-11 from a 50-digit
        /// reference where a weight under 1e-9 met an eigenvalue near 47,
        /// while the kernel stayed within 7e-15 of it.
        #[test]
        fn kernel_matches_ql_oracle(
            (diag, off) in (1usize..=16).prop_flat_map(|t| (
                proptest::collection::vec(-40.0f64..=40.0, t..t + 1),
                proptest::collection::vec(0.0f64..20.0, t - 1..t),
            )),
        ) {
            let off: Vec<f64> = off.iter().map(|u| 20.0 - u).collect();
            let (want, ql_err) = ql_exp11(&diag, &off);
            let got = exp11(&diag, &off).unwrap();
            let tol = 1e-12 * want + 16.0 * ql_err;
            prop_assert!(
                (got - want).abs() <= tol,
                "t={} kernel={} oracle={} rel={:e} allowance={:e}",
                diag.len(), got, want, (got - want).abs() / want, ql_err / want
            );
        }
    }

    #[test]
    fn lanes_are_independent_of_tile_width() {
        // Sixteen 8×8 matrices whose spectra scale from ~0.1 to ~80 wide,
        // so tiles mix m = 1 with m = 20 and short series with long ones.
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut unit = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64
        };
        let mixed: Vec<(Vec<f64>, Vec<f64>)> = (0..16)
            .map(|j| {
                let scale = [0.05, 1.0, 3.0, 25.0][j % 4];
                let diag = (0..8).map(|_| scale * (2.0 * unit() - 1.0)).collect();
                let off = (0..7).map(|_| scale * (0.01 + unit())).collect();
                (diag, off)
            })
            .collect();
        assert_lane_width_independent(&mixed);

        // A ragged tile as a Lanczos tile leaves one: lanes whose probe
        // retired early keep their short T, then zeros past a vanishing β.
        let ragged: Vec<(Vec<f64>, Vec<f64>)> = mixed
            .iter()
            .enumerate()
            .map(|(j, (diag, off))| {
                let len = [8, 3, 8, 1, 5, 8, 2, 8][j % 8];
                let mut diag = diag.clone();
                let mut off = off.clone();
                diag[len..].fill(0.0);
                off[len.min(7)..].fill(0.0);
                if len < 8 {
                    off[len - 1] = 1e-14;
                }
                (diag, off)
            })
            .collect();
        assert_lane_width_independent(&ragged);
    }

    #[test]
    fn empty_and_non_finite_inputs_are_errors() {
        let empty: [[f64; 4]; 0] = [];
        let (mut z, mut term) = (vec![[0.0; 4]; 2], vec![[0.0; 4]; 2]);
        assert_eq!(
            tridiag_exp11_lanes(&empty, &empty, &mut z, &mut term),
            Err(LinalgError::EmptyInput("tridiagonal matrix"))
        );
        let (diag, off) = ([0.5, -1.0, 2.0], [1.0, 0.5]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for i in 0..3 {
                let mut d = diag;
                d[i] = bad;
                assert!(
                    matches!(exp11(&d, &off), Err(LinalgError::NonFinite(_))),
                    "α[{i}] = {bad}"
                );
            }
            for i in 0..2 {
                let mut e = off;
                e[i] = bad;
                assert!(
                    matches!(exp11(&diag, &e), Err(LinalgError::NonFinite(_))),
                    "β[{i}] = {bad}"
                );
            }
            // One bad lane fails the whole tile.
            let a: Vec<[f64; 4]> = diag.iter().map(|&x| [x, x, bad, x]).collect();
            let b: Vec<[f64; 4]> = off.iter().map(|&x| [x; 4]).collect();
            let (mut z, mut term) = (vec![[0.0; 4]; 3], vec![[0.0; 4]; 3]);
            let res = tridiag_exp11_lanes(&a, &b, &mut z, &mut term);
            assert!(matches!(res, Err(LinalgError::NonFinite(_))), "lane 2 = {bad}");
        }
        // A spectrum too wide for the half steps, or wider than f64 holds.
        for wide in [1e300, f64::MAX] {
            assert!(
                matches!(exp11(&[wide, -wide], &[1.0]), Err(LinalgError::NonConvergence { .. })),
                "α = ±{wide}"
            );
        }
        // Short subdiagonal or scratch.
        let a = [[1.0], [2.0], [3.0]];
        let (mut z, mut term) = (vec![[0.0]; 3], vec![[0.0]; 2]);
        assert!(tridiag_exp11_lanes(&a, &[[1.0]], &mut z.clone(), &mut z).is_err());
        assert!(tridiag_exp11_lanes(&a, &[[1.0], [1.0]], &mut z, &mut term).is_err());
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
