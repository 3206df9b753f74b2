//! Full symmetric eigensolvers.
//!
//! [`full_symmetric_eigenvalues`] (Householder + QL) is the exact baseline
//! the paper calls "Eigen" in Table 2; [`top_symmetric_eigenpairs`] is the
//! same solve plus the eigenvectors of its largest eigenvalues (the
//! Rayleigh–Ritz step of the block-Krylov spectrum head). The tests
//! cross-check both against an independent cyclic Jacobi solver.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::householder::{
    householder_apply_q, householder_tridiagonalize, householder_tridiagonalize_with_reflectors,
};
use crate::sparse::CsrMatrix;
use crate::tridiag::{tridiag_eigenvalues, tridiag_ql_implicit};

/// All eigenvalues of a dense symmetric matrix, sorted ascending.
///
/// The input is consumed (the reduction works in place on a copy would cost
/// `O(n²)` extra memory for no benefit at the call sites we have).
pub fn full_symmetric_eigenvalues(mut a: DenseMatrix) -> Result<Vec<f64>, LinalgError> {
    if a.n() == 0 {
        return Err(LinalgError::EmptyInput("matrix"));
    }
    let (d, e) = householder_tridiagonalize(&mut a);
    tridiag_eigenvalues(&d, &e)
}

/// The `want` algebraically largest eigenpairs of a dense symmetric matrix,
/// largest first: `values[j]` with its unit eigenvector `vectors[j]`
/// (`want` above `n` keeps all `n`).
///
/// The [`full_symmetric_eigenvalues`] solve with QL's rotation stream
/// recorded. Only the kept eigenvectors are rebuilt: the rotations are
/// replayed backwards on their unit vectors and the stored Householder
/// reflectors applied, `O(want · n²)` on top of the values-only solve.
/// The values are bit-identical to the largest `want` of
/// [`full_symmetric_eigenvalues`], and the vectors orthonormal to working
/// precision (products of exact rotations and reflectors), repeated
/// eigenvalues included.
pub fn top_symmetric_eigenpairs(
    mut a: DenseMatrix,
    want: usize,
) -> Result<(Vec<f64>, Vec<Vec<f64>>), LinalgError> {
    let n = a.n();
    if n == 0 {
        return Err(LinalgError::EmptyInput("matrix"));
    }
    let (mut d, mut e, h) = householder_tridiagonalize_with_reflectors(&mut a);
    let mut rotations: Vec<(usize, f64, f64)> = Vec::new();
    tridiag_ql_implicit(&mut d, &mut e, |i, s, c| rotations.push((i, s, c)))?;

    // The stable ascending order `full_symmetric_eigenvalues` sorts into,
    // read from the top.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| d[x].partial_cmp(&d[y]).expect("eigenvalues are finite"));
    let keep: Vec<usize> = order.iter().rev().take(want).copied().collect();
    let width = keep.len();

    // QL accumulates Z ← Z·G per rotation, so Z = G_1 ⋯ G_R and column j
    // is G_1(⋯(G_R e_j)). All kept columns replay together, row-major
    // (`x[r * width + p]`), so each rotation touches two contiguous rows.
    let mut x = vec![0.0; n * width];
    for (p, &j) in keep.iter().enumerate() {
        x[j * width + p] = 1.0;
    }
    for &(i, s, c) in rotations.iter().rev() {
        let (lo, hi) = x[i * width..(i + 2) * width].split_at_mut(width);
        for (xi, xj) in lo.iter_mut().zip(hi) {
            let (a0, a1) = (*xi, *xj);
            *xi = c * a0 + s * a1;
            *xj = c * a1 - s * a0;
        }
    }
    householder_apply_q(&a, &h, &mut x, width);

    let values = keep.iter().map(|&j| d[j]).collect();
    let vectors = (0..width).map(|p| (0..n).map(|r| x[r * width + p]).collect()).collect();
    Ok((values, vectors))
}

/// All eigenvalues of a sparse symmetric matrix via densification.
///
/// Only sensible for moderate `n`; this is the *slow exact path* that §5 of
/// the paper replaces with stochastic Lanczos quadrature.
pub fn sparse_symmetric_eigenvalues(a: &CsrMatrix) -> Result<Vec<f64>, LinalgError> {
    full_symmetric_eigenvalues(a.to_dense())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Cyclic Jacobi eigenvalue iteration; independent cross-check for
    /// [`full_symmetric_eigenvalues`] on small matrices.
    fn jacobi_eigenvalues(a: DenseMatrix, max_sweeps: usize) -> Result<Vec<f64>, LinalgError> {
        jacobi_symmetric_eigen(a, max_sweeps).map(|(d, _)| d)
    }

    /// Full eigendecomposition of a dense symmetric matrix via cyclic Jacobi
    /// with rotation accumulation: eigenvalues ascending, `vectors[j]` the unit
    /// eigenvector of `values[j]`.
    ///
    /// An algorithm independent of Householder + QL that the tests hold
    /// [`top_symmetric_eigenpairs`] against. O(n³) per sweep and tens of
    /// sweeps, so no solver calls it.
    fn jacobi_symmetric_eigen(
        mut a: DenseMatrix,
        max_sweeps: usize,
    ) -> Result<(Vec<f64>, Vec<Vec<f64>>), LinalgError> {
        let n = a.n();
        if n == 0 {
            return Err(LinalgError::EmptyInput("matrix"));
        }
        if n == 1 {
            return Ok((vec![a.get(0, 0)], vec![vec![1.0]]));
        }
        // Accumulated rotations: column j of `v` converges to eigenvector j.
        let mut v = DenseMatrix::zeros(n);
        for i in 0..n {
            v.set(i, i, 1.0);
        }
        let sorted = |a: &DenseMatrix, v: &DenseMatrix| -> (Vec<f64>, Vec<Vec<f64>>) {
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&x, &y| {
                a.get(x, x).partial_cmp(&a.get(y, y)).expect("finite eigenvalues")
            });
            let values = idx.iter().map(|&j| a.get(j, j)).collect();
            let vectors = idx.iter().map(|&j| (0..n).map(|i| v.get(i, j)).collect()).collect();
            (values, vectors)
        };
        let off = |m: &DenseMatrix| -> f64 {
            let mut s = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    s += m.get(i, j) * m.get(i, j);
                }
            }
            s
        };
        let frob0: f64 = {
            let mut s = 0.0;
            for i in 0..n {
                for j in 0..n {
                    s += a.get(i, j) * a.get(i, j);
                }
            }
            s.sqrt().max(1.0)
        };
        let tol = (f64::EPSILON * frob0).powi(2);

        for _ in 0..max_sweeps {
            // Converged when the off-diagonal mass is negligible *or* a full
            // sweep performs no rotations (every entry is below the skip
            // threshold — the off-based test alone can stall just above it).
            if off(&a) <= tol {
                return Ok(sorted(&a, &v));
            }
            let mut rotated = false;
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a.get(p, q);
                    if apq.abs() <= f64::EPSILON * frob0 {
                        continue;
                    }
                    rotated = true;
                    let theta = (a.get(q, q) - a.get(p, p)) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    // Apply the rotation J(p, q, θ)ᵀ A J(p, q, θ).
                    for k in 0..n {
                        let akp = a.get(k, p);
                        let akq = a.get(k, q);
                        a.set(k, p, c * akp - s * akq);
                        a.set(k, q, s * akp + c * akq);
                    }
                    for k in 0..n {
                        let apk = a.get(p, k);
                        let aqk = a.get(q, k);
                        a.set(p, k, c * apk - s * aqk);
                        a.set(q, k, s * apk + c * aqk);
                    }
                    // Accumulate into V: V ← V · J(p, q, θ).
                    for k in 0..n {
                        let vkp = v.get(k, p);
                        let vkq = v.get(k, q);
                        v.set(k, p, c * vkp - s * vkq);
                        v.set(k, q, s * vkp + c * vkq);
                    }
                }
            }
            if !rotated {
                return Ok(sorted(&a, &v));
            }
        }
        Err(LinalgError::NonConvergence { routine: "jacobi", max_iters: max_sweeps })
    }

    fn random_symmetric(n: usize, seed: u64) -> DenseMatrix {
        // Tiny xorshift so this test has no RNG dependency.
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut a = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = next();
                a.set(i, j, v);
                a.set(j, i, v);
            }
        }
        a
    }

    #[test]
    fn householder_ql_matches_jacobi() {
        for seed in [1u64, 17, 99] {
            let a = random_symmetric(8, seed);
            let e1 = full_symmetric_eigenvalues(a.clone()).unwrap();
            let e2 = jacobi_eigenvalues(a, 100).unwrap();
            for (x, y) in e1.iter().zip(&e2) {
                assert!((x - y).abs() < 1e-9, "seed {seed}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn cycle_graph_eigenvalues() {
        // C_n adjacency eigenvalues are 2 cos(2πk/n).
        let n = 7;
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let a = CsrMatrix::from_undirected_edges(n, &edges);
        let got = sparse_symmetric_eigenvalues(&a).unwrap();
        let mut want: Vec<f64> = (0..n)
            .map(|k| 2.0 * (2.0 * std::f64::consts::PI * k as f64 / n as f64).cos())
            .collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-10, "{g} vs {w}");
        }
    }

    #[test]
    fn complete_graph_eigenvalues() {
        // K_n has eigenvalues n−1 (once) and −1 (n−1 times).
        let n = 6usize;
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                edges.push((i, j));
            }
        }
        let a = CsrMatrix::from_undirected_edges(n, &edges);
        let got = sparse_symmetric_eigenvalues(&a).unwrap();
        assert!((got[n - 1] - (n as f64 - 1.0)).abs() < 1e-10);
        for v in &got[..n - 1] {
            assert!((v + 1.0).abs() < 1e-10, "expected -1, got {v}");
        }
    }

    #[test]
    fn star_graph_eigenvalues() {
        // Star K_{1,m} has eigenvalues ±√m and 0 (m−1 times).
        let m = 5usize;
        let edges: Vec<(u32, u32)> = (1..=m as u32).map(|i| (0, i)).collect();
        let a = CsrMatrix::from_undirected_edges(m + 1, &edges);
        let got = sparse_symmetric_eigenvalues(&a).unwrap();
        let root = (m as f64).sqrt();
        assert!((got[0] + root).abs() < 1e-10);
        assert!((got[m] - root).abs() < 1e-10);
        for v in &got[1..m] {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn empty_matrix_is_error() {
        assert!(full_symmetric_eigenvalues(DenseMatrix::zeros(0)).is_err());
        assert!(jacobi_eigenvalues(DenseMatrix::zeros(0), 10).is_err());
    }

    #[test]
    fn jacobi_eigen_reconstructs_matrix() {
        // A == Σ λ_j v_j v_jᵀ and the vectors are orthonormal.
        for seed in [3u64, 41] {
            let a = random_symmetric(9, seed);
            let (vals, vecs) = jacobi_symmetric_eigen(a.clone(), 100).unwrap();
            let n = a.n();
            for (j, vj) in vecs.iter().enumerate() {
                let norm: f64 = vj.iter().map(|x| x * x).sum::<f64>().sqrt();
                assert!((norm - 1.0).abs() < 1e-9, "vector {j} norm {norm}");
                for (l, vl) in vecs.iter().enumerate().skip(j + 1) {
                    let dot: f64 = vj.iter().zip(vl).map(|(x, y)| x * y).sum();
                    assert!(dot.abs() < 1e-9, "vectors {j},{l} dot {dot}");
                }
            }
            for i in 0..n {
                for k in 0..n {
                    let recon: f64 =
                        vals.iter().zip(&vecs).map(|(lam, vj)| lam * vj[i] * vj[k]).sum();
                    assert!(
                        (recon - a.get(i, k)).abs() < 1e-8,
                        "seed {seed} entry ({i},{k}): {recon} vs {}",
                        a.get(i, k)
                    );
                }
            }
        }
    }

    #[test]
    fn jacobi_eigen_values_match_values_only_path() {
        let a = random_symmetric(11, 23);
        let vals_only = full_symmetric_eigenvalues(a.clone()).unwrap();
        let (vals, _) = jacobi_symmetric_eigen(a, 100).unwrap();
        for (x, y) in vals_only.iter().zip(&vals) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn jacobi_eigen_one_by_one() {
        let mut a = DenseMatrix::zeros(1);
        a.set(0, 0, 4.5);
        let (vals, vecs) = jacobi_symmetric_eigen(a, 10).unwrap();
        assert_eq!(vals, vec![4.5]);
        assert_eq!(vecs, vec![vec![1.0]]);
    }

    #[test]
    fn top_eigenpairs_values_bit_identical_to_values_only_path() {
        for (n, seed) in [(1usize, 5u64), (2, 7), (9, 3), (40, 11), (120, 13)] {
            let a = random_symmetric(n, seed);
            let mut all = full_symmetric_eigenvalues(a.clone()).unwrap();
            all.reverse();
            for want in [1, n / 2 + 1, n, n + 3] {
                let (vals, vecs) = top_symmetric_eigenpairs(a.clone(), want).unwrap();
                let kept = want.min(n);
                assert_eq!(vecs.len(), kept, "n={n} want={want}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&vals), bits(&all[..kept]), "n={n} want={want}");
            }
        }
    }

    fn graph(n: usize, edges: &[(u32, u32)]) -> DenseMatrix {
        CsrMatrix::from_undirected_edges(n, edges).to_dense()
    }

    /// Two disjoint Petersen graphs: eigenvalues 3 (×2), 1 (×10), −2 (×8).
    fn double_petersen() -> DenseMatrix {
        let mut edges = Vec::new();
        for copy in [0u32, 10] {
            for i in 0..5u32 {
                edges.push((copy + i, copy + (i + 1) % 5)); // outer cycle
                edges.push((copy + 5 + i, copy + 5 + (i + 2) % 5)); // inner pentagram
                edges.push((copy + i, copy + 5 + i)); // spoke
            }
        }
        graph(20, &edges)
    }

    #[test]
    fn top_eigenpairs_resolve_repeated_eigenvalues() {
        let k6: Vec<(u32, u32)> = (0..6u32).flat_map(|i| (i + 1..6).map(move |j| (i, j))).collect();
        let star: Vec<(u32, u32)> = (1..=5u32).map(|i| (0, i)).collect();
        let cases =
            [("K6", graph(6, &k6)), ("K1,5", graph(6, &star)), ("2×Petersen", double_petersen())];
        for (name, t) in cases {
            let n = t.n();
            let (oracle_vals, oracle_vecs) = jacobi_symmetric_eigen(t.clone(), 100).unwrap();
            for want in [3, n] {
                let (vals, vecs) = top_symmetric_eigenpairs(t.clone(), want).unwrap();
                let dot =
                    |x: &[f64], y: &[f64]| -> f64 { x.iter().zip(y).map(|(a, b)| a * b).sum() };
                for (i, (theta, w)) in vals.iter().zip(&vecs).enumerate() {
                    for (j, v) in vecs.iter().enumerate() {
                        let expect = if i == j { 1.0 } else { 0.0 };
                        let got = dot(w, v);
                        assert!((got - expect).abs() <= 1e-10, "{name}: w{i}·w{j} = {got}");
                    }
                    let mut tw = vec![0.0; n];
                    t.matvec(w, &mut tw);
                    let resid = tw.iter().zip(w).map(|(x, y)| (x - theta * y).powi(2)).sum::<f64>();
                    assert!(
                        resid.sqrt() <= 1e-10,
                        "{name}: ‖Tw − θw‖ = {} for θ = {theta}",
                        resid.sqrt()
                    );
                    // w lies in the span of the oracle's eigenvectors for θ.
                    let cluster: Vec<&Vec<f64>> = oracle_vals
                        .iter()
                        .zip(&oracle_vecs)
                        .filter(|(lam, _)| (*lam - theta).abs() <= 1e-8)
                        .map(|(_, v)| v)
                        .collect();
                    let captured: f64 = cluster.iter().map(|v| dot(w, v).powi(2)).sum();
                    assert!(
                        (1.0 - captured).abs() <= 1e-9,
                        "{name}: θ = {theta} leaves the cluster"
                    );
                    // A fully kept cluster has the oracle's dimension.
                    let kept = vals.iter().filter(|x| (*x - theta).abs() <= 1e-8).count();
                    if want == n {
                        assert_eq!(kept, cluster.len(), "{name}: cluster of θ = {theta}");
                    }
                }
            }
        }
    }

    #[test]
    fn eigenvalue_sum_equals_trace_larger() {
        let a = random_symmetric(20, 5);
        let tr = a.trace();
        let eigs = full_symmetric_eigenvalues(a).unwrap();
        let sum: f64 = eigs.iter().sum();
        assert!((tr - sum).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn tridiag_ql_matches_jacobi(
            diag in proptest::collection::vec(-10.0f64..10.0, 2..24),
            seed in 0u64..100,
        ) {
            use rand::{Rng, SeedableRng};
            let n = diag.len();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let off: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-5.0..5.0)).collect();

            let ql = tridiag_eigenvalues(&diag, &off).unwrap();

            let mut dense = DenseMatrix::zeros(n);
            for i in 0..n {
                dense.set(i, i, diag[i]);
            }
            for i in 0..n - 1 {
                dense.set(i, i + 1, off[i]);
                dense.set(i + 1, i, off[i]);
            }
            let jac = jacobi_eigenvalues(dense, 200).unwrap();
            for (a, b) in ql.iter().zip(&jac) {
                prop_assert!((a - b).abs() < 1e-8, "QL {a} vs Jacobi {b}");
            }
        }
    }
}
