//! Top-k eigenvalues of sparse symmetric matrices.
//!
//! The Lemma 3/4 connectivity bounds need the `2k` (resp. `⌊(k+1)/2⌋`)
//! algebraically largest eigenvalues of the transit adjacency matrix.
//! [`block_krylov_head`] computes them by randomized block Krylov with
//! Rayleigh–Ritz (paper ref \[44\]), returning the top values with their
//! Ritz vectors. Single-vector Krylov methods find one copy of each
//! *distinct* eigenvalue, so they under-count the repeated eigenvalues
//! common in graphs with symmetric substructures; a block wider than the
//! largest multiplicity recovers them. Seeded with a previous head's
//! vectors it re-converges in a fraction of the Krylov columns. This is
//! what the bound code uses; [`block_krylov_topk`] and
//! [`block_krylov_topk_warm`] are thin wrappers.

use rand::Rng;

use crate::dense::DenseMatrix;
use crate::eig::top_symmetric_eigenpairs;
use crate::error::LinalgError;
use crate::lanczos::lanczos_tridiagonalize;
use crate::matvec::MatVec;
use crate::rng::gaussian_vector;
use crate::tridiag::tridiag_eigenvalues;
use crate::vector::{normalize, orthogonalize_against};

/// Columns with post-orthogonalization norm below this are discarded.
const DEFLATION_TOL: f64 = 1e-10;

/// An unseeded head takes `4·max(want, COLD_WANT_FLOOR) + 48` Krylov
/// columns: enough slack for the trailing Ritz values to converge (Lemmas
/// 3–4 lose admissibility when top eigenvalues are under-estimated).
const COLD_WANT_FLOOR: usize = 96;

/// Top of a symmetric matrix's spectrum with Ritz vectors, as returned by
/// [`block_krylov_head`]: `values` descending, `vectors[j]` the unit Ritz
/// vector paired with `values[j]`. Both hold `min(want, m)` entries, `m`
/// the Krylov basis size.
#[derive(Debug, Clone, Default)]
pub struct SpectrumHead {
    /// Top eigenvalue estimates, algebraically largest first.
    pub values: Vec<f64>,
    /// Unit Ritz vectors matching `values` front-to-front.
    pub vectors: Vec<Vec<f64>>,
}

/// The `want` algebraically largest eigenpairs (descending) via randomized
/// block Krylov + Rayleigh–Ritz.
///
/// `block` is the block width (0 picks a default of 8, capped by `n`);
/// widths at least as large as the biggest eigenvalue multiplicity recover
/// repeated eigenvalues. `seeds` are a previous head's Ritz vectors (any
/// slice; entries whose length differs from `n` are ignored):
///
/// * **Without seeds** the basis starts from `block` Gaussian probes and
///   grows to `4·max(want, 96) + 48` columns (capped by `n`). This is the
///   historical cold start: same RNG stream, same basis, same values.
/// * **With seeds** the basis starts from the seeds followed by the
///   probes. They already span a near-invariant subspace of a slightly
///   perturbed matrix, so `want + 2·block + 8` columns suffice, plus four
///   per seed short of `want`.
///
/// The Rayleigh–Ritz step is [`top_symmetric_eigenpairs`] on `T = Qᵀ A Q`:
/// its values are bit-identical to a values-only Householder + QL solve,
/// and only the `want` kept Ritz vectors are formed.
pub fn block_krylov_head<M: MatVec + ?Sized, R: Rng + ?Sized>(
    a: &M,
    want: usize,
    block: usize,
    seeds: &[Vec<f64>],
    rng: &mut R,
) -> Result<SpectrumHead, LinalgError> {
    let n = a.n();
    if n == 0 {
        return Err(LinalgError::EmptyInput("matrix"));
    }
    if want == 0 {
        return Ok(SpectrumHead::default());
    }
    let b = if block == 0 { 8.min(n).max(1) } else { block.min(n) };
    // Seed block: previous Ritz vectors first (they deflate to the residual
    // correction directions after orthogonalization), then fresh Gaussian
    // probes so a stale seed set still explores the full space.
    let mut current: Vec<Vec<f64>> = seeds.iter().filter(|v| v.len() == n).cloned().collect();
    let target_cols = if current.is_empty() {
        4 * want.max(COLD_WANT_FLOOR) + 48
    } else {
        want + 2 * b + 8 + 4 * want.saturating_sub(current.len())
    }
    .min(n);
    current.extend((0..b).map(|_| gaussian_vector(rng, n)));

    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(target_cols);
    // A·q for every accepted basis column, captured as columns are admitted
    // so the Rayleigh–Ritz stage below needs no second matvec pass. The
    // per-column allocations are load-bearing: each product both seeds the
    // next Krylov block (where it is orthogonalized in place) and must
    // survive pristine for T = Qᵀ A Q.
    let mut aq: Vec<Vec<f64>> = Vec::with_capacity(target_cols);

    while basis.len() < target_cols && !current.is_empty() {
        let mut next_block: Vec<Vec<f64>> = Vec::with_capacity(current.len());
        for mut col in current.drain(..) {
            orthogonalize_against(&mut col, &basis);
            orthogonalize_against(&mut col, &basis);
            let nm = normalize(&mut col);
            if nm > DEFLATION_TOL {
                let prod = a.matvec_alloc(&col);
                basis.push(col);
                aq.push(prod.clone());
                next_block.push(prod);
                if basis.len() >= target_cols {
                    break;
                }
            }
        }
        current = next_block;
    }

    if basis.is_empty() {
        return Err(LinalgError::EmptyInput("Krylov basis collapsed"));
    }

    // Rayleigh–Ritz: T = Qᵀ A Q over the assembled basis; Ritz vector j is
    // Q · w_j.
    let m = basis.len();
    let mut t = DenseMatrix::zeros(m);
    for i in 0..m {
        for j in i..m {
            let v: f64 = basis[i].iter().zip(&aq[j]).map(|(x, y)| x * y).sum();
            t.set(i, j, v);
            t.set(j, i, v);
        }
    }
    let (values, w) = top_symmetric_eigenpairs(t, want)?;
    // Basis-major, so each basis column streams from memory once.
    let mut vectors = vec![vec![0.0; n]; w.len()];
    for (r, q) in basis.iter().enumerate() {
        for (y, wp) in vectors.iter_mut().zip(&w) {
            let coef = wp[r];
            for (yj, qj) in y.iter_mut().zip(q) {
                *yj += coef * qj;
            }
        }
    }
    Ok(SpectrumHead { values, vectors })
}

/// Top-`k` algebraically largest eigenvalues (descending): the values of an
/// unseeded [`block_krylov_head`].
pub fn block_krylov_topk<M: MatVec + ?Sized, R: Rng + ?Sized>(
    a: &M,
    k: usize,
    block: usize,
    rng: &mut R,
) -> Result<Vec<f64>, LinalgError> {
    block_krylov_head(a, k, block, &[], rng).map(|head| head.values)
}

/// [`block_krylov_head`] seeded with `warm`, a previous head's Ritz vectors.
pub fn block_krylov_topk_warm<M: MatVec + ?Sized, R: Rng + ?Sized>(
    a: &M,
    k: usize,
    block: usize,
    warm: &[Vec<f64>],
    rng: &mut R,
) -> Result<SpectrumHead, LinalgError> {
    block_krylov_head(a, k, block, warm, rng)
}

/// Spectral norm `‖A‖₂` of a symmetric matrix (largest |eigenvalue|),
/// estimated with a short reorthogonalized Lanczos run.
pub fn spectral_norm<M: MatVec + ?Sized, R: Rng + ?Sized>(
    a: &M,
    rng: &mut R,
) -> Result<f64, LinalgError> {
    let n = a.n();
    if n == 0 {
        return Err(LinalgError::EmptyInput("matrix"));
    }
    let steps = 40.min(n);
    let v0 = gaussian_vector(rng, n);
    let dec = lanczos_tridiagonalize(a, &v0, steps, false, true)?;
    let ritz = tridiag_eigenvalues(&dec.alphas, &dec.betas)?;
    let lo = ritz.first().copied().unwrap_or(0.0);
    let hi = ritz.last().copied().unwrap_or(0.0);
    Ok(lo.abs().max(hi.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::sparse_symmetric_eigenvalues;
    use crate::sparse::CsrMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn complete_graph(n: usize) -> CsrMatrix {
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                edges.push((i, j));
            }
        }
        CsrMatrix::from_undirected_edges(n, &edges)
    }

    fn random_graph(n: usize, m: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        while edges.len() < m {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                edges.push((u, v));
            }
        }
        CsrMatrix::from_undirected_edges(n, &edges)
    }

    #[test]
    fn block_krylov_recovers_multiplicities() {
        // K6: eigenvalues 5, then −1 with multiplicity 5.
        let a = complete_graph(6);
        let mut rng = StdRng::seed_from_u64(2);
        let top = block_krylov_topk(&a, 4, 6, &mut rng).unwrap();
        assert!((top[0] - 5.0).abs() < 1e-8);
        for v in &top[1..] {
            assert!((v + 1.0).abs() < 1e-8, "expected -1, got {v}");
        }
    }

    #[test]
    fn block_krylov_matches_exact_on_random_graph() {
        let a = random_graph(60, 150, 77);
        let exact = sparse_symmetric_eigenvalues(&a).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let k = 10;
        let top = block_krylov_topk(&a, k, 8, &mut rng).unwrap();
        for (i, v) in top.iter().enumerate() {
            let want = exact[exact.len() - 1 - i];
            assert!((v - want).abs() < 1e-6, "rank {i}: {v} vs {want}");
        }
    }

    #[test]
    fn topk_descending_order() {
        let a = random_graph(40, 80, 123);
        let mut rng = StdRng::seed_from_u64(8);
        let top = block_krylov_topk(&a, 8, 4, &mut rng).unwrap();
        for w in top.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn warm_start_cold_matches_exact() {
        // Empty warm set: the unseeded (cold-budget) head.
        let a = random_graph(60, 150, 77);
        let exact = sparse_symmetric_eigenvalues(&a).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let k = 8;
        let head = block_krylov_topk_warm(&a, k, 8, &[], &mut rng).unwrap();
        assert_eq!(head.values.len(), k);
        assert_eq!(head.vectors.len(), k);
        for (i, v) in head.values.iter().enumerate() {
            let want = exact[exact.len() - 1 - i];
            assert!((v - want).abs() < 1e-6, "rank {i}: {v} vs {want}");
        }
    }

    #[test]
    fn warm_start_vectors_are_near_eigenvectors() {
        let a = random_graph(50, 120, 31);
        let mut rng = StdRng::seed_from_u64(12);
        let head = block_krylov_topk_warm(&a, 6, 8, &[], &mut rng).unwrap();
        for (lam, y) in head.values.iter().zip(&head.vectors) {
            let norm: f64 = y.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-8, "Ritz vector norm {norm}");
            let ay = a.matvec_alloc(y);
            let resid: f64 =
                ay.iter().zip(y).map(|(r, yi)| (r - lam * yi).powi(2)).sum::<f64>().sqrt();
            assert!(resid < 1e-5, "residual ‖Ay − λy‖ = {resid} for λ = {lam}");
        }
    }

    #[test]
    fn warm_start_reuses_previous_head() {
        // Second call seeded by the first call's vectors stays accurate on
        // the same matrix (the subspace is already invariant).
        let a = random_graph(60, 150, 55);
        let exact = sparse_symmetric_eigenvalues(&a).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let k = 8;
        let first = block_krylov_topk_warm(&a, k, 8, &[], &mut rng).unwrap();
        let second = block_krylov_topk_warm(&a, k, 8, &first.vectors, &mut rng).unwrap();
        for (i, v) in second.values.iter().enumerate() {
            let want = exact[exact.len() - 1 - i];
            assert!((v - want).abs() < 1e-6, "rank {i}: {v} vs {want}");
        }
    }

    #[test]
    fn warm_start_tolerates_garbage_basis() {
        // Wrong-length and zero warm vectors are ignored / deflated away.
        let a = random_graph(40, 90, 91);
        let mut rng = StdRng::seed_from_u64(3);
        let garbage = vec![vec![0.0; 40], vec![1.0; 13], Vec::new()];
        let head = block_krylov_topk_warm(&a, 5, 4, &garbage, &mut rng).unwrap();
        assert_eq!(head.values.len(), 5);
        for w in head.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn warm_start_k_zero_is_empty() {
        let a = complete_graph(4);
        let mut rng = StdRng::seed_from_u64(1);
        let head = block_krylov_topk_warm(&a, 0, 2, &[], &mut rng).unwrap();
        assert!(head.values.is_empty() && head.vectors.is_empty());
    }

    #[test]
    fn spectral_norm_of_complete_graph() {
        let a = complete_graph(8);
        let mut rng = StdRng::seed_from_u64(6);
        let s = spectral_norm(&a, &mut rng).unwrap();
        assert!((s - 7.0).abs() < 1e-8, "got {s}");
    }

    #[test]
    fn k_zero_returns_empty() {
        let a = complete_graph(4);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(block_krylov_topk(&a, 0, 2, &mut rng).unwrap().is_empty());
    }

    #[test]
    fn empty_matrix_is_error() {
        let a = CsrMatrix::from_undirected_edges(0, &[]);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(block_krylov_topk(&a, 3, 2, &mut rng).is_err());
        assert!(spectral_norm(&a, &mut rng).is_err());
    }
}
