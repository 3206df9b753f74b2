//! Graph Laplacian and algebraic connectivity (Fiedler value).
//!
//! The paper's §2 weighs natural connectivity against the classical
//! alternatives before adopting it: *algebraic connectivity* [31, 63] —
//! the second-smallest eigenvalue `λ₂(L)` of the Laplacian `L = D − A` —
//! "shows drastic changes by small graph alterations", which the
//! `ext_measures` experiment reproduces. This module provides `λ₂` both
//! exactly (dense eigensolve; the oracle) and iteratively: Lanczos on the
//! shifted operator `M = cI − L` restricted to the complement of the
//! all-ones kernel, so `λ₂(L) = c − λ_max(M|⊥𝟙)`.

use crate::eig::full_symmetric_eigenvalues;
use crate::error::LinalgError;
use crate::sparse::CsrMatrix;
use crate::vector::{axpy, dot, norm, scale};

/// Per-node (weighted) degrees of an adjacency matrix.
pub fn degrees(adj: &CsrMatrix) -> Vec<f64> {
    (0..adj.n()).map(|i| adj.row_entries(i).1.iter().sum()).collect()
}

/// Dense Laplacian `L = D − A` (small graphs / test oracle).
pub fn laplacian_dense(adj: &CsrMatrix) -> crate::dense::DenseMatrix {
    let n = adj.n();
    let mut l = crate::dense::DenseMatrix::zeros(n);
    for i in 0..n {
        let (cols, vals) = adj.row_entries(i);
        let mut deg = 0.0;
        for (&j, &w) in cols.iter().zip(vals) {
            l.add(i, j as usize, -w);
            deg += w;
        }
        l.add(i, i, deg);
    }
    l
}

/// Exact algebraic connectivity: second-smallest Laplacian eigenvalue.
///
/// Tiny negative values from roundoff are clamped to zero; a disconnected
/// graph returns exactly the (near-)zero second eigenvalue.
///
/// ```
/// use ct_linalg::{algebraic_connectivity_exact, CsrMatrix};
/// // Complete graph K₃: λ₂(L) = n = 3.
/// let k3 = CsrMatrix::from_undirected_edges(3, &[(0, 1), (1, 2), (0, 2)]);
/// assert!((algebraic_connectivity_exact(&k3).unwrap() - 3.0).abs() < 1e-9);
/// ```
// ctlint::allow(dead-pub): dense oracle for algebraic_connectivity in tests/extensions.rs and crates/linalg/tests/properties.rs
pub fn algebraic_connectivity_exact(adj: &CsrMatrix) -> Result<f64, LinalgError> {
    let n = adj.n();
    if n < 2 {
        return Err(LinalgError::EmptyInput("graph with at least 2 nodes"));
    }
    let mut eigs = full_symmetric_eigenvalues(laplacian_dense(adj))?;
    eigs.sort_by(|a, b| a.partial_cmp(b).expect("eigenvalues are not NaN"));
    Ok(eigs[1].max(0.0))
}

/// Iterative algebraic connectivity via deflated Lanczos.
///
/// Runs Lanczos with full reorthogonalization on `M = cI − L`
/// (`c = 2·max-degree ≥ λ_max(L)`), keeping every basis vector orthogonal
/// to the all-ones kernel of `L`; the largest Ritz value `θ` of the
/// restricted operator gives `λ₂ = c − θ`. Accurate to a few digits in
/// tens of steps on city-scale transit graphs — enough for the §2
/// comparison, where only the *shape* of the series matters.
pub fn algebraic_connectivity(adj: &CsrMatrix, steps: usize) -> Result<f64, LinalgError> {
    let n = adj.n();
    if n < 2 {
        return Err(LinalgError::EmptyInput("graph with at least 2 nodes"));
    }
    let deg = degrees(adj);
    let c = 2.0 * deg.iter().fold(0.0f64, |a, &b| a.max(b)).max(1.0);

    // Deterministic start vector, made orthogonal to 𝟙.
    let mut v: Vec<f64> = (0..n).map(|i| ((i * 2654435761) % 97) as f64 / 97.0 - 0.5).collect();
    project_out_ones(&mut v);
    let nv = norm(&v);
    if nv <= 0.0 {
        return Err(LinalgError::EmptyInput("start vector"));
    }
    scale(1.0 / nv, &mut v);

    // Lanczos on M = cI − L with full reorthogonalization. On breakdown
    // (the Krylov space of the start vector is exhausted — e.g. the start
    // had no component on the Fiedler eigenspace) a fresh direction is
    // injected with zero off-diagonal coupling; the block-tridiagonal
    // eigenvalues are then the union over blocks, so nothing is lost.
    let m = steps.clamp(2, n.saturating_sub(1)).max(2);
    let mut alphas: Vec<f64> = Vec::with_capacity(m);
    let mut betas: Vec<f64> = Vec::with_capacity(m);
    let mut basis: Vec<Vec<f64>> = vec![v.clone()];
    let mut w = vec![0.0; n];
    let mut injections = 0usize;
    for j in 0..m {
        let q = &basis[j];
        // w = M q = c q − (D − A) q.
        adj.matvec(q, &mut w);
        for i in 0..n {
            w[i] = c * q[i] - (deg[i] * q[i] - w[i]);
        }
        let alpha = dot(&w, q);
        axpy(-alpha, q, &mut w);
        if j > 0 {
            let beta_prev = betas[j - 1];
            axpy(-beta_prev, &basis[j - 1], &mut w);
        }
        // Full reorthogonalization (including against 𝟙 to pin deflation).
        project_out_ones(&mut w);
        for q_old in &basis {
            let d = dot(&w, q_old);
            axpy(-d, q_old, &mut w);
        }
        alphas.push(alpha);
        if j + 1 == m {
            break;
        }
        let beta = norm(&w);
        if beta >= 1e-10 {
            betas.push(beta);
            let mut next = w.clone();
            scale(1.0 / beta, &mut next);
            basis.push(next);
            continue;
        }
        // Breakdown: inject a fresh orthogonal direction, if any remains.
        let mut injected = false;
        while injections < n {
            injections += 1;
            let mut fresh: Vec<f64> = (0..n)
                .map(|i| (((i + injections * 31) * 1103515245) % 89) as f64 / 89.0 - 0.5)
                .collect();
            project_out_ones(&mut fresh);
            for q_old in &basis {
                let d = dot(&fresh, q_old);
                axpy(-d, q_old, &mut fresh);
            }
            let nf = norm(&fresh);
            if nf >= 1e-8 {
                scale(1.0 / nf, &mut fresh);
                betas.push(0.0);
                basis.push(fresh);
                injected = true;
                break;
            }
        }
        if !injected {
            break; // the complement of 𝟙 is fully spanned
        }
    }

    let ritz = crate::tridiag::tridiag_eigenvalues(&alphas, &betas[..alphas.len() - 1])?;
    let theta = ritz.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    Ok((c - theta).max(0.0))
}

/// Removes the component along the all-ones vector.
fn project_out_ones(v: &mut [f64]) {
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    for x in v.iter_mut() {
        *x -= mean;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> CsrMatrix {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        CsrMatrix::from_undirected_edges(n, &edges)
    }

    fn cycle(n: usize) -> CsrMatrix {
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((0, n as u32 - 1));
        CsrMatrix::from_undirected_edges(n, &edges)
    }

    fn complete(n: usize) -> CsrMatrix {
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in i + 1..n as u32 {
                edges.push((i, j));
            }
        }
        CsrMatrix::from_undirected_edges(n, &edges)
    }

    #[test]
    fn degrees_and_dense_laplacian() {
        let a = path(3);
        assert_eq!(degrees(&a), vec![1.0, 2.0, 1.0]);
        let l = laplacian_dense(&a);
        // Row sums of a Laplacian are zero.
        for i in 0..3 {
            let s: f64 = l.row(i).iter().sum();
            assert!(s.abs() < 1e-12);
        }
        assert_eq!(l.get(1, 1), 2.0);
        assert_eq!(l.get(0, 1), -1.0);
    }

    #[test]
    fn exact_fiedler_matches_closed_forms() {
        // Path P_n: λ₂ = 2(1 − cos(π/n)); cycle C_n: 2(1 − cos(2π/n));
        // complete K_n: n.
        let closed_path = |n: usize| 2.0 * (1.0 - (std::f64::consts::PI / n as f64).cos());
        let closed_cycle = |n: usize| 2.0 * (1.0 - (2.0 * std::f64::consts::PI / n as f64).cos());
        for n in [3usize, 5, 8] {
            let p = algebraic_connectivity_exact(&path(n)).unwrap();
            assert!((p - closed_path(n)).abs() < 1e-9, "P_{n}: {p}");
            let c = algebraic_connectivity_exact(&cycle(n)).unwrap();
            assert!((c - closed_cycle(n)).abs() < 1e-9, "C_{n}: {c}");
            let k = algebraic_connectivity_exact(&complete(n)).unwrap();
            assert!((k - n as f64).abs() < 1e-9, "K_{n}: {k}");
        }
    }

    #[test]
    fn disconnected_graph_has_zero_fiedler_value() {
        // Two disjoint edges.
        let a = CsrMatrix::from_undirected_edges(4, &[(0, 1), (2, 3)]);
        assert!(algebraic_connectivity_exact(&a).unwrap() < 1e-12);
        assert!(algebraic_connectivity(&a, 10).unwrap() < 1e-9);
    }

    #[test]
    fn lanczos_matches_exact_on_structured_graphs() {
        for (name, g) in [("P12", path(12)), ("C15", cycle(15)), ("K8", complete(8))] {
            let exact = algebraic_connectivity_exact(&g).unwrap();
            let iter = algebraic_connectivity(&g, 30).unwrap();
            assert!(
                (exact - iter).abs() < 1e-6 * exact.max(1.0),
                "{name}: exact {exact} vs lanczos {iter}"
            );
        }
    }

    #[test]
    fn lanczos_matches_exact_on_random_graph() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 30;
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        for _ in 0..40 {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                edges.push((u.min(v), u.max(v)));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let g = CsrMatrix::from_undirected_edges(n, &edges);
        let exact = algebraic_connectivity_exact(&g).unwrap();
        let iter = algebraic_connectivity(&g, 29).unwrap();
        assert!((exact - iter).abs() < 1e-5 * exact.max(1.0), "{exact} vs {iter}");
    }

    #[test]
    fn fiedler_increases_with_edge_addition() {
        // Adding an edge can only increase (weakly) algebraic connectivity.
        let p = path(8);
        let before = algebraic_connectivity_exact(&p).unwrap();
        let after = algebraic_connectivity_exact(&p.with_added_unit_edges(&[(0, 7)])).unwrap();
        assert!(after >= before - 1e-12);
        assert!(after > before + 1e-6, "closing a path into a cycle must help");
    }

    #[test]
    fn tiny_graphs_are_errors() {
        let one = CsrMatrix::from_undirected_edges(1, &[]);
        assert!(algebraic_connectivity_exact(&one).is_err());
        assert!(algebraic_connectivity(&one, 10).is_err());
    }
}
