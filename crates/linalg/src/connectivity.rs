//! Natural connectivity `λ(G) = ln(tr(e^A)/n)` (paper Eq. 1/5).
//!
//! Exact evaluation goes through the full spectrum; estimated evaluation
//! is [`ConnectivityEstimator::lambda`](crate::trace::ConnectivityEstimator::lambda):
//! stochastic Lanczos quadrature under frozen Gaussian Hutchinson probes
//! with a guaranteed `(1 ± ε)` multiplicative trace error, i.e. an additive
//! `±ε`-ish error on `λ` (paper §5.1).

use crate::eig::sparse_symmetric_eigenvalues;
use crate::error::LinalgError;
use crate::sparse::CsrMatrix;
use crate::util::logsumexp;

/// Natural connectivity from a full eigenvalue list:
/// `ln((1/n) Σ e^{λ_j}) = logsumexp(λ) − ln n`.
pub fn natural_connectivity_from_eigs(eigs: &[f64]) -> f64 {
    if eigs.is_empty() {
        return f64::NEG_INFINITY;
    }
    logsumexp(eigs) - (eigs.len() as f64).ln()
}

/// Exact natural connectivity via full eigendecomposition (`O(n³)`).
///
/// This is the paper's "Eigen" baseline; use
/// [`ConnectivityEstimator`](crate::trace::ConnectivityEstimator) for
/// anything beyond a few thousand vertices.
pub fn natural_connectivity_exact(a: &CsrMatrix) -> Result<f64, LinalgError> {
    let eigs = sparse_symmetric_eigenvalues(a)?;
    Ok(natural_connectivity_from_eigs(&eigs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ConnectivityEstimator, TraceParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn empty_graph_connectivity_is_zero() {
        // No edges: all eigenvalues 0 ⇒ tr(e^A) = n ⇒ λ = ln(n/n) = 0.
        let a = CsrMatrix::from_undirected_edges(5, &[]);
        let l = natural_connectivity_exact(&a).unwrap();
        assert!(l.abs() < 1e-12);
    }

    #[test]
    fn complete_graph_closed_form() {
        // K_n: λ = ln((e^{n−1} + (n−1)e^{−1})/n).
        let n = 6usize;
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                edges.push((i, j));
            }
        }
        let a = CsrMatrix::from_undirected_edges(n, &edges);
        let want = (((n as f64 - 1.0).exp() + (n as f64 - 1.0) * (-1f64).exp()) / n as f64).ln();
        let got = natural_connectivity_exact(&a).unwrap();
        assert!((got - want).abs() < 1e-10, "{got} vs {want}");
    }

    #[test]
    fn estimator_within_one_percent() {
        // The paper reports ≈1% accuracy at s=50, t=10 on transit networks;
        // random sparse graphs behave the same way.
        let a = random_graph(150, 300, 42);
        let exact = natural_connectivity_exact(&a).unwrap();
        let est = ConnectivityEstimator::new(150, &TraceParams::default(), 7);
        let got = est.lambda(&a).unwrap();
        assert!((got - exact).abs() / exact.abs().max(1.0) < 0.05, "est {got} vs exact {exact}");
    }

    #[test]
    fn monotone_under_edge_addition() {
        let a = random_graph(40, 60, 9);
        let mut additions = Vec::new();
        'outer: for i in 0..40u32 {
            for j in (i + 1)..40u32 {
                if !a.has_edge(i, j) {
                    additions.push((i, j));
                    if additions.len() == 5 {
                        break 'outer;
                    }
                }
            }
        }
        let mut prev = natural_connectivity_exact(&a).unwrap();
        let mut cur = a;
        for e in additions {
            cur = cur.with_added_unit_edges(&[e]);
            let l = natural_connectivity_exact(&cur).unwrap();
            assert!(l >= prev - 1e-12, "connectivity decreased: {l} < {prev}");
            prev = l;
        }
    }

    #[test]
    fn from_eigs_empty_is_neg_inf() {
        assert_eq!(natural_connectivity_from_eigs(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn estimator_increment_consistency() {
        // The planner's increment ln(tr'/tr) equals λ(a') − λ(a) computed
        // separately with the same probes.
        let a = random_graph(50, 100, 13);
        let a_new = a.with_added_unit_edges(&[(0, 49), (1, 48)]);
        let est = ConnectivityEstimator::new(50, &TraceParams::default(), 3);
        let inc = (est.trace_exp(&a_new).unwrap() / est.trace_exp(&a).unwrap()).ln();
        let diff = est.lambda(&a_new).unwrap() - est.lambda(&a).unwrap();
        assert!((inc - diff).abs() < 1e-12);
    }
}
