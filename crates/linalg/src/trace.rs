//! Stochastic trace estimation for `tr(e^A)` and natural connectivity.
//!
//! Hutchinson's estimator (paper ref \[36\]) averages quadratic forms
//! `vᵀ e^A v` over Gaussian probe vectors (§5.1); each quadratic form is
//! computed by stochastic Lanczos quadrature. With `s = O(log(1/δ)/ε²)`
//! probes the estimate is within `(1 ± ε)` of the true trace with
//! probability `1 − δ` (ref \[50\]) since `e^A` is positive definite.
//!
//! [`ConnectivityEstimator`] draws its probes once, from a seed, and reuses
//! them for every matrix it scores, so the per-edge connectivity increments
//! `Δ(e)` of §6 (~1e-4) are dominated by signal, not probe noise.
//!
//! The probes are stored once, *interleaved* (node-major,
//! `probes[i*s + j]` = entry `i` of probe `j`), and evaluated in lane tiles
//! through [`slq_trace_batch_in`]: one lane matvec per Lanczos step streams
//! the matrix once for each tile of up to 16 probes. The batched sweep is
//! bit-identical to a sequential loop of one scalar SLQ solve per probe
//! (the tests keep that loop as the reference).
//!
//! The probe buffer sits behind an [`Arc`], so cloning an estimator shares
//! it instead of copying `n × s` values.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::LinalgError;
use crate::lanczos::{slq_trace_batch_in, LanczosWorkspace};
use crate::matvec::MatVec;
use crate::rng::sample_gaussian;

/// Parameters for stochastic trace estimation.
#[derive(Debug, Clone, Copy)]
pub struct TraceParams {
    /// Number of Gaussian probes (`s`); paper default 50.
    pub probes: usize,
    /// Lanczos steps per quadratic form (`t`); paper default 10.
    pub lanczos_steps: usize,
}

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams { probes: 50, lanczos_steps: 10 }
    }
}

/// Natural-connectivity estimation with frozen Gaussian probes.
///
/// Freezing the probes makes repeated evaluations (a) deterministic given
/// the seed and (b) *comparable*: `λ` differences between two networks are
/// estimated with common random numbers, which is what the CT-Bus planner
/// needs when scoring candidate routes against the base network.
///
/// `Clone` shares the probes: the clone holds the same buffer and scores
/// every matrix with the same bits.
#[derive(Debug, Clone)]
pub struct ConnectivityEstimator {
    /// Frozen probes, interleaved node-major: `probes[i*s + j]` (the layout
    /// [`slq_trace_batch_in`] reads), shared by every clone.
    probes: Arc<[f64]>,
    n: usize,
    num_probes: usize,
    lanczos_steps: usize,
}

impl ConnectivityEstimator {
    /// Creates an estimator for `n × n` adjacency matrices, drawing
    /// `params.probes` Gaussian probes from a [`StdRng`] seeded with `seed`.
    /// With zero probes every estimate is an [`LinalgError::EmptyInput`]
    /// error.
    pub fn new(n: usize, params: &TraceParams, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = params.probes;
        let mut probes = vec![0.0; n * s];
        // Probe by probe, so probe `j` is the `j`-th `gaussian_vector(n)`
        // of the seeded stream.
        for j in 0..s {
            for i in 0..n {
                probes[i * s + j] = sample_gaussian(&mut rng);
            }
        }
        ConnectivityEstimator {
            probes: probes.into(),
            n,
            num_probes: s,
            lanczos_steps: params.lanczos_steps,
        }
    }

    /// Estimated natural connectivity `λ = ln(tr(e^A)/n)` of `a`.
    pub fn lambda<M: MatVec + ?Sized>(&self, a: &M) -> Result<f64, LinalgError> {
        let tr = self.trace_exp(a)?.max(f64::MIN_POSITIVE);
        Ok(tr.ln() - (self.n as f64).ln())
    }

    /// Estimated `tr(e^A)` with the frozen probes (fresh workspace);
    /// exposing the raw trace lets callers amortize a base-network trace
    /// across many increment computations (`Δλ = ln(tr'/tr)`). Hot loops
    /// should prefer [`ConnectivityEstimator::trace_exp_in`].
    pub fn trace_exp<M: MatVec + ?Sized>(&self, a: &M) -> Result<f64, LinalgError> {
        self.trace_exp_in(a, &mut LanczosWorkspace::new())
    }

    /// Estimated `tr(e^A)` reusing a caller-owned [`LanczosWorkspace`] for
    /// all scratch: the Δ(e) sweep calls this once per candidate edge with
    /// a thread-local workspace and allocates nothing in steady state.
    pub fn trace_exp_in<M: MatVec + ?Sized>(
        &self,
        a: &M,
        ws: &mut LanczosWorkspace,
    ) -> Result<f64, LinalgError> {
        if a.n() != self.n {
            return Err(LinalgError::DimensionMismatch { expected: self.n, actual: a.n() });
        }
        let total = slq_trace_batch_in(a, &self.probes, self.num_probes, self.lanczos_steps, ws)?;
        Ok(total / self.num_probes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::natural_connectivity_exact;
    use crate::eig::sparse_symmetric_eigenvalues;
    use crate::lanczos::slq_quadratic_form;
    use crate::matvec::EdgeOverlay;
    use crate::rng::gaussian_vector;
    use crate::sparse::CsrMatrix;
    use crate::util::logsumexp;
    use rand::Rng;

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

    fn exact_trace_exp(a: &CsrMatrix) -> f64 {
        let eigs = sparse_symmetric_eigenvalues(a).unwrap();
        logsumexp(&eigs).exp()
    }

    /// Probe `j` of `est`, gathered from the interleaved layout.
    fn probe(est: &ConnectivityEstimator, j: usize) -> Vec<f64> {
        (0..est.n).map(|i| est.probes[i * est.num_probes + j]).collect()
    }

    /// The sequential per-probe reference sweep: one allocating SLQ call per
    /// frozen probe, one matrix stream per probe per Lanczos step, summed in
    /// probe order.
    fn trace_exp_per_probe<M: MatVec + ?Sized>(est: &ConnectivityEstimator, a: &M) -> f64 {
        let mut acc = 0.0;
        for j in 0..est.num_probes {
            acc += slq_quadratic_form(a, &probe(est, j), est.lanczos_steps).unwrap();
        }
        acc / est.num_probes as f64
    }

    #[test]
    fn hutchinson_within_a_few_percent() {
        // Sparse graph with n ≫ e^{λ₁}, the regime transit networks live in
        // (the estimator's *relative* accuracy depends on tr(e^A) not being
        // dominated by a single eigenvalue).
        let a = random_graph(400, 520, 11);
        let exact = exact_trace_exp(&a);
        let params = TraceParams { probes: 100, lanczos_steps: 15 };
        let est = ConnectivityEstimator::new(400, &params, 1).trace_exp(&a).unwrap();
        let rel = (est - exact).abs() / exact;
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn probes_are_the_seeded_gaussian_stream() {
        // Every Δ(e), base trace and plan depends on these exact probes.
        let params = TraceParams { probes: 23, lanczos_steps: 10 };
        let est = ConnectivityEstimator::new(37, &params, 5);
        let mut rng = StdRng::seed_from_u64(5);
        for j in 0..params.probes {
            let want: Vec<u64> =
                gaussian_vector(&mut rng, 37).iter().map(|x| x.to_bits()).collect();
            let got: Vec<u64> = probe(&est, j).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "probe {j}");
        }
    }

    #[test]
    fn batched_sweep_matches_sequential_bitwise() {
        let a = random_graph(90, 180, 71);
        let params = TraceParams { probes: 23, lanczos_steps: 10 };
        let est = ConnectivityEstimator::new(90, &params, 5);
        let batched = est.trace_exp(&a).unwrap();
        let sequential = trace_exp_per_probe(&est, &a);
        assert_eq!(batched.to_bits(), sequential.to_bits(), "{batched} vs {sequential}");
    }

    #[test]
    fn overlay_trace_matches_materialized_bitwise() {
        let a = random_graph(60, 110, 13);
        let (mut u, mut v) = (0u32, 1u32);
        'outer: for i in 0..60u32 {
            for j in (i + 1)..60u32 {
                if !a.has_edge(i, j) {
                    u = i;
                    v = j;
                    break 'outer;
                }
            }
        }
        let est = ConnectivityEstimator::new(60, &TraceParams::default(), 3);
        let materialized = est.trace_exp(&a.with_added_unit_edges(&[(u, v)])).unwrap();
        let overlay = est.trace_exp(&EdgeOverlay::new(&a, &[(u, v)])).unwrap();
        assert_eq!(overlay.to_bits(), materialized.to_bits(), "{overlay} vs {materialized}");
    }

    #[test]
    fn workspace_reuse_across_matrices_is_stable() {
        let params = TraceParams { probes: 12, lanczos_steps: 8 };
        let est = ConnectivityEstimator::new(40, &params, 8);
        let mut ws = LanczosWorkspace::new();
        for seed in 0..4 {
            let a = random_graph(40, 80, 100 + seed);
            let fresh = est.trace_exp(&a).unwrap();
            let reused = est.trace_exp_in(&a, &mut ws).unwrap();
            assert_eq!(fresh.to_bits(), reused.to_bits());
        }
    }

    #[test]
    fn paired_estimator_tracks_increments() {
        let a = random_graph(70, 140, 55);
        // Pick an absent edge to add.
        let (mut u, mut v) = (0u32, 1u32);
        'outer: for i in 0..70u32 {
            for j in (i + 1)..70u32 {
                if !a.has_edge(i, j) {
                    u = i;
                    v = j;
                    break 'outer;
                }
            }
        }
        let a_new = a.with_added_unit_edges(&[(u, v)]);
        let exact_inc =
            natural_connectivity_exact(&a_new).unwrap() - natural_connectivity_exact(&a).unwrap();

        let params = TraceParams { probes: 60, lanczos_steps: 15 };
        let est = ConnectivityEstimator::new(70, &params, 9);
        let inc = (est.trace_exp(&a_new).unwrap() / est.trace_exp(&a).unwrap()).ln();
        // The increment is small; paired probes keep the estimate in the
        // right ballpark (sign + magnitude).
        assert!(
            (inc - exact_inc).abs() < 0.5 * exact_inc.abs() + 1e-4,
            "paired {inc} vs exact {exact_inc}"
        );
        assert!(inc > 0.0, "adding an edge must not decrease connectivity");
    }

    #[test]
    fn paired_estimator_is_deterministic() {
        let a = random_graph(40, 80, 3);
        let params = TraceParams::default();
        let e1 = ConnectivityEstimator::new(40, &params, 7);
        let e2 = ConnectivityEstimator::new(40, &params, 7);
        assert_eq!(e1.trace_exp(&a).unwrap(), e2.trace_exp(&a).unwrap());
    }

    #[test]
    fn a_clone_shares_the_probes_and_scores_the_same_bits() {
        let a = random_graph(50, 100, 17);
        let est = ConnectivityEstimator::new(50, &TraceParams { probes: 12, lanczos_steps: 8 }, 4);
        let twin = est.clone();
        assert!(Arc::ptr_eq(&est.probes, &twin.probes), "the clone copied the probes");
        let (x, y) = (est.trace_exp(&a).unwrap(), twin.trace_exp(&a).unwrap());
        assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = random_graph(10, 20, 1);
        let est = ConnectivityEstimator::new(12, &TraceParams::default(), 1);
        assert!(est.trace_exp(&a).is_err());
    }

    #[test]
    fn zero_probes_is_error() {
        // The estimator keeps zero probes, rather than quietly answering
        // with one.
        let a = random_graph(10, 20, 1);
        let params = TraceParams { probes: 0, ..Default::default() };
        let est = ConnectivityEstimator::new(10, &params, 1);
        assert!(matches!(est.trace_exp(&a), Err(LinalgError::EmptyInput("probes"))));
    }
}
