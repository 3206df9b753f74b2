//! Stochastic trace estimation for `tr(e^A)`.
//!
//! Hutchinson's estimator (paper ref \[36\]) averages quadratic forms
//! `vᵀ e^A v` over random probe vectors; each quadratic form is computed by
//! stochastic Lanczos quadrature. With `s = O(log(1/δ)/ε²)` probes the
//! estimate is within `(1 ± ε)` of the true trace with probability `1 − δ`
//! (ref \[50\]) since `e^A` is positive definite.
//!
//! Two refinements beyond the plain estimator:
//!
//! * [`PairedTraceEstimator`] holds a *fixed* probe set so that estimates of
//!   different matrices share randomness. Differences of such estimates —
//!   the per-edge connectivity increments `Δ(e)` of §6, which are ~1e-4 —
//!   are then dominated by signal, not probe noise (common random numbers).
//! * [`hutchpp_trace_exp`] implements Hutch++ (paper ref \[42\]): a low-rank
//!   sketch captures the heavy eigenvalues exactly and Hutchinson mops up
//!   the residual, reducing probe complexity from `O(1/ε²)` to `O(1/ε)`.
//!
//! The paired estimator stores its frozen probes *interleaved* (node-major,
//! `flat[i*s + j]` = entry `i` of probe `j`) and evaluates them in lane
//! tiles through [`slq_trace_batch_in`]: one lane matvec per Lanczos step
//! streams the matrix once for each tile of up to 16 probes. The batched
//! sweep is bit-identical to the sequential per-probe loop (retained as
//! [`PairedTraceEstimator::trace_exp_unbatched`] for tests and benches).

use rand::Rng;

use crate::error::LinalgError;
use crate::lanczos::{
    lanczos_expv_in, slq_quadratic_form, slq_quadratic_form_in, slq_trace_batch_in,
    LanczosWorkspace,
};
use crate::matvec::MatVec;
use crate::rng::{probe_vector, probe_vector_in, ProbeKind};
use crate::vector::{dot, normalize, orthogonalize_against};

/// Parameters for stochastic trace estimation.
#[derive(Debug, Clone, Copy)]
pub struct TraceParams {
    /// Number of random probes (`s`); paper default 50.
    pub probes: usize,
    /// Lanczos steps per quadratic form (`t`); paper default 10.
    pub lanczos_steps: usize,
    /// Probe distribution; the paper uses Gaussian probes.
    pub kind: ProbeKind,
}

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams { probes: 50, lanczos_steps: 10, kind: ProbeKind::Gaussian }
    }
}

/// Plain Hutchinson estimate of `tr(e^A)` with fresh random probes.
///
/// One workspace and one probe buffer are reused across the probe loop, so
/// the per-probe cost is allocation-free after the first iteration.
pub fn hutchinson_trace_exp<M: MatVec + ?Sized, R: Rng + ?Sized>(
    a: &M,
    params: &TraceParams,
    rng: &mut R,
) -> Result<f64, LinalgError> {
    if params.probes == 0 {
        return Err(LinalgError::EmptyInput("probes"));
    }
    let n = a.n();
    let mut ws = LanczosWorkspace::new();
    let mut v = Vec::new();
    let mut acc = 0.0;
    for _ in 0..params.probes {
        probe_vector_in(rng, params.kind, n, &mut v);
        acc += slq_quadratic_form_in(a, &v, params.lanczos_steps, &mut ws)?;
    }
    Ok(acc / params.probes as f64)
}

/// Hutchinson estimator with a fixed probe set, for noise-cancelling
/// comparison of *different* matrices of the same dimension.
#[derive(Debug, Clone)]
pub struct PairedTraceEstimator {
    /// Frozen probes, interleaved node-major: `flat[i*s + j]` (the batched
    /// sweep's layout).
    flat: Vec<f64>,
    /// The same probes, probe-major: `rows[j*n + i]` (contiguous per-probe
    /// slices for the sequential reference sweep — stored separately so the
    /// before/after comparison pays no gather overhead).
    rows: Vec<f64>,
    n: usize,
    num_probes: usize,
    lanczos_steps: usize,
}

impl PairedTraceEstimator {
    /// Draws and freezes `params.probes` probe vectors of dimension `n`.
    /// With zero probes every estimate is an [`LinalgError::EmptyInput`]
    /// error.
    pub fn new<R: Rng + ?Sized>(n: usize, params: &TraceParams, rng: &mut R) -> Self {
        let s = params.probes;
        let mut flat = vec![0.0; n * s];
        let mut rows = Vec::with_capacity(n * s);
        for j in 0..s {
            // Draw probe-by-probe so the RNG stream matches historical
            // (probe-major) generation exactly.
            let p = probe_vector(rng, params.kind, n);
            for (i, &x) in p.iter().enumerate() {
                flat[i * s + j] = x;
            }
            rows.extend_from_slice(&p);
        }
        PairedTraceEstimator { flat, rows, n, num_probes: s, lanczos_steps: params.lanczos_steps }
    }

    /// Dimension the probes were drawn for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Probe `j` as a contiguous slice.
    fn probe(&self, j: usize) -> &[f64] {
        &self.rows[j * self.n..(j + 1) * self.n]
    }

    /// Estimates `tr(e^A)` with the frozen probes (batched sweep, fresh
    /// workspace). Hot loops should prefer [`PairedTraceEstimator::trace_exp_in`].
    pub fn trace_exp<M: MatVec + ?Sized>(&self, a: &M) -> Result<f64, LinalgError> {
        self.trace_exp_in(a, &mut LanczosWorkspace::new())
    }

    /// Estimates `tr(e^A)` with the frozen probes, reusing `ws` for all
    /// scratch: zero heap allocations once the workspace is warm.
    pub fn trace_exp_in<M: MatVec + ?Sized>(
        &self,
        a: &M,
        ws: &mut LanczosWorkspace,
    ) -> Result<f64, LinalgError> {
        if a.n() != self.n {
            return Err(LinalgError::DimensionMismatch { expected: self.n, actual: a.n() });
        }
        let total = slq_trace_batch_in(a, &self.flat, self.num_probes, self.lanczos_steps, ws)?;
        Ok(total / self.num_probes as f64)
    }

    /// Sequential per-probe reference sweep, faithful to the pre-workspace
    /// implementation: one allocating SLQ call per probe, one matrix stream
    /// per probe per Lanczos step. Bit-identical results to
    /// [`PairedTraceEstimator::trace_exp`]; kept for equivalence tests and
    /// the before/after benches.
    #[doc(hidden)]
    pub fn trace_exp_unbatched<M: MatVec + ?Sized>(&self, a: &M) -> Result<f64, LinalgError> {
        if a.n() != self.n {
            return Err(LinalgError::DimensionMismatch { expected: self.n, actual: a.n() });
        }
        if self.num_probes == 0 {
            return Err(LinalgError::EmptyInput("probes"));
        }
        let mut acc = 0.0;
        for j in 0..self.num_probes {
            acc += slq_quadratic_form(a, self.probe(j), self.lanczos_steps)?;
        }
        Ok(acc / self.num_probes as f64)
    }
}

/// Hutch++ estimate of `tr(e^A)` (paper ref \[42\]).
///
/// Splits the probe budget into a sketch of the dominant range of `e^A`
/// (handled exactly by Rayleigh projection) and Hutchinson probes on the
/// residual. The Lanczos scratch and probe buffer are reused across the
/// sketch and residual loops; the per-column `Q` storage is load-bearing
/// (later columns orthogonalize against all earlier ones).
// ctlint::allow(dead-pub): Hutch++ (paper ref [42]) estimator; its caller is trace::tests (ROADMAP item 6)
pub fn hutchpp_trace_exp<M: MatVec + ?Sized, R: Rng + ?Sized>(
    a: &M,
    params: &TraceParams,
    rng: &mut R,
) -> Result<f64, LinalgError> {
    let n = a.n();
    if n == 0 {
        return Err(LinalgError::EmptyInput("matrix"));
    }
    if params.probes < 3 {
        return hutchinson_trace_exp(a, params, rng);
    }
    let sketch_size = (params.probes / 3).max(1).min(n);
    let hutch_probes = params.probes - sketch_size;
    let t = params.lanczos_steps;

    let mut ws = LanczosWorkspace::new();
    let mut probe = Vec::new();
    let mut y = Vec::new();

    // Q = orth(e^A S) for a random sketch S.
    let mut q: Vec<Vec<f64>> = Vec::with_capacity(sketch_size);
    for _ in 0..sketch_size {
        probe_vector_in(rng, params.kind, n, &mut probe);
        lanczos_expv_in(a, &probe, t, &mut ws, &mut y)?;
        orthogonalize_against(&mut y, &q);
        orthogonalize_against(&mut y, &q);
        if normalize(&mut y) > 1e-12 {
            q.push(y.clone());
        }
    }

    // Exact part: tr(Qᵀ e^A Q) = Σ qᵢᵀ e^A qᵢ.
    let mut exact_part = 0.0;
    for qi in &q {
        lanczos_expv_in(a, qi, t, &mut ws, &mut y)?;
        exact_part += dot(qi, &y);
    }

    // Residual part: Hutchinson on (I − QQᵀ) e^A (I − QQᵀ).
    let mut resid = 0.0;
    for _ in 0..hutch_probes {
        probe_vector_in(rng, params.kind, n, &mut probe);
        orthogonalize_against(&mut probe, &q);
        if probe.iter().all(|&x| x == 0.0) {
            continue;
        }
        resid += slq_quadratic_form_in(a, &probe, t, &mut ws)?;
    }
    if hutch_probes > 0 {
        resid /= hutch_probes as f64;
    }
    Ok(exact_part + resid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::natural_connectivity_exact;
    use crate::eig::sparse_symmetric_eigenvalues;
    use crate::matvec::EdgeOverlay;
    use crate::sparse::CsrMatrix;
    use crate::util::logsumexp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    #[test]
    fn hutchinson_within_a_few_percent() {
        // Sparse graph with n ≫ e^{λ₁}, the regime transit networks live in
        // (the estimator's *relative* accuracy depends on tr(e^A) not being
        // dominated by a single eigenvalue).
        let a = random_graph(400, 520, 11);
        let exact = exact_trace_exp(&a);
        let mut rng = StdRng::seed_from_u64(1);
        let params = TraceParams { probes: 100, lanczos_steps: 15, ..Default::default() };
        let est = hutchinson_trace_exp(&a, &params, &mut rng).unwrap();
        let rel = (est - exact).abs() / exact;
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn hutchinson_rademacher_probes_work() {
        let a = random_graph(300, 390, 21);
        let exact = exact_trace_exp(&a);
        let mut rng = StdRng::seed_from_u64(2);
        let params = TraceParams { probes: 100, lanczos_steps: 15, kind: ProbeKind::Rademacher };
        let est = hutchinson_trace_exp(&a, &params, &mut rng).unwrap();
        assert!((est - exact).abs() / exact < 0.05);
    }

    #[test]
    fn hutchpp_beats_or_matches_hutchinson_accuracy() {
        let a = random_graph(80, 200, 33);
        let exact = exact_trace_exp(&a);
        let params = TraceParams { probes: 30, lanczos_steps: 15, ..Default::default() };
        // Average error over several seeds to avoid flakiness.
        let (mut err_h, mut err_pp) = (0.0, 0.0);
        for seed in 0..6 {
            let mut r1 = StdRng::seed_from_u64(100 + seed);
            let mut r2 = StdRng::seed_from_u64(100 + seed);
            err_h += (hutchinson_trace_exp(&a, &params, &mut r1).unwrap() - exact).abs();
            err_pp += (hutchpp_trace_exp(&a, &params, &mut r2).unwrap() - exact).abs();
        }
        assert!(err_pp <= err_h * 1.5, "Hutch++ mean error {err_pp} vs Hutchinson {err_h}");
        assert!(err_pp / 6.0 / exact < 0.05);
    }

    #[test]
    fn batched_sweep_matches_sequential_bitwise() {
        let a = random_graph(90, 180, 71);
        let params = TraceParams { probes: 23, lanczos_steps: 10, ..Default::default() };
        let est = PairedTraceEstimator::new(90, &params, &mut StdRng::seed_from_u64(5));
        let batched = est.trace_exp(&a).unwrap();
        let sequential = est.trace_exp_unbatched(&a).unwrap();
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
        let est =
            PairedTraceEstimator::new(60, &TraceParams::default(), &mut StdRng::seed_from_u64(3));
        let materialized = est.trace_exp(&a.with_added_unit_edges(&[(u, v)])).unwrap();
        let overlay = est.trace_exp(&EdgeOverlay::new(&a, &[(u, v)])).unwrap();
        assert_eq!(overlay.to_bits(), materialized.to_bits(), "{overlay} vs {materialized}");
    }

    #[test]
    fn workspace_reuse_across_matrices_is_stable() {
        let params = TraceParams { probes: 12, lanczos_steps: 8, ..Default::default() };
        let est = PairedTraceEstimator::new(40, &params, &mut StdRng::seed_from_u64(8));
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

        let params = TraceParams { probes: 60, lanczos_steps: 15, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(9);
        let est = PairedTraceEstimator::new(70, &params, &mut rng);
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
        let e1 = PairedTraceEstimator::new(40, &params, &mut StdRng::seed_from_u64(7));
        let e2 = PairedTraceEstimator::new(40, &params, &mut StdRng::seed_from_u64(7));
        assert_eq!(e1.trace_exp(&a).unwrap(), e2.trace_exp(&a).unwrap());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = random_graph(10, 20, 1);
        let est =
            PairedTraceEstimator::new(12, &TraceParams::default(), &mut StdRng::seed_from_u64(1));
        assert!(est.trace_exp(&a).is_err());
    }

    #[test]
    fn zero_probes_is_error() {
        let a = random_graph(10, 20, 1);
        let params = TraceParams { probes: 0, ..Default::default() };
        assert!(hutchinson_trace_exp(&a, &params, &mut StdRng::seed_from_u64(1)).is_err());
        // The frozen-probe estimator keeps zero probes too, rather than
        // quietly answering with one.
        let est = PairedTraceEstimator::new(10, &params, &mut StdRng::seed_from_u64(1));
        assert!(matches!(est.trace_exp(&a), Err(LinalgError::EmptyInput("probes"))));
        assert!(matches!(est.trace_exp_unbatched(&a), Err(LinalgError::EmptyInput("probes"))));
    }
}
