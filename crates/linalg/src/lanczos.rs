//! The Lanczos method for matrix-exponential actions and quadratic forms.
//!
//! Given a symmetric sparse `A` and a start vector `v`, `t` Lanczos steps
//! build an orthonormal basis `V_t` of the Krylov space and a tridiagonal
//! `T_t = V_tᵀ A V_t`. Then (paper §5.1, refs \[45, 54\]):
//!
//! * `e^A v ≈ ‖v‖ · V_t · e^{T_t} e₁` — [`lanczos_expv`];
//! * `vᵀ e^A v ≈ ‖v‖² · e₁ᵀ e^{T_t} e₁` — stochastic Lanczos quadrature,
//!   [`slq_trace_batch_in`], which never materializes the basis, sums the
//!   forms of many probe vectors at once and is the kernel under
//!   Hutchinson's trace estimator. The quadrature `e₁ᵀ e^{T_t} e₁` comes
//!   from [`tridiag_exp11_lanes`], a scaled Taylor series on `T_t` itself,
//!   not from the Gauss rule `Σ_j z₀ⱼ² e^{θⱼ}` over an eigendecomposition.
//!
//! Per Lemma 2 (a corollary of Musco et al. \[45\]), `t = O(‖A‖₂ + log 1/ε)`
//! iterations suffice; transit networks have tiny spectral norms (≈ 5), so
//! the paper's default `t = 10` is already in the high-accuracy regime.
//!
//! # Memory discipline
//!
//! Every entry point exists in two forms: the original allocating signature
//! (kept for convenience and tests) and an `_in` variant taking a
//! [`LanczosWorkspace`] that owns all scratch — the `v`/`v_prev`/`w`
//! three-term recurrence vectors, a flat Krylov-basis buffer, and the
//! `α`/`β` coefficient arrays; the quadrature borrows the recurrence
//! vectors as scratch once the recurrence is done. The allocating
//! forms are thin wrappers over the `_in` forms (one fresh workspace per
//! call), so both compute bit-identical results. Hot loops — the Δ(e)
//! precompute sweep above all — create one workspace per thread and reuse
//! it across thousands of solves, reaching a zero-allocation steady state.
//!
//! All kernels are generic over [`MatVec`], so they run unchanged on a
//! materialized [`CsrMatrix`](crate::sparse::CsrMatrix) or on a [`crate::matvec::EdgeOverlay`] view
//! of `base + candidate edges`.
//!
//! [`slq_trace_batch_in`] walks *many* probe vectors through one matrix in
//! fixed-width lane tiles: each tile's recurrence runs on `[f64; L]` rows
//! with one [`MatVec::matvec_lanes`] per Lanczos step, so the sparse matrix
//! is streamed once per step per tile instead of once per probe per step,
//! and every per-lane loop has a compile-time length. The tile's
//! quadratures are one lane-wide [`tridiag_exp11_lanes`] call.

use crate::error::LinalgError;
use crate::matvec::MatVec;
use crate::tridiag::{tridiag_eigen_full, tridiag_exp11_lanes};
use crate::vector::{axpy, dot, norm, normalize};

/// Happy-breakdown threshold: a step whose `β ≤ BREAKDOWN_TOL·(1 + |α|)`
/// (the current Lanczos vector has unit norm) has found an invariant
/// subspace, and the recurrence stops there.
const BREAKDOWN_TOL: f64 = 1e-13;

/// Output of the (allocating) Lanczos tridiagonalization.
#[derive(Debug, Clone)]
pub struct LanczosDecomposition {
    /// Diagonal of `T` (one entry per completed step).
    pub alphas: Vec<f64>,
    /// Subdiagonal of `T` (`alphas.len() - 1` entries).
    pub betas: Vec<f64>,
    /// Orthonormal basis vectors, if requested.
    pub basis: Option<Vec<Vec<f64>>>,
    /// Norm of the start vector.
    pub initial_norm: f64,
}

impl LanczosDecomposition {
    /// Number of completed Lanczos steps (dimension of `T`).
    pub fn steps(&self) -> usize {
        self.alphas.len()
    }
}

/// Reusable scratch for all Lanczos-family kernels.
///
/// Holds the three recurrence vectors, an optional flat Krylov-basis buffer
/// (row-major, one basis vector per `n`-chunk) and the `α`/`β` arrays.
/// Buffers only ever grow, so a workspace reused across same-sized problems
/// performs **zero** heap allocations after the first solve.
#[derive(Debug, Default, Clone)]
pub struct LanczosWorkspace {
    // Recurrence vectors; length n (single-vector) or at least n·L (a
    // batched lane tile of width L).
    v: Vec<f64>,
    v_prev: Vec<f64>,
    w: Vec<f64>,
    // Flat Krylov basis (single-vector kernels only), `steps_done` rows.
    basis: Vec<f64>,
    // Tridiagonal coefficients. Single-vector: `steps_done` alphas and
    // `steps_done - 1` betas. Batched: one `[f64; L]` row per step of the
    // current tile.
    alphas: Vec<f64>,
    betas: Vec<f64>,
    // expv coefficients `e^T e₁`.
    coeff: Vec<f64>,
    // Reusable unit vector for expm_column_in (kept all-zero between calls).
    unit: Vec<f64>,
    initial_norm: f64,
    steps_done: usize,
    n: usize,
}

impl LanczosWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of Lanczos steps completed by the last single-vector run (0
    /// after a batched [`slq_trace_batch_in`] call, which leaves no single
    /// run behind, until the next single-vector run).
    pub fn steps(&self) -> usize {
        self.steps_done
    }

    /// Diagonal of `T` from the last single-vector run.
    pub fn alphas(&self) -> &[f64] {
        &self.alphas[..self.steps_done]
    }

    /// Subdiagonal of `T` from the last single-vector run.
    pub fn betas(&self) -> &[f64] {
        &self.betas[..self.steps_done.saturating_sub(1)]
    }

    /// Basis rows stored by the last single-vector run with `keep_basis`.
    pub fn basis_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.basis.chunks_exact(self.n.max(1)).take(self.steps_done)
    }

    fn reset_single(&mut self, n: usize, steps: usize, store_basis: bool) {
        self.n = n;
        self.steps_done = 0;
        self.initial_norm = 0.0;
        self.v.clear();
        self.v_prev.clear();
        self.v_prev.resize(n, 0.0);
        self.w.clear();
        self.w.resize(n, 0.0);
        self.alphas.clear();
        self.alphas.reserve(steps);
        self.betas.clear();
        self.betas.reserve(steps.saturating_sub(1));
        self.basis.clear();
        if store_basis {
            self.basis.reserve(steps * n);
        }
    }
}

/// Grows a scratch vector to at least `len` entries without touching
/// retained contents (callers write every entry they read, and slice the
/// prefix they use, so switching tile widths never reallocates or memsets).
fn grow_to(v: &mut Vec<f64>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
    }
}

/// Removes from `v` its components along the first `rows` stored basis
/// vectors (flat layout, assumed orthonormal). One pass of classical
/// Gram–Schmidt, matching [`crate::vector::orthogonalize_against`].
fn orthogonalize_against_flat(v: &mut [f64], basis: &[f64], n: usize, rows: usize) {
    for q in basis.chunks_exact(n).take(rows) {
        let c = dot(v, q);
        axpy(-c, q, v);
    }
}

/// Runs `steps` Lanczos iterations from `v0`.
///
/// `keep_basis` stores the orthonormal vectors (needed by [`lanczos_expv`]
/// but not by quadrature); `full_reorth` re-orthogonalizes every new vector
/// against the whole basis, which costs `O(t²n)` but keeps Ritz values clean
/// for eigenvalue work (it forces `keep_basis` internally).
pub fn lanczos_tridiagonalize<M: MatVec + ?Sized>(
    a: &M,
    v0: &[f64],
    steps: usize,
    keep_basis: bool,
    full_reorth: bool,
) -> Result<LanczosDecomposition, LinalgError> {
    let mut ws = LanczosWorkspace::new();
    lanczos_tridiagonalize_in(a, v0, steps, keep_basis, full_reorth, &mut ws)?;
    let store = keep_basis || full_reorth;
    Ok(LanczosDecomposition {
        alphas: ws.alphas().to_vec(),
        betas: ws.betas().to_vec(),
        basis: store.then(|| ws.basis_rows().map(<[f64]>::to_vec).collect()),
        initial_norm: ws.initial_norm,
    })
}

/// Workspace-based Lanczos tridiagonalization; results are read back through
/// the [`LanczosWorkspace`] accessors ([`LanczosWorkspace::alphas`] etc.).
///
/// Identical arithmetic to [`lanczos_tridiagonalize`] — the allocating form
/// is a wrapper over this one.
pub fn lanczos_tridiagonalize_in<M: MatVec + ?Sized>(
    a: &M,
    v0: &[f64],
    steps: usize,
    keep_basis: bool,
    full_reorth: bool,
    ws: &mut LanczosWorkspace,
) -> Result<(), LinalgError> {
    let n = a.n();
    if n == 0 {
        return Err(LinalgError::EmptyInput("matrix"));
    }
    if v0.len() != n {
        return Err(LinalgError::DimensionMismatch { expected: n, actual: v0.len() });
    }
    let store = keep_basis || full_reorth;
    ws.reset_single(n, steps, store);
    ws.v.extend_from_slice(v0);
    ws.initial_norm = normalize(&mut ws.v);
    if ws.initial_norm == 0.0 {
        return Err(LinalgError::EmptyInput("start vector is zero"));
    }

    let mut beta_prev = 0.0;
    let cap = steps.min(n);
    for step in 0..cap {
        if store {
            ws.basis.extend_from_slice(&ws.v);
        }
        a.matvec(&ws.v, &mut ws.w);
        if beta_prev != 0.0 {
            axpy(-beta_prev, &ws.v_prev, &mut ws.w);
        }
        let alpha = dot(&ws.w, &ws.v);
        axpy(-alpha, &ws.v, &mut ws.w);
        if full_reorth {
            // Two passes of classical Gram–Schmidt ("twice is enough").
            orthogonalize_against_flat(&mut ws.w, &ws.basis, n, step + 1);
            orthogonalize_against_flat(&mut ws.w, &ws.basis, n, step + 1);
        }
        ws.alphas.push(alpha);
        ws.steps_done = step + 1;

        let beta = norm(&ws.w);
        if step + 1 == cap {
            break;
        }
        if beta <= BREAKDOWN_TOL * (1.0 + alpha.abs()) {
            break; // invariant subspace: T is exact for this Krylov space
        }
        ws.betas.push(beta);
        std::mem::swap(&mut ws.v_prev, &mut ws.v);
        ws.v.copy_from_slice(&ws.w);
        normalize(&mut ws.v);
        beta_prev = beta;
    }
    Ok(())
}

/// Approximates `e^A v` with `steps` Lanczos iterations.
pub fn lanczos_expv<M: MatVec + ?Sized>(
    a: &M,
    v: &[f64],
    steps: usize,
) -> Result<Vec<f64>, LinalgError> {
    let mut ws = LanczosWorkspace::new();
    let mut out = Vec::new();
    lanczos_expv_in(a, v, steps, &mut ws, &mut out)?;
    Ok(out)
}

/// Workspace-based [`lanczos_expv`] writing into `out` (resized to `n`).
///
/// The Krylov basis lives in the workspace's flat buffer; the only remaining
/// allocation is the `t × t` eigendecomposition of the tridiagonal matrix
/// inside [`tridiag_eigen_full`] (a few hundred bytes at the paper's
/// `t = 10`, once per *solve* rather than once per probe — load-bearing for
/// code clarity, not for throughput).
pub fn lanczos_expv_in<M: MatVec + ?Sized>(
    a: &M,
    v: &[f64],
    steps: usize,
    ws: &mut LanczosWorkspace,
    out: &mut Vec<f64>,
) -> Result<(), LinalgError> {
    lanczos_tridiagonalize_in(a, v, steps, true, false, ws)?;
    let t = ws.steps_done;

    // e^T e₁ = Z e^Θ Zᵀ e₁.
    let (theta, z) = tridiag_eigen_full(ws.alphas(), ws.betas())?;
    // (Zᵀ e₁)_j = z₀ⱼ.
    ws.coeff.clear();
    ws.coeff.resize(t, 0.0);
    for j in 0..t {
        let zt_e1_j = z[j]; // row 0, column j
        let scale = theta[j].exp() * zt_e1_j;
        for i in 0..t {
            ws.coeff[i] += z[i * t + j] * scale;
        }
    }

    let n = a.n();
    out.clear();
    out.resize(n, 0.0);
    for (i, q) in ws.basis.chunks_exact(n).take(t).enumerate() {
        axpy(ws.initial_norm * ws.coeff[i], q, out);
    }
    Ok(())
}

/// Approximates the quadratic form `vᵀ e^A v` by stochastic Lanczos
/// quadrature with `steps` iterations (no basis stored): the scalar,
/// one-probe-at-a-time oracle that the tests hold [`slq_trace_batch_in`]
/// to, bit for bit.
#[cfg(test)]
pub(crate) fn slq_quadratic_form<M: MatVec + ?Sized>(
    a: &M,
    v: &[f64],
    steps: usize,
) -> Result<f64, LinalgError> {
    let mut ws = LanczosWorkspace::new();
    slq_quadratic_form_in(a, v, steps, &mut ws)
}

/// Workspace-based [`slq_quadratic_form`]: zero heap allocations once the
/// workspace has warmed up, bit-identical results to the allocating form.
#[cfg(test)]
pub(crate) fn slq_quadratic_form_in<M: MatVec + ?Sized>(
    a: &M,
    v: &[f64],
    steps: usize,
    ws: &mut LanczosWorkspace,
) -> Result<f64, LinalgError> {
    lanczos_tridiagonalize_in(a, v, steps, false, false, ws)?;
    // The recurrence vectors (n ≥ t entries each) are free scratch now.
    let [quad] = tridiag_exp11_lanes::<1>(
        ws.alphas.as_chunks().0,
        ws.betas.as_chunks().0,
        ws.v.as_chunks_mut().0,
        ws.w.as_chunks_mut().0,
    )?;
    Ok(ws.initial_norm * ws.initial_norm * quad)
}

/// Batched stochastic Lanczos quadrature: walks `nrhs` probe vectors
/// (interleaved node-major in `probes`, `probes[i*nrhs + j]` = entry `i` of
/// probe `j`) through `A` and returns `Σ_j ‖p_j‖² · (e^{T_j})₁₁` — i.e. the
/// *sum* of the per-probe quadratic forms `p_jᵀ e^A p_j` (the caller
/// divides by the probe count).
///
/// Probes are taken in fixed-width lane tiles (16 wide, then 8/4/2/1 for
/// the remainder). A tile holds its recurrence vectors as `[f64; L]` rows
/// and its `α`, `β` and `1/β` values in lane arrays, runs its own `steps`
/// Lanczos steps with one [`MatVec::matvec_lanes`] per step, and adds its
/// quadratures, one [`tridiag_exp11_lanes`] call, to the total before the
/// next tile starts. Per probe, every floating-point operation of the
/// recurrence happens in the same order as a scalar solve
/// ([`lanczos_tridiagonalize_in`] and a one-lane quadrature) — accumulators
/// start at `0.0`, vectors are scaled by the reciprocals `1/‖p‖` and `1/β`,
/// no fused multiply-add — the quadrature kernel's lanes are independent
/// of its width, and probes are summed in index order, so the result is
/// **bit-identical** to a sequential loop of scalar solves (the tests keep
/// that loop as the oracle). A probe that hits a happy breakdown retires
/// its lane; the lane is zeroed and the tile runs on until every lane has
/// retired or `steps` is reached. A retired lane's shorter `T` gets its own
/// `L = 1` quadrature.
///
/// The call leaves no single-vector run behind: afterwards
/// [`LanczosWorkspace::steps`] is 0 and the coefficient accessors are
/// empty.
pub fn slq_trace_batch_in<M: MatVec + ?Sized>(
    a: &M,
    probes: &[f64],
    nrhs: usize,
    steps: usize,
    ws: &mut LanczosWorkspace,
) -> Result<f64, LinalgError> {
    let n = a.n();
    if n == 0 {
        return Err(LinalgError::EmptyInput("matrix"));
    }
    if nrhs == 0 {
        return Err(LinalgError::EmptyInput("probes"));
    }
    if probes.len() != n * nrhs {
        return Err(LinalgError::DimensionMismatch { expected: n * nrhs, actual: probes.len() });
    }
    ws.steps_done = 0;
    ws.initial_norm = 0.0;
    let cap = steps.min(n);
    let mut total = 0.0;
    let mut j0 = 0;
    while j0 < nrhs {
        let (p, t) = (&probes[j0..], &mut total);
        j0 += match nrhs - j0 {
            16.. => slq_tile::<M, 16>(a, p, nrhs, cap, ws, t)?,
            8.. => slq_tile::<M, 8>(a, p, nrhs, cap, ws, t)?,
            4.. => slq_tile::<M, 4>(a, p, nrhs, cap, ws, t)?,
            2.. => slq_tile::<M, 2>(a, p, nrhs, cap, ws, t)?,
            _ => slq_tile::<M, 1>(a, p, nrhs, cap, ws, t)?,
        };
    }
    Ok(total)
}

/// One lane tile of [`slq_trace_batch_in`]: the `L` probes whose entry `i`
/// is `probes[i*nrhs .. i*nrhs + L]`, each run for up to `cap` steps. Adds
/// `‖p‖² · (e^T)₁₁` of each lane to `total` in lane order; returns `L`.
fn slq_tile<M: MatVec + ?Sized, const L: usize>(
    a: &M,
    probes: &[f64],
    nrhs: usize,
    cap: usize,
    ws: &mut LanczosWorkspace,
    total: &mut f64,
) -> Result<usize, LinalgError> {
    let n = a.n();
    for buf in [&mut ws.v, &mut ws.v_prev, &mut ws.w] {
        grow_to(buf, n * L);
    }
    grow_to(&mut ws.alphas, L * cap);
    grow_to(&mut ws.betas, L * cap);
    let mut v = ws.v[..n * L].as_chunks_mut::<L>().0;
    let mut v_prev = ws.v_prev[..n * L].as_chunks_mut::<L>().0;
    let w = ws.w[..n * L].as_chunks_mut::<L>().0;
    let alphas = ws.alphas[..L * cap].as_chunks_mut::<L>().0;
    let betas = ws.betas[..L * cap].as_chunks_mut::<L>().0;

    // Gather the tile into `w` and take ‖p_l‖ in `norm`'s left-fold order.
    let mut nrm = [0.0; L];
    for (i, row) in w.iter_mut().enumerate() {
        row.copy_from_slice(&probes[i * nrhs..i * nrhs + L]);
        for l in 0..L {
            nrm[l] += row[l] * row[l];
        }
    }
    let mut inv = [0.0; L];
    for l in 0..L {
        nrm[l] = nrm[l].sqrt();
        if nrm[l] == 0.0 {
            return Err(LinalgError::EmptyInput("start vector is zero"));
        }
        inv[l] = 1.0 / nrm[l];
    }
    scaled_copy(v, w, &inv);

    // Row `step` of `alphas`/`betas` holds every lane's α/β of that step;
    // `len[l]` counts lane l's α's (its β's number one fewer).
    let mut len = [0usize; L];
    let mut live = [true; L];
    let mut beta_prev = [0.0; L];
    for step in 0..cap {
        a.matvec_lanes(v, w);
        // α = ⟨w, v⟩ after w -= β_prev · v_prev (skipped on step 0; every
        // live lane has β_prev ≠ 0 after it — the scalar kernel's
        // conditional axpy). Rows are copied into locals before they are
        // updated so the lane loops vectorize: the three buffers are not
        // provably disjoint.
        let mut alpha = [0.0; L];
        if step > 0 {
            for ((wr, vr), pr) in w.iter_mut().zip(v.iter()).zip(v_prev.iter()) {
                let (mut x, vr, pr) = (*wr, *vr, *pr);
                for l in 0..L {
                    x[l] -= beta_prev[l] * pr[l];
                    alpha[l] += x[l] * vr[l];
                }
                *wr = x;
            }
        } else {
            for (wr, vr) in w.iter().zip(v.iter()) {
                let (wr, vr) = (*wr, *vr);
                for l in 0..L {
                    alpha[l] += wr[l] * vr[l];
                }
            }
        }
        // w -= α · v, then β² = ⟨w, w⟩.
        let mut beta = [0.0; L];
        for (wr, vr) in w.iter_mut().zip(v.iter()) {
            let (mut x, vr) = (*wr, *vr);
            for l in 0..L {
                x[l] -= alpha[l] * vr[l];
                beta[l] += x[l] * x[l];
            }
            *wr = x;
        }
        alphas[step] = alpha;
        for l in (0..L).filter(|&l| live[l]) {
            len[l] += 1;
        }
        if step + 1 == cap {
            break;
        }
        for l in 0..L {
            beta[l] = beta[l].sqrt();
            inv[l] = 0.0;
            if !live[l] {
                continue;
            }
            if beta[l] <= BREAKDOWN_TOL * (1.0 + alpha[l].abs()) {
                live[l] = false; // happy breakdown: retire (and zero) the lane
            } else {
                beta_prev[l] = beta[l];
                inv[l] = 1.0 / beta[l];
            }
        }
        betas[step] = beta;
        if !live.contains(&true) {
            break;
        }
        // v_prev ← v; v ← w / β.
        std::mem::swap(&mut v, &mut v_prev);
        scaled_copy(v, w, &inv);
    }

    // Every lane's quadrature in one call, on the free recurrence vectors
    // (n ≥ t rows each); a retired lane's shorter T then gets its own
    // L = 1 call, which its lane of the wide call matches bit for bit.
    let t = len.iter().copied().max().unwrap_or(0);
    let (alphas, betas) = (&ws.alphas[..L * t], &ws.betas[..L * t.saturating_sub(1)]);
    let mut quad = tridiag_exp11_lanes::<L>(
        alphas.as_chunks().0,
        betas.as_chunks().0,
        ws.v[..n * L].as_chunks_mut().0,
        ws.w[..n * L].as_chunks_mut().0,
    )?;
    for l in (0..L).filter(|&l| len[l] < t) {
        // Gather the lane into `v_prev` (n·L ≥ 2t entries, since L ≥ 2).
        let (lane_a, lane_b) = ws.v_prev.split_at_mut(t);
        let (lane_a, lane_b) = (&mut lane_a[..len[l]], &mut lane_b[..len[l] - 1]);
        for (i, x) in lane_a.iter_mut().enumerate() {
            *x = alphas[i * L + l];
        }
        for (i, x) in lane_b.iter_mut().enumerate() {
            *x = betas[i * L + l];
        }
        [quad[l]] = tridiag_exp11_lanes::<1>(
            lane_a.as_chunks().0,
            lane_b.as_chunks().0,
            ws.v.as_chunks_mut().0,
            ws.w.as_chunks_mut().0,
        )?;
    }
    for l in 0..L {
        *total += nrm[l] * nrm[l] * quad[l];
    }
    Ok(L)
}

/// `dst[i][l] = src[i][l] · s[l]` for every row.
fn scaled_copy<const L: usize>(dst: &mut [[f64; L]], src: &[[f64; L]], s: &[f64; L]) {
    for (d, x) in dst.iter_mut().zip(src) {
        for l in 0..L {
            d[l] = x[l] * s[l];
        }
    }
}

/// Column `j` of `e^A`, i.e. `e^A e_j`, via Lanczos from the unit vector,
/// written into `out`.
///
/// For a graph adjacency this is the vector of *communicabilities* between
/// `j` and every other vertex; entry `u` feeds the first-order trace
/// perturbation `tr(e^{A+E}) − tr(e^A) ≈ 2(e^A)_{uv}` for a new edge
/// `(u, v)` (the paper's §8 future-work direction). The unit start vector
/// lives in the workspace and is re-zeroed after use, so repeated column
/// solves (one per endpoint stop in the perturbation Δ(e) method) allocate
/// nothing once warm.
pub fn expm_column_in<M: MatVec + ?Sized>(
    a: &M,
    j: usize,
    steps: usize,
    ws: &mut LanczosWorkspace,
    out: &mut Vec<f64>,
) -> Result<(), LinalgError> {
    let n = a.n();
    if j >= n {
        return Err(LinalgError::DimensionMismatch { expected: n, actual: j });
    }
    // Take the unit buffer out of the workspace so it can be borrowed
    // alongside the workspace's scratch inside the solve. The buffer is
    // kept all-zero between calls, so only entry `j` needs touching.
    let mut unit = std::mem::take(&mut ws.unit);
    unit.resize(n, 0.0);
    unit[j] = 1.0;
    let res = lanczos_expv_in(a, &unit, steps, ws, out);
    unit[j] = 0.0;
    ws.unit = unit;
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matvec::EdgeOverlay;
    use crate::rng::gaussian_vector;
    use crate::sparse::CsrMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn petersen() -> CsrMatrix {
        // The Petersen graph: 10 nodes, 15 edges, 3-regular.
        let outer: Vec<(u32, u32)> = (0..5).map(|i| (i, (i + 1) % 5)).collect();
        let inner: Vec<(u32, u32)> = (0..5).map(|i| (5 + i, 5 + (i + 2) % 5)).collect();
        let spokes: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 5)).collect();
        let edges: Vec<(u32, u32)> = outer.into_iter().chain(inner).chain(spokes).collect();
        CsrMatrix::from_undirected_edges(10, &edges)
    }

    #[test]
    fn expv_matches_dense_expm() {
        let a = petersen();
        let exact = a.to_dense().expm();
        let mut rng = StdRng::seed_from_u64(11);
        let v = gaussian_vector(&mut rng, 10);
        let want = exact.matvec_alloc(&v);
        // Full-dimension Krylov space is exact.
        let got = lanczos_expv(&a, &v, 10).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-8, "{g} vs {w}");
        }
    }

    #[test]
    fn expv_converges_quickly() {
        let a = petersen();
        let exact = a.to_dense().expm();
        let mut rng = StdRng::seed_from_u64(5);
        let v = gaussian_vector(&mut rng, 10);
        let want = exact.matvec_alloc(&v);
        let got = lanczos_expv(&a, &v, 8).unwrap();
        let err: f64 = got.iter().zip(&want).map(|(g, w)| (g - w) * (g - w)).sum::<f64>().sqrt();
        let scale: f64 = want.iter().map(|w| w * w).sum::<f64>().sqrt();
        assert!(err / scale < 1e-4, "relative error {}", err / scale);
    }

    #[test]
    fn slq_matches_exact_quadratic_form() {
        let a = petersen();
        let exact = a.to_dense().expm();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let v = gaussian_vector(&mut rng, 10);
            let ev = exact.matvec_alloc(&v);
            let want: f64 = v.iter().zip(&ev).map(|(a, b)| a * b).sum();
            let got = slq_quadratic_form(&a, &v, 10).unwrap();
            assert!((got - want).abs() / want.abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let a = petersen();
        let mut rng = StdRng::seed_from_u64(17);
        let mut ws = LanczosWorkspace::new();
        for _ in 0..6 {
            let v = gaussian_vector(&mut rng, 10);
            let fresh = slq_quadratic_form(&a, &v, 10).unwrap();
            let reused = slq_quadratic_form_in(&a, &v, 10, &mut ws).unwrap();
            assert_eq!(fresh.to_bits(), reused.to_bits(), "{fresh} vs {reused}");
        }
    }

    #[test]
    fn expv_in_reuse_is_bit_identical() {
        let a = petersen();
        let mut rng = StdRng::seed_from_u64(23);
        let mut ws = LanczosWorkspace::new();
        let mut out = Vec::new();
        for _ in 0..4 {
            let v = gaussian_vector(&mut rng, 10);
            let fresh = lanczos_expv(&a, &v, 9).unwrap();
            lanczos_expv_in(&a, &v, 9, &mut ws, &mut out).unwrap();
            assert_eq!(fresh, out);
        }
    }

    /// The 4-regular circulant C16(1, 5): row 8's base columns are
    /// {3, 7, 9, 13}, and the all-ones vector is an eigenvector.
    fn circulant16() -> CsrMatrix {
        let edges: Vec<(u32, u32)> =
            (0..16).flat_map(|i| [(i, (i + 1) % 16), (i, (i + 5) % 16)]).collect();
        CsrMatrix::from_undirected_edges(16, &edges)
    }

    /// Interleaves probe-major vectors node-major (`flat[i*s + j]`).
    fn interleave(probes: &[Vec<f64>]) -> Vec<f64> {
        let s = probes.len();
        let mut flat = vec![0.0; probes[0].len() * s];
        for (j, p) in probes.iter().enumerate() {
            for (i, &x) in p.iter().enumerate() {
                flat[i * s + j] = x;
            }
        }
        flat
    }

    /// The batched sum over `a` equals the per-probe `slq_quadratic_form`
    /// sum over `oracle` (the same matrix, possibly materialized) bit for
    /// bit.
    fn assert_batch_matches<M: MatVec, O: MatVec>(
        a: &M,
        oracle: &O,
        probes: &[Vec<f64>],
        steps: usize,
    ) {
        let mut ws = LanczosWorkspace::new();
        let batched =
            slq_trace_batch_in(a, &interleave(probes), probes.len(), steps, &mut ws).unwrap();
        let sequential: f64 =
            probes.iter().map(|p| slq_quadratic_form(oracle, p, steps).unwrap()).sum();
        assert_eq!(batched.to_bits(), sequential.to_bits(), "s={} steps={steps}", probes.len());
    }

    #[test]
    fn batched_slq_matches_sequential_sum() {
        let a = petersen();
        let mut rng = StdRng::seed_from_u64(41);
        let probes: Vec<Vec<f64>> = (0..13).map(|_| gaussian_vector(&mut rng, 10)).collect();
        for steps in [1, 3, 10, 25] {
            assert_batch_matches(&a, &a, &probes, steps);
        }
    }

    #[test]
    fn batched_slq_every_tile_shape_is_bit_identical() {
        // Probe counts 1..=20 and 50 hit every full tile (16/8/4/2/1) and
        // every remainder the dispatcher builds. The overlay's added edges
        // land before (0), between (5, 11) and after (15) row 8's base
        // columns {3, 7, 9, 13}.
        let a = circulant16();
        let added = [(8, 0), (8, 5), (11, 8), (8, 15)];
        let overlay = EdgeOverlay::new(&a, &added);
        let materialized = a.with_added_unit_edges(&added);
        let mut rng = StdRng::seed_from_u64(29);
        for s in (1..=20).chain([50]) {
            let probes: Vec<Vec<f64>> = (0..s).map(|_| gaussian_vector(&mut rng, 16)).collect();
            assert_batch_matches(&a, &a, &probes, 8);
            assert_batch_matches(&overlay, &materialized, &probes, 8);
        }
    }

    #[test]
    fn batched_slq_handles_breakdown_lanes() {
        // K_2 with an eigenvector probe breaks down at step 1; mixing it
        // with generic probes must retire only that lane.
        let k2 = CsrMatrix::from_undirected_edges(2, &[(0, 1)]);
        assert_batch_matches(&k2, &k2, &[vec![1.0, 1.0], vec![0.3, -0.9]], 10);

        // An all-ones probe on the regular circulant retires at step 0.
        // Put it at every position of every tile shape: first, mid-tile
        // and last in its tile.
        let a = circulant16();
        let mut rng = StdRng::seed_from_u64(37);
        for s in [2, 3, 4, 7, 8, 16, 19] {
            let generic: Vec<Vec<f64>> = (0..s).map(|_| gaussian_vector(&mut rng, 16)).collect();
            for r in 0..s {
                let mut probes = generic.clone();
                probes[r] = vec![0.5 + r as f64; 16];
                assert_batch_matches(&a, &a, &probes, 12);
            }
        }
        // A tile whose every lane retires stops early.
        let ones: Vec<Vec<f64>> = (1..=3).map(|c| vec![c as f64; 16]).collect();
        assert_batch_matches(&a, &a, &ones, 12);
    }

    #[test]
    fn batched_call_clears_single_run_accessors() {
        // A ring with irregular chords: 10 steps run without breakdown.
        let edges: Vec<(u32, u32)> =
            (0..24).flat_map(|i| [(i, (i + 1) % 24), (i, (3 * i + 7) % 24)]).collect();
        let a = CsrMatrix::from_undirected_edges(24, &edges);
        let mut rng = StdRng::seed_from_u64(43);
        let v = gaussian_vector(&mut rng, 24);
        let mut ws = LanczosWorkspace::new();
        lanczos_tridiagonalize_in(&a, &v, 10, false, false, &mut ws).unwrap();
        assert_eq!(ws.steps(), 10);
        let probes: Vec<Vec<f64>> = (0..2).map(|_| gaussian_vector(&mut rng, 24)).collect();
        slq_trace_batch_in(&a, &interleave(&probes), 2, 8, &mut ws).unwrap();
        assert_eq!(ws.steps(), 0);
        assert!(ws.alphas().is_empty());
        assert!(ws.betas().is_empty());
        assert_eq!(ws.initial_norm, 0.0);
        assert_eq!(ws.basis_rows().count(), 0);
        // The next single-vector run reads back its own coefficients.
        lanczos_tridiagonalize_in(&a, &v, 10, false, false, &mut ws).unwrap();
        let fresh = lanczos_tridiagonalize(&a, &v, 10, false, false).unwrap();
        assert_eq!(ws.alphas(), fresh.alphas.as_slice());
        assert_eq!(ws.betas(), fresh.betas.as_slice());
    }

    #[test]
    fn expm_column_in_matches_allocating() {
        let a = petersen();
        let mut ws = LanczosWorkspace::new();
        let mut out = Vec::new();
        for j in [0usize, 4, 9] {
            let mut unit = vec![0.0; a.n()];
            unit[j] = 1.0;
            let fresh = lanczos_expv(&a, &unit, 10).unwrap();
            expm_column_in(&a, j, 10, &mut ws, &mut out).unwrap();
            assert_eq!(fresh, out, "column {j}");
        }
        // The unit scratch is left all-zero for the next call.
        assert!(ws.unit.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn breakdown_on_eigenvector_start() {
        // K_2: eigenvector (1, 1)/√2 with eigenvalue 1; e^A v = e¹ v.
        let a = CsrMatrix::from_undirected_edges(2, &[(0, 1)]);
        let v = vec![1.0, 1.0];
        let got = lanczos_expv(&a, &v, 10).unwrap();
        for (g, x) in got.iter().zip(&v) {
            assert!((g - 1f64.exp() * x).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_start_vector_is_error() {
        let a = petersen();
        assert!(lanczos_expv(&a, &[0.0; 10], 5).is_err());
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let a = petersen();
        assert!(slq_quadratic_form(&a, &[1.0, 2.0], 5).is_err());
    }

    #[test]
    fn steps_capped_at_dimension() {
        let a = CsrMatrix::from_undirected_edges(3, &[(0, 1), (1, 2)]);
        let dec = lanczos_tridiagonalize(&a, &[1.0, 0.5, -0.2], 50, false, false).unwrap();
        assert!(dec.steps() <= 3);
    }

    #[test]
    fn reorthogonalized_basis_is_orthonormal() {
        let a = petersen();
        let mut rng = StdRng::seed_from_u64(19);
        let v = gaussian_vector(&mut rng, 10);
        let dec = lanczos_tridiagonalize(&a, &v, 10, true, true).unwrap();
        let basis = dec.basis.unwrap();
        for i in 0..basis.len() {
            for j in 0..basis.len() {
                let d = dot(&basis[i], &basis[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-10, "basis ({i},{j}) dot {d}");
            }
        }
    }
}
