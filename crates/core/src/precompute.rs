//! Pre-computation stage (paper §6 and Table 4).
//!
//! Builds, once per dataset/parameter set:
//!
//! * the candidate pool with road shortest paths and demands;
//! * per-edge connectivity increments `Δ(e)` via paired-probe SLQ;
//! * the ranked lists `L_d` (demand) and `L_λ` (increments);
//! * the Eq. 12 normalizers `d_max`, `λ_max` and the base connectivity.
//!
//! `L_e` (Eq. 11, the combined normalized objective) is not stored: it
//! depends on `w`, and vk-TSP plans at `w = 1` whatever the parameters say,
//! so each linear-mode planner run computes and ranks its own under the
//! stored normalizers.
//!
//! The top eigenvalues of the base adjacency, which only the Lemma 3/4
//! bounds read, are not computed here either. Each state holds one
//! [`Precomputed::spectrum_head`] cell that the first caller fills (an
//! online planner run, or Table 2/3) and that every clone, view and branch
//! of the state shares; an online run derives its Lemma 4 path bound from
//! it ([`Precomputed::conn_ub`]). A linear-mode plan never computes it.
//!
//! The Δ(e) sweep is embarrassingly parallel and is spread over all cores
//! with scoped threads pulling candidate ids off an atomic work-stealing
//! counter. Each worker owns one [`LanczosWorkspace`] and one reusable
//! [`EdgeOverlay`], so the steady-state sweep performs **no** heap
//! allocations and **no** per-candidate CSR rebuilds: a candidate is scored
//! by streaming the base matrix once per Lanczos step for each lane tile of
//! frozen probes (lane matvec) with the candidate edge applied on the fly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use ct_data::{City, DemandModel};
use ct_linalg::lanczos::expm_column_in;
use ct_linalg::{
    block_krylov_head, ConnectivityEstimator, CsrMatrix, EdgeOverlay, LanczosWorkspace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bounds::{estrada_bound, path_bound};
use crate::candidates::CandidateSet;
use crate::params::CtBusParams;
use crate::ranked::RankedList;

/// How per-edge connectivity increments `Δ(e)` are pre-computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaMethod {
    /// Paired-probe stochastic Lanczos quadrature per candidate edge
    /// (the paper's §6 method; one trace estimate per edge).
    #[default]
    PairedProbes,
    /// First-order matrix-perturbation update (the paper's §8 future-work
    /// direction): `tr(e^{A+E}) − tr(e^A) ≈ 2(e^A)_{uv}` for a new edge
    /// `(u, v)`, so `Δ(e) ≈ ln(1 + 2(e^A)_{uv}/tr(e^A))`. Needs one
    /// Lanczos `e^A e_j` solve per *stop* instead of one trace estimate per
    /// *edge* — deterministic, noise-free, and typically much cheaper.
    Perturbation,
}

/// Wall-clock cost of the pre-computation stages (Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrecomputeTimings {
    /// Candidate generation, seconds: enumerating the stop pairs within
    /// τ, one road search per stop that stops at its last τ-neighbour, and
    /// the turn table. Measured at 0.2–0.4 ms on small, 1.6 ms on medium
    /// and 11–12 ms on chicago_like (a 2-vCPU Xeon), a few percent of a
    /// build. A commit reports 0 here.
    pub shortest_path_secs: f64,
    /// Connectivity estimation, seconds: the base trace and the Δ(e)
    /// sweep. The spectrum head is not part of it: the first online plan
    /// or Table 2/3 computes it on demand. A commit reports its
    /// `refresh_secs` here; promotion, demand refresh, absorb and ranking
    /// stay outside.
    pub connectivity_secs: f64,
}

/// Everything the planners consume.
///
/// `Clone` is cheap and recomputes nothing: the candidate pool, Δ(e), both
/// ranked lists, the estimator's probes and the spectrum-head cell sit
/// behind `Arc`s that every clone shares, so a clone bumps their reference
/// counts and copies only the base adjacency and a few scalars.
/// [`Precomputed::reparameterize`] and [`crate::PlanningSession::branch`]
/// rest on this; [`crate::PlanningSession::commit`] copies the pool only
/// when it must mutate a shared one, and gives the state it produces a new
/// cell.
#[derive(Clone)]
pub struct Precomputed {
    /// The candidate pool.
    pub candidates: Arc<CandidateSet>,
    /// `Δ(e)` per candidate id (0 for existing edges).
    pub delta: Arc<[f64]>,
    /// Candidates ranked by demand (`L_d`).
    pub ld: Arc<RankedList>,
    /// Candidates ranked by connectivity increment (`L_λ`).
    pub llambda: Arc<RankedList>,
    /// Demand normalizer `d_max = Σ top-k L_d` (Eq. 12).
    pub d_max: f64,
    /// Connectivity normalizer `λ_max = Σ top-k L_λ` (Eq. 12).
    pub lambda_max: f64,
    /// Estimated `λ(Gr)` of the base network.
    pub base_lambda: f64,
    /// Estimated `tr(e^A)` of the base network (frozen probes).
    pub base_trace: f64,
    /// Always empty. Kept for external readers of the field until they move
    /// to [`Precomputed::spectrum_head`]; nothing in this workspace reads
    /// it.
    pub top_eigs: Vec<f64>,
    /// The spectrum-free Estrada bound at this view's `k`, as an increment
    /// over `λ(Gr)`: finite and admissible, but far looser than Lemma 4.
    /// Kept for external readers of the field; the online planner's bound
    /// is [`Precomputed::conn_ub`], and nothing in this workspace reads
    /// this one.
    pub conn_path_ub: f64,
    /// Always `None`: no state keeps Ritz vectors. Kept for external
    /// readers of the field; nothing in this workspace reads it.
    pub spectrum_basis: Option<Arc<Vec<Vec<f64>>>>,
    /// This state's spectrum head, filled on first use (see
    /// [`Precomputed::spectrum_head`]). Every clone shares it, so it
    /// belongs to the `base_adj` the state was assembled with; a commit,
    /// the one in-place edit of `base_adj`, assembles a new cell.
    pub(crate) head: Arc<SpectrumCell>,
    /// Frozen-probe estimator shared by all scoring.
    pub estimator: ConnectivityEstimator,
    /// Base adjacency matrix.
    pub base_adj: CsrMatrix,
    /// Stage timings.
    pub timings: PrecomputeTimings,
}

impl Precomputed {
    /// Runs the full pre-computation for `city` under `params` with the
    /// paper's paired-probe Δ(e) method.
    pub fn build(city: &City, demand: &DemandModel, params: &CtBusParams) -> Precomputed {
        Self::build_with(city, demand, params, DeltaMethod::PairedProbes)
    }

    /// Runs the full pre-computation with an explicit Δ(e) method.
    pub fn build_with(
        city: &City,
        demand: &DemandModel,
        params: &CtBusParams,
        method: DeltaMethod,
    ) -> Precomputed {
        // ctlint::allow(wall-clock): stage timing feeds RunResult reporting only; no algorithmic decision reads it
        let t0 = Instant::now();
        let candidates = CandidateSet::build(city, demand, params.tau_m, params.max_detour_factor);
        let shortest_path_secs = t0.elapsed().as_secs_f64();

        let base_adj = city.transit.adjacency_matrix();
        let estimator =
            ConnectivityEstimator::new(base_adj.n(), &params.trace_params(), params.probe_seed);
        // ctlint::allow(wall-clock): reported as connectivity_secs only, never read back by the kernels
        let t1 = Instant::now();
        let base_trace = estimator
            .trace_exp(&base_adj)
            .expect("base trace estimation succeeds")
            .max(f64::MIN_POSITIVE);

        let mut workspaces: Vec<LanczosWorkspace> =
            (0..params.parallelism.worker_threads()).map(|_| LanczosWorkspace::new()).collect();
        let mut delta = vec![0.0f64; candidates.len()];
        sweep_deltas(
            method,
            &candidates,
            &base_adj,
            &estimator,
            base_trace,
            params.lanczos_steps,
            &new_candidate_ids(&candidates),
            &mut workspaces,
            &mut delta,
        );
        let connectivity_secs = t1.elapsed().as_secs_f64();

        Self::assemble(
            Arc::new(candidates),
            delta,
            base_adj,
            base_trace,
            estimator,
            params,
            PrecomputeTimings { shortest_path_secs, connectivity_secs },
        )
    }

    /// Assembles the parameter-dependent tail of the pre-computation — the
    /// ranked lists and the Eq. 12 normalizers — from an already-computed
    /// candidate pool and Δ(e) sweep, and gives the state a new, unfilled
    /// spectrum-head cell sized by `params.k`.
    ///
    /// This is the single code path shared by [`Precomputed::build_with`]
    /// (cold start) and [`crate::PlanningSession::commit`] (incremental
    /// refresh): both feed it the same ingredients, so a committed session's
    /// artifacts are bit-identical to a from-scratch rebuild by
    /// construction.
    pub(crate) fn assemble(
        candidates: Arc<CandidateSet>,
        delta: Vec<f64>,
        base_adj: CsrMatrix,
        base_trace: f64,
        estimator: ConnectivityEstimator,
        params: &CtBusParams,
        timings: PrecomputeTimings,
    ) -> Precomputed {
        let base_lambda = base_trace.ln() - (base_adj.n() as f64).ln();
        let ld = Arc::new(RankedList::new(&candidates.demand_values()));
        let llambda = Arc::new(RankedList::new(&delta));
        let tail = Tail::new(&ld, &llambda, base_lambda, &base_adj, params);
        let head = Arc::new(SpectrumCell::new(&base_adj, params));

        Precomputed {
            candidates,
            delta: delta.into(),
            ld,
            llambda,
            d_max: tail.d_max,
            lambda_max: tail.lambda_max,
            base_lambda,
            base_trace,
            top_eigs: Vec::new(),
            conn_path_ub: tail.conn_path_ub,
            spectrum_basis: None,
            head,
            estimator,
            base_adj,
            timings,
        }
    }

    /// Normalized Eq. 3 objective `w·d/d_max + (1−w)·c/λ_max` for raw
    /// demand and connectivity values.
    pub fn objective(&self, w: f64, demand: f64, conn_increment: f64) -> f64 {
        w * demand / self.d_max + (1.0 - w) * conn_increment / self.lambda_max
    }

    /// `L_e(w)` per candidate id (Eq. 11): each edge's own normalized
    /// objective under this state's normalizers.
    pub(crate) fn le_values(&self, w: f64) -> Vec<f64> {
        let edges = self.candidates.edges();
        edges.iter().zip(self.delta.iter()).map(|(e, &d)| self.objective(w, e.demand, d)).collect()
    }

    /// The top of the base adjacency's spectrum, descending: the values the
    /// Lemma 3 and Lemma 4 bounds read (paper §5.2), `max(2k, 32)` of them
    /// (capped by `n`) for the `k` this state was built or committed at.
    /// Empty when the solve failed.
    ///
    /// Computed by the first call (a block-Krylov solve: about 15 ms on
    /// medium and 300–380 ms on chicago_like at one thread of a 2-vCPU
    /// Xeon) and shared by every clone, [`Precomputed::reparameterize`]
    /// view and [`crate::PlanningSession::branch`] of the state. The solve is
    /// unseeded, with the state's own `want` and RNG stream fixed when it
    /// was assembled, so neither the thread nor the `k` that asks first can
    /// change its bits, and a committed state reads the head of a cold
    /// build on the evolved city. Linear-mode plans never call it.
    pub fn spectrum_head(&self) -> &[f64] {
        let cell = &*self.head;
        cell.values.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(cell.seed);
            block_krylov_head(&self.base_adj, cell.want, 0, &[], &mut rng)
                .map(|head| head.values)
                .unwrap_or_default()
        })
    }

    /// The online planner's connectivity-increment bound `O↑λ` for a
    /// `k`-edge route: Lemma 4 over [`Precomputed::spectrum_head`] (which
    /// this computes on first call), as an increment over `λ(Gr)`. An empty
    /// head falls back to the Estrada bound.
    pub fn conn_ub(&self, k: usize) -> f64 {
        conn_path_ub(self.base_lambda, self.spectrum_head(), k, &self.base_adj)
    }

    /// Re-derives the parameter-dependent artifacts (the Eq. 12
    /// normalizers) for new `k`/`w` without redoing the expensive
    /// candidate generation and Δ(e) sweep; `w` itself enters only when a
    /// planner run ranks `L_e(w)`.
    ///
    /// Parameter sweeps (Table 7, Figs. 10–12) rely on this: the candidate
    /// pool and per-edge increments are `k`- and `w`-independent. The view
    /// is a [`Clone`] with a new tail: it shares the pool, Δ(e), the ranked
    /// lists, the probes and the spectrum-head cell with `self` and copies
    /// none of them, and a later commit on a session holding `self` leaves
    /// it untouched.
    pub fn reparameterize(&self, params: &CtBusParams) -> Precomputed {
        let tail = Tail::new(&self.ld, &self.llambda, self.base_lambda, &self.base_adj, params);
        Precomputed {
            d_max: tail.d_max,
            lambda_max: tail.lambda_max,
            conn_path_ub: tail.conn_path_ub,
            ..self.clone()
        }
    }
}

/// The `k`-dependent tail of the pre-computation: the Eq. 12 normalizers
/// and the spectrum-free bound of the `conn_path_ub` field.
struct Tail {
    d_max: f64,
    lambda_max: f64,
    conn_path_ub: f64,
}

impl Tail {
    fn new(
        ld: &RankedList,
        llambda: &RankedList,
        base_lambda: f64,
        base_adj: &CsrMatrix,
        params: &CtBusParams,
    ) -> Tail {
        let d_max = ld.top_k_sum(params.k).max(f64::MIN_POSITIVE);
        let lambda_max = llambda.top_k_sum(params.k).max(f64::MIN_POSITIVE);
        let conn_path_ub = conn_path_ub(base_lambda, &[], params.k, base_adj);
        Tail { d_max, lambda_max, conn_path_ub }
    }
}

/// One state's spectrum head: empty until [`Precomputed::spectrum_head`]
/// fills it, then fixed. `want` (`max(2k, 32)` capped by `n`: the 2k values
/// Lemma 3 reads, and Lemma 4 needs ⌈k/2⌉) and the RNG seed come from the
/// parameters the state was assembled with; `path_bound` pads a head that a
/// view reparameterized to larger k finds short.
pub(crate) struct SpectrumCell {
    pub(crate) values: OnceLock<Vec<f64>>,
    want: usize,
    seed: u64,
}

impl SpectrumCell {
    fn new(base_adj: &CsrMatrix, params: &CtBusParams) -> SpectrumCell {
        SpectrumCell {
            values: OnceLock::new(),
            want: (2 * params.k).max(32).min(base_adj.n()),
            seed: params.probe_seed ^ 0x9E37_79B9,
        }
    }
}

/// The connectivity-increment bound `O↑λ`: Lemma 4 over the spectrum head,
/// as an increment over `λ(Gr)`. An empty head (a failed spectrum solve)
/// falls back to the spectrum-free Estrada bound, loose enough that the
/// online modes prune nothing on it.
fn conn_path_ub(base_lambda: f64, top_eigs: &[f64], k: usize, adj: &CsrMatrix) -> f64 {
    let bound = if top_eigs.is_empty() {
        estrada_bound(adj.num_undirected_edges(), k, adj.n())
    } else {
        path_bound(base_lambda, top_eigs, k, adj.n())
    };
    (bound - base_lambda).max(0.0)
}

/// The ids of every new (non-existing) candidate, ascending: what a build
/// and an exact-tier commit sweep.
pub(crate) fn new_candidate_ids(candidates: &CandidateSet) -> Vec<u32> {
    (0..candidates.len() as u32).filter(|&i| !candidates.edge(i).existing).collect()
}

/// Paired-probe `Δ(e)` of every new candidate on `threads` workers
/// (exposed for the thread-invariance tests and benches; planning sweeps
/// through [`Precomputed::build_with`]).
#[doc(hidden)]
pub fn compute_deltas_with_threads(
    candidates: &CandidateSet,
    base: &CsrMatrix,
    estimator: &ConnectivityEstimator,
    base_trace: f64,
    threads: usize,
) -> Vec<f64> {
    let mut workspaces: Vec<LanczosWorkspace> =
        (0..threads.max(1)).map(|_| LanczosWorkspace::new()).collect();
    let mut delta = vec![0.0f64; candidates.len()];
    // Paired probes take their Lanczos steps from the estimator; only the
    // perturbation arm reads the `lanczos_steps` argument.
    sweep_deltas(
        DeltaMethod::PairedProbes,
        candidates,
        base,
        estimator,
        base_trace,
        0,
        &new_candidate_ids(candidates),
        &mut workspaces,
        &mut delta,
    );
    delta
}

/// The Δ(e) sweep: estimates `Δ(e)` for exactly the candidates in `ids`,
/// writing `delta[id]` and leaving every other slot untouched.
///
/// Builds and exact-tier commits pass every new candidate; approximate-tier
/// commits pass only the candidates the committed route touched. Each
/// Δ(e) is a pure function of the frozen probes (paired probes) or of the
/// base matrix (perturbation), so the output is invariant under the
/// worker count and under how the id set is split.
///
/// * [`DeltaMethod::PairedProbes`] — one scoped worker per workspace, up to
///   one per id, pulls ids off a shared atomic counter (work stealing: a
///   skewed pool leaves no core idle behind a static partition) and scores
///   each candidate through a reusable [`EdgeOverlay`] of the base matrix
///   with its own [`LanczosWorkspace`]: zero CSR rebuilds, zero
///   steady-state allocations. The workspaces are caller-owned, so a
///   session reuses them across commits. With one worker everything runs
///   on the calling thread and no thread is spawned. A worker's panic
///   reaches the caller with its own payload.
/// * [`DeltaMethod::Perturbation`] — second-order perturbation estimate,
///   sequential.
///   For the rank-2 perturbation `E = e_u e_vᵀ + e_v e_uᵀ` (u ≠ v):
///   first order, `tr(e^A E) = 2(e^A)_{uv}` (the u–v communicability);
///   second order (commuting approximation of the Duhamel integral),
///   `½ tr(e^A E²) = ½((e^A)_{uu} + (e^A)_{vv})` — the dominant term for
///   stop pairs far apart in the graph, where the communicability is ≈ 0
///   but the edge still builds a new 2-cycle. So `Δ(e) ≈ ln(1 +
///   (2(e^A)_{uv} + ½((e^A)_{uu} + (e^A)_{vv})) / tr(e^A))`, which matches
///   the Taylor series of `tr(e^{A+E})` through second order and slightly
///   *under*estimates (every omitted term is positive for an adjacency
///   matrix): a conservative, noise-free surrogate. One Lanczos column
///   solve of `lanczos_steps` steps, at least 12, per endpoint stop covers
///   all its edges.
///
/// # Panics
/// Panics if the paired-probe sweep gets no workspace or if an id is out
/// of range for the pool or for `delta`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_deltas(
    method: DeltaMethod,
    candidates: &CandidateSet,
    base: &CsrMatrix,
    estimator: &ConnectivityEstimator,
    base_trace: f64,
    lanczos_steps: usize,
    ids: &[u32],
    workspaces: &mut [LanczosWorkspace],
    delta: &mut [f64],
) {
    match method {
        DeltaMethod::PairedProbes => {
            assert!(!workspaces.is_empty(), "the Δ(e) sweep needs at least one workspace");
            let workers = workspaces.len().min(ids.len()).max(1);
            let next = AtomicUsize::new(0);
            let next = &next;
            let steal = move |ws: &mut LanczosWorkspace| {
                let mut overlay = EdgeOverlay::empty(base);
                let mut out = Vec::with_capacity(ids.len() / workers + 1);
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&id) = ids.get(idx) else { break };
                    let e = candidates.edge(id);
                    overlay.set_edges(&[(e.u, e.v)]);
                    let inc = match estimator.trace_exp_in(&overlay, ws) {
                        Ok(tr) => (tr.max(f64::MIN_POSITIVE) / base_trace).ln(),
                        Err(_) => 0.0,
                    };
                    // Monotonicity of natural connectivity under edge
                    // addition guarantees Δ ≥ 0; clamp residual probe noise.
                    out.push((id, inc.max(0.0)));
                }
                out
            };
            let parts = match &mut workspaces[..workers] {
                [only] => vec![steal(only)],
                pool => std::thread::scope(|s| {
                    let handles: Vec<_> =
                        pool.iter_mut().map(|ws| s.spawn(move || steal(ws))).collect();
                    handles.into_iter().map(join_worker).collect()
                }),
            };
            for (id, inc) in parts.into_iter().flatten() {
                delta[id as usize] = inc;
            }
        }
        DeltaMethod::Perturbation => {
            // Columns of e^A for every endpoint of a swept candidate edge:
            // one solve per *distinct* stop (endpoints repeating across
            // candidates — and a degenerate u == v pair — dedup to a single
            // entry), all sharing one Lanczos workspace so the per-stop
            // solve allocates only the stored column itself.
            let lanczos_steps = lanczos_steps.max(12);
            let mut needed: Vec<u32> = ids
                .iter()
                .map(|&id| candidates.edge(id))
                .filter(|e| !e.existing)
                .flat_map(|e| [e.u, e.v])
                .collect();
            needed.sort_unstable();
            needed.dedup();
            let mut ws = LanczosWorkspace::new();
            let mut col = Vec::new();
            let columns: Vec<Option<Vec<f64>>> = needed
                .iter()
                .map(|&u| {
                    expm_column_in(base, u as usize, lanczos_steps, &mut ws, &mut col)
                        .is_ok()
                        .then(|| col.clone())
                })
                .collect();
            let col_of = |stop: u32| -> Option<&Vec<f64>> {
                needed.binary_search(&stop).ok().and_then(|i| columns[i].as_ref())
            };

            for &id in ids {
                let e = candidates.edge(id);
                if e.existing {
                    continue;
                }
                let (Some(col_u), Some(col_v)) = (col_of(e.u), col_of(e.v)) else {
                    continue;
                };
                let comm = col_u[e.v as usize].max(0.0);
                let diag = col_u[e.u as usize].max(1.0) + col_v[e.v as usize].max(1.0);
                let trace_gain = 2.0 * comm + 0.5 * diag;
                delta[id as usize] = (trace_gain / base_trace).ln_1p().max(0.0);
            }
        }
    }
}

/// Joins a sweep worker, re-raising its panic with the worker's own payload
/// so the caller (and `fault::panic_message`) sees the original message.
fn join_worker<T>(worker: std::thread::ScopedJoinHandle<'_, T>) -> T {
    worker.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_data::CityConfig;

    fn setup() -> (City, DemandModel, CtBusParams) {
        let city = CityConfig::small().seed(12).generate();
        let demand = DemandModel::from_city(&city);
        (city, demand, CtBusParams::small_defaults())
    }

    /// The pre-overlay Δ(e) sweep, kept as the oracle the shipping sweep
    /// must match bit for bit: statically chunked threads and one full CSR
    /// rebuild per candidate. It scores with `trace_exp`, whose batched
    /// sweep `ct_linalg`'s tests pin to the sequential per-probe loop.
    fn compute_deltas_reference(
        candidates: &CandidateSet,
        base: &CsrMatrix,
        estimator: &ConnectivityEstimator,
        base_trace: f64,
    ) -> Vec<f64> {
        let n = candidates.len();
        let mut delta = vec![0.0f64; n];
        let ids: Vec<u32> = (0..n as u32).filter(|&i| !candidates.edge(i).existing).collect();
        if ids.is_empty() {
            return delta;
        }

        let threads =
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(ids.len());
        let chunk = ids.len().div_ceil(threads);
        let mut results: Vec<Vec<(u32, f64)>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = ids
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        let mut out = Vec::with_capacity(part.len());
                        for &id in part {
                            let e = candidates.edge(id);
                            let augmented = base.with_added_unit_edges(&[(e.u, e.v)]);
                            let inc = match estimator.trace_exp(&augmented) {
                                Ok(tr) => (tr.max(f64::MIN_POSITIVE) / base_trace).ln(),
                                Err(_) => 0.0,
                            };
                            out.push((id, inc.max(0.0)));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().expect("delta worker does not panic"));
            }
        });

        for part in results {
            for (id, inc) in part {
                delta[id as usize] = inc;
            }
        }
        delta
    }

    #[test]
    fn deltas_positive_for_new_edges_zero_for_existing() {
        let (city, demand, params) = setup();
        let pre = Precomputed::build(&city, &demand, &params);
        let mut saw_positive = false;
        for (i, e) in pre.candidates.edges().iter().enumerate() {
            if e.existing {
                assert_eq!(pre.delta[i], 0.0, "existing edge {i} has nonzero Δ");
            } else {
                assert!(pre.delta[i] >= 0.0);
                saw_positive |= pre.delta[i] > 0.0;
            }
        }
        assert!(saw_positive, "no new edge had positive Δ");
    }

    #[test]
    fn normalizers_are_topk_sums() {
        let (city, demand, params) = setup();
        let pre = Precomputed::build(&city, &demand, &params);
        assert!((pre.d_max - pre.ld.top_k_sum(params.k)).abs() < 1e-12);
        assert!((pre.lambda_max - pre.llambda.top_k_sum(params.k)).abs() < 1e-12);
        assert!(pre.d_max > 0.0);
        assert!(pre.lambda_max > 0.0);
    }

    #[test]
    fn le_combines_demand_and_delta() {
        let (city, demand, params) = setup();
        let pre = Precomputed::build(&city, &demand, &params);
        let le = pre.le_values(params.w);
        for i in 0..pre.candidates.len().min(100) {
            let e = pre.candidates.edge(i as u32);
            let expect =
                params.w * e.demand / pre.d_max + (1.0 - params.w) * pre.delta[i] / pre.lambda_max;
            assert!((le[i] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn path_ub_dominates_topk_increments() {
        // Lemma 4's bound must be at least as large as the increment any
        // single edge achieves (it bounds whole k-edge paths).
        let (city, demand, params) = setup();
        let pre = Precomputed::build(&city, &demand, &params);
        let best_single = pre.delta.iter().cloned().fold(0.0f64, f64::max);
        let ub = pre.conn_ub(params.k);
        assert!(ub >= best_single - 1e-6, "path ub {ub} < best single Δ {best_single}");
    }

    #[test]
    fn base_lambda_close_to_exact() {
        // Small transit graphs have n comparable to e^{λ₁}, so the probe
        // count must be higher than the planner default to hit a tight
        // tolerance here (accuracy scales as 1/√s).
        let (city, demand, mut params) = setup();
        params.trace_probes = 128;
        params.lanczos_steps = 12;
        let pre = Precomputed::build(&city, &demand, &params);
        let exact = ct_linalg::natural_connectivity_exact(&pre.base_adj).unwrap();
        assert!(
            (pre.base_lambda - exact).abs() < 0.12 * exact.abs().max(0.5),
            "estimate {} vs exact {}",
            pre.base_lambda,
            exact
        );
    }

    #[test]
    fn objective_helper_matches_formula() {
        let (city, demand, params) = setup();
        let pre = Precomputed::build(&city, &demand, &params);
        let o = pre.objective(0.5, pre.d_max, pre.lambda_max);
        assert!((o - 1.0).abs() < 1e-12, "normalized top-k objective should be 1, got {o}");
    }

    #[test]
    fn perturbation_deltas_track_paired_probe_deltas() {
        // The first-order estimate is deterministic and should (a) be a
        // slight *under*-estimate (the expansion's higher-order terms are
        // positive) and (b) rank edges similarly to the probe-based sweep.
        let (city, demand, mut params) = setup();
        params.trace_probes = 96; // tight reference
        let reference = Precomputed::build(&city, &demand, &params);
        let perturbed = Precomputed::build_with(&city, &demand, &params, DeltaMethod::Perturbation);

        let ids: Vec<usize> = (0..reference.candidates.len())
            .filter(|&i| !reference.candidates.edge(i as u32).existing)
            .collect();
        // Rank correlation on the top half (Spearman-ish via rank overlap).
        let top = |pre: &Precomputed| -> std::collections::HashSet<u32> {
            pre.llambda
                .iter_desc()
                .filter(|&id| !pre.candidates.edge(id).existing)
                .take(ids.len() / 4)
                .collect()
        };
        let a = top(&reference);
        let b = top(&perturbed);
        let overlap = a.intersection(&b).count() as f64 / a.len().max(1) as f64;
        assert!(overlap > 0.5, "top-quartile rank overlap only {overlap:.2}");

        // Magnitudes agree within a modest factor for the strongest edges.
        let strongest = perturbed.llambda.iter_desc().next().unwrap();
        let p = perturbed.delta[strongest as usize];
        let r = reference.delta[strongest as usize];
        assert!(p > 0.0 && r > 0.0);
        assert!(p < r * 3.0 && p > r / 3.0, "perturbation {p} vs probes {r}");
    }

    #[test]
    fn perturbation_method_is_deterministic() {
        let (city, demand, params) = setup();
        let a = Precomputed::build_with(&city, &demand, &params, DeltaMethod::Perturbation);
        let b = Precomputed::build_with(&city, &demand, &params, DeltaMethod::Perturbation);
        assert_eq!(a.delta, b.delta);
    }

    #[test]
    fn reparameterize_matches_fresh_build() {
        let (city, demand, params) = setup();
        let pre = Precomputed::build(&city, &demand, &params);
        let mut p2 = params;
        p2.k = 12;
        p2.w = 0.7;
        let cheap = pre.reparameterize(&p2);
        let fresh = Precomputed::build(&city, &demand, &p2);
        assert!((cheap.d_max - fresh.d_max).abs() < 1e-9);
        assert!((cheap.lambda_max - fresh.lambda_max).abs() < 1e-9);
        let (cheap_le, fresh_le) = (cheap.le_values(p2.w), fresh.le_values(p2.w));
        for i in 0..cheap.candidates.len() {
            assert!((cheap_le[i] - fresh_le[i]).abs() < 1e-9);
        }
        assert!((cheap.conn_ub(p2.k) - fresh.conn_ub(p2.k)).abs() < 1e-6);
    }

    #[test]
    fn delta_sweep_invariant_under_thread_count_and_matches_reference() {
        // The overlay + batched-probe sweep must reproduce the legacy
        // (CSR-rebuild, per-probe) sweep bit-for-bit, under any worker
        // count: every Δ(e) is a pure function of the frozen probes.
        let (city, demand, params) = setup();
        let candidates =
            CandidateSet::build(&city, &demand, params.tau_m, params.max_detour_factor);
        let base = city.transit.adjacency_matrix();
        let estimator =
            ConnectivityEstimator::new(base.n(), &params.trace_params(), params.probe_seed);
        let base_trace = estimator.trace_exp(&base).unwrap().max(f64::MIN_POSITIVE);
        let reference = compute_deltas_reference(&candidates, &base, &estimator, base_trace);
        for threads in [1, 2, 5] {
            let fast =
                compute_deltas_with_threads(&candidates, &base, &estimator, base_trace, threads);
            assert_eq!(fast, reference, "threads={threads}");
        }
    }

    #[test]
    fn a_panicking_sweep_worker_keeps_its_message() {
        // A worker that panics mid-sweep (here on an id past the pool) must
        // reach the caller with its own message, inline at one worker and
        // across a join at two, whichever worker steals the bad id.
        let (city, demand, params) = setup();
        let candidates =
            CandidateSet::build(&city, &demand, params.tau_m, params.max_detour_factor);
        let base = city.transit.adjacency_matrix();
        let estimator =
            ConnectivityEstimator::new(base.n(), &params.trace_params(), params.probe_seed);
        let base_trace = estimator.trace_exp(&base).unwrap().max(f64::MIN_POSITIVE);
        let mut ids = new_candidate_ids(&candidates)[..4].to_vec();
        ids.insert(2, candidates.len() as u32);
        for threads in [1, 2] {
            let mut workspaces: Vec<LanczosWorkspace> =
                (0..threads).map(|_| LanczosWorkspace::new()).collect();
            let mut delta = vec![0.0f64; candidates.len()];
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sweep_deltas(
                    DeltaMethod::PairedProbes,
                    &candidates,
                    &base,
                    &estimator,
                    base_trace,
                    params.lanczos_steps,
                    &ids,
                    &mut workspaces,
                    &mut delta,
                )
            }))
            .expect_err("the worker's panic reaches the caller");
            let msg = crate::fault::panic_message(payload);
            assert!(
                msg.contains("index out of bounds") && msg.contains(&ids[2].to_string()),
                "threads={threads}: {msg}"
            );
        }
    }

    #[test]
    fn empty_head_falls_back_to_a_finite_admissible_bound() {
        // A failed spectrum solve leaves an empty head: the bound must not
        // collapse to λ(Gr) (an increment of 0 prunes every path), nor to
        // +∞ (the online objective bound would turn NaN at w = 1), and must
        // stay above Lemma 4 over the exact spectrum.
        let (city, demand, params) = setup();
        let pre = Precomputed::build(&city, &demand, &params);
        let n = pre.base_adj.n();
        let mut exact = ct_linalg::sparse_symmetric_eigenvalues(&pre.base_adj).unwrap();
        exact.reverse();
        for k in [10usize, 66] {
            let lemma4 = path_bound(pre.base_lambda, &exact, k, n) - pre.base_lambda;
            let ub = conn_path_ub(pre.base_lambda, &[], k, &pre.base_adj);
            assert!(ub.is_finite(), "k={k}: empty head gave {ub}");
            assert!(
                ub >= lemma4,
                "k={k}: empty-head bound {ub} under the exact Lemma 4 bound {lemma4}"
            );
        }
    }

    #[test]
    fn determinism_across_builds() {
        let (city, demand, params) = setup();
        let a = Precomputed::build(&city, &demand, &params);
        let b = Precomputed::build(&city, &demand, &params);
        assert_eq!(a.delta, b.delta);
        assert_eq!(a.base_trace, b.base_trace);
    }
}
