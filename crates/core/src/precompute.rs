//! Pre-computation stage (paper §6 and Table 4).
//!
//! Builds, once per dataset/parameter set:
//!
//! * the candidate pool with road shortest paths and demands;
//! * per-edge connectivity increments `Δ(e)` via paired-probe SLQ;
//! * the ranked lists `L_d` (demand) and `L_λ` (increments);
//! * the Eq. 12 normalizers `d_max`, `λ_max`, the base connectivity, the
//!   top eigenvalues of the base adjacency, and the Lemma 4 path bound the
//!   online planner uses as its connectivity upper bound.
//!
//! `L_e` (Eq. 11, the combined normalized objective) is not stored: it
//! depends on `w`, and vk-TSP plans at `w = 1` whatever the parameters say,
//! so each linear-mode planner run computes and ranks its own under the
//! stored normalizers.
//!
//! The Δ(e) sweep is embarrassingly parallel and is spread over all cores
//! with scoped threads pulling candidate ids off an atomic work-stealing
//! counter. Each worker owns one [`LanczosWorkspace`] and one reusable
//! [`EdgeOverlay`], so the steady-state sweep performs **no** heap
//! allocations and **no** per-candidate CSR rebuilds: a candidate is scored
//! by streaming the base matrix once per Lanczos step for each lane tile of
//! frozen probes (lane matvec) with the candidate edge applied on the fly.
//! The spectrum head runs in the same pool: one worker computes it before
//! stealing ids, so no core idles behind it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ct_data::{City, DemandModel};
use ct_linalg::lanczos::expm_column_in;
use ct_linalg::{
    block_krylov_head, ConnectivityEstimator, CsrMatrix, EdgeOverlay, LanczosWorkspace,
    SpectrumHead,
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
    /// Connectivity estimation, seconds: the base trace, the Δ(e) sweep
    /// and the spectrum head that runs beside it. A commit reports its
    /// `refresh_secs` here; promotion, demand refresh, absorb and ranking
    /// stay outside.
    pub connectivity_secs: f64,
}

/// Everything the planners consume.
///
/// `Clone` is cheap and recomputes nothing: the candidate pool, Δ(e), both
/// ranked lists, the estimator's probes and the Ritz basis sit behind
/// `Arc`s that every clone shares, so a clone bumps their reference counts
/// and copies only the base adjacency, the head's values and a few scalars.
/// [`Precomputed::reparameterize`] and [`crate::PlanningSession::branch`]
/// rest on this; [`crate::PlanningSession::commit`] copies the pool only
/// when it must mutate a shared one.
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
    /// Top eigenvalues of the base adjacency, descending.
    pub top_eigs: Vec<f64>,
    /// Lemma 4 connectivity-increment upper bound for a `k`-edge path
    /// (`path_bound − λ(Gr)`), the online planner's `O↑λ`.
    pub conn_path_ub: f64,
    /// Ritz vectors paired with `top_eigs` front to front, kept by every
    /// build and commit so the next approximate-tier commit can seed its
    /// spectrum head with them; `None` only when the spectrum solve failed.
    /// No planner reads it.
    pub spectrum_basis: Option<Arc<Vec<Vec<f64>>>>,
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
        let head = sweep_deltas(
            method,
            &candidates,
            &base_adj,
            &estimator,
            base_trace,
            params.lanczos_steps,
            &new_candidate_ids(&candidates),
            &mut workspaces,
            &mut delta,
            || spectrum_head(&base_adj, params, &[]),
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
            head,
        )
    }

    /// Assembles the parameter-dependent tail of the pre-computation — the
    /// ranked lists, the Eq. 12 normalizers and the Lemma 4 path bound —
    /// from an already-computed candidate pool, Δ(e) sweep and
    /// [`spectrum_head`] (`None` when its solve failed).
    ///
    /// This is the single code path shared by [`Precomputed::build_with`]
    /// (cold start) and [`crate::PlanningSession::commit`] (incremental
    /// refresh): both feed it the same ingredients, so a committed session's
    /// artifacts are bit-identical to a from-scratch rebuild by
    /// construction.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        candidates: Arc<CandidateSet>,
        delta: Vec<f64>,
        base_adj: CsrMatrix,
        base_trace: f64,
        estimator: ConnectivityEstimator,
        params: &CtBusParams,
        timings: PrecomputeTimings,
        head: Option<SpectrumHead>,
    ) -> Precomputed {
        let base_lambda = base_trace.ln() - (base_adj.n() as f64).ln();
        let ld = Arc::new(RankedList::new(&candidates.demand_values()));
        let llambda = Arc::new(RankedList::new(&delta));
        let (top_eigs, spectrum_basis) = match head {
            Some(head) => (head.values, Some(Arc::new(head.vectors))),
            None => (Vec::new(), None),
        };
        let tail = Tail::new(&ld, &llambda, base_lambda, &top_eigs, &base_adj, params);

        Precomputed {
            candidates,
            delta: delta.into(),
            ld,
            llambda,
            d_max: tail.d_max,
            lambda_max: tail.lambda_max,
            base_lambda,
            base_trace,
            top_eigs,
            conn_path_ub: tail.conn_path_ub,
            spectrum_basis,
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

    /// Re-derives the parameter-dependent artifacts (Eq. 12 normalizers,
    /// the Lemma 4 bound) for new `k`/`w` without redoing the expensive
    /// candidate generation and Δ(e) sweep; `w` itself enters only when a
    /// planner run ranks `L_e(w)`.
    ///
    /// Parameter sweeps (Table 7, Figs. 10–12) rely on this: the candidate
    /// pool and per-edge increments are `k`- and `w`-independent. The view
    /// is a [`Clone`] with a new tail: it shares the pool, Δ(e), the ranked
    /// lists and the probes with `self` and copies none of them, and a
    /// later commit on a session holding `self` leaves it untouched.
    pub fn reparameterize(&self, params: &CtBusParams) -> Precomputed {
        let tail = Tail::new(
            &self.ld,
            &self.llambda,
            self.base_lambda,
            &self.top_eigs,
            &self.base_adj,
            params,
        );
        Precomputed {
            d_max: tail.d_max,
            lambda_max: tail.lambda_max,
            conn_path_ub: tail.conn_path_ub,
            ..self.clone()
        }
    }
}

/// The `k`-dependent tail of the pre-computation: the Eq. 12 normalizers
/// and the Lemma 4 path bound.
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
        top_eigs: &[f64],
        base_adj: &CsrMatrix,
        params: &CtBusParams,
    ) -> Tail {
        let d_max = ld.top_k_sum(params.k).max(f64::MIN_POSITIVE);
        let lambda_max = llambda.top_k_sum(params.k).max(f64::MIN_POSITIVE);
        let conn_path_ub = conn_path_ub(base_lambda, top_eigs, params.k, base_adj);
        Tail { d_max, lambda_max, conn_path_ub }
    }
}

/// The online planner's connectivity-increment bound `O↑λ`: Lemma 4 over
/// the spectrum head, as an increment over `λ(Gr)`. An empty head (a
/// failed spectrum solve) falls back to the spectrum-free Estrada bound,
/// loose enough that the online modes prune nothing on it.
fn conn_path_ub(base_lambda: f64, top_eigs: &[f64], k: usize, adj: &CsrMatrix) -> f64 {
    let bound = if top_eigs.is_empty() {
        estrada_bound(adj.num_undirected_edges(), k, adj.n())
    } else {
        path_bound(base_lambda, top_eigs, k, adj.n())
    };
    (bound - base_lambda).max(0.0)
}

/// The spectrum head for the Lemma 3/4 bounds: the 2k values Lemma 3 reads
/// (Lemma 4 needs ⌈k/2⌉), at least 32, with their Ritz vectors.
/// `path_bound` pads a head that a later `reparameterize` to larger k finds
/// short. `None` when the solve fails.
///
/// `seeds` are the Ritz vectors the head starts from: empty for a cold
/// build and every exact-tier commit (the unseeded head, bit-identical to a
/// rebuild), the previous head's for an approximate-tier commit. Every
/// input is fixed before the Δ-sweep starts and the RNG stream is its own,
/// so running it as the sweep pool's extra job cannot change its bits.
pub(crate) fn spectrum_head(
    base_adj: &CsrMatrix,
    params: &CtBusParams,
    seeds: &[Vec<f64>],
) -> Option<SpectrumHead> {
    let want = (2 * params.k).max(32).min(base_adj.n());
    let mut rng = StdRng::seed_from_u64(params.probe_seed ^ 0x9E37_79B9);
    block_krylov_head(base_adj, want, 0, seeds, &mut rng).ok()
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
        || (),
    );
    delta
}

/// The Δ(e) sweep: estimates `Δ(e)` for exactly the candidates in `ids`,
/// writing `delta[id]` and leaving every other slot untouched, and runs
/// `job` (the [`spectrum_head`]) beside it, returning its result.
///
/// Builds and exact-tier commits pass every new candidate; approximate-tier
/// commits pass only the candidates the committed route touched. Each
/// Δ(e) is a pure function of the frozen probes (paired probes) or of the
/// base matrix (perturbation), so the output is invariant under the
/// worker count and under how the id set is split.
///
/// * [`DeltaMethod::PairedProbes`] — one scoped worker per workspace pulls
///   ids off a shared atomic counter (work stealing: a skewed pool leaves
///   no core idle behind a static partition) and scores each candidate
///   through a reusable [`EdgeOverlay`] of the base matrix with its own
///   [`LanczosWorkspace`]: zero CSR rebuilds, zero steady-state
///   allocations. The workspaces are caller-owned, so a session reuses
///   them across commits. `job` is the pool's longest work item, so the
///   first worker runs it before stealing any id and the others start
///   stealing at once; it counts as one item when sizing the pool, so a
///   one-id sweep still gets two workers. With one worker everything runs
///   on the calling thread and no thread is spawned. A worker's panic
///   reaches the caller with its own payload.
/// * [`DeltaMethod::Perturbation`] — second-order perturbation estimate,
///   sequential, with `job` run after it.
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
/// Panics if the paired-probe sweep gets no workspace, if an id is out of
/// range for `delta`, or if `job` panics.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_deltas<T: Send>(
    method: DeltaMethod,
    candidates: &CandidateSet,
    base: &CsrMatrix,
    estimator: &ConnectivityEstimator,
    base_trace: f64,
    lanczos_steps: usize,
    ids: &[u32],
    workspaces: &mut [LanczosWorkspace],
    delta: &mut [f64],
    job: impl FnOnce() -> T + Send,
) -> T {
    match method {
        DeltaMethod::PairedProbes => {
            let workers = workspaces.len().min(ids.len() + 1);
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
            let (first, rest) = workspaces[..workers]
                .split_first_mut()
                .expect("the Δ(e) sweep needs at least one workspace");
            let (out, parts) = if rest.is_empty() {
                (job(), vec![steal(first)])
            } else {
                std::thread::scope(|s| {
                    let head = s.spawn(move || (job(), steal(first)));
                    let stealers: Vec<_> =
                        rest.iter_mut().map(|ws| s.spawn(move || steal(ws))).collect();
                    let (out, part) = join_worker(head);
                    let mut parts = vec![part];
                    parts.extend(stealers.into_iter().map(join_worker));
                    (out, parts)
                })
            };
            for (id, inc) in parts.into_iter().flatten() {
                delta[id as usize] = inc;
            }
            out
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
            job()
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
        assert!(
            pre.conn_path_ub >= best_single - 1e-6,
            "path ub {} < best single Δ {}",
            pre.conn_path_ub,
            best_single
        );
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
        assert!((cheap.conn_path_ub - fresh.conn_path_ub).abs() < 1e-6);
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
    fn a_panicking_pool_job_keeps_its_message() {
        // The head runs as a pool job; a panic inside it (say, the
        // eigensolver on a NaN Gram matrix) must reach the caller with its
        // own message, inline at one worker and across a join at two.
        let (city, demand, params) = setup();
        let candidates =
            CandidateSet::build(&city, &demand, params.tau_m, params.max_detour_factor);
        let base = city.transit.adjacency_matrix();
        let estimator =
            ConnectivityEstimator::new(base.n(), &params.trace_params(), params.probe_seed);
        let base_trace = estimator.trace_exp(&base).unwrap().max(f64::MIN_POSITIVE);
        let ids = new_candidate_ids(&candidates);
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
                    &ids[..4],
                    &mut workspaces,
                    &mut delta,
                    || -> () { panic!("spectrum job failed on purpose") },
                )
            }))
            .expect_err("the job's panic reaches the caller");
            assert_eq!(
                crate::fault::panic_message(payload),
                "spectrum job failed on purpose",
                "threads={threads}"
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
