//! Per-layer replays: monolithic calls (`Precomputed::build_with`,
//! `PlanningSession::commit`, `ServeState::commit`) are decomposed by
//! timing their public constituents again on the same inputs. Replays run
//! after the measured loop, so they never disturb the end-to-end numbers.

use std::hint::black_box;
use std::time::Instant;

use ct_core::precompute::compute_deltas_with_threads;
use ct_core::{online_increment_in, CandidateSet, CtBusParams, Precomputed, RoutePlan};
use ct_data::{City, DemandModel};
use ct_linalg::{block_krylov_topk, block_krylov_topk_warm, EdgeOverlay, LanczosWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The spectrum RNG stream `Precomputed::assemble` uses, so a replay
/// repeats the same Krylov work.
fn spectrum_rng(params: &CtBusParams) -> StdRng {
    StdRng::seed_from_u64(params.probe_seed ^ 0x9E37_79B9)
}

/// `want` of the cold spectrum head.
pub fn cold_want(params: &CtBusParams, n: usize) -> usize {
    (2 * params.k).max(96).min(n)
}

/// `want` of the warm-started spectrum head.
pub fn warm_want(params: &CtBusParams, n: usize) -> usize {
    (2 * params.k).max(32).min(n)
}

/// Milliseconds of `ConnectivityEstimator::trace_exp` on `pre`'s base.
pub fn trace_ms(pre: &Precomputed) -> f64 {
    let t = Instant::now();
    black_box(pre.estimator.trace_exp(&pre.base_adj).ok());
    ms_since(t)
}

/// Milliseconds of the full Δ-sweep over `pre`'s candidates at `threads`.
pub fn sweep_ms(pre: &Precomputed, threads: usize) -> f64 {
    let t = Instant::now();
    black_box(compute_deltas_with_threads(
        &pre.candidates,
        &pre.base_adj,
        &pre.estimator,
        pre.base_trace,
        threads,
    ));
    ms_since(t)
}

/// Milliseconds of the cold spectrum head on `pre`'s base.
pub fn spectrum_cold_ms(pre: &Precomputed, params: &CtBusParams) -> f64 {
    let want = cold_want(params, pre.base_adj.n());
    let mut rng = spectrum_rng(params);
    let t = Instant::now();
    black_box(block_krylov_topk(&pre.base_adj, want, 0, &mut rng).ok());
    ms_since(t)
}

/// Milliseconds of the warm spectrum head on `cur`'s base, seeded with
/// `basis` (empty on a commit that follows a cold build).
pub fn spectrum_warm_ms(cur: &Precomputed, basis: &[Vec<f64>], params: &CtBusParams) -> f64 {
    let want = warm_want(params, cur.base_adj.n());
    let mut rng = spectrum_rng(params);
    let t = Instant::now();
    black_box(block_krylov_topk_warm(&cur.base_adj, want, 0, basis, &mut rng).ok());
    ms_since(t)
}

/// The parts of a cold build, timed one by one.
#[derive(Debug, Clone, Default)]
pub struct BuildParts {
    /// `CandidateSet::build` (road Dijkstras included).
    pub candidates_ms: f64,
    /// New candidates in the pool.
    pub candidates_new: usize,
    /// Base trace.
    pub trace_ms: f64,
    /// Δ-sweep at the workload's thread count.
    pub sweep_ms: f64,
    /// Δ-sweep at one thread.
    pub sweep_t1_ms: f64,
    /// Cold spectrum head.
    pub spectrum_cold_ms: f64,
    /// Warm spectrum head with an empty basis (the first approximate
    /// commit's spectrum).
    pub spectrum_warm_empty_ms: f64,
}

impl BuildParts {
    /// What the replayed parts of a build add up to.
    pub fn replayed_ms(&self) -> f64 {
        self.candidates_ms + self.trace_ms + self.sweep_ms + self.spectrum_cold_ms
    }
}

/// Replays the constituents of `Precomputed::build_with` on the inputs
/// that produced `pre`. The sweep is run once untimed first: the first
/// sweep of a process reads slow.
pub fn replay_build(
    city: &City,
    demand: &DemandModel,
    params: &CtBusParams,
    pre: &Precomputed,
    threads: usize,
) -> BuildParts {
    let t = Instant::now();
    let cands = CandidateSet::build(city, demand, params.tau_m, params.max_detour_factor);
    let candidates_ms = ms_since(t);
    sweep_ms(pre, threads);
    let sweep = sweep_ms(pre, threads);
    BuildParts {
        candidates_ms,
        candidates_new: cands.num_new(),
        trace_ms: trace_ms(pre),
        sweep_ms: sweep,
        sweep_t1_ms: if threads == 1 { sweep } else { sweep_ms(pre, 1) },
        spectrum_cold_ms: spectrum_cold_ms(pre, params),
        spectrum_warm_empty_ms: spectrum_warm_ms(pre, &[], params),
    }
}

/// What an Exact commit's replayed parts add up to: trace, full sweep and
/// cold spectrum on the state the commit produced.
pub fn replay_exact_commit_ms(post: &Precomputed, params: &CtBusParams, threads: usize) -> f64 {
    trace_ms(post) + sweep_ms(post, threads) + spectrum_cold_ms(post, params)
}

/// Mean microseconds of one online SLQ increment, scored on the route
/// prefixes of `plans` (the paths ETA scores as it grows a route).
pub fn scorer_increment_us(pre: &Precomputed, plans: &[RoutePlan], reps: usize) -> f64 {
    let mut overlay = EdgeOverlay::empty(&pre.base_adj);
    let mut ws = LanczosWorkspace::new();
    let prefixes: Vec<&[(u32, u32)]> = plans
        .iter()
        .flat_map(|p| (1..=p.new_stop_pairs.len()).map(move |i| &p.new_stop_pairs[..i]))
        .collect();
    if prefixes.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    for _ in 0..reps {
        for pairs in &prefixes {
            black_box(online_increment_in(
                &pre.estimator,
                pre.base_trace,
                &mut overlay,
                &mut ws,
                pairs,
            ));
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / (reps * prefixes.len()) as f64
}
