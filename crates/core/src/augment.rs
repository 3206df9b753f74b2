//! Bound-guided connectivity augmentation (paper §8, future work).
//!
//! > "In future, we will ... use our derived upper bounds to solve
//! > existing and new network connectivity optimization problems \[22, 23\]."
//!
//! The \[22\] problem adds `k` discrete edges maximizing natural
//! connectivity; the plain greedy
//! ([`crate::connectivity_first_edges_with_threads`])
//! re-estimates `tr(e^{A+E})` for *every* candidate in *every* round —
//! each estimate costing `probes × Lanczos` solves. This module prunes
//! that scan with a per-edge **Golden–Thompson upper bound**: for a single
//! added edge `E = e_u e_vᵀ + e_v e_uᵀ`,
//!
//! ```text
//! tr(e^{A+E}) ≤ tr(e^A e^E)
//!            = tr(e^A) + (cosh 1 − 1)·[(e^A)_{uu} + (e^A)_{vv}]
//!                      + 2 sinh 1 · (e^A)_{uv}
//! ```
//!
//! (`e^E` is the identity plus a rank-2 update on `span{e_u ± e_v}` with
//! eigenvalues `e^{±1}`.) The bound needs only the columns `e^A e_u` of the
//! *current* matrix — one Lanczos solve per touched stop per round, shared
//! across all candidate edges at that stop — after which candidates are
//! scanned in bound order and the expensive stochastic estimate stops as
//! soon as the next bound cannot beat the best exact gain found.
//!
//! The same perturbation quantities `(e^A)_{uu}, (e^A)_{uv}` are the
//! paper's other future-work item ("update the connectivity efficiently in
//! the pre-computation stage based on perturbation theory"), already used
//! by [`crate::precompute::DeltaMethod::Perturbation`].

use std::collections::HashMap;

use ct_linalg::lanczos::expm_column_in;
use ct_linalg::{CsrMatrix, EdgeOverlay, LanczosWorkspace};
use serde::{Deserialize, Serialize};

use crate::precompute::Precomputed;

/// How marginal gains are evaluated.
///
/// Per-edge increments are tiny (~10⁻⁴ relative), so under
/// [`AugmentEval::Estimator`] the scan's argmax is partly noise-driven:
/// the pruned and exhaustive scans may then pick different edges of
/// statistically indistinguishable quality. Under [`AugmentEval::Exact`]
/// gains are deterministic and pruning provably preserves the greedy's
/// picks (the bound dominates every true gain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AugmentEval {
    /// Shared frozen-probe stochastic estimator (fast; city scale).
    #[default]
    Estimator,
    /// Full eigendecomposition per evaluation (O(n³); small networks and
    /// correctness tests).
    Exact,
}

/// Parameters for the augmentation solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AugmentParams {
    /// Number of edges to add.
    pub k: usize,
    /// Candidate pool: the `pool_size` new edges with the largest
    /// pre-computed `Δ(e)` (same pruning as the \[22\] baseline).
    pub pool_size: usize,
    /// Enable Golden–Thompson pruning (`false` = plain greedy scan).
    pub use_bound: bool,
    /// How to evaluate true gains.
    pub eval: AugmentEval,
    /// Lanczos steps for the `e^A e_u` column solves.
    pub lanczos_steps: usize,
    /// Safety margin on the prune: a candidate is skipped only when
    /// `bound·(1+margin) < best gain so far`, absorbing stochastic noise
    /// in estimator-mode gains (the bound itself is deterministic).
    pub margin: f64,
}

impl Default for AugmentParams {
    fn default() -> Self {
        AugmentParams {
            k: 10,
            pool_size: 60,
            use_bound: true,
            eval: AugmentEval::Estimator,
            lanczos_steps: 12,
            margin: 0.1,
        }
    }
}

/// Work counters for the ablation (bound on/off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AugmentStats {
    /// Stochastic trace estimates on augmented matrices (the expensive op).
    pub exact_evaluations: usize,
    /// Candidates skipped thanks to the bound.
    pub pruned: usize,
    /// Lanczos column solves performed for bounds.
    pub column_solves: usize,
    /// Rounds completed.
    pub rounds: usize,
}

/// The outcome of one augmentation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AugmentResult {
    /// Chosen candidate ids in pick order.
    pub edges: Vec<u32>,
    /// `λ(Gr)` before any addition.
    pub lambda_before: f64,
    /// `λ(G'r)` after all additions (under the shared frozen probes).
    pub lambda_after: f64,
    /// Marginal gain of each round's pick.
    pub gains: Vec<f64>,
    /// Work counters.
    pub stats: AugmentStats,
}

/// Golden–Thompson upper bound on the trace increase of adding one
/// unweighted edge `(u, v)`, from the columns of `e^A`.
///
/// `col_u` must be `e^A e_u` (and symmetrically `col_v`); both must come
/// from the same matrix.
pub fn golden_thompson_edge_bound(col_u: &[f64], col_v: &[f64], u: usize, v: usize) -> f64 {
    let cosh1_m1 = 1.0_f64.cosh() - 1.0;
    let sinh1 = 1.0_f64.sinh();
    // (e^A)_{uv} is symmetric; average the two column reads for stability.
    let cross = 0.5 * (col_u[v] + col_v[u]);
    cosh1_m1 * (col_u[u] + col_v[v]) + 2.0 * sinh1 * cross
}

/// Greedily adds `params.k` new edges maximizing natural connectivity,
/// optionally pruning each round's scan with the Golden–Thompson bound.
///
/// The pruned and exhaustive scans pay for very different numbers of full
/// gain evaluations (see [`AugmentStats`]); under [`AugmentEval::Exact`]
/// they provably return the same edges, under [`AugmentEval::Estimator`]
/// they agree up to estimator noise (see [`AugmentEval`]).
///
/// ```
/// use ct_core::{augment_connectivity, AugmentParams, CtBusParams, Precomputed};
/// use ct_data::{CityConfig, DemandModel};
/// let city = CityConfig::small().seed(2).generate();
/// let demand = DemandModel::from_city(&city);
/// let pre = Precomputed::build(&city, &demand, &CtBusParams::small_defaults());
/// let result = augment_connectivity(&pre, &AugmentParams { k: 3, ..Default::default() });
/// assert_eq!(result.edges.len(), 3);
/// assert!(result.lambda_after > result.lambda_before);
/// ```
pub fn augment_connectivity(pre: &Precomputed, params: &AugmentParams) -> AugmentResult {
    assert!(params.margin >= 0.0, "margin must be non-negative, got {}", params.margin);
    let pool: Vec<u32> = pre
        .llambda
        .iter_desc()
        .filter(|&id| !pre.candidates.edge(id).existing)
        .take(params.pool_size.max(params.k * 4))
        .collect();

    let n = pre.base_adj.n() as f64;
    let trace_of = |m: &CsrMatrix| -> Option<f64> {
        match params.eval {
            AugmentEval::Estimator => pre.estimator.trace_exp(m).ok(),
            AugmentEval::Exact => {
                ct_linalg::natural_connectivity_exact(m).ok().map(|l| n * l.exp())
            }
        }
    };

    let mut current: CsrMatrix = pre.base_adj.clone();
    let mut current_trace = match params.eval {
        AugmentEval::Estimator => pre.base_trace.max(f64::MIN_POSITIVE),
        AugmentEval::Exact => trace_of(&pre.base_adj).expect("exact trace of base"),
    };
    let lambda_before = (current_trace / current.n() as f64).ln();

    let mut stats = AugmentStats::default();
    let mut chosen: Vec<u32> = Vec::new();
    let mut gains: Vec<f64> = Vec::new();
    // One Lanczos workspace serves every column solve and every estimator
    // trace across all rounds; candidate matrices are overlay views, so the
    // only CSR materialization left is the once-per-round commit of a pick.
    let mut ws = LanczosWorkspace::new();
    let mut col = Vec::new();

    for _ in 0..params.k {
        // Rank candidates for this round.
        let mut ranked: Vec<(u32, f64)> = if params.use_bound {
            // One column solve per distinct stop touched by the pool.
            let mut columns: HashMap<u32, Vec<f64>> = HashMap::new();
            for &id in &pool {
                if chosen.contains(&id) {
                    continue;
                }
                let e = pre.candidates.edge(id);
                for s in [e.u, e.v] {
                    if let std::collections::hash_map::Entry::Vacant(entry) = columns.entry(s) {
                        if expm_column_in(
                            &current,
                            s as usize,
                            params.lanczos_steps,
                            &mut ws,
                            &mut col,
                        )
                        .is_ok()
                        {
                            entry.insert(col.clone());
                            stats.column_solves += 1;
                        }
                    }
                }
            }
            pool.iter()
                .filter(|id| !chosen.contains(id))
                .filter_map(|&id| {
                    let e = pre.candidates.edge(id);
                    let (cu, cv) = (columns.get(&e.u)?, columns.get(&e.v)?);
                    let dtr = golden_thompson_edge_bound(cu, cv, e.u as usize, e.v as usize);
                    // Bound on the λ gain of this single edge.
                    let bound = ((current_trace + dtr.max(0.0)) / current_trace).ln();
                    Some((id, bound))
                })
                .collect()
        } else {
            pool.iter().filter(|id| !chosen.contains(id)).map(|&id| (id, f64::INFINITY)).collect()
        };
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("bounds are not NaN"));

        // Scan in bound order; stop when the bound cannot beat the best.
        // Candidates are scored through an overlay of the current matrix
        // (no CSR rebuild; bit-identical to materializing).
        let mut overlay = EdgeOverlay::empty(&current);
        let mut best: Option<(u32, f64)> = None;
        for (rank, &(id, bound)) in ranked.iter().enumerate() {
            if let Some((_, best_gain)) = best {
                if params.use_bound && bound * (1.0 + params.margin) < best_gain {
                    stats.pruned += ranked.len() - rank;
                    break;
                }
            }
            let e = pre.candidates.edge(id);
            stats.exact_evaluations += 1;
            let tr = match params.eval {
                AugmentEval::Estimator => {
                    overlay.set_edges(&[(e.u, e.v)]);
                    pre.estimator.trace_exp_in(&overlay, &mut ws).ok()
                }
                AugmentEval::Exact => trace_of(&current.with_added_unit_edges(&[(e.u, e.v)])),
            };
            let Some(tr) = tr else { continue };
            let gain = (tr.max(f64::MIN_POSITIVE) / current_trace).ln();
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((id, gain));
            }
        }
        let Some((id, gain)) = best else { break };
        let e = pre.candidates.edge(id);
        current = current.with_added_unit_edges(&[(e.u, e.v)]);
        current_trace = trace_of(&current).unwrap_or(current_trace).max(f64::MIN_POSITIVE);
        chosen.push(id);
        gains.push(gain);
        stats.rounds += 1;
    }

    AugmentResult {
        edges: chosen,
        lambda_before,
        lambda_after: (current_trace / current.n() as f64).ln(),
        gains,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CtBusParams;
    use ct_data::{CityConfig, DemandModel};
    use ct_linalg::{lanczos_expv, natural_connectivity_exact};

    fn setup() -> Precomputed {
        let city = CityConfig::small().seed(44).generate();
        let demand = DemandModel::from_city(&city);
        Precomputed::build(&city, &demand, &CtBusParams::small_defaults())
    }

    #[test]
    fn golden_thompson_bound_dominates_true_increment() {
        // Exact check on a small transit graph: for every candidate edge,
        // tr(e^{A+E}) ≤ tr(e^A) + bound.
        let pre = setup();
        let adj = &pre.base_adj;
        let n = adj.n();
        let tr_exact = |m: &CsrMatrix| -> f64 {
            // λ = ln(tr/n) ⇒ tr = n e^λ.
            n as f64 * natural_connectivity_exact(m).expect("exact λ").exp()
        };
        let base_tr = tr_exact(adj);
        // Near-exact columns: as many Lanczos steps as the matrix is big.
        let col = |s: usize| -> Vec<f64> {
            let mut e_s = vec![0.0; n];
            e_s[s] = 1.0;
            lanczos_expv(adj, &e_s, n.min(60)).expect("column solve")
        };
        let mut checked = 0;
        for id in 0..pre.candidates.len() as u32 {
            let e = pre.candidates.edge(id);
            if e.existing {
                continue;
            }
            let (u, v) = (e.u as usize, e.v as usize);
            let bound = golden_thompson_edge_bound(&col(u), &col(v), u, v);
            let true_inc = tr_exact(&adj.with_added_unit_edges(&[(e.u, e.v)])) - base_tr;
            assert!(
                true_inc <= bound + 1e-6 * base_tr,
                "edge ({u},{v}): true {true_inc} > bound {bound}"
            );
            checked += 1;
            if checked >= 25 {
                break;
            }
        }
        assert!(checked >= 10, "too few candidates checked");
    }

    #[test]
    fn bound_and_plain_greedy_pick_the_same_edges_under_exact_eval() {
        let pre = setup();
        let base =
            AugmentParams { k: 5, pool_size: 40, eval: AugmentEval::Exact, ..Default::default() };
        let with_bound = augment_connectivity(&pre, &AugmentParams { use_bound: true, ..base });
        let without = augment_connectivity(&pre, &AugmentParams { use_bound: false, ..base });
        assert_eq!(with_bound.edges, without.edges, "pruning changed the greedy's picks");
        assert!((with_bound.lambda_after - without.lambda_after).abs() < 1e-9);
        // Every candidate in every round is either evaluated or pruned:
        // round r scans pool_len − r candidates.
        let scans: usize = (0..5).map(|r| 40 - r).sum();
        assert_eq!(with_bound.stats.exact_evaluations + with_bound.stats.pruned, scans);
        assert_eq!(without.stats.exact_evaluations, scans);
        assert!(with_bound.stats.exact_evaluations < scans, "no pruning happened");
    }

    #[test]
    fn estimator_mode_matches_exact_quality() {
        // Under stochastic gains the pruned scan may pick different edges
        // than the exhaustive one, but the achieved connectivity must be
        // statistically equivalent to the exact greedy's. Both picks are
        // re-scored with the exact eigendecomposition: the estimator run's
        // own λ readings carry selection-biased probe noise (each round
        // picks the gain its frozen probes most inflate), which would
        // otherwise masquerade as achieved quality.
        let pre = setup();
        let est = augment_connectivity(
            &pre,
            &AugmentParams { k: 5, pool_size: 40, use_bound: true, ..Default::default() },
        );
        let exact = augment_connectivity(
            &pre,
            &AugmentParams {
                k: 5,
                pool_size: 40,
                use_bound: false,
                eval: AugmentEval::Exact,
                ..Default::default()
            },
        );
        let exact_lambda_of = |edges: &[u32]| {
            let pairs: Vec<(u32, u32)> = edges
                .iter()
                .map(|&id| {
                    let e = pre.candidates.edge(id);
                    (e.u, e.v)
                })
                .collect();
            natural_connectivity_exact(&pre.base_adj.with_added_unit_edges(&pairs))
                .expect("exact λ of augmented network")
        };
        let base = natural_connectivity_exact(&pre.base_adj).expect("exact λ of base");
        let est_total = exact_lambda_of(&est.edges) - base;
        let exact_total = exact_lambda_of(&exact.edges) - base;
        assert!(est_total > 0.0 && exact_total > 0.0);
        assert!(
            (est_total - exact_total).abs() < 0.5 * exact_total,
            "estimator-mode augmentation far from exact greedy: {est_total} vs {exact_total}"
        );
    }

    #[test]
    fn bound_saves_exact_evaluations() {
        let pre = setup();
        let base = AugmentParams { k: 5, pool_size: 40, ..Default::default() };
        let with_bound = augment_connectivity(&pre, &AugmentParams { use_bound: true, ..base });
        let without = augment_connectivity(&pre, &AugmentParams { use_bound: false, ..base });
        assert!(
            with_bound.stats.exact_evaluations < without.stats.exact_evaluations,
            "bound saved nothing: {} vs {}",
            with_bound.stats.exact_evaluations,
            without.stats.exact_evaluations
        );
        assert!(with_bound.stats.pruned > 0);
        assert!(with_bound.stats.column_solves > 0);
        assert_eq!(without.stats.pruned, 0);
    }

    #[test]
    fn connectivity_increases_monotonically() {
        let pre = setup();
        let result = augment_connectivity(&pre, &AugmentParams { k: 6, ..Default::default() });
        assert_eq!(result.edges.len(), 6);
        assert!(result.lambda_after > result.lambda_before);
        for &g in &result.gains {
            // SLQ noise can make a tiny gain read slightly negative, but
            // picks should be clearly non-harmful.
            assert!(g > -1e-4, "negative marginal gain {g}");
        }
    }

    #[test]
    fn picks_are_distinct_new_edges() {
        let pre = setup();
        let result = augment_connectivity(&pre, &AugmentParams { k: 8, ..Default::default() });
        let mut ids = result.edges.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), result.edges.len(), "repeated edge");
        for &id in &result.edges {
            assert!(!pre.candidates.edge(id).existing);
        }
    }

    #[test]
    fn k_larger_than_pool_terminates() {
        let pre = setup();
        let params = AugmentParams { k: 10_000, pool_size: 12, ..Default::default() };
        let result = augment_connectivity(&pre, &params);
        assert!(result.edges.len() <= 12.max(10_000usize.min(pre.candidates.len())));
        assert!(result.stats.rounds == result.edges.len());
    }

    #[test]
    fn matches_baseline_connectivity_first() {
        // The plain mode reproduces the connectivity-first greedy.
        let pre = setup();
        let ours = augment_connectivity(
            &pre,
            &AugmentParams { k: 4, pool_size: 40, use_bound: false, ..Default::default() },
        );
        let baseline = crate::baselines::connectivity_first_edges_with_threads(&pre, 4, 40, 2);
        assert_eq!(ours.edges, baseline);
    }

    #[test]
    #[should_panic(expected = "margin must be non-negative")]
    fn negative_margin_panics() {
        let pre = setup();
        augment_connectivity(&pre, &AugmentParams { margin: -0.5, ..Default::default() });
    }
}
