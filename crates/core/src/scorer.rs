//! Online connectivity scoring for the planner.
//!
//! The planner asks one question over and over: *by how much does this set
//! of new edges raise the network's natural connectivity?* The online
//! modes answer it with stochastic Lanczos quadrature under frozen probes
//! (the paper's "ETA" with §5 acceleration); the pre-computed modes sum
//! the §6 per-edge increments `Δ(e)` instead ("ETA-Pre").

use ct_linalg::{ConnectivityEstimator, EdgeOverlay, LanczosWorkspace};

/// The online (paired-probe SLQ) connectivity increment for the new stop
/// pairs `pairs`, scored through caller-owned scratch.
///
/// Every online score goes through here, from the parallel ETA engine's
/// per-worker contexts to the final re-score of a plan: the overlay view
/// scores the augmented network without rebuilding the CSR (bit-identical
/// to materializing), and the overlay/workspace buffers are reused across
/// paths, so steady-state scoring performs no heap allocations. The result
/// is a pure function of `pairs` and the estimator's frozen probes —
/// caller-owned scratch is what makes the engine's output independent of
/// which worker scored which path.
pub fn online_increment_in(
    est: &ConnectivityEstimator,
    base_trace: f64,
    overlay: &mut EdgeOverlay<'_>,
    ws: &mut LanczosWorkspace,
    pairs: &[(u32, u32)],
) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    overlay.set_edges(pairs);
    match est.trace_exp_in(overlay, ws) {
        Ok(tr) => (tr.max(f64::MIN_POSITIVE) / base_trace).ln(),
        Err(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateSet;
    use ct_data::{CityConfig, DemandModel};
    use ct_linalg::natural_connectivity_exact;
    use ct_linalg::trace::TraceParams;

    #[test]
    fn exact_and_online_agree_on_small_city() {
        let city = CityConfig::small().seed(5).generate();
        let demand = DemandModel::from_city(&city);
        let cands = CandidateSet::build(&city, &demand, 450.0, 6.0);
        let base = city.transit.adjacency_matrix();
        let base_lambda = natural_connectivity_exact(&base).unwrap();

        let params = TraceParams { probes: 40, lanczos_steps: 12 };
        let est = ConnectivityEstimator::new(base.n(), &params, 1);
        let base_trace = est.trace_exp(&base).unwrap();

        // A few new candidates as a pseudo-path.
        let new_ids: Vec<u32> =
            (0..cands.len() as u32).filter(|&i| !cands.edge(i).existing).take(4).collect();
        assert!(!new_ids.is_empty());
        let pairs = cands.new_stop_pairs(&new_ids);
        let augmented = base.with_added_unit_edges(&pairs);
        let e = natural_connectivity_exact(&augmented).unwrap() - base_lambda;
        let mut overlay = EdgeOverlay::empty(&base);
        let mut ws = LanczosWorkspace::new();
        let o = online_increment_in(&est, base_trace, &mut overlay, &mut ws, &pairs);
        assert!(e > 0.0);
        assert!((e - o).abs() < 0.5 * e + 1e-4, "exact {e} vs online {o}");
    }

    #[test]
    fn existing_edges_contribute_nothing() {
        let city = CityConfig::small().seed(5).generate();
        let demand = DemandModel::from_city(&city);
        let cands = CandidateSet::build(&city, &demand, 450.0, 6.0);
        let base = city.transit.adjacency_matrix();
        let est = ConnectivityEstimator::new(base.n(), &TraceParams::default(), 1);
        let base_trace = est.trace_exp(&base).unwrap();
        let existing: Vec<u32> =
            (0..cands.len() as u32).filter(|&i| cands.edge(i).existing).take(3).collect();
        assert!(!existing.is_empty());
        let pairs = cands.new_stop_pairs(&existing);
        assert!(pairs.is_empty());
        let mut overlay = EdgeOverlay::empty(&base);
        let mut ws = LanczosWorkspace::new();
        assert_eq!(online_increment_in(&est, base_trace, &mut overlay, &mut ws, &pairs), 0.0);
    }
}
