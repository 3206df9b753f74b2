//! Transfer-convenience metrics (paper §7.2.2, Table 6).
//!
//! For the commuters along the new route — every ordered stop pair `(O, D)`
//! on `μ` — the paper reports:
//!
//! * **transfers avoided**: how many transfers the trip needed in the *old*
//!   network (the new route makes it direct);
//! * **distance ratio ζ(μ)** (Eq. 13): old-network shortest travel distance
//!   over new-network distance, averaged over pairs — always ≥ 1;
//! * **crossed routes**: how many existing routes share a stop with `μ`,
//!   i.e. how many transfer opportunities the new route creates.

use ct_data::City;
use ct_graph::{dijkstra_all, TransferIndex, TransitNetwork};
use serde::{Deserialize, Serialize};

use crate::candidates::CandidateSet;
use crate::plan::RoutePlan;

/// Table 6-style metrics for one plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanMetrics {
    /// Average transfers needed in the old network over OD pairs on `μ`
    /// (all become direct rides on the new route).
    pub transfers_avoided: f64,
    /// OD pairs on `μ` that were *disconnected* in the old network (they
    /// gain service outright and are excluded from the averages).
    pub newly_connected_pairs: usize,
    /// ζ(μ): average old/new shortest-distance ratio (Eq. 13), ≥ 1.
    pub distance_ratio: f64,
    /// Existing routes sharing at least one stop with `μ`.
    pub crossed_routes: usize,
    /// Edges on the plan.
    pub num_edges: usize,
    /// New edges on the plan.
    pub num_new_edges: usize,
}

/// Materializes a plan as a new transit network (`G'r`): the plan's stop
/// sequence becomes a route, its new stop pairs become transit edges with
/// the candidate geometry.
pub fn apply_plan(
    transit: &TransitNetwork,
    plan: &RoutePlan,
    cands: &CandidateSet,
) -> TransitNetwork {
    if plan.is_empty() {
        return transit.clone();
    }
    let lookup = cands.pair_lookup();
    transit.with_route_added(&plan.stops, |u, v| {
        let id =
            lookup.get(&(u.min(v), u.max(v))).expect("plan edges come from the candidate pool");
        let e = cands.edge(*id);
        (e.length_m, e.road_edges.clone())
    })
}

/// Computes the Table 6 metrics of a plan against its city.
pub fn evaluate_plan(city: &City, plan: &RoutePlan, cands: &CandidateSet) -> PlanMetrics {
    let old = &city.transit;
    let new = apply_plan(old, plan, cands);
    let stops = &plan.stops;

    // Transfers needed in the old network.
    let idx = TransferIndex::new(old);
    let mut transfer_sum = 0u64;
    let mut transfer_pairs = 0usize;
    let mut newly_connected = 0usize;
    for (i, &o) in stops.iter().enumerate() {
        for &d in &stops[i + 1..] {
            match idx.min_transfers(o, d) {
                Some(t) => {
                    transfer_sum += t as u64;
                    transfer_pairs += 1;
                }
                None => newly_connected += 1,
            }
        }
    }
    let transfers_avoided =
        if transfer_pairs > 0 { transfer_sum as f64 / transfer_pairs as f64 } else { 0.0 };

    // ζ(μ): one Dijkstra per stop on each network.
    let mut ratio_sum = 0.0;
    let mut ratio_pairs = 0usize;
    for &o in stops {
        let d_old = dijkstra_all(old, o);
        let d_new = dijkstra_all(&new, o);
        for &t in stops {
            if t == o {
                continue;
            }
            let (od, nd) = (d_old[t as usize], d_new[t as usize]);
            if od.is_finite() && nd.is_finite() && nd > 0.0 {
                ratio_sum += od / nd;
                ratio_pairs += 1;
            }
        }
    }
    let distance_ratio = if ratio_pairs > 0 { ratio_sum / ratio_pairs as f64 } else { 1.0 };

    // Crossed routes: existing routes sharing a stop with μ.
    let on_plan: std::collections::HashSet<u32> = stops.iter().copied().collect();
    let crossed_routes =
        old.routes().iter().filter(|r| r.stops.iter().any(|s| on_plan.contains(s))).count();

    PlanMetrics {
        transfers_avoided,
        newly_connected_pairs: newly_connected,
        distance_ratio,
        crossed_routes,
        num_edges: plan.num_edges(),
        num_new_edges: plan.num_new_edges(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eta::{Planner, PlannerMode};
    use crate::params::CtBusParams;
    use ct_data::{CityConfig, DemandModel};

    fn planned() -> (City, CtBusParams, RoutePlan, CandidateSet) {
        let city = CityConfig::small().seed(33).generate();
        let demand = DemandModel::from_city(&city);
        let params = CtBusParams::small_defaults();
        let planner = Planner::new(&city, &demand, params);
        let res = planner.run(PlannerMode::EtaPre);
        let cands = (*planner.precomputed().candidates).clone();
        (city, params, res.best, cands)
    }

    #[test]
    fn apply_plan_grows_network() {
        let (city, _, plan, cands) = planned();
        assert!(!plan.is_empty());
        let new = apply_plan(&city.transit, &plan, &cands);
        assert_eq!(new.num_routes(), city.transit.num_routes() + 1);
        assert_eq!(new.num_edges(), city.transit.num_edges() + plan.num_new_edges());
        assert_eq!(new.num_stops(), city.transit.num_stops(), "no new stops, ever");
    }

    #[test]
    fn metrics_are_sane() {
        let (city, _, plan, cands) = planned();
        let m = evaluate_plan(&city, &plan, &cands);
        assert!(m.distance_ratio >= 1.0 - 1e-9, "ζ must be ≥ 1, got {}", m.distance_ratio);
        assert!(m.transfers_avoided >= 0.0);
        assert!(m.crossed_routes <= city.transit.num_routes());
        assert_eq!(m.num_edges, plan.num_edges());
        assert_eq!(m.num_new_edges, plan.num_new_edges());
    }

    #[test]
    fn empty_plan_is_identity() {
        let city = CityConfig::small().seed(33).generate();
        let demand = DemandModel::from_city(&city);
        let cands = CandidateSet::build(&city, &demand, 450.0, 6.0);
        let plan = RoutePlan::empty();
        let new = apply_plan(&city.transit, &plan, &cands);
        assert_eq!(new.num_routes(), city.transit.num_routes());
        assert_eq!(new.num_edges(), city.transit.num_edges());
    }

    #[test]
    fn connectivity_weighted_plan_crosses_routes() {
        // A w=0.5 route should connect to at least one existing route
        // (otherwise it is an island and adds little connectivity).
        let (city, _, plan, cands) = planned();
        let m = evaluate_plan(&city, &plan, &cands);
        assert!(m.crossed_routes >= 1, "plan crosses no existing routes");
    }
}
