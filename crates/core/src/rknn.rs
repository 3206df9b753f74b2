//! RkNNT demand estimation (paper ref \[57\]).
//!
//! Wang et al.'s *Reverse k Nearest Neighbors over Trajectories* is the
//! established alternative to CT-Bus's edge-overlap demand (Eq. 2): a
//! trajectory `T` supports a route `R` when `R` ranks among `T`'s `k`
//! best-serving routes, where "serving" means the commuter can board near
//! their origin and alight near their destination. The demand a new route
//! captures is then `|RkNNT(R)| = #{T : R ∈ kNN(T)}`.
//!
//! This module implements the measure so the two demand notions can be
//! compared (`ext_rknn` experiment): routes that maximize Eq. 2 should
//! also capture many reverse-kNN trajectories — they are surrogates for
//! the same ridership.
//!
//! Simplifications vs \[57\] (which builds disk-based R-tree indexes for
//! million-trajectory corpora): distances are Euclidean walking distances
//! to stops with a hard access cutoff, and the scan is in-memory over the
//! corpus — faithful semantics at our reproduction scale.

use ct_data::City;
use ct_spatial::{GridIndex, Point};
use serde::{Deserialize, Serialize};

/// Parameters of the RkNNT demand measure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RknnParams {
    /// The `k` in reverse-k-nearest-neighbors: a trajectory supports a
    /// route ranked within its `k` best.
    pub k: usize,
    /// Maximum walking distance from trip endpoints to a stop, meters;
    /// beyond it a route cannot serve the trip at all.
    pub max_walk_m: f64,
}

impl Default for RknnParams {
    fn default() -> Self {
        RknnParams { k: 2, max_walk_m: 500.0 }
    }
}

/// How well one route serves one trip: total origin+destination walking
/// distance to two *distinct* stops of the route, or `None` if either leg
/// exceeds the walking cutoff (or the route has fewer than two stops).
pub fn route_service_distance(
    origin: &Point,
    destination: &Point,
    route_stops: &[Point],
    max_walk_m: f64,
) -> Option<f64> {
    if route_stops.len() < 2 {
        return None;
    }
    // Best and second-best stop per endpoint; distinctness is then
    // resolvable without the O(|stops|²) pair scan.
    let two_best = |p: &Point| -> [(usize, f64); 2] {
        let mut best = [(usize::MAX, f64::INFINITY); 2];
        for (i, s) in route_stops.iter().enumerate() {
            let d = p.dist(s);
            if d < best[0].1 {
                best[1] = best[0];
                best[0] = (i, d);
            } else if d < best[1].1 {
                best[1] = (i, d);
            }
        }
        best
    };
    let bo = two_best(origin);
    let bd = two_best(destination);
    let mut best: Option<f64> = None;
    for &(oi, od) in &bo {
        for &(di, dd) in &bd {
            if oi == di || oi == usize::MAX || di == usize::MAX {
                continue;
            }
            if od > max_walk_m || dd > max_walk_m {
                continue;
            }
            let total = od + dd;
            if best.is_none_or(|b| total < b) {
                best = Some(total);
            }
        }
    }
    best
}

/// Per-trajectory assignment produced by [`rknn_demand`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RknnDemand {
    /// Trajectories for which the query route ranks within the top `k`.
    pub supporters: usize,
    /// Trajectories the route can serve at all (both walks ≤ cutoff).
    pub reachable: usize,
    /// Trajectories in the corpus with usable endpoints.
    pub total: usize,
}

/// Counts the reverse-k-nearest trajectories of a candidate route.
///
/// The candidate is a stop-position sequence (use
/// [`crate::RoutePlan::stops`] mapped through the transit network); it
/// competes against every *existing* route in `city`. A trajectory
/// supports the candidate when the candidate's service distance is within
/// the `k` smallest among {candidate} ∪ existing routes (ties favor the
/// candidate, matching \[57\]'s ≤ semantics).
///
/// ```
/// use ct_core::rknn::{rknn_demand, RknnParams};
/// let city = ct_data::CityConfig::small().seed(4).generate();
/// // Query an existing route's own geometry: it competes with itself at
/// // distance parity, so it always ranks first for the trips it serves.
/// let stops: Vec<_> = city.transit.route(0).stops.iter()
///     .map(|&s| city.transit.stop(s).pos)
///     .collect();
/// let d = rknn_demand(&city, &stops, &RknnParams::default());
/// assert!(d.supporters >= d.reachable.min(1));
/// assert!(d.supporters <= d.total);
/// ```
pub fn rknn_demand(city: &City, candidate_stops: &[Point], params: &RknnParams) -> RknnDemand {
    assert!(params.k >= 1, "k must be at least 1");
    assert!(params.max_walk_m > 0.0, "walking cutoff must be positive");
    let transit = &city.transit;
    let road = &city.road;

    // Existing routes as stop-position lists.
    let existing: Vec<Vec<Point>> = transit
        .routes()
        .iter()
        .map(|r| r.stops.iter().map(|&s| transit.stop(s).pos).collect())
        .collect();

    // Only routes with a stop near an endpoint can serve it: prefilter the
    // candidate route set per endpoint with a grid over all stops.
    let stop_positions: Vec<Point> = transit.stops().iter().map(|s| s.pos).collect();
    let stop_routes = transit.routes_per_stop();
    let grid = GridIndex::build(params.max_walk_m.max(1.0), &stop_positions);

    let mut out = RknnDemand::default();
    for traj in city.trajectories.iter() {
        let (Some(o), Some(d)) = (traj.origin(), traj.destination()) else { continue };
        let origin = road.position(o);
        let dest = road.position(d);
        out.total += 1;

        let cand_dist = route_service_distance(&origin, &dest, candidate_stops, params.max_walk_m);
        let Some(cand_dist) = cand_dist else { continue };
        out.reachable += 1;

        // Routes with at least one stop within walking range of both
        // endpoints are the only possible competitors.
        let mut near_origin: Vec<u32> = Vec::new();
        grid.for_each_within(&origin, params.max_walk_m, |s| {
            near_origin.extend_from_slice(&stop_routes[s as usize]);
        });
        near_origin.sort_unstable();
        near_origin.dedup();
        let mut competitors: Vec<u32> = Vec::new();
        grid.for_each_within(&dest, params.max_walk_m, |s| {
            for &r in &stop_routes[s as usize] {
                if near_origin.binary_search(&r).is_ok() {
                    competitors.push(r);
                }
            }
        });
        competitors.sort_unstable();
        competitors.dedup();

        // Rank: count existing routes strictly better than the candidate.
        let better = competitors
            .iter()
            .filter_map(|&r| {
                route_service_distance(&origin, &dest, &existing[r as usize], params.max_walk_m)
            })
            .filter(|&dist| dist < cand_dist)
            .count();
        if better < params.k {
            out.supporters += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_data::CityConfig;

    #[test]
    fn service_distance_requires_two_distinct_stops() {
        let stops = vec![Point::new(0.0, 0.0), Point::new(1000.0, 0.0)];
        let o = Point::new(10.0, 0.0);
        let d = Point::new(990.0, 0.0);
        let dist = route_service_distance(&o, &d, &stops, 500.0).unwrap();
        assert!((dist - 20.0).abs() < 1e-9);
        // Same nearest stop for both endpoints: must fall back to the
        // second-best on one side, not serve via a single stop.
        let both_near_first =
            route_service_distance(&Point::new(10.0, 0.0), &Point::new(20.0, 0.0), &stops, 500.0);
        assert!(both_near_first.is_none(), "1 km walk exceeds the cutoff");
    }

    #[test]
    fn service_distance_cutoff_and_degenerate_routes() {
        let stops = vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)];
        let far = Point::new(5000.0, 0.0);
        let near = Point::new(5.0, 0.0);
        assert!(route_service_distance(&near, &far, &stops, 500.0).is_none());
        assert!(route_service_distance(&near, &far, &stops[..1], 1e9).is_none());
        assert!(route_service_distance(&near, &far, &[], 1e9).is_none());
    }

    #[test]
    fn supporters_grow_with_k_and_walk_radius() {
        let city = CityConfig::small().seed(6).generate();
        let stops: Vec<Point> =
            city.transit.route(0).stops.iter().map(|&s| city.transit.stop(s).pos).collect();
        let base = rknn_demand(&city, &stops, &RknnParams { k: 1, max_walk_m: 400.0 });
        let more_k = rknn_demand(&city, &stops, &RknnParams { k: 3, max_walk_m: 400.0 });
        let more_walk = rknn_demand(&city, &stops, &RknnParams { k: 1, max_walk_m: 800.0 });
        assert!(more_k.supporters >= base.supporters, "k must be monotone");
        assert!(more_walk.reachable >= base.reachable, "radius must be monotone");
        assert!(base.supporters <= base.reachable);
        assert!(base.reachable <= base.total);
        assert_eq!(base.total, city.trajectories.len());
    }

    #[test]
    fn unreachable_candidate_captures_nothing() {
        let city = CityConfig::small().seed(6).generate();
        // A route far outside the city.
        let stops = vec![Point::new(1e7, 1e7), Point::new(1e7 + 400.0, 1e7)];
        let d = rknn_demand(&city, &stops, &RknnParams::default());
        assert_eq!(d.supporters, 0);
        assert_eq!(d.reachable, 0);
        assert!(d.total > 0);
    }

    #[test]
    fn dominant_route_captures_served_trips_at_k1() {
        // A candidate placed exactly on a trajectory's endpoints beats any
        // existing route for that trip (distance ~0 each side).
        let city = CityConfig::small().seed(6).generate();
        let t = city.trajectories.iter().find(|t| t.len() >= 3).expect("a usable trajectory");
        let o = city.road.position(t.origin().unwrap());
        let d = city.road.position(t.destination().unwrap());
        let stops = vec![o, d];
        let res = rknn_demand(&city, &stops, &RknnParams { k: 1, max_walk_m: 500.0 });
        assert!(res.supporters >= 1, "the on-top trip must support the candidate");
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let city = CityConfig::small().seed(6).generate();
        rknn_demand(&city, &[], &RknnParams { k: 0, max_walk_m: 100.0 });
    }
}
