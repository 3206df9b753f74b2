//! A complete dataset: road network + transit network + trajectories.

use std::sync::Arc;

use ct_graph::{RoadNetwork, TransitNetwork};
use serde::{Deserialize, Serialize};

use crate::trajectory::Trajectory;

/// Everything CT-Bus needs about one city.
///
/// The struct is **copy-on-write friendly**: the road network and the
/// trajectory corpus — the two heavyweight, effectively immutable layers —
/// sit behind [`Arc`]s, so `City::clone` shares them and only the (small,
/// evolving) transit network is deep-copied. Long-lived scenario engines
/// (`ct_core`'s planning sessions) rely on this: committing a planned route
/// replaces `transit` without ever duplicating roads or trajectories.
/// Thanks to deref coercion, read access is unchanged (`&city.road` still
/// yields a `&RoadNetwork`); the rare mutation of a shared layer goes
/// through [`Arc::make_mut`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct City {
    /// Human-readable dataset name (e.g. `"chicago-like"`).
    pub name: String,
    /// The road network `G` (shared, never deep-copied by `clone`).
    pub road: Arc<RoadNetwork>,
    /// The transit network `Gr` (the evolving layer; deep-copied).
    pub transit: TransitNetwork,
    /// The trajectory corpus `D` (shared, never deep-copied by `clone`).
    pub trajectories: Arc<Vec<Trajectory>>,
}

/// Dataset statistics in the shape of the paper's Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CityStats {
    /// `|R|`: number of bus routes.
    pub routes: usize,
    /// `len(R)`: average number of stops per route.
    pub avg_route_len: f64,
    /// `|V|`: road vertices.
    pub road_nodes: usize,
    /// `|Vr|`: bus stops.
    pub stops: usize,
    /// `|E|`: road edges.
    pub road_edges: usize,
    /// `|Er|`: transit edges.
    pub transit_edges: usize,
    /// `|D|`: trajectories.
    pub trajectories: usize,
}

impl City {
    /// Assembles a city, wrapping the shared layers in their [`Arc`]s.
    pub fn new(
        name: impl Into<String>,
        road: RoadNetwork,
        transit: TransitNetwork,
        trajectories: Vec<Trajectory>,
    ) -> City {
        City {
            name: name.into(),
            road: Arc::new(road),
            transit,
            trajectories: Arc::new(trajectories),
        }
    }

    /// A copy of this city with the transit network replaced — the
    /// copy-on-write "commit" primitive: roads and trajectories are shared
    /// with `self`, never cloned.
    pub fn with_transit(&self, transit: TransitNetwork) -> City {
        City {
            name: self.name.clone(),
            road: Arc::clone(&self.road),
            transit,
            trajectories: Arc::clone(&self.trajectories),
        }
    }

    /// Table 5-style statistics.
    pub fn stats(&self) -> CityStats {
        CityStats {
            routes: self.transit.num_routes(),
            avg_route_len: self.transit.avg_route_len(),
            road_nodes: self.road.num_nodes(),
            stops: self.transit.num_stops(),
            road_edges: self.road.num_edges(),
            transit_edges: self.transit.num_edges(),
            trajectories: self.trajectories.len(),
        }
    }

    /// Sanity checks on the road and transit networks and tying the three
    /// layers together; returns human-readable problems (empty =
    /// consistent).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = self.road.validate();
        problems.extend(self.transit.validate());
        for (i, s) in self.transit.stops().iter().enumerate() {
            if (s.road_node as usize) >= self.road.num_nodes() {
                problems.push(format!("stop {i} sits on unknown road node {}", s.road_node));
            }
        }
        for (i, e) in self.transit.edges().iter().enumerate() {
            for &re in &e.road_edges {
                if (re as usize) >= self.road.num_edges() {
                    problems.push(format!("transit edge {i} references unknown road edge {re}"));
                }
            }
        }
        for (i, t) in self.trajectories.iter().enumerate() {
            if !t.is_consistent(&self.road) {
                problems.push(format!("trajectory {i} is not a connected road path"));
                if problems.len() > 20 {
                    break;
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_graph::{RoadEdge, TransitNetworkBuilder};
    use ct_spatial::Point;

    fn tiny_city() -> City {
        let positions: Vec<Point> = (0..4).map(|i| Point::new(i as f64 * 100.0, 0.0)).collect();
        let road_edges: Vec<RoadEdge> =
            (0..3).map(|i| RoadEdge { u: i, v: i + 1, length: 100.0 }).collect();
        let road = RoadNetwork::new(positions.clone(), road_edges);
        let mut b = TransitNetworkBuilder::new();
        let s0 = b.add_stop(0, positions[0]);
        let s1 = b.add_stop(2, positions[2]);
        b.add_route(&[s0, s1], |_, _| (200.0, vec![0, 1]));
        City::new("tiny", road, b.build(), vec![Trajectory::new(vec![0, 1, 2], vec![0, 1])])
    }

    #[test]
    fn stats_reflect_structure() {
        let c = tiny_city();
        let s = c.stats();
        assert_eq!(s.routes, 1);
        assert_eq!(s.road_nodes, 4);
        assert_eq!(s.stops, 2);
        assert_eq!(s.transit_edges, 1);
        assert_eq!(s.trajectories, 1);
        assert_eq!(s.avg_route_len, 2.0);
    }

    #[test]
    fn valid_city_has_no_problems() {
        assert!(tiny_city().validate().is_empty());
    }

    #[test]
    fn broken_trajectory_is_reported() {
        let mut c = tiny_city();
        Arc::make_mut(&mut c.trajectories).push(Trajectory { nodes: vec![0, 3], edges: vec![0] });
        let problems = c.validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("trajectory"));
    }

    #[test]
    fn clone_shares_road_and_trajectories() {
        // The copy-on-write contract: cloning a city must not deep-copy
        // the heavyweight shared layers.
        let a = tiny_city();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.road, &b.road), "clone deep-copied the road network");
        assert!(Arc::ptr_eq(&a.trajectories, &b.trajectories), "clone deep-copied trajectories");
        let c = a.with_transit(a.transit.clone());
        assert!(Arc::ptr_eq(&a.road, &c.road));
        assert!(Arc::ptr_eq(&a.trajectories, &c.trajectories));
    }
}
