//! The transit network `Gr = (Vr, Er)` (paper Definition 2).

use std::collections::HashMap;

use ct_linalg::CsrMatrix;
use ct_spatial::Point;
use serde::{Deserialize, Serialize};

/// A bus stop: a transit vertex affiliated with a road vertex.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Stop {
    /// The road node this stop sits on.
    pub road_node: u32,
    /// Projected position (duplicated from the road network for locality).
    pub pos: Point,
}

/// A transit edge: one hop between consecutive stops of some route,
/// realized as a path in the road network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransitEdge {
    /// One endpoint (stop id).
    pub u: u32,
    /// The other endpoint (stop id).
    pub v: u32,
    /// Travel length along the underlying road path, in meters.
    pub length: f64,
    /// Road edge ids traversed between the two stops.
    pub road_edges: Vec<u32>,
}

impl TransitEdge {
    /// The endpoint that is not `stop`.
    ///
    /// # Panics
    /// Panics if `stop` is not an endpoint.
    pub fn other(&self, stop: u32) -> u32 {
        if stop == self.u {
            self.v
        } else {
            assert_eq!(stop, self.v, "stop {stop} is not an endpoint");
            self.u
        }
    }
}

/// A bus route: an ordered sequence of stops whose consecutive pairs are
/// transit edges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Route {
    /// Ordered stop ids.
    pub stops: Vec<u32>,
}

impl Route {
    /// Number of stops on the route.
    pub fn len(&self) -> usize {
        self.stops.len()
    }

    /// Whether the route has no stops.
    pub fn is_empty(&self) -> bool {
        self.stops.is_empty()
    }
}

/// The transit network: stops, edges, routes, and adjacency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransitNetwork {
    stops: Vec<Stop>,
    edges: Vec<TransitEdge>,
    routes: Vec<Route>,
    adj_ptr: Vec<usize>,
    adj: Vec<(u32, u32)>,
    #[serde(skip)]
    edge_lookup: std::sync::OnceLock<HashMap<(u32, u32), u32>>,
}

impl TransitNetwork {
    fn build_adjacency(n: usize, edges: &[TransitEdge]) -> (Vec<usize>, Vec<(u32, u32)>) {
        let mut deg = vec![0usize; n];
        for e in edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        let mut adj_ptr = Vec::with_capacity(n + 1);
        adj_ptr.push(0);
        for d in &deg {
            adj_ptr.push(adj_ptr.last().unwrap() + d);
        }
        let mut adj = vec![(0u32, 0u32); adj_ptr[n]];
        let mut cursor = adj_ptr[..n].to_vec();
        for (id, e) in edges.iter().enumerate() {
            adj[cursor[e.u as usize]] = (e.v, id as u32);
            cursor[e.u as usize] += 1;
            adj[cursor[e.v as usize]] = (e.u, id as u32);
            cursor[e.v as usize] += 1;
        }
        (adj_ptr, adj)
    }

    /// What makes this network unfit for planning: an edge endpoint or a
    /// route stop that names no stop, an edge length that is not a positive
    /// finite number, and an adjacency that disagrees with the edge list.
    /// Empty for a network the builder made; a deserialized one skips the
    /// builder, so loaders check it. The planner indexes stops by these ids
    /// unchecked, so an out-of-range one would panic deep inside a plan.
    pub fn validate(&self) -> Vec<String> {
        let n = self.stops.len();
        let mut problems = Vec::new();
        for (i, e) in self.edges.iter().enumerate() {
            if (e.u as usize) >= n || (e.v as usize) >= n {
                problems.push(format!(
                    "transit edge {i} ({},{}) out of bounds for {n} stops",
                    e.u, e.v
                ));
            }
            if !(e.length.is_finite() && e.length > 0.0) {
                problems.push(format!(
                    "transit edge {i} has length {}, not positive and finite",
                    e.length
                ));
            }
        }
        for (r, route) in self.routes.iter().enumerate() {
            if let Some(s) = route.stops.iter().find(|&&s| (s as usize) >= n) {
                problems.push(format!("route {r} visits unknown stop {s} of {n}"));
            }
        }
        if problems.is_empty() {
            let (adj_ptr, adj) = Self::build_adjacency(n, &self.edges);
            if adj_ptr != self.adj_ptr || adj != self.adj {
                problems.push("transit adjacency disagrees with the edge list".to_string());
            }
        }
        problems
    }

    /// Number of stops `|Vr|`.
    pub fn num_stops(&self) -> usize {
        self.stops.len()
    }

    /// Number of transit edges `|Er|`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of routes `|R|`.
    pub fn num_routes(&self) -> usize {
        self.routes.len()
    }

    /// Stop with id `s`.
    pub fn stop(&self, s: u32) -> &Stop {
        &self.stops[s as usize]
    }

    /// All stops.
    pub fn stops(&self) -> &[Stop] {
        &self.stops
    }

    /// Transit edge with id `e`.
    pub fn edge(&self, e: u32) -> &TransitEdge {
        &self.edges[e as usize]
    }

    /// All transit edges.
    pub fn edges(&self) -> &[TransitEdge] {
        &self.edges
    }

    /// Route with id `r`.
    pub fn route(&self, r: u32) -> &Route {
        &self.routes[r as usize]
    }

    /// All routes.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// Average number of stops per route (`len(R)` in the paper's Table 5).
    pub fn avg_route_len(&self) -> f64 {
        if self.routes.is_empty() {
            return 0.0;
        }
        self.routes.iter().map(Route::len).sum::<usize>() as f64 / self.routes.len() as f64
    }

    /// Neighbors of stop `s` as `(neighbor stop, edge id)` pairs.
    pub fn neighbors(&self, s: u32) -> &[(u32, u32)] {
        &self.adj[self.adj_ptr[s as usize]..self.adj_ptr[s as usize + 1]]
    }

    /// Id of the transit edge between `u` and `v`, if one exists.
    pub fn edge_between(&self, u: u32, v: u32) -> Option<u32> {
        let lookup = self.edge_lookup.get_or_init(|| {
            let mut m = HashMap::with_capacity(self.edges.len());
            for (id, e) in self.edges.iter().enumerate() {
                m.insert((e.u.min(e.v), e.u.max(e.v)), id as u32);
            }
            m
        });
        lookup.get(&(u.min(v), u.max(v))).copied()
    }

    /// The 0/1 adjacency matrix of the stop graph, the `A` in
    /// `λ(Gr) = ln(tr(e^A)/n)`.
    pub fn adjacency_matrix(&self) -> CsrMatrix {
        let pairs: Vec<(u32, u32)> = self.edges.iter().map(|e| (e.u, e.v)).collect();
        CsrMatrix::from_undirected_edges(self.stops.len(), &pairs)
    }

    /// A copy of this network with the given routes removed.
    ///
    /// Transit edges are kept only if some remaining route still uses them
    /// (shared corridors survive single-route removal) — this is the Fig. 1
    /// experiment's perturbation. Stops are kept (isolated stops contribute
    /// `e⁰` to the trace, exactly like the paper's fixed `|Vr|`).
    pub fn without_routes(&self, removed: &[u32]) -> TransitNetwork {
        let removed_set: Vec<bool> = {
            let mut v = vec![false; self.routes.len()];
            for &r in removed {
                v[r as usize] = true;
            }
            v
        };
        let mut edge_used = vec![false; self.edges.len()];
        for (rid, route) in self.routes.iter().enumerate() {
            if removed_set[rid] {
                continue;
            }
            for w in route.stops.windows(2) {
                if let Some(e) = self.edge_between(w[0], w[1]) {
                    edge_used[e as usize] = true;
                }
            }
        }
        let edges: Vec<TransitEdge> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(i, _)| edge_used[*i])
            .map(|(_, e)| e.clone())
            .collect();
        let routes: Vec<Route> = self
            .routes
            .iter()
            .enumerate()
            .filter(|(i, _)| !removed_set[*i])
            .map(|(_, r)| r.clone())
            .collect();
        let (adj_ptr, adj) = Self::build_adjacency(self.stops.len(), &edges);
        TransitNetwork {
            stops: self.stops.clone(),
            edges,
            routes,
            adj_ptr,
            adj,
            edge_lookup: std::sync::OnceLock::new(),
        }
    }

    /// A copy of this network with one route added over existing stops.
    ///
    /// Consecutive stop pairs lacking a transit edge get one from
    /// `edge_geom(u, v) -> (length, road_edge_ids)`; existing edges are
    /// reused. This is how a CT-Bus plan is applied to the network.
    ///
    /// # Panics
    /// Panics if the route references an unknown stop or repeats a stop
    /// consecutively.
    pub fn with_route_added<F>(&self, stop_seq: &[u32], mut edge_geom: F) -> TransitNetwork
    where
        F: FnMut(u32, u32) -> (f64, Vec<u32>),
    {
        let mut edges = self.edges.clone();
        for w in stop_seq.windows(2) {
            let (u, v) = (w[0], w[1]);
            assert!((u as usize) < self.stops.len(), "unknown stop {u}");
            assert!((v as usize) < self.stops.len(), "unknown stop {v}");
            assert_ne!(u, v, "route repeats stop {u} consecutively");
            if self.edge_between(u, v).is_none()
                && !edges[self.edges.len()..]
                    .iter()
                    .any(|e| (e.u.min(e.v), e.u.max(e.v)) == (u.min(v), u.max(v)))
            {
                let (length, road_edges) = edge_geom(u, v);
                edges.push(TransitEdge { u, v, length, road_edges });
            }
        }
        let mut routes = self.routes.clone();
        routes.push(Route { stops: stop_seq.to_vec() });
        let (adj_ptr, adj) = Self::build_adjacency(self.stops.len(), &edges);
        TransitNetwork {
            stops: self.stops.clone(),
            edges,
            routes,
            adj_ptr,
            adj,
            edge_lookup: std::sync::OnceLock::new(),
        }
    }

    /// Route ids passing through each stop (index = stop id).
    pub fn routes_per_stop(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.stops.len()];
        for (rid, route) in self.routes.iter().enumerate() {
            for &s in &route.stops {
                let v = &mut out[s as usize];
                if v.last() != Some(&(rid as u32)) {
                    v.push(rid as u32);
                }
            }
        }
        for v in &mut out {
            v.sort_unstable();
            v.dedup();
        }
        out
    }
}

/// Incremental builder for [`TransitNetwork`].
#[derive(Debug, Default)]
pub struct TransitNetworkBuilder {
    stops: Vec<Stop>,
    edges: Vec<TransitEdge>,
    routes: Vec<Route>,
    edge_ids: HashMap<(u32, u32), u32>,
}

impl TransitNetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a stop and returns its id.
    pub fn add_stop(&mut self, road_node: u32, pos: Point) -> u32 {
        let id = self.stops.len() as u32;
        self.stops.push(Stop { road_node, pos });
        id
    }

    /// Number of stops added so far.
    pub fn num_stops(&self) -> usize {
        self.stops.len()
    }

    /// Adds a route as a stop sequence; consecutive stop pairs become transit
    /// edges whose geometry is produced by `edge_geom(u, v) -> (length,
    /// road_edge_ids)`. Edges shared with previously added routes are reused.
    ///
    /// # Panics
    /// Panics if the route references an unknown stop or repeats a stop
    /// consecutively.
    pub fn add_route<F>(&mut self, stop_seq: &[u32], mut edge_geom: F) -> u32
    where
        F: FnMut(u32, u32) -> (f64, Vec<u32>),
    {
        for w in stop_seq.windows(2) {
            let (u, v) = (w[0], w[1]);
            assert!((u as usize) < self.stops.len(), "unknown stop {u}");
            assert!((v as usize) < self.stops.len(), "unknown stop {v}");
            assert_ne!(u, v, "route repeats stop {u} consecutively");
            let key = (u.min(v), u.max(v));
            if !self.edge_ids.contains_key(&key) {
                let (length, road_edges) = edge_geom(u, v);
                let id = self.edges.len() as u32;
                self.edges.push(TransitEdge { u, v, length, road_edges });
                self.edge_ids.insert(key, id);
            }
        }
        let id = self.routes.len() as u32;
        self.routes.push(Route { stops: stop_seq.to_vec() });
        id
    }

    /// Finalizes the network.
    pub fn build(self) -> TransitNetwork {
        let (adj_ptr, adj) = TransitNetwork::build_adjacency(self.stops.len(), &self.edges);
        TransitNetwork {
            stops: self.stops,
            edges: self.edges,
            routes: self.routes,
            adj_ptr,
            adj,
            edge_lookup: std::sync::OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two crossing routes: 0-1-2 and 3-1-4 (sharing stop 1).
    fn cross_network() -> TransitNetwork {
        let mut b = TransitNetworkBuilder::new();
        for i in 0..5 {
            b.add_stop(i, Point::new(i as f64 * 100.0, 0.0));
        }
        let geom = |_u: u32, _v: u32| (100.0, vec![]);
        b.add_route(&[0, 1, 2], geom);
        b.add_route(&[3, 1, 4], geom);
        b.build()
    }

    #[test]
    fn validate_accepts_built_networks_and_flags_bad_lengths() {
        assert!(cross_network().validate().is_empty());
        for length in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut b = TransitNetworkBuilder::new();
            b.add_stop(0, Point::new(0.0, 0.0));
            b.add_stop(1, Point::new(1.0, 0.0));
            b.add_route(&[0, 1], |_, _| (length, vec![]));
            let problems = b.build().validate();
            assert_eq!(problems.len(), 1, "{length}: {problems:?}");
            assert!(problems[0].starts_with("transit edge 0 has length"), "{problems:?}");
        }
    }

    #[test]
    fn builder_counts() {
        let net = cross_network();
        assert_eq!(net.num_stops(), 5);
        assert_eq!(net.num_edges(), 4);
        assert_eq!(net.num_routes(), 2);
        assert_eq!(net.avg_route_len(), 3.0);
    }

    #[test]
    fn shared_edges_are_reused() {
        let mut b = TransitNetworkBuilder::new();
        for i in 0..3 {
            b.add_stop(i, Point::new(i as f64, 0.0));
        }
        let geom = |_u: u32, _v: u32| (1.0, vec![]);
        b.add_route(&[0, 1, 2], geom);
        b.add_route(&[2, 1, 0], geom); // same corridor, reversed
        let net = b.build();
        assert_eq!(net.num_edges(), 2);
        assert_eq!(net.num_routes(), 2);
    }

    #[test]
    fn edge_between_is_symmetric() {
        let net = cross_network();
        assert_eq!(net.edge_between(0, 1), net.edge_between(1, 0));
        assert!(net.edge_between(0, 1).is_some());
        assert!(net.edge_between(0, 4).is_none());
    }

    #[test]
    fn adjacency_matrix_shape() {
        let net = cross_network();
        let a = net.adjacency_matrix();
        assert_eq!(a.n(), 5);
        assert_eq!(a.num_undirected_edges(), 4);
        assert!(a.has_edge(1, 4));
    }

    #[test]
    fn without_routes_drops_unshared_edges() {
        let net = cross_network();
        let pruned = net.without_routes(&[0]);
        assert_eq!(pruned.num_routes(), 1);
        assert_eq!(pruned.num_edges(), 2); // 3-1 and 1-4 survive
        assert_eq!(pruned.num_stops(), 5); // stops always survive
        assert!(pruned.edge_between(0, 1).is_none());
    }

    #[test]
    fn without_routes_keeps_shared_corridors() {
        let mut b = TransitNetworkBuilder::new();
        for i in 0..3 {
            b.add_stop(i, Point::new(i as f64, 0.0));
        }
        let geom = |_u: u32, _v: u32| (1.0, vec![]);
        b.add_route(&[0, 1, 2], geom);
        b.add_route(&[0, 1], geom); // shares edge 0-1
        let net = b.build();
        let pruned = net.without_routes(&[0]);
        assert!(pruned.edge_between(0, 1).is_some(), "shared edge must survive");
        assert!(pruned.edge_between(1, 2).is_none());
    }

    #[test]
    fn routes_per_stop_incidence() {
        let net = cross_network();
        let inc = net.routes_per_stop();
        assert_eq!(inc[1], vec![0, 1]); // the shared stop
        assert_eq!(inc[0], vec![0]);
        assert_eq!(inc[3], vec![1]);
    }

    #[test]
    fn with_route_added_creates_missing_edges() {
        let net = cross_network();
        // New route 0-3 (new edge) then 3-1 (existing edge).
        let bigger = net.with_route_added(&[0, 3, 1], |_, _| (123.0, vec![]));
        assert_eq!(bigger.num_routes(), 3);
        assert_eq!(bigger.num_edges(), 5);
        assert!(bigger.edge_between(0, 3).is_some());
        // Existing edge reused, not duplicated.
        assert_eq!(
            bigger.edges().iter().filter(|e| (e.u.min(e.v), e.u.max(e.v)) == (1, 3)).count(),
            1
        );
        // Original untouched.
        assert!(net.edge_between(0, 3).is_none());
    }

    #[test]
    fn with_route_added_is_usable_for_transfers() {
        let net = cross_network();
        let bigger = net.with_route_added(&[0, 4], |_, _| (50.0, vec![]));
        assert!(bigger.adjacency_matrix().has_edge(0, 4));
        assert_eq!(bigger.routes_per_stop()[0], vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "unknown stop")]
    fn unknown_stop_in_route_panics() {
        let mut b = TransitNetworkBuilder::new();
        b.add_stop(0, Point::new(0.0, 0.0));
        b.add_route(&[0, 9], |_, _| (1.0, vec![]));
    }
}
