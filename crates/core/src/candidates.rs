//! Candidate-edge generation (paper §4.2.1).
//!
//! A candidate edge is either an existing transit edge or a *potential* new
//! edge between two stops whose straight-line distance is at most τ. New
//! edges get their geometry and demand from the road shortest path between
//! the two stops ("each new edge conducted the shortest path between its two
//! ends, then we put the edge demand by summing up edges in the road
//! network", §7.1.3).

use std::collections::HashMap;

use ct_data::{City, DemandModel};
use ct_graph::{dijkstra_tree, reconstruct_path};
use ct_spatial::GridIndex;
use serde::{Deserialize, Serialize};

/// One candidate edge for route construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateEdge {
    /// Smaller stop id.
    pub u: u32,
    /// Larger stop id.
    pub v: u32,
    /// Travel length along the road path, meters.
    pub length_m: f64,
    /// Straight-line stop distance, meters (≤ τ for new edges).
    pub crow_m: f64,
    /// Demand weight `Σ f_e·|e|` over the road path (Eq. 4).
    pub demand: f64,
    /// Road edges realizing this hop.
    pub road_edges: Vec<u32>,
    /// Whether the edge already exists in the transit network.
    pub existing: bool,
}

impl CandidateEdge {
    /// The endpoint that is not `stop`.
    ///
    /// # Panics
    /// Panics if `stop` is not an endpoint.
    pub fn other(&self, stop: u32) -> u32 {
        if stop == self.u {
            self.v
        } else {
            assert_eq!(stop, self.v, "stop {stop} not an endpoint");
            self.u
        }
    }
}

/// The full candidate pool with per-stop incidence lists.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateSet {
    edges: Vec<CandidateEdge>,
    by_stop: Vec<Vec<u32>>,
    num_new: usize,
}

impl CandidateSet {
    /// Builds the candidate pool for a city.
    ///
    /// `tau_m` is the stop-spacing threshold on straight-line distance;
    /// new pairs whose road path exceeds `tau_m × max_detour_factor` are
    /// dropped (no bus hop should wander that far between adjacent stops).
    pub fn build(
        city: &City,
        demand: &DemandModel,
        tau_m: f64,
        max_detour_factor: f64,
    ) -> CandidateSet {
        let transit = &city.transit;
        let road = &city.road;
        let n_stops = transit.num_stops();
        let mut edges: Vec<CandidateEdge> = Vec::new();

        // 1. Existing transit edges.
        for e in transit.edges() {
            let (u, v) = (e.u.min(e.v), e.u.max(e.v));
            edges.push(CandidateEdge {
                u,
                v,
                length_m: e.length,
                crow_m: transit.stop(u).pos.dist(&transit.stop(v).pos),
                demand: demand.path_weight(&e.road_edges),
                road_edges: e.road_edges.clone(),
                existing: true,
            });
        }

        // 2. New stop pairs within τ, grouped by source stop so one bounded
        //    Dijkstra per stop serves all its neighbors.
        let positions: Vec<_> = transit.stops().iter().map(|s| s.pos).collect();
        let index = GridIndex::build(tau_m.max(1.0), &positions);
        let cap = tau_m * max_detour_factor;

        // Collect (u, v) new pairs, u < v.
        let mut pairs_by_stop: Vec<Vec<u32>> = vec![Vec::new(); n_stops];
        for u in 0..n_stops as u32 {
            for v in index.within(&positions[u as usize], tau_m) {
                if v <= u {
                    continue;
                }
                if transit.edge_between(u, v).is_some() {
                    continue;
                }
                if transit.stop(u).road_node == transit.stop(v).road_node {
                    continue; // co-located stops cannot form an edge
                }
                pairs_by_stop[u as usize].push(v);
            }
        }

        for u in 0..n_stops as u32 {
            if pairs_by_stop[u as usize].is_empty() {
                continue;
            }
            // One shortest-path tree from u's road node covers every target.
            // (Bounded expansion would be marginally faster; a full tree keeps
            // the code simple and is amortized over all targets.)
            let source = transit.stop(u).road_node;
            let (dist, parent) = dijkstra_tree(road, source);
            for &v in &pairs_by_stop[u as usize] {
                let target = transit.stop(v).road_node;
                if dist[target as usize] > cap {
                    continue;
                }
                let Some((_, road_edges)) = reconstruct_path(source, target, &parent) else {
                    continue;
                };
                edges.push(CandidateEdge {
                    u,
                    v,
                    length_m: dist[target as usize],
                    crow_m: positions[u as usize].dist(&positions[v as usize]),
                    demand: demand.path_weight(&road_edges),
                    road_edges,
                    existing: false,
                });
            }
        }

        let num_new = edges.iter().filter(|e| !e.existing).count();
        let mut by_stop = vec![Vec::new(); n_stops];
        for (id, e) in edges.iter().enumerate() {
            by_stop[e.u as usize].push(id as u32);
            by_stop[e.v as usize].push(id as u32);
        }
        CandidateSet { edges, by_stop, num_new }
    }

    /// Total number of candidates.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Number of *new* (non-existing) candidates.
    pub fn num_new(&self) -> usize {
        self.num_new
    }

    /// Candidate with id `id`.
    pub fn edge(&self, id: u32) -> &CandidateEdge {
        &self.edges[id as usize]
    }

    /// All candidates.
    pub fn edges(&self) -> &[CandidateEdge] {
        &self.edges
    }

    /// Candidate ids incident to `stop`.
    pub fn incident(&self, stop: u32) -> &[u32] {
        &self.by_stop[stop as usize]
    }

    /// Demand values indexed by candidate id (builds the `L_d` input).
    pub fn demand_values(&self) -> Vec<f64> {
        self.edges.iter().map(|e| e.demand).collect()
    }

    /// Stop pairs (u, v) of the given candidates that are *new* edges.
    pub fn new_stop_pairs(&self, ids: &[u32]) -> Vec<(u32, u32)> {
        ids.iter()
            .map(|&id| &self.edges[id as usize])
            .filter(|e| !e.existing)
            .map(|e| (e.u, e.v))
            .collect()
    }

    /// Lookup table from (u, v) stop pair to candidate id.
    pub fn pair_lookup(&self) -> HashMap<(u32, u32), u32> {
        self.edges.iter().enumerate().map(|(id, e)| ((e.u, e.v), id as u32)).collect()
    }

    /// Promotes the given *new* candidate pairs to existing edges, in
    /// place — the committed route's new hops have become transit edges.
    ///
    /// The pool is reordered exactly as a from-scratch
    /// [`CandidateSet::build`] on the grown transit network would order it:
    /// existing candidates keep their positions, the promoted pairs (in the
    /// given order, which must be the route's first-occurrence hop order —
    /// the order `TransitNetwork::with_route_added` appends edges in)
    /// follow them, and the surviving new candidates keep their relative
    /// order at the tail. Candidate *ids* therefore match a rebuild
    /// bit-for-bit, which is what lets a committed planning session stay
    /// exactly equivalent to the rebuild-per-round reference.
    ///
    /// Returns the id permutation induced by the reorder: `ret[new_id]` is
    /// the candidate's id *before* the promotion. An empty `pairs` slice is
    /// a no-op and returns an empty vector (the identity mapping) — callers
    /// carrying per-candidate state across a commit treat an empty return
    /// as "ids unchanged".
    ///
    /// # Panics
    /// Panics if a pair is not a known new (non-existing) candidate.
    pub fn promote_to_existing(&mut self, pairs: &[(u32, u32)]) -> Vec<u32> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let slot_of: HashMap<(u32, u32), usize> =
            pairs.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        assert_eq!(slot_of.len(), pairs.len(), "promoted pairs must be distinct");
        let old = std::mem::take(&mut self.edges);
        let mut reordered = Vec::with_capacity(old.len());
        let mut old_of_reordered = Vec::with_capacity(old.len());
        let mut promoted: Vec<Option<(u32, CandidateEdge)>> = vec![None; pairs.len()];
        let mut tail = Vec::with_capacity(old.len());
        let mut old_of_tail = Vec::with_capacity(old.len());
        for (old_id, mut e) in old.into_iter().enumerate() {
            if e.existing {
                old_of_reordered.push(old_id as u32);
                reordered.push(e);
            } else if let Some(&slot) = slot_of.get(&(e.u, e.v)) {
                e.existing = true;
                promoted[slot] = Some((old_id as u32, e));
            } else {
                old_of_tail.push(old_id as u32);
                tail.push(e);
            }
        }
        for p in promoted {
            let (old_id, e) = p.expect("promoted pair is a known new candidate");
            old_of_reordered.push(old_id);
            reordered.push(e);
        }
        self.num_new = tail.len();
        old_of_reordered.append(&mut old_of_tail);
        reordered.append(&mut tail);
        self.edges = reordered;

        // Incidence lists follow the new id order (same construction as
        // `build`, so they too match a rebuild).
        for list in &mut self.by_stop {
            list.clear();
        }
        for (id, e) in self.edges.iter().enumerate() {
            self.by_stop[e.u as usize].push(id as u32);
            self.by_stop[e.v as usize].push(id as u32);
        }
        old_of_reordered
    }

    /// Re-derives each candidate's demand from `demand`, in place, for
    /// candidates whose road path touches a covered edge (`covered[e]`).
    ///
    /// The value is recomputed as the full [`DemandModel::path_weight`] sum
    /// — not decremented — so it is bit-identical to what a from-scratch
    /// build under the updated demand model would store. Untouched
    /// candidates keep their stored value, which equals the fresh sum
    /// because none of their edges changed weight. Returns the refreshed
    /// candidate ids, ascending.
    pub fn refresh_demand(&mut self, demand: &DemandModel, covered: &[bool]) -> Vec<u32> {
        let mut touched = Vec::new();
        for (id, e) in self.edges.iter_mut().enumerate() {
            if e.road_edges.iter().any(|&r| covered[r as usize]) {
                e.demand = demand.path_weight(&e.road_edges);
                touched.push(id as u32);
            }
        }
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_data::CityConfig;

    fn setup() -> (City, DemandModel) {
        let city = CityConfig::small().seed(42).generate();
        let demand = DemandModel::from_city(&city);
        (city, demand)
    }

    #[test]
    fn pool_contains_existing_and_new() {
        let (city, demand) = setup();
        let set = CandidateSet::build(&city, &demand, 450.0, 6.0);
        let existing = set.edges().iter().filter(|e| e.existing).count();
        assert_eq!(existing, city.transit.num_edges());
        assert!(set.num_new() > 0, "expected some new candidate edges");
        assert_eq!(set.len(), set.num_new() + existing);
    }

    #[test]
    fn new_edges_respect_tau_and_detour() {
        let (city, demand) = setup();
        let tau = 450.0;
        let set = CandidateSet::build(&city, &demand, tau, 6.0);
        for e in set.edges().iter().filter(|e| !e.existing) {
            assert!(e.crow_m <= tau + 1e-9, "crow distance {} > τ", e.crow_m);
            assert!(e.length_m <= tau * 6.0 + 1e-9, "road length {} too long", e.length_m);
            assert!(!e.road_edges.is_empty());
        }
    }

    #[test]
    fn new_edges_are_not_in_transit_network() {
        let (city, demand) = setup();
        let set = CandidateSet::build(&city, &demand, 450.0, 6.0);
        for e in set.edges().iter().filter(|e| !e.existing) {
            assert!(city.transit.edge_between(e.u, e.v).is_none());
        }
    }

    #[test]
    fn demand_matches_road_path() {
        let (city, demand) = setup();
        let set = CandidateSet::build(&city, &demand, 450.0, 6.0);
        for e in set.edges().iter().take(50) {
            let expect = demand.path_weight(&e.road_edges);
            assert!((e.demand - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn incidence_lists_are_consistent() {
        let (city, demand) = setup();
        let set = CandidateSet::build(&city, &demand, 450.0, 6.0);
        for stop in 0..city.transit.num_stops() as u32 {
            for &id in set.incident(stop) {
                let e = set.edge(id);
                assert!(e.u == stop || e.v == stop);
            }
        }
        // Every candidate appears in exactly two incidence lists.
        let total: usize =
            (0..city.transit.num_stops() as u32).map(|s| set.incident(s).len()).sum();
        assert_eq!(total, 2 * set.len());
    }

    #[test]
    fn pairs_are_normalized_and_unique() {
        let (city, demand) = setup();
        let set = CandidateSet::build(&city, &demand, 450.0, 6.0);
        let mut seen = std::collections::HashSet::new();
        for e in set.edges() {
            assert!(e.u < e.v, "pair not normalized: ({}, {})", e.u, e.v);
            assert!(seen.insert((e.u, e.v)), "duplicate pair ({}, {})", e.u, e.v);
        }
    }

    #[test]
    fn build_is_deterministic() {
        let (city, demand) = setup();
        let a = CandidateSet::build(&city, &demand, 450.0, 6.0);
        let b = CandidateSet::build(&city, &demand, 450.0, 6.0);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn promote_mapping_is_a_permutation_onto_old_ids() {
        let (city, demand) = setup();
        let mut set = CandidateSet::build(&city, &demand, 450.0, 6.0);
        let before = set.edges().to_vec();
        let pairs: Vec<(u32, u32)> =
            before.iter().filter(|e| !e.existing).take(3).map(|e| (e.u, e.v)).collect();
        assert_eq!(pairs.len(), 3, "need at least 3 new candidates");
        let old_of = set.promote_to_existing(&pairs);
        assert_eq!(old_of.len(), before.len());
        // Bijective, and every new slot holds exactly the old candidate it
        // claims to (modulo the promoted flag flip).
        let mut seen = vec![false; before.len()];
        for (new_id, &old_id) in old_of.iter().enumerate() {
            assert!(!std::mem::replace(&mut seen[old_id as usize], true));
            let now = set.edge(new_id as u32);
            let was = &before[old_id as usize];
            assert_eq!((now.u, now.v), (was.u, was.v));
            assert_eq!(now.demand, was.demand);
            let was_promoted = pairs.contains(&(was.u, was.v));
            assert_eq!(now.existing, was.existing || was_promoted);
        }
        // Empty promotion is the identity and reports it as an empty map.
        assert!(set.promote_to_existing(&[]).is_empty());
    }

    #[test]
    fn other_endpoint() {
        let e = CandidateEdge {
            u: 1,
            v: 5,
            length_m: 1.0,
            crow_m: 1.0,
            demand: 0.0,
            road_edges: vec![],
            existing: false,
        };
        assert_eq!(e.other(1), 5);
        assert_eq!(e.other(5), 1);
    }
}
