//! Candidate-edge generation (paper §4.2.1).
//!
//! A candidate edge is either an existing transit edge or a *potential* new
//! edge between two stops whose straight-line distance is at most τ. New
//! edges get their geometry and demand from the road shortest path between
//! the two stops ("each new edge conducted the shortest path between its two
//! ends, then we put the edge demand by summing up edges in the road
//! network", §7.1.3).
//!
//! The pool also fixes every junction a route can make: a route's
//! consecutive hops are candidates, so each turn it takes is
//! `prev → mid → next` with `prev` and `next` candidate neighbours of
//! `mid`. [`CandidateSet::build`] classifies all of them once, and the
//! planner reads the class instead of computing the angle.

use std::collections::HashMap;
use std::sync::Arc;

use ct_data::{City, DemandModel};
use ct_graph::{PathResult, PathScratch};
use ct_spatial::{turn_angle, GridIndex, Point, TurnClass};
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

/// The full candidate pool with per-stop incidence lists and the turn
/// class of every junction two candidates can form.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    edges: Vec<CandidateEdge>,
    by_stop: Vec<Vec<u32>>,
    num_new: usize,
    /// Shared by every clone: promotion and demand refresh never add or
    /// remove a stop pair, so no later state of the pool changes it.
    turns: Arc<TurnTable>,
}

/// The turn class at `mid` of every `prev → mid → next` where `prev` and
/// `next` are candidate neighbours of `mid`, keyed by stop ids.
///
/// Stop `mid`'s neighbours are `nbrs[start[mid]..start[mid + 1]]`,
/// ascending, and its classes a `deg × deg` block of `classes` from
/// `block[mid]`, with `(prev, next) = (nbrs[i], nbrs[j])` at `i·deg + j`.
/// Every entry is `TurnClass::from_angle(turn_angle(..))` on the stops'
/// positions, so a lookup returns exactly what computing the angle would.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct TurnTable {
    start: Vec<u32>,
    nbrs: Vec<u32>,
    block: Vec<u32>,
    classes: Vec<TurnClass>,
}

impl TurnTable {
    /// Classifies every junction of the pool given by `edges` and its
    /// incidence lists `by_stop`, stops placed at `positions`.
    fn build(positions: &[Point], edges: &[CandidateEdge], by_stop: &[Vec<u32>]) -> TurnTable {
        let mut start = vec![0];
        let mut nbrs = Vec::new();
        let mut block = vec![0];
        let mut classes = Vec::new();
        let mut list = Vec::new();
        for (mid, ids) in by_stop.iter().enumerate() {
            list.clear();
            list.extend(ids.iter().map(|&id| edges[id as usize].other(mid as u32)));
            list.sort_unstable();
            list.dedup();
            let deg = list.len();
            let base = classes.len();
            classes.resize(base + deg * deg, TurnClass::Straight);
            let at = &positions[mid];
            // `turn_angle` is symmetric in `prev` and `next` bit for bit
            // (swapping them negates both difference vectors, which is
            // exact), so each unordered pair is computed once.
            for (i, &prev) in list.iter().enumerate() {
                for (j, &next) in list.iter().enumerate().skip(i) {
                    let class = TurnClass::from_angle(turn_angle(
                        &positions[prev as usize],
                        at,
                        &positions[next as usize],
                    ));
                    classes[base + i * deg + j] = class;
                    classes[base + j * deg + i] = class;
                }
            }
            nbrs.extend_from_slice(&list);
            start.push(nbrs.len() as u32);
            block.push(classes.len() as u32);
        }
        TurnTable { start, nbrs, block, classes }
    }

    /// The class of the junction `prev → mid → next`.
    ///
    /// # Panics
    /// Panics if `prev` or `next` is not a candidate neighbour of `mid`.
    pub(crate) fn class(&self, prev: u32, mid: u32, next: u32) -> TurnClass {
        let mid = mid as usize;
        let nbrs = &self.nbrs[self.start[mid] as usize..self.start[mid + 1] as usize];
        let slot = |s: u32| {
            nbrs.binary_search(&s)
                .unwrap_or_else(|_| panic!("stop {s} is not a candidate neighbour of stop {mid}"))
        };
        self.classes[self.block[mid] as usize + slot(prev) * nbrs.len() + slot(next)]
    }
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
        let road = &city.road;
        let cap = tau_m * max_detour_factor;
        let mut search = PathScratch::new();
        Self::build_with(city, demand, tau_m, |source, targets| {
            // Settles only as far as the stop's last τ-neighbour: 32 road
            // nodes per searched stop on chicago_like, against all 3,553
            // for a full tree.
            search.search(road, source, targets, cap);
            targets.iter().map(|&t| search.path(t)).collect()
        })
    }

    /// [`CandidateSet::build`] with the road search supplied:
    /// `road_paths(source, targets)` returns, per target, the road shortest
    /// path from `source`, or `None` if it is longer than the detour cap or
    /// there is none.
    fn build_with(
        city: &City,
        demand: &DemandModel,
        tau_m: f64,
        mut road_paths: impl FnMut(u32, &[u32]) -> Vec<Option<PathResult>>,
    ) -> CandidateSet {
        let transit = &city.transit;
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

        // 2. New stop pairs within τ, grouped by source stop so one road
        //    search per stop serves all its neighbours.
        let positions: Vec<_> = transit.stops().iter().map(|s| s.pos).collect();
        let index = GridIndex::build(tau_m.max(1.0), &positions);

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

        let mut targets = Vec::new();
        for (u, nbrs) in pairs_by_stop.iter().enumerate() {
            if nbrs.is_empty() {
                continue;
            }
            let u = u as u32;
            targets.clear();
            targets.extend(nbrs.iter().map(|&v| transit.stop(v).road_node));
            let paths = road_paths(transit.stop(u).road_node, &targets);
            for (&v, path) in nbrs.iter().zip(paths) {
                let Some(path) = path else { continue };
                edges.push(CandidateEdge {
                    u,
                    v,
                    length_m: path.dist,
                    crow_m: positions[u as usize].dist(&positions[v as usize]),
                    demand: demand.path_weight(&path.edges),
                    road_edges: path.edges,
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
        let turns = Arc::new(TurnTable::build(&positions, &edges, &by_stop));
        CandidateSet { edges, by_stop, num_new, turns }
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

    /// Number of stops the pool was built over.
    pub(crate) fn num_stops(&self) -> usize {
        self.by_stop.len()
    }

    /// The turn table: the class of every junction two candidates form.
    pub(crate) fn turns(&self) -> &Arc<TurnTable> {
        &self.turns
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
    use ct_graph::{dijkstra_tree, reconstruct_path};

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

    /// Checks every class in `set`'s turn table against `turn_angle` on
    /// `city`'s stops: for every stop and every ordered pair of its
    /// candidate neighbours, the diagonal included. Returns the number of
    /// distinct-neighbour pairs checked.
    fn assert_turn_table_matches_geometry(city: &City, set: &CandidateSet) -> usize {
        let pos = |s: u32| &city.transit.stop(s).pos;
        let mut pairs = 0;
        for mid in 0..city.transit.num_stops() as u32 {
            let mut nbrs: Vec<u32> =
                set.incident(mid).iter().map(|&id| set.edge(id).other(mid)).collect();
            nbrs.sort_unstable();
            nbrs.dedup();
            for &prev in &nbrs {
                for &next in &nbrs {
                    let angle = turn_angle(pos(prev), pos(mid), pos(next));
                    // The build computes each unordered pair once.
                    let mirrored = turn_angle(pos(next), pos(mid), pos(prev));
                    assert_eq!(angle.to_bits(), mirrored.to_bits(), "{prev} → {mid} → {next}");
                    assert_eq!(
                        set.turns().class(prev, mid, next),
                        TurnClass::from_angle(angle),
                        "{prev} → {mid} → {next}"
                    );
                    pairs += usize::from(prev != next);
                }
            }
        }
        pairs
    }

    #[test]
    fn turn_table_matches_turn_angle_on_small_and_medium() {
        for city in [CityConfig::small().generate(), CityConfig::medium().generate()] {
            let demand = DemandModel::from_city(&city);
            let set = CandidateSet::build(&city, &demand, 450.0, 6.0);
            assert!(assert_turn_table_matches_geometry(&city, &set) > 0, "{}", city.name);
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "chicago_like candidate build; run with --release")]
    fn turn_table_matches_turn_angle_on_chicago_like() {
        let city = CityConfig::chicago_like().generate();
        let demand = DemandModel::from_city(&city);
        let set = CandidateSet::build(&city, &demand, 450.0, 6.0);
        assert!(assert_turn_table_matches_geometry(&city, &set) > 0);
    }

    /// The pool as full shortest-path trees build it: one `dijkstra_tree`
    /// per stop over the whole road network, each target kept if its tree
    /// distance is within the cap. `build`'s early-exit search is held to
    /// it bit for bit.
    fn full_tree_build(city: &City, demand: &DemandModel, tau_m: f64, factor: f64) -> CandidateSet {
        let road = &city.road;
        let cap = tau_m * factor;
        CandidateSet::build_with(city, demand, tau_m, |source, targets| {
            let (dist, parent) = dijkstra_tree(road, source);
            targets
                .iter()
                .map(|&t| {
                    if dist[t as usize] > cap {
                        return None;
                    }
                    let (nodes, edges) = reconstruct_path(source, t, &parent)?;
                    Some(PathResult { dist: dist[t as usize], nodes, edges })
                })
                .collect()
        })
    }

    /// Asserts `build` equals [`full_tree_build`] on `city` bit for bit, at
    /// the harness detour factor and at a tight one that drops pairs;
    /// returns the new-candidate counts at both.
    fn assert_matches_full_tree_build(city: &City) -> [usize; 2] {
        let demand = DemandModel::from_city(city);
        [6.0, 1.2].map(|factor| {
            let set = CandidateSet::build(city, &demand, 450.0, factor);
            let oracle = full_tree_build(city, &demand, 450.0, factor);
            let at = format!("{} ×{factor}", city.name);
            assert_eq!(set.len(), oracle.len(), "{at}");
            assert_eq!(set.num_new(), oracle.num_new(), "{at}");
            for (id, (a, b)) in set.edges().iter().zip(oracle.edges()).enumerate() {
                assert_eq!((a.u, a.v, a.existing), (b.u, b.v, b.existing), "{at}: {id}");
                assert_eq!(a.length_m.to_bits(), b.length_m.to_bits(), "{at}: {id}");
                assert_eq!(a.crow_m.to_bits(), b.crow_m.to_bits(), "{at}: {id}");
                assert_eq!(a.demand.to_bits(), b.demand.to_bits(), "{at}: {id}");
                assert_eq!(a.road_edges, b.road_edges, "{at}: {id}");
            }
            for stop in 0..city.transit.num_stops() as u32 {
                assert_eq!(set.incident(stop), oracle.incident(stop), "{at}: stop {stop}");
            }
            assert_eq!(set.turns(), oracle.turns(), "{at}");
            set.num_new()
        })
    }

    #[test]
    fn build_matches_full_tree_build_on_small_and_medium() {
        for city in [CityConfig::small().generate(), CityConfig::medium().generate()] {
            let [wide, tight] = assert_matches_full_tree_build(&city);
            assert!(tight > 0 && tight < wide, "{}: the tight cap must drop some pairs", city.name);
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "chicago_like full trees; run with --release")]
    fn build_matches_full_tree_build_on_chicago_like() {
        let [wide, tight] = assert_matches_full_tree_build(&CityConfig::chicago_like().generate());
        assert!(tight > 0 && tight < wide);
    }

    #[test]
    #[should_panic(expected = "is not a candidate neighbour")]
    fn turn_lookup_rejects_a_stop_that_is_not_a_neighbour() {
        let (city, demand) = setup();
        let set = CandidateSet::build(&city, &demand, 450.0, 6.0);
        let mid = (0..city.transit.num_stops() as u32)
            .find(|&s| !set.incident(s).is_empty())
            .expect("some stop has a candidate");
        let nbr = set.edge(set.incident(mid)[0]).other(mid);
        set.turns().class(nbr, mid, mid);
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
