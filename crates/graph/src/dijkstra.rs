//! Binary-heap Dijkstra over road and transit networks.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::road::RoadNetwork;
use crate::transit::TransitNetwork;

/// A weighted undirected graph that Dijkstra can traverse.
///
/// Implemented by both network layers so one shortest-path engine serves
/// trajectory expansion (road) and the ζ(μ) metric (transit).
pub trait WeightedGraph {
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// Visits `(neighbor, edge_id, weight)` for every edge incident to `u`.
    fn for_each_neighbor(&self, u: u32, f: &mut dyn FnMut(u32, u32, f64));
}

// Forwarding impls so shared handles (`&G`, `Arc<G>`) traverse like the
// graph itself — `ct_data::City` keeps its road network behind an `Arc`.
impl<G: WeightedGraph + ?Sized> WeightedGraph for &G {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn for_each_neighbor(&self, u: u32, f: &mut dyn FnMut(u32, u32, f64)) {
        (**self).for_each_neighbor(u, f);
    }
}

impl<G: WeightedGraph + ?Sized> WeightedGraph for std::sync::Arc<G> {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn for_each_neighbor(&self, u: u32, f: &mut dyn FnMut(u32, u32, f64)) {
        (**self).for_each_neighbor(u, f);
    }
}

impl WeightedGraph for RoadNetwork {
    fn node_count(&self) -> usize {
        self.num_nodes()
    }

    fn for_each_neighbor(&self, u: u32, f: &mut dyn FnMut(u32, u32, f64)) {
        for &(v, e) in self.neighbors(u) {
            f(v, e, self.edge(e).length);
        }
    }
}

impl WeightedGraph for TransitNetwork {
    fn node_count(&self) -> usize {
        self.num_stops()
    }

    fn for_each_neighbor(&self, u: u32, f: &mut dyn FnMut(u32, u32, f64)) {
        for &(v, e) in self.neighbors(u) {
            f(v, e, self.edge(e).length);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance (distances are finite, never NaN).
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("distances are not NaN")
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A reconstructed shortest path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathResult {
    /// Total weight.
    pub dist: f64,
    /// Visited nodes, source first.
    pub nodes: Vec<u32>,
    /// Edge ids along the path (one fewer than nodes).
    pub edges: Vec<u32>,
}

/// Single-source shortest path distances to every node.
///
/// Unreachable nodes have distance `f64::INFINITY`.
pub fn dijkstra_all<G: WeightedGraph + ?Sized>(g: &G, source: u32) -> Vec<f64> {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(HeapEntry { dist: 0.0, node: source });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        g.for_each_neighbor(u, &mut |v, _e, w| {
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(HeapEntry { dist: nd, node: v });
            }
        });
    }
    dist
}

/// Full shortest-path tree from `source`: per-node distance and the
/// `(parent node, edge id)` used to reach it.
///
/// One tree amortizes path reconstruction over many destinations — this is
/// how trajectory corpora with shared origins are expanded cheaply.
pub fn dijkstra_tree<G: WeightedGraph + ?Sized>(
    g: &G,
    source: u32,
) -> (Vec<f64>, Vec<Option<(u32, u32)>>) {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<(u32, u32)>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(HeapEntry { dist: 0.0, node: source });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        g.for_each_neighbor(u, &mut |v, e, w| {
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                parent[v as usize] = Some((u, e));
                heap.push(HeapEntry { dist: nd, node: v });
            }
        });
    }
    (dist, parent)
}

/// Reconstructs the path `source → target` from a [`dijkstra_tree`] parent
/// array; `None` if `target` was unreachable.
pub fn reconstruct_path(
    source: u32,
    target: u32,
    parent: &[Option<(u32, u32)>],
) -> Option<(Vec<u32>, Vec<u32>)> {
    if source == target {
        return Some((vec![source], vec![]));
    }
    parent[target as usize]?;
    let mut nodes = vec![target];
    let mut edges = Vec::new();
    let mut cur = target;
    while cur != source {
        let (p, e) = parent[cur as usize]?;
        edges.push(e);
        nodes.push(p);
        cur = p;
    }
    nodes.reverse();
    edges.reverse();
    Some((nodes, edges))
}

/// Single-source Dijkstra truncated at `cutoff`: every node whose shortest
/// distance from `source` is ≤ `cutoff`, as `(node, distance)` pairs in
/// ascending distance order.
///
/// Uses a sparse distance map, so the cost depends on the number of settled
/// nodes rather than the graph size — this is the workhorse for HMM
/// map-matching transitions, where thousands of small neighborhoods are
/// explored per trace.
///
/// ```
/// use ct_graph::{dijkstra_bounded, RoadEdge, RoadNetwork};
/// use ct_spatial::Point;
/// let road = RoadNetwork::new(
///     (0..4).map(|i| Point::new(i as f64 * 100.0, 0.0)).collect(),
///     (0..3).map(|i| RoadEdge { u: i, v: i + 1, length: 100.0 }).collect(),
/// );
/// let near = dijkstra_bounded(&road, 0, 150.0);
/// assert_eq!(near, vec![(0, 0.0), (1, 100.0)]); // node 2 is 200 m away
/// ```
pub fn dijkstra_bounded<G: WeightedGraph + ?Sized>(
    g: &G,
    source: u32,
    cutoff: f64,
) -> Vec<(u32, f64)> {
    let mut dist: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    let mut settled = Vec::new();
    let mut heap = BinaryHeap::new();
    dist.insert(source, 0.0);
    heap.push(HeapEntry { dist: 0.0, node: source });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > *dist.get(&u).unwrap_or(&f64::INFINITY) {
            continue;
        }
        settled.push((u, d));
        g.for_each_neighbor(u, &mut |v, _e, w| {
            let nd = d + w;
            if nd <= cutoff && nd < *dist.get(&v).unwrap_or(&f64::INFINITY) {
                dist.insert(v, nd);
                heap.push(HeapEntry { dist: nd, node: v });
            }
        });
    }
    settled
}

/// Shortest path from `source` to `target` with early exit; `None` if
/// unreachable.
pub fn shortest_path<G: WeightedGraph + ?Sized>(
    g: &G,
    source: u32,
    target: u32,
) -> Option<PathResult> {
    PathScratch::new().shortest_path(g, source, target)
}

/// Reusable workspace for Dijkstra searches that stop early.
///
/// [`shortest_path`] allocates (and zeroes) O(n) distance/parent arrays per
/// call; batch workloads — realizing thousands of GTFS hops over one road
/// network, or one search per bus stop when generating candidate edges —
/// pay that per query. A `PathScratch` keeps the arrays across calls and
/// resets only the entries the previous search touched, so each query
/// costs O(settled region), not O(n).
#[derive(Debug, Default)]
pub struct PathScratch {
    dist: Vec<f64>,
    parent: Vec<Option<(u32, u32)>>,
    touched: Vec<u32>,
    heap: BinaryHeap<HeapEntry>,
    /// `wanted[v]`: `v` is a target the running search has not settled.
    wanted: Vec<bool>,
    source: u32,
}

impl PathScratch {
    /// Creates an empty workspace; arrays grow lazily to the graph size.
    pub fn new() -> Self {
        Self::default()
    }

    /// One-to-many search: settles nodes from `source` until every node of
    /// `targets` is settled, relaxing no edge whose end lies beyond
    /// `cutoff`. [`PathScratch::path`] then reads each target's path.
    ///
    /// The search is [`dijkstra_tree`] stopped early, not an approximation
    /// of it. It pops the same `(distance, node)` heap order, sums `d + w`
    /// the same way and replaces a distance only on a strict `<`, so a
    /// node's distance and parent are final once it settles, and every
    /// node on its parent chain settles before it. Dropping the edges that
    /// end beyond `cutoff` changes no distance or parent within it. A target
    /// whose tree distance is at most `cutoff` therefore gets the tree's
    /// distance bits and [`reconstruct_path`]'s edges; every other target
    /// reads as out of reach. Edge lengths must be positive, as
    /// [`RoadNetwork::new`] requires.
    pub fn search<G: WeightedGraph + ?Sized>(
        &mut self,
        g: &G,
        source: u32,
        targets: &[u32],
        cutoff: f64,
    ) {
        let n = g.node_count();
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.parent.resize(n, None);
            self.wanted.resize(n, false);
        }
        let (dist, parent, touched, heap, wanted) =
            (&mut self.dist, &mut self.parent, &mut self.touched, &mut self.heap, &mut self.wanted);
        for &t in touched.iter() {
            dist[t as usize] = f64::INFINITY;
            parent[t as usize] = None;
        }
        touched.clear();
        heap.clear();
        self.source = source;
        let mut left = 0usize;
        for &t in targets {
            if !std::mem::replace(&mut wanted[t as usize], true) {
                left += 1;
            }
        }
        dist[source as usize] = 0.0;
        touched.push(source);
        heap.push(HeapEntry { dist: 0.0, node: source });

        while left > 0 {
            let Some(HeapEntry { dist: d, node: u }) = heap.pop() else { break };
            if d > dist[u as usize] {
                continue;
            }
            if std::mem::take(&mut wanted[u as usize]) {
                left -= 1;
                if left == 0 {
                    break;
                }
            }
            g.for_each_neighbor(u, &mut |v, e, w| {
                let nd = d + w;
                if nd <= cutoff && nd < dist[v as usize] {
                    if dist[v as usize] == f64::INFINITY {
                        touched.push(v);
                    }
                    dist[v as usize] = nd;
                    parent[v as usize] = Some((u, e));
                    heap.push(HeapEntry { dist: nd, node: v });
                }
            });
        }
        for &t in targets {
            wanted[t as usize] = false;
        }
    }

    /// The path from the last [`PathScratch::search`]'s source to `target`,
    /// one of that search's targets; `None` if it is out of reach. Other
    /// nodes may hold a tentative distance, so only targets are answered
    /// exactly.
    pub fn path(&self, target: u32) -> Option<PathResult> {
        let dist = self.dist[target as usize];
        if dist == f64::INFINITY {
            return None;
        }
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut cur = target;
        while cur != self.source {
            let (p, e) = self.parent[cur as usize].expect("parent chain is complete");
            edges.push(e);
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        edges.reverse();
        Some(PathResult { dist, nodes, edges })
    }

    /// Shortest path from `source` to `target` with early exit; `None` if
    /// unreachable. Equivalent to [`shortest_path`], reusing this scratch:
    /// a [`PathScratch::search`] with one target and no cutoff.
    pub fn shortest_path<G: WeightedGraph + ?Sized>(
        &mut self,
        g: &G,
        source: u32,
        target: u32,
    ) -> Option<PathResult> {
        self.search(g, source, &[target], f64::INFINITY);
        self.path(target)
    }
}

/// Shortest paths for a batch of `(source, target)` pairs, fanned out over
/// `threads` workers (`0` = use all available cores).
///
/// Each pair is an independent early-exit Dijkstra through a per-worker
/// [`PathScratch`]; workers pull pairs off an atomic counter and results
/// are merged back by input index, so the output is bit-identical to
/// calling [`shortest_path`] per pair in order, under any thread count.
/// This is the entry point the GTFS importer uses to realize all unique
/// stop-pair corridors of a feed at once.
pub fn shortest_paths_batch<G: WeightedGraph + Sync + ?Sized>(
    g: &G,
    pairs: &[(u32, u32)],
    threads: usize,
) -> Vec<Option<PathResult>> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        threads
    }
    .min(pairs.len().max(1));
    if threads <= 1 {
        let mut scratch = PathScratch::new();
        return pairs.iter().map(|&(s, t)| scratch.shortest_path(g, s, t)).collect();
    }
    let counter = std::sync::atomic::AtomicUsize::new(0);
    let mut out: Vec<Option<PathResult>> = Vec::new();
    out.resize_with(pairs.len(), || None);
    let chunks: Vec<Vec<(usize, Option<PathResult>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = PathScratch::new();
                    let mut found = Vec::new();
                    loop {
                        let i = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&(s, t)) = pairs.get(i) else { break };
                        found.push((i, scratch.shortest_path(g, s, t)));
                    }
                    found
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("batch worker panicked")).collect()
    });
    for (i, r) in chunks.into_iter().flatten() {
        out[i] = r;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::road::RoadEdge;
    use ct_spatial::Point;

    fn diamond() -> RoadNetwork {
        // 0 → 1 → 3 costs 1 + 1; 0 → 2 → 3 costs 5 + 5; direct 0 → 3 costs 2.5.
        let positions = (0..4).map(|i| Point::new(i as f64, 0.0)).collect();
        let edges = vec![
            RoadEdge { u: 0, v: 1, length: 1.0 },
            RoadEdge { u: 1, v: 3, length: 1.0 },
            RoadEdge { u: 0, v: 2, length: 5.0 },
            RoadEdge { u: 2, v: 3, length: 5.0 },
            RoadEdge { u: 0, v: 3, length: 2.5 },
        ];
        RoadNetwork::new(positions, edges)
    }

    #[test]
    fn picks_cheapest_path() {
        let g = diamond();
        let p = shortest_path(&g, 0, 3).unwrap();
        assert_eq!(p.dist, 2.0);
        assert_eq!(p.nodes, vec![0, 1, 3]);
        assert_eq!(p.edges.len(), 2);
    }

    #[test]
    fn source_equals_target() {
        let g = diamond();
        let p = shortest_path(&g, 2, 2).unwrap();
        assert_eq!(p.dist, 0.0);
        assert_eq!(p.nodes, vec![2]);
        assert!(p.edges.is_empty());
    }

    #[test]
    fn unreachable_is_none() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let g = RoadNetwork::new(positions, vec![RoadEdge { u: 0, v: 1, length: 1.0 }]);
        assert!(shortest_path(&g, 0, 2).is_none());
        let d = dijkstra_all(&g, 0);
        assert_eq!(d[2], f64::INFINITY);
    }

    #[test]
    fn all_distances_match_point_queries() {
        let g = diamond();
        let d = dijkstra_all(&g, 0);
        for t in 1..4u32 {
            let p = shortest_path(&g, 0, t).unwrap();
            assert!((p.dist - d[t as usize]).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_bellman_ford_on_random_graph() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let n = 40usize;
        let mut edges = Vec::new();
        // Spanning chain keeps it connected.
        for i in 0..n as u32 - 1 {
            edges.push(RoadEdge { u: i, v: i + 1, length: rng.gen_range(1.0..10.0) });
        }
        for _ in 0..60 {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                edges.push(RoadEdge { u, v, length: rng.gen_range(1.0..10.0) });
            }
        }
        let positions = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
        let g = RoadNetwork::new(positions, edges.clone());

        // Bellman–Ford reference.
        let mut bf = vec![f64::INFINITY; n];
        bf[0] = 0.0;
        for _ in 0..n {
            for e in &edges {
                if bf[e.u as usize] + e.length < bf[e.v as usize] {
                    bf[e.v as usize] = bf[e.u as usize] + e.length;
                }
                if bf[e.v as usize] + e.length < bf[e.u as usize] {
                    bf[e.u as usize] = bf[e.v as usize] + e.length;
                }
            }
        }
        let d = dijkstra_all(&g, 0);
        for i in 0..n {
            assert!((d[i] - bf[i]).abs() < 1e-9, "node {i}: {} vs {}", d[i], bf[i]);
        }
    }

    #[test]
    fn bounded_settles_exactly_the_nodes_within_cutoff() {
        let g = diamond();
        let all = dijkstra_all(&g, 0);
        for cutoff in [0.0, 1.0, 2.0, 2.5, 100.0] {
            let settled = dijkstra_bounded(&g, 0, cutoff);
            let expect: Vec<u32> = (0..4u32).filter(|&v| all[v as usize] <= cutoff).collect();
            let mut got: Vec<u32> = settled.iter().map(|&(v, _)| v).collect();
            got.sort_unstable();
            assert_eq!(got, expect, "cutoff {cutoff}");
            for &(v, d) in &settled {
                assert!((d - all[v as usize]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn bounded_is_sorted_by_distance() {
        let g = diamond();
        let settled = dijkstra_bounded(&g, 0, 10.0);
        for w in settled.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn tree_reconstruction_matches_point_queries() {
        let g = diamond();
        let (dist, parent) = dijkstra_tree(&g, 0);
        for t in 0..4u32 {
            let p = shortest_path(&g, 0, t).unwrap();
            assert!((p.dist - dist[t as usize]).abs() < 1e-12);
            let (nodes, edges) = reconstruct_path(0, t, &parent).unwrap();
            assert_eq!(nodes, p.nodes);
            assert_eq!(edges, p.edges);
        }
    }

    #[test]
    fn tree_unreachable_reconstruction_is_none() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let g = RoadNetwork::new(positions, vec![]);
        let (_, parent) = dijkstra_tree(&g, 0);
        assert!(reconstruct_path(0, 1, &parent).is_none());
    }

    #[test]
    fn search_keeps_the_first_parent_on_a_tie_and_drops_targets_past_the_cutoff() {
        // 0 → 1 → 3 and 0 → 2 → 3 both cost 2, edge 4 runs beside edge 0,
        // and node 4 lies 5 past node 3.
        let positions = (0..5).map(|i| Point::new(i as f64, 0.0)).collect();
        let g = RoadNetwork::new(
            positions,
            vec![
                RoadEdge { u: 0, v: 1, length: 1.0 },
                RoadEdge { u: 0, v: 2, length: 1.0 },
                RoadEdge { u: 1, v: 3, length: 1.0 },
                RoadEdge { u: 2, v: 3, length: 1.0 },
                RoadEdge { u: 1, v: 0, length: 1.0 },
                RoadEdge { u: 3, v: 4, length: 5.0 },
            ],
        );
        let (dist, parent) = dijkstra_tree(&g, 0);
        let mut scratch = PathScratch::new();
        scratch.search(&g, 0, &[3, 1, 4, 3], 2.0);
        for t in [1, 3] {
            let p = scratch.path(t).unwrap();
            assert_eq!(p.dist, dist[t as usize]);
            assert_eq!(Some((p.nodes, p.edges)), reconstruct_path(0, t, &parent));
        }
        // The first relaxation wins a tie: node 1 over edge 0, node 3 from node 1.
        assert_eq!(scratch.path(3).unwrap().edges, vec![0, 2]);
        assert!(scratch.path(4).is_none(), "7 away, past the cutoff of 2");
    }

    #[test]
    fn scratch_reuse_matches_fresh_queries() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 30usize;
        let mut edges = Vec::new();
        for i in 0..n as u32 - 1 {
            edges.push(RoadEdge { u: i, v: i + 1, length: rng.gen_range(1.0..10.0) });
        }
        for _ in 0..40 {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                edges.push(RoadEdge { u, v, length: rng.gen_range(1.0..10.0) });
            }
        }
        let positions = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
        let g = RoadNetwork::new(positions, edges);
        let mut scratch = PathScratch::new();
        for _ in 0..50 {
            let s = rng.gen_range(0..n as u32);
            let t = rng.gen_range(0..n as u32);
            assert_eq!(scratch.shortest_path(&g, s, t), shortest_path(&g, s, t), "{s}->{t}");
        }
    }

    #[test]
    fn scratch_resets_after_unreachable_query() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let g = RoadNetwork::new(positions, vec![RoadEdge { u: 0, v: 1, length: 1.0 }]);
        let mut scratch = PathScratch::new();
        assert!(scratch.shortest_path(&g, 0, 2).is_none());
        // A later reachable query must not see stale state.
        let p = scratch.shortest_path(&g, 0, 1).unwrap();
        assert_eq!(p.dist, 1.0);
        assert!(scratch.shortest_path(&g, 2, 0).is_none());
    }

    #[test]
    fn batch_matches_per_pair_under_any_thread_count() {
        let g = diamond();
        let pairs =
            vec![(0u32, 3u32), (3, 0), (1, 2), (2, 2), (0, 1), (0, 3), (2, 1), (3, 1), (1, 0)];
        let reference: Vec<Option<PathResult>> =
            pairs.iter().map(|&(s, t)| shortest_path(&g, s, t)).collect();
        for threads in [0, 1, 2, 5, 16] {
            assert_eq!(shortest_paths_batch(&g, &pairs, threads), reference, "threads={threads}");
        }
        assert!(shortest_paths_batch(&g, &[], 4).is_empty());
    }

    #[test]
    fn batch_reports_unreachable_pairs() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let g = RoadNetwork::new(positions, vec![RoadEdge { u: 0, v: 1, length: 1.0 }]);
        let out = shortest_paths_batch(&g, &[(0, 2), (0, 1), (2, 0)], 2);
        assert!(out[0].is_none());
        assert_eq!(out[1].as_ref().unwrap().dist, 1.0);
        assert!(out[2].is_none());
    }

    #[test]
    fn path_edges_connect_nodes() {
        let g = diamond();
        let p = shortest_path(&g, 2, 1).unwrap();
        for (i, &e) in p.edges.iter().enumerate() {
            let edge = g.edge(e);
            let (a, b) = (p.nodes[i], p.nodes[i + 1]);
            assert!(
                (edge.u == a && edge.v == b) || (edge.u == b && edge.v == a),
                "edge {e} does not connect {a}-{b}"
            );
        }
    }
}
