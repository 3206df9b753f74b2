//! Global minimum cut (Stoer–Wagner) and edge connectivity.
//!
//! The paper's §2 dismisses *edge connectivity* \[66\] as a transit metric
//! because it shows "no change by big graph alteration": a city network
//! almost always has a degree-1 stop somewhere, so the measure sits at 1
//! until the network disconnects and then drops to 0. The `ext_measures`
//! experiment reproduces that flatness against natural connectivity; this
//! module supplies the measure itself via the Stoer–Wagner algorithm
//! (maximum-adjacency search with supernode merging, `O(V·E·log V)`).

use std::collections::{BTreeMap, HashMap};

use crate::dijkstra::WeightedGraph;

/// A global minimum cut.
#[derive(Debug, Clone, PartialEq)]
pub struct MinCut {
    /// Total weight crossing the cut (0 for a disconnected graph).
    pub weight: f64,
    /// Original node ids on one side of the cut.
    pub partition: Vec<u32>,
}

/// Stoer–Wagner global min cut over an undirected weighted edge list.
///
/// Self-loops are ignored and parallel edges merge their weights. Returns
/// `None` for graphs with fewer than two nodes. A disconnected graph
/// yields weight `0` with one component as the partition.
///
/// ```
/// use ct_graph::global_min_cut;
/// // A 4-cycle: every global cut severs at least two unit edges.
/// let cut = global_min_cut(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]).unwrap();
/// assert_eq!(cut.weight, 2.0);
/// ```
///
/// # Panics
/// Panics if an edge references a node `>= num_nodes` or carries a
/// negative or non-finite weight.
pub fn global_min_cut(num_nodes: usize, edges: &[(u32, u32, f64)]) -> Option<MinCut> {
    if num_nodes < 2 {
        return None;
    }
    // Supernode adjacency; `members[v]` are the original nodes merged in.
    // BTreeMap so maximum-adjacency ties break by node id, never by hash
    // order — phase output feeds the bit-identity contract.
    let mut adj: Vec<BTreeMap<u32, f64>> = vec![BTreeMap::new(); num_nodes];
    for &(u, v, w) in edges {
        assert!(
            (u as usize) < num_nodes && (v as usize) < num_nodes,
            "edge ({u},{v}) out of bounds for {num_nodes} nodes"
        );
        assert!(w.is_finite() && w >= 0.0, "edge ({u},{v}) has invalid weight {w}");
        if u == v {
            continue;
        }
        *adj[u as usize].entry(v).or_insert(0.0) += w;
        *adj[v as usize].entry(u).or_insert(0.0) += w;
    }
    let mut members: Vec<Vec<u32>> = (0..num_nodes as u32).map(|v| vec![v]).collect();
    let mut alive: Vec<u32> = (0..num_nodes as u32).collect();

    let mut best: Option<MinCut> = None;
    while alive.len() > 1 {
        // Maximum adjacency search from the first alive node.
        let start = alive[0];
        let mut in_a: Vec<bool> = vec![false; num_nodes];
        let mut conn: HashMap<u32, f64> = HashMap::new();
        let mut order: Vec<u32> = Vec::with_capacity(alive.len());
        let mut heap: std::collections::BinaryHeap<(ordered::F64, u32)> =
            std::collections::BinaryHeap::new();
        in_a[start as usize] = true;
        order.push(start);
        for (&nbr, &w) in &adj[start as usize] {
            conn.insert(nbr, w);
            heap.push((ordered::F64(w), nbr));
        }
        let mut last_weight = 0.0;
        while order.len() < alive.len() {
            // Pop the most strongly connected not-yet-added supernode;
            // entries are lazy, so skip stale ones.
            let next = loop {
                match heap.pop() {
                    Some((w, v)) => {
                        if in_a[v as usize] {
                            continue;
                        }
                        if (w.0 - conn.get(&v).copied().unwrap_or(0.0)).abs() > 1e-12 {
                            continue; // stale priority
                        }
                        break Some((v, w.0));
                    }
                    None => break None,
                }
            };
            let (v, w) = match next {
                Some(x) => x,
                // Disconnected remainder: pick any alive node outside A
                // with connection weight 0.
                None => {
                    let v = *alive
                        .iter()
                        .find(|&&v| !in_a[v as usize])
                        .expect("an alive node remains outside A");
                    (v, 0.0)
                }
            };
            in_a[v as usize] = true;
            order.push(v);
            last_weight = w;
            for (&nbr, &ew) in &adj[v as usize] {
                if !in_a[nbr as usize] {
                    let c = conn.entry(nbr).or_insert(0.0);
                    *c += ew;
                    heap.push((ordered::F64(*c), nbr));
                }
            }
        }

        // Cut of the phase: t (last added) vs the rest.
        let t = *order.last().expect("phase visits every alive node");
        let s = order[order.len() - 2];
        if best.as_ref().is_none_or(|b| last_weight < b.weight) {
            best = Some(MinCut { weight: last_weight, partition: members[t as usize].clone() });
        }

        // Merge t into s.
        let t_adj: Vec<(u32, f64)> = adj[t as usize].iter().map(|(&n, &w)| (n, w)).collect();
        for (nbr, w) in t_adj {
            adj[nbr as usize].remove(&t);
            if nbr == s {
                continue;
            }
            *adj[s as usize].entry(nbr).or_insert(0.0) += w;
            *adj[nbr as usize].entry(s).or_insert(0.0) += w;
        }
        adj[s as usize].remove(&t);
        adj[t as usize].clear();
        let moved = std::mem::take(&mut members[t as usize]);
        members[s as usize].extend(moved);
        alive.retain(|&v| v != t);
    }
    best
}

/// Unweighted edge connectivity: the minimum number of edges whose
/// removal disconnects the graph (0 if already disconnected).
pub fn edge_connectivity<G: WeightedGraph + ?Sized>(g: &G) -> Option<usize> {
    let n = g.node_count();
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    for u in 0..n as u32 {
        g.for_each_neighbor(u, &mut |v, _e, _w| {
            if u < v {
                edges.push((u, v, 1.0));
            }
        });
    }
    // Parallel edges in multigraphs still count separately, which is what
    // edge connectivity wants; `global_min_cut` sums their weights.
    global_min_cut(n, &edges).map(|c| c.weight.round() as usize)
}

/// Total-order wrapper for f64 heap keys (weights are finite by
/// construction).
mod ordered {
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct F64(pub f64);
    impl Eq for F64 {}
    impl PartialOrd for F64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for F64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.partial_cmp(&other.0).expect("weights are not NaN")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(edges: &[(u32, u32)]) -> Vec<(u32, u32, f64)> {
        edges.iter().map(|&(u, v)| (u, v, 1.0)).collect()
    }

    #[test]
    fn path_cuts_one_edge() {
        let cut = global_min_cut(4, &unit(&[(0, 1), (1, 2), (2, 3)])).unwrap();
        assert_eq!(cut.weight, 1.0);
        // One side is a strict, non-empty subset.
        assert!(!cut.partition.is_empty() && cut.partition.len() < 4);
    }

    #[test]
    fn cycle_cuts_two_edges() {
        let cut = global_min_cut(5, &unit(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])).unwrap();
        assert_eq!(cut.weight, 2.0);
    }

    #[test]
    fn complete_graph_cuts_degree() {
        let mut edges = Vec::new();
        for i in 0..4u32 {
            for j in i + 1..4 {
                edges.push((i, j));
            }
        }
        let cut = global_min_cut(4, &unit(&edges)).unwrap();
        assert_eq!(cut.weight, 3.0);
        assert_eq!(cut.partition.len(), 1, "K4's min cut isolates one vertex");
    }

    #[test]
    fn disconnected_graph_has_zero_cut() {
        let cut = global_min_cut(4, &unit(&[(0, 1), (2, 3)])).unwrap();
        assert_eq!(cut.weight, 0.0);
        let mut side = cut.partition.clone();
        side.sort_unstable();
        assert!(side == vec![0, 1] || side == vec![2, 3], "partition {side:?}");
    }

    #[test]
    fn stoer_wagner_paper_example() {
        // The 8-node example from the original paper; min cut weight 4
        // separating {3, 4, 7, 8} (1-indexed) — here 0-indexed {2, 3, 6, 7}.
        let edges: Vec<(u32, u32, f64)> = vec![
            (0, 1, 2.0),
            (0, 4, 3.0),
            (1, 2, 3.0),
            (1, 4, 2.0),
            (1, 5, 2.0),
            (2, 3, 4.0),
            (2, 6, 2.0),
            (3, 6, 2.0),
            (3, 7, 2.0),
            (4, 5, 3.0),
            (5, 6, 1.0),
            (6, 7, 3.0),
        ];
        let cut = global_min_cut(8, &edges).unwrap();
        assert_eq!(cut.weight, 4.0);
        let mut side = cut.partition.clone();
        side.sort_unstable();
        if side[0] != 2 {
            // Complement side is also a valid answer.
            let all: Vec<u32> = (0..8).filter(|v| !side.contains(v)).collect();
            side = all;
        }
        assert_eq!(side, vec![2, 3, 6, 7]);
    }

    #[test]
    fn weighted_parallel_edges_merge() {
        let cut = global_min_cut(2, &[(0, 1, 1.5), (0, 1, 2.5), (1, 1, 9.0)]).unwrap();
        assert_eq!(cut.weight, 4.0); // self-loop ignored, parallels merged
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for trial in 0..25 {
            let n = rng.gen_range(3..9usize);
            let mut edges: Vec<(u32, u32, f64)> = Vec::new();
            for i in 0..n as u32 {
                for j in i + 1..n as u32 {
                    if rng.gen_bool(0.55) {
                        edges.push((i, j, rng.gen_range(1..6) as f64));
                    }
                }
            }
            let got = global_min_cut(n, &edges).unwrap();
            // Brute force over all non-trivial bipartitions.
            let mut best = f64::INFINITY;
            for mask in 1..(1u32 << (n - 1)) {
                let weight: f64 = edges
                    .iter()
                    .filter(|&&(u, v, _)| ((mask >> u) & 1) != ((mask >> v) & 1))
                    .map(|&(_, _, w)| w)
                    .sum();
                best = best.min(weight);
            }
            assert!(
                (got.weight - best).abs() < 1e-9,
                "trial {trial}: stoer-wagner {} vs brute force {best} on {edges:?}",
                got.weight
            );
        }
    }

    #[test]
    fn single_node_is_none() {
        assert!(global_min_cut(1, &[]).is_none());
        assert!(global_min_cut(0, &[]).is_none());
    }

    #[test]
    fn edge_connectivity_of_networks() {
        use crate::road::{RoadEdge, RoadNetwork};
        use ct_spatial::Point;
        // A path road network has edge connectivity 1.
        let positions = (0..4).map(|i| Point::new(i as f64, 0.0)).collect();
        let edges = (0..3).map(|i| RoadEdge { u: i, v: i + 1, length: 1.0 }).collect();
        let road = RoadNetwork::new(positions, edges);
        assert_eq!(edge_connectivity(&road), Some(1));
        let weighted: Vec<(u32, u32, f64)> =
            road.edges().iter().map(|e| (e.u, e.v, e.length)).collect();
        assert_eq!(global_min_cut(4, &weighted).unwrap().weight, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn negative_weight_panics() {
        global_min_cut(2, &[(0, 1, -1.0)]);
    }
}
