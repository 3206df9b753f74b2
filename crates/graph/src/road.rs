//! The road network `G = (V, E)` (paper Definition 1).

use ct_spatial::Point;
use serde::{Deserialize, Serialize};

/// An undirected road segment between two intersections.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoadEdge {
    /// One endpoint (road node id).
    pub u: u32,
    /// The other endpoint (road node id).
    pub v: u32,
    /// Travel length in meters.
    pub length: f64,
}

impl RoadEdge {
    /// The endpoint that is not `node`.
    ///
    /// # Panics
    /// Panics if `node` is not an endpoint of this edge.
    pub fn other(&self, node: u32) -> u32 {
        if node == self.u {
            self.v
        } else {
            assert_eq!(node, self.v, "node {node} is not an endpoint");
            self.u
        }
    }
}

/// An undirected road network with projected node positions and a CSR-style
/// adjacency for cache-friendly traversal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadNetwork {
    positions: Vec<Point>,
    edges: Vec<RoadEdge>,
    adj_ptr: Vec<usize>,
    /// Flattened adjacency: `(neighbor node, edge id)`.
    adj: Vec<(u32, u32)>,
}

impl RoadNetwork {
    /// Builds a road network from node positions and undirected edges.
    ///
    /// # Panics
    /// Panics if an edge references a node out of range or has a
    /// non-positive (or NaN) length.
    pub fn new(positions: Vec<Point>, edges: Vec<RoadEdge>) -> Self {
        let n = positions.len();
        if let Some(problem) = edges.iter().enumerate().find_map(|(i, e)| edge_problem(i, e, n)) {
            panic!("{problem}");
        }
        let (adj_ptr, adj) = adjacency(n, &edges);
        RoadNetwork { positions, edges, adj_ptr, adj }
    }

    /// What makes this network unfit for shortest-path search: every edge
    /// [`RoadNetwork::new`] would reject, and an adjacency that disagrees
    /// with the edge list. Empty for a network `new` built; a deserialized
    /// one skips `new`, so loaders check it. Dijkstra assumes positive
    /// lengths: one negative edge makes a negative 2-cycle it never leaves.
    pub fn validate(&self) -> Vec<String> {
        let n = self.num_nodes();
        let mut problems: Vec<String> =
            self.edges.iter().enumerate().filter_map(|(i, e)| edge_problem(i, e, n)).collect();
        if problems.is_empty() {
            let (adj_ptr, adj) = adjacency(n, &self.edges);
            if adj_ptr != self.adj_ptr || adj != self.adj {
                problems.push("road adjacency disagrees with the edge list".to_string());
            }
        }
        problems
    }

    /// Number of road nodes.
    pub fn num_nodes(&self) -> usize {
        self.positions.len()
    }

    /// Number of undirected road edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Position of node `u`.
    pub fn position(&self, u: u32) -> Point {
        self.positions[u as usize]
    }

    /// All node positions.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Edge with id `e`.
    pub fn edge(&self, e: u32) -> &RoadEdge {
        &self.edges[e as usize]
    }

    /// All edges.
    pub fn edges(&self) -> &[RoadEdge] {
        &self.edges
    }

    /// Neighbors of `u` as `(neighbor node, edge id)` pairs.
    pub fn neighbors(&self, u: u32) -> &[(u32, u32)] {
        &self.adj[self.adj_ptr[u as usize]..self.adj_ptr[u as usize + 1]]
    }

    /// Degree of node `u`.
    pub fn degree(&self, u: u32) -> usize {
        self.neighbors(u).len()
    }
}

/// Why `new` would reject edge `i` of a network with `n` nodes, if it would.
fn edge_problem(i: usize, e: &RoadEdge, n: usize) -> Option<String> {
    if (e.u as usize) >= n || (e.v as usize) >= n {
        Some(format!("road edge {i} ({},{}) out of bounds for {n} nodes", e.u, e.v))
    } else if e.length > 0.0 {
        None
    } else {
        Some(format!("road edge {i} has non-positive length {}", e.length))
    }
}

/// The CSR adjacency of `edges` over `n` nodes: `(adj_ptr, adj)`.
fn adjacency(n: usize, edges: &[RoadEdge]) -> (Vec<usize>, Vec<(u32, u32)>) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> RoadNetwork {
        // 0-1
        // |  |
        // 3-2  plus diagonal 0-2
        let positions = vec![
            Point::new(0.0, 100.0),
            Point::new(100.0, 100.0),
            Point::new(100.0, 0.0),
            Point::new(0.0, 0.0),
        ];
        let edges = vec![
            RoadEdge { u: 0, v: 1, length: 100.0 },
            RoadEdge { u: 1, v: 2, length: 100.0 },
            RoadEdge { u: 2, v: 3, length: 100.0 },
            RoadEdge { u: 3, v: 0, length: 100.0 },
            RoadEdge { u: 0, v: 2, length: 141.4 },
        ];
        RoadNetwork::new(positions, edges)
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = square();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 2);
        // Every adjacency entry names an incident edge.
        for u in 0..4u32 {
            for &(v, eid) in g.neighbors(u) {
                let e = g.edge(eid);
                assert!(e.u == u && e.v == v || e.u == v && e.v == u);
            }
        }
    }

    #[test]
    fn other_endpoint() {
        let e = RoadEdge { u: 3, v: 7, length: 1.0 };
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_endpoint_wrong_node_panics() {
        RoadEdge { u: 3, v: 7, length: 1.0 }.other(5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_edge_panics() {
        RoadNetwork::new(vec![Point::new(0.0, 0.0)], vec![RoadEdge { u: 0, v: 1, length: 1.0 }]);
    }

    #[test]
    #[should_panic(expected = "non-positive length")]
    fn zero_length_edge_panics() {
        RoadNetwork::new(
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)],
            vec![RoadEdge { u: 0, v: 1, length: 0.0 }],
        );
    }
}
