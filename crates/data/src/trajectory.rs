//! Road-network trajectories (paper Definition 3).

use ct_graph::RoadNetwork;
use serde::{Deserialize, Serialize};

/// A commuting trajectory: a connected path in the road network.
///
/// The paper's raw trajectories carry timestamps; CT-Bus only consumes the
/// edge sets (demand is `Σ f_e·|e|`, Eq. 4), so we store the path structure
/// and drop per-vertex times.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trajectory {
    /// Visited road nodes, origin first.
    pub nodes: Vec<u32>,
    /// Road edge ids along the path (one fewer than nodes).
    pub edges: Vec<u32>,
}

impl Trajectory {
    /// Creates a trajectory; panics if edges/nodes lengths are inconsistent.
    pub fn new(nodes: Vec<u32>, edges: Vec<u32>) -> Self {
        assert!(
            nodes.len() == edges.len() + 1 || (nodes.is_empty() && edges.is_empty()),
            "trajectory shape mismatch: {} nodes, {} edges",
            nodes.len(),
            edges.len()
        );
        Trajectory { nodes, edges }
    }

    /// Number of edges (the paper measures trajectory/route overlap in edges).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the trajectory has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Origin node, if any.
    pub fn origin(&self) -> Option<u32> {
        self.nodes.first().copied()
    }

    /// Destination node, if any.
    pub fn destination(&self) -> Option<u32> {
        self.nodes.last().copied()
    }

    /// Travel length in meters over the given road network.
    pub fn length_m(&self, road: &RoadNetwork) -> f64 {
        self.edges.iter().map(|&e| road.edge(e).length).sum()
    }

    /// Validates that consecutive nodes are joined by the listed edges.
    pub fn is_consistent(&self, road: &RoadNetwork) -> bool {
        if self.nodes.len() != self.edges.len() + 1 {
            return self.nodes.is_empty() && self.edges.is_empty();
        }
        for (i, &e) in self.edges.iter().enumerate() {
            let Some(edge) = road.edges().get(e as usize) else { return false };
            let (a, b) = (self.nodes[i], self.nodes[i + 1]);
            if !((edge.u == a && edge.v == b) || (edge.u == b && edge.v == a)) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_graph::RoadEdge;
    use ct_spatial::Point;

    fn line_road() -> RoadNetwork {
        let positions = (0..4).map(|i| Point::new(i as f64 * 100.0, 0.0)).collect();
        let edges = (0..3).map(|i| RoadEdge { u: i, v: i + 1, length: 100.0 }).collect();
        RoadNetwork::new(positions, edges)
    }

    #[test]
    fn construction_and_length() {
        let road = line_road();
        let t = Trajectory::new(vec![0, 1, 2], vec![0, 1]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.origin(), Some(0));
        assert_eq!(t.destination(), Some(2));
        assert_eq!(t.length_m(&road), 200.0);
        assert!(t.is_consistent(&road));
    }

    #[test]
    fn inconsistent_edges_detected() {
        let road = line_road();
        let t = Trajectory { nodes: vec![0, 2], edges: vec![0] }; // edge 0 joins 0-1
        assert!(!t.is_consistent(&road));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        Trajectory::new(vec![0, 1, 2], vec![0]);
    }

    #[test]
    fn empty_trajectory() {
        let t = Trajectory::new(vec![], vec![]);
        assert!(t.is_empty());
        assert_eq!(t.origin(), None);
    }
}
