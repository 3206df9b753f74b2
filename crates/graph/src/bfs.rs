//! Unweighted BFS and connected components.

use std::collections::VecDeque;

use crate::dijkstra::WeightedGraph;

/// Hop counts from `source` to every node (ignoring weights); unreachable
/// nodes get `u32::MAX`.
// ctlint::allow(dead-pub): hop-count API; its callers are bfs::tests and the bfs_hops proptest in crates/graph/tests/properties.rs (ROADMAP item 6)
pub fn bfs_hops<G: WeightedGraph + ?Sized>(g: &G, source: u32) -> Vec<u32> {
    let n = g.node_count();
    let mut hops = vec![u32::MAX; n];
    let mut q = VecDeque::new();
    hops[source as usize] = 0;
    q.push_back(source);
    while let Some(u) = q.pop_front() {
        let hu = hops[u as usize];
        g.for_each_neighbor(u, &mut |v, _, _| {
            if hops[v as usize] == u32::MAX {
                hops[v as usize] = hu + 1;
                q.push_back(v);
            }
        });
    }
    hops
}

/// Component label for every node (labels are 0-based and dense).
pub fn connected_components<G: WeightedGraph + ?Sized>(g: &G) -> Vec<u32> {
    let n = g.node_count();
    let mut label = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut q = VecDeque::new();
    for s in 0..n as u32 {
        if label[s as usize] != u32::MAX {
            continue;
        }
        label[s as usize] = next;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            g.for_each_neighbor(u, &mut |v, _, _| {
                if label[v as usize] == u32::MAX {
                    label[v as usize] = next;
                    q.push_back(v);
                }
            });
        }
        next += 1;
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::road::{RoadEdge, RoadNetwork};
    use ct_spatial::Point;

    fn two_islands() -> RoadNetwork {
        // Component A: 0-1-2; component B: 3-4.
        let positions = (0..5).map(|i| Point::new(i as f64, 0.0)).collect();
        let edges = vec![
            RoadEdge { u: 0, v: 1, length: 1.0 },
            RoadEdge { u: 1, v: 2, length: 1.0 },
            RoadEdge { u: 3, v: 4, length: 1.0 },
        ];
        RoadNetwork::new(positions, edges)
    }

    #[test]
    fn hops_and_unreachable() {
        let g = two_islands();
        let h = bfs_hops(&g, 0);
        assert_eq!(h[0], 0);
        assert_eq!(h[1], 1);
        assert_eq!(h[2], 2);
        assert_eq!(h[3], u32::MAX);
    }

    #[test]
    fn components_are_labeled_densely() {
        let g = two_islands();
        let labels = connected_components(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn empty_graph() {
        let g = RoadNetwork::new(vec![], vec![]);
        assert!(connected_components(&g).is_empty());
    }

    #[test]
    fn singleton_nodes_are_own_components() {
        let positions = (0..3).map(|i| Point::new(i as f64, 0.0)).collect();
        let g = RoadNetwork::new(positions, vec![]);
        let labels = connected_components(&g);
        assert_eq!(labels, vec![0, 1, 2]);
    }
}
