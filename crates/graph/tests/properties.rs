//! Property-based tests for the graph substrate.

use ct_graph::{
    bfs_hops, connected_components, dijkstra_all, dijkstra_bounded, dijkstra_tree, global_min_cut,
    reconstruct_path, shortest_path, PathScratch, RoadEdge, RoadNetwork, TransferIndex,
    TransitNetworkBuilder,
};
use ct_spatial::Point;
use proptest::prelude::*;

fn road_strategy(max_n: usize) -> impl Strategy<Value = RoadNetwork> {
    (3..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1.0f64..100.0), 0..3 * n).prop_map(
            move |extra| {
                let positions: Vec<Point> = (0..n)
                    .map(|i| Point::new((i % 7) as f64 * 50.0, (i / 7) as f64 * 50.0))
                    .collect();
                let mut edges: Vec<RoadEdge> =
                    (0..n as u32 - 1).map(|i| RoadEdge { u: i, v: i + 1, length: 10.0 }).collect();
                edges.extend(
                    extra.into_iter().filter(|(u, v, _)| u != v).map(|(u, v, length)| RoadEdge {
                        u,
                        v,
                        length,
                    }),
                );
                RoadNetwork::new(positions, edges)
            },
        )
    })
}

proptest! {
    #[test]
    fn dijkstra_distances_are_symmetric(g in road_strategy(24), s in 0u32..24, t in 0u32..24) {
        let n = g.num_nodes() as u32;
        let (s, t) = (s % n, t % n);
        let fwd = shortest_path(&g, s, t).map(|p| p.dist);
        let bwd = shortest_path(&g, t, s).map(|p| p.dist);
        match (fwd, bwd) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
            (None, None) => {}
            other => prop_assert!(false, "asymmetric reachability {other:?}"),
        }
    }

    #[test]
    fn dijkstra_satisfies_triangle_inequality(g in road_strategy(20), a in 0u32..20, b in 0u32..20) {
        let n = g.num_nodes() as u32;
        let (a, b) = (a % n, b % n);
        let da = dijkstra_all(&g, a);
        let db = dijkstra_all(&g, b);
        for v in 0..n as usize {
            if da[v].is_finite() && db[v].is_finite() && da[b as usize].is_finite() {
                prop_assert!(da[v] <= da[b as usize] + db[v] + 1e-9);
            }
        }
    }

    #[test]
    fn reachability_matches_components(g in road_strategy(20)) {
        let labels = connected_components(&g);
        let d = dijkstra_all(&g, 0);
        for v in 0..g.num_nodes() {
            prop_assert_eq!(labels[v] == labels[0], d[v].is_finite());
        }
    }

    #[test]
    fn bfs_hops_lower_bound_path_edges(g in road_strategy(18), t in 0u32..18) {
        let n = g.num_nodes() as u32;
        let t = t % n;
        let hops = bfs_hops(&g, 0);
        if let Some(p) = shortest_path(&g, 0, t) {
            // Any path has at least as many edges as the BFS hop count.
            prop_assert!(p.edges.len() as u32 >= hops[t as usize]);
        } else {
            prop_assert_eq!(hops[t as usize], u32::MAX);
        }
    }

    #[test]
    fn bounded_dijkstra_agrees_with_full_dijkstra(
        g in road_strategy(20), s in 0u32..20, cutoff in 0.0f64..400.0,
    ) {
        let n = g.num_nodes() as u32;
        let s = s % n;
        let full = dijkstra_all(&g, s);
        let bounded = dijkstra_bounded(&g, s, cutoff);
        // Every settled node matches the full distances.
        for &(v, d) in &bounded {
            prop_assert!((d - full[v as usize]).abs() < 1e-9);
            prop_assert!(d <= cutoff + 1e-9);
        }
        // Every node within the cutoff is settled (no false misses).
        let settled: std::collections::HashSet<u32> =
            bounded.iter().map(|&(v, _)| v).collect();
        for v in 0..n {
            if full[v as usize] <= cutoff {
                prop_assert!(settled.contains(&v), "node {v} within cutoff missed");
            }
        }
    }

    #[test]
    fn early_exit_search_matches_the_full_tree(
        g in road_strategy(24),
        (isolated, ties) in (0usize..3, proptest::collection::vec((0u32..24, 0u32..24, 1u32..4), 0..12)),
        s in 0u32..27,
        picks in proptest::collection::vec(0u32..27, 0..8),
        (cutoff_kind, drawn) in (0u8..3, 0.0f64..120.0),
    ) {
        // The chain's equal 10 m links give distance ties. Extra links of
        // 10, 20 or 30 m add ties between distinct parents, and parallel
        // links (the first parent must keep the node). Isolated nodes
        // appended to the chain give unreachable targets.
        let n = g.num_nodes() as u32;
        let mut edges = g.edges().to_vec();
        edges.extend(ties.iter().filter(|(u, v, _)| u % n != v % n).map(|&(u, v, k)| RoadEdge {
            u: u % n,
            v: v % n,
            length: 10.0 * k as f64,
        }));
        let mut positions = g.positions().to_vec();
        positions.extend((0..isolated).map(|i| Point::new(-100.0 * (i + 1) as f64, 0.0)));
        let g = RoadNetwork::new(positions, edges);
        let n = g.num_nodes() as u32;
        let s = s % n;
        let mut targets: Vec<u32> = picks.iter().map(|&t| t % n).collect();
        if let Some(&first) = targets.first() {
            targets.push(first);
            targets.push(s);
        }
        let cutoff = [0.0, drawn, f64::INFINITY][cutoff_kind as usize];
        let (dist, parent) = dijkstra_tree(&g, s);
        let within = |t: u32| dist[t as usize].is_finite() && dist[t as usize] <= cutoff;
        let mut scratch = PathScratch::new();
        // A search on the reused scratch must not see the previous one.
        scratch.search(&g, (s + 1) % n, &targets, f64::INFINITY);
        scratch.search(&g, s, &targets, cutoff);
        for &t in &targets {
            match scratch.path(t) {
                Some(p) => {
                    prop_assert!(within(t), "{s}->{t} past the cutoff");
                    prop_assert_eq!(p.dist.to_bits(), dist[t as usize].to_bits(), "{s}->{t}");
                    let (nodes, edges) = reconstruct_path(s, t, &parent).unwrap();
                    prop_assert_eq!(p.nodes, nodes, "{s}->{t}");
                    prop_assert_eq!(p.edges, edges, "{s}->{t}");
                }
                None => prop_assert!(!within(t), "{s}->{t} missed"),
            }
        }
        for t in 0..n {
            let tree = reconstruct_path(s, t, &parent)
                .map(|(nodes, edges)| (dist[t as usize].to_bits(), nodes, edges));
            let got = scratch.shortest_path(&g, s, t).map(|p| (p.dist.to_bits(), p.nodes, p.edges));
            prop_assert_eq!(got, tree, "{s}->{t}");
        }
    }

    #[test]
    fn min_cut_weight_bounds_any_single_node_cut(g in road_strategy(16)) {
        let weighted: Vec<(u32, u32, f64)> =
            g.edges().iter().map(|e| (e.u, e.v, e.length)).collect();
        let cut = global_min_cut(g.num_nodes(), &weighted).expect("graphs have ≥ 3 nodes");
        // The global min cut is no heavier than isolating any one node.
        for v in 0..g.num_nodes() as u32 {
            let deg_weight: f64 = g.neighbors(v).iter().map(|&(_, e)| g.edge(e).length).sum();
            prop_assert!(cut.weight <= deg_weight + 1e-9);
        }
        // Partition is a proper, non-empty subset.
        prop_assert!(!cut.partition.is_empty());
        prop_assert!(cut.partition.len() < g.num_nodes());
        // Its weight is exactly the weight crossing the partition.
        let side: std::collections::HashSet<u32> = cut.partition.iter().copied().collect();
        let crossing: f64 = g
            .edges()
            .iter()
            .filter(|e| side.contains(&e.u) != side.contains(&e.v))
            .map(|e| e.length)
            .sum();
        prop_assert!((crossing - cut.weight).abs() < 1e-9, "{crossing} vs {}", cut.weight);
    }

    #[test]
    fn min_cut_is_invariant_under_edge_relabeling(
        edges in proptest::collection::vec((0u32..8, 0u32..8, 1.0f64..9.0), 4..20),
    ) {
        let filtered: Vec<(u32, u32, f64)> =
            edges.into_iter().filter(|(u, v, _)| u != v).collect();
        prop_assume!(filtered.len() >= 3);
        let a = global_min_cut(8, &filtered);
        let mut reversed = filtered.clone();
        reversed.reverse();
        let b = global_min_cut(8, &reversed);
        match (a, b) {
            (Some(x), Some(y)) => prop_assert!((x.weight - y.weight).abs() < 1e-9),
            other => prop_assert!(false, "cut disappeared: {other:?}"),
        }
    }

    #[test]
    fn transfers_are_symmetric_and_triangle_bounded(
        routes in proptest::collection::vec(
            proptest::collection::vec(0u32..30, 2..6), 1..8,
        ),
    ) {
        // Build a transit network over 30 stops from arbitrary route lists.
        let mut b = TransitNetworkBuilder::new();
        for i in 0..30 {
            b.add_stop(i, Point::new(i as f64 * 10.0, 0.0));
        }
        for r in &routes {
            let mut dedup = Vec::new();
            for &s in r {
                if dedup.last() != Some(&s) {
                    dedup.push(s);
                }
            }
            if dedup.len() >= 2 {
                b.add_route(&dedup, |_, _| (10.0, vec![]));
            }
        }
        let net = b.build();
        prop_assume!(net.num_routes() > 0);
        let idx = TransferIndex::new(&net);
        for u in 0..6u32 {
            for v in 0..6u32 {
                prop_assert_eq!(idx.min_transfers(u, v), idx.min_transfers(v, u));
            }
        }
        // Triangle-ish: going u→w cannot need more than u→v→w plus one
        // extra boarding at v.
        for (u, v, w) in [(0u32, 1, 2), (3, 4, 5)] {
            if let (Some(a), Some(b2)) = (idx.min_transfers(u, v), idx.min_transfers(v, w)) {
                if let Some(direct) = idx.min_transfers(u, w) {
                    prop_assert!(direct <= a + b2 + 1);
                }
            }
        }
    }
}
