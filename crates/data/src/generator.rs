//! Deterministic synthetic city generation.
//!
//! Replaces the paper's NYC/Chicago datasets (see "Data ingestion" in
//! docs/ARCHITECTURE.md) with structurally equivalent synthetic inputs:
//!
//! * **road network** — a jittered planar grid with optional diagonal
//!   streets, random edge dropouts, and a coastline mask (Chicago's lake
//!   shore, Manhattan's rivers), reduced to its largest connected component;
//! * **transit network** — bus routes laid along road shortest paths
//!   between distant anchors (biased toward demand hotspots so routes cross
//!   and share stops, as real networks do), with stops every few blocks;
//! * **trajectories** — taxi-style trips drawn from a hotspot mixture and
//!   expanded via road shortest paths, which is precisely the paper's own
//!   trip-record preprocessing (§7.1.1).
//!
//! Everything is a pure function of [`CityConfig`], including its seed.

use ct_graph::{
    connected_components, dijkstra_tree, reconstruct_path, shortest_path, RoadEdge, RoadNetwork,
    TransitNetworkBuilder,
};
use ct_spatial::{GridIndex, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::city::City;
use crate::trajectory::Trajectory;

/// Which side of the map a coastline eats into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoastSide {
    /// Water on the east (Chicago's lakefront).
    East,
    /// Water on the west (Hudson-style).
    West,
    /// Water to the north.
    North,
    /// Water to the south (harbor).
    South,
}

/// Geography mask deciding which grid cells are land.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GeographyMask {
    /// Every cell is land.
    None,
    /// A wavy coastline removes roughly `base_frac` of the map from `side`,
    /// with a sinusoidal shore of amplitude `amplitude_frac`.
    Coastline {
        /// Which side the water eats from.
        side: CoastSide,
        /// Average fraction of the map that is water.
        base_frac: f64,
        /// Amplitude of the sinusoidal shoreline.
        amplitude_frac: f64,
    },
}

impl GeographyMask {
    /// Whether the normalized grid position `(fx, fy) ∈ [0,1]²` is land.
    pub fn is_land(&self, fx: f64, fy: f64) -> bool {
        match *self {
            GeographyMask::None => true,
            GeographyMask::Coastline { side, base_frac, amplitude_frac } => {
                let (along, across) = match side {
                    CoastSide::East => (fy, fx),
                    CoastSide::West => (fy, 1.0 - fx),
                    CoastSide::North => (fx, 1.0 - fy),
                    CoastSide::South => (fx, fy),
                };
                let shore =
                    1.0 - base_frac + amplitude_frac * (along * 3.0 * std::f64::consts::PI).sin();
                across <= shore
            }
        }
    }
}

/// Configuration for the synthetic city generator.
///
/// All presets are tuned so their Table 5-style statistics track the paper's
/// datasets at a 4–10× reduced scale (the `table5` experiment prints the
/// paper's figures beside them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CityConfig {
    /// Dataset name.
    pub name: String,
    /// Grid rows (north–south blocks).
    pub rows: usize,
    /// Grid columns (east–west blocks).
    pub cols: usize,
    /// Block spacing in meters.
    pub spacing_m: f64,
    /// Positional jitter applied to every intersection, in meters.
    pub jitter_m: f64,
    /// Probability of adding a diagonal street per cell.
    pub diagonal_prob: f64,
    /// Probability of dropping a grid street.
    pub edge_drop_prob: f64,
    /// Land/water mask.
    pub mask: GeographyMask,
    /// Number of bus routes.
    pub n_routes: usize,
    /// Stops are placed every this many road nodes along a route path.
    pub stop_spacing_blocks: usize,
    /// Maximum stops per route (paths are truncated beyond this).
    pub max_stops_per_route: usize,
    /// Number of trajectories to synthesize.
    pub n_trajectories: usize,
    /// Number of demand hotspots.
    pub n_hotspots: usize,
    /// Hotspot spatial spread (Gaussian σ) in meters.
    pub hotspot_sigma_m: f64,
    /// Probability that a route anchor / trip endpoint is hotspot-drawn
    /// (the rest are uniform).
    pub hotspot_bias: f64,
    /// RNG seed; same config + seed ⇒ identical city.
    pub seed: u64,
}

impl CityConfig {
    /// Tiny city for unit tests and doc examples (runs in milliseconds).
    pub fn small() -> Self {
        CityConfig {
            name: "small".into(),
            rows: 12,
            cols: 12,
            spacing_m: 150.0,
            jitter_m: 15.0,
            diagonal_prob: 0.05,
            edge_drop_prob: 0.05,
            mask: GeographyMask::None,
            n_routes: 8,
            stop_spacing_blocks: 2,
            max_stops_per_route: 14,
            n_trajectories: 1_500,
            n_hotspots: 4,
            hotspot_sigma_m: 300.0,
            hotspot_bias: 0.6,
            seed: 1,
        }
    }

    /// Mid-size city for integration tests and quick experiments.
    pub fn medium() -> Self {
        CityConfig {
            name: "medium".into(),
            rows: 28,
            cols: 28,
            spacing_m: 140.0,
            jitter_m: 18.0,
            diagonal_prob: 0.06,
            edge_drop_prob: 0.06,
            mask: GeographyMask::None,
            n_routes: 24,
            stop_spacing_blocks: 3,
            max_stops_per_route: 22,
            n_trajectories: 12_000,
            n_hotspots: 6,
            hotspot_sigma_m: 500.0,
            hotspot_bias: 0.6,
            seed: 2,
        }
    }

    /// Chicago-scale stand-in: elongated grid against an eastern lake shore.
    pub fn chicago_like() -> Self {
        CityConfig {
            name: "chicago-like".into(),
            rows: 90,
            cols: 48,
            spacing_m: 130.0,
            jitter_m: 15.0,
            diagonal_prob: 0.05,
            edge_drop_prob: 0.05,
            mask: GeographyMask::Coastline {
                side: CoastSide::East,
                base_frac: 0.18,
                amplitude_frac: 0.05,
            },
            n_routes: 60,
            stop_spacing_blocks: 3,
            max_stops_per_route: 40,
            n_trajectories: 40_000,
            n_hotspots: 10,
            hotspot_sigma_m: 700.0,
            hotspot_bias: 0.65,
            seed: 3,
        }
    }

    /// NYC-scale stand-in: denser, larger, western river mask.
    pub fn nyc_like() -> Self {
        CityConfig {
            name: "nyc-like".into(),
            rows: 95,
            cols: 85,
            spacing_m: 120.0,
            jitter_m: 14.0,
            diagonal_prob: 0.04,
            edge_drop_prob: 0.05,
            mask: GeographyMask::Coastline {
                side: CoastSide::West,
                base_frac: 0.10,
                amplitude_frac: 0.04,
            },
            n_routes: 115,
            stop_spacing_blocks: 3,
            max_stops_per_route: 30,
            n_trajectories: 50_000,
            n_hotspots: 14,
            hotspot_sigma_m: 650.0,
            hotspot_bias: 0.6,
            seed: 4,
        }
    }

    /// Manhattan-like borough: long, narrow, densely routed.
    pub fn manhattan_like() -> Self {
        CityConfig {
            name: "manhattan-like".into(),
            rows: 70,
            cols: 14,
            spacing_m: 120.0,
            jitter_m: 10.0,
            diagonal_prob: 0.02,
            edge_drop_prob: 0.03,
            mask: GeographyMask::None,
            n_routes: 26,
            stop_spacing_blocks: 3,
            max_stops_per_route: 28,
            n_trajectories: 15_000,
            n_hotspots: 6,
            hotspot_sigma_m: 450.0,
            hotspot_bias: 0.65,
            seed: 5,
        }
    }

    /// Queens-like borough: broad and sprawling.
    pub fn queens_like() -> Self {
        CityConfig {
            name: "queens-like".into(),
            rows: 45,
            cols: 45,
            spacing_m: 150.0,
            jitter_m: 20.0,
            diagonal_prob: 0.05,
            edge_drop_prob: 0.07,
            mask: GeographyMask::None,
            n_routes: 28,
            stop_spacing_blocks: 3,
            max_stops_per_route: 26,
            n_trajectories: 15_000,
            n_hotspots: 8,
            hotspot_sigma_m: 700.0,
            hotspot_bias: 0.6,
            seed: 6,
        }
    }

    /// Brooklyn-like borough.
    pub fn brooklyn_like() -> Self {
        CityConfig {
            name: "brooklyn-like".into(),
            rows: 40,
            cols: 40,
            spacing_m: 140.0,
            jitter_m: 18.0,
            diagonal_prob: 0.05,
            edge_drop_prob: 0.06,
            mask: GeographyMask::Coastline {
                side: CoastSide::South,
                base_frac: 0.08,
                amplitude_frac: 0.05,
            },
            n_routes: 26,
            stop_spacing_blocks: 3,
            max_stops_per_route: 24,
            n_trajectories: 14_000,
            n_hotspots: 7,
            hotspot_sigma_m: 600.0,
            hotspot_bias: 0.6,
            seed: 7,
        }
    }

    /// Staten-Island-like borough: small and sparsely connected.
    pub fn staten_island_like() -> Self {
        CityConfig {
            name: "staten-island-like".into(),
            rows: 26,
            cols: 26,
            spacing_m: 170.0,
            jitter_m: 25.0,
            diagonal_prob: 0.03,
            edge_drop_prob: 0.12,
            mask: GeographyMask::Coastline {
                side: CoastSide::East,
                base_frac: 0.10,
                amplitude_frac: 0.06,
            },
            n_routes: 13,
            stop_spacing_blocks: 3,
            max_stops_per_route: 22,
            n_trajectories: 6_000,
            n_hotspots: 4,
            hotspot_sigma_m: 500.0,
            hotspot_bias: 0.55,
            seed: 8,
        }
    }

    /// Bronx-like borough.
    pub fn bronx_like() -> Self {
        CityConfig {
            name: "bronx-like".into(),
            rows: 32,
            cols: 30,
            spacing_m: 140.0,
            jitter_m: 18.0,
            diagonal_prob: 0.04,
            edge_drop_prob: 0.07,
            mask: GeographyMask::None,
            n_routes: 18,
            stop_spacing_blocks: 3,
            max_stops_per_route: 22,
            n_trajectories: 10_000,
            n_hotspots: 5,
            hotspot_sigma_m: 550.0,
            hotspot_bias: 0.6,
            seed: 9,
        }
    }

    /// Overrides the seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the trajectory count (builder style).
    pub fn trajectories(mut self, n: usize) -> Self {
        self.n_trajectories = n;
        self
    }

    /// Overrides the route count (builder style).
    pub fn routes(mut self, n: usize) -> Self {
        self.n_routes = n;
        self
    }

    /// Generates the city.
    ///
    /// # Panics
    /// Panics on degenerate configurations (fewer than 2×2 grid cells, zero
    /// spacing, or a mask that drowns the whole map).
    pub fn generate(&self) -> City {
        assert!(self.rows >= 2 && self.cols >= 2, "grid must be at least 2×2");
        assert!(self.spacing_m > 0.0, "spacing must be positive");
        assert!(self.stop_spacing_blocks >= 1, "stop spacing must be ≥ 1");
        let mut rng = StdRng::seed_from_u64(self.seed);

        let road = self.generate_road(&mut rng);
        let hotspots = self.sample_hotspots(&road, &mut rng);
        let transit = self.generate_transit(&road, &hotspots, &mut rng);
        let trajectories = self.generate_trajectories(&road, &hotspots, &mut rng);

        City::new(self.name.clone(), road, transit, trajectories)
    }

    fn generate_road(&self, rng: &mut StdRng) -> RoadNetwork {
        let (rows, cols) = (self.rows, self.cols);
        let mut node_of = vec![u32::MAX; rows * cols];
        let mut positions = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let fx = c as f64 / (cols - 1) as f64;
                let fy = r as f64 / (rows - 1) as f64;
                if !self.mask.is_land(fx, fy) {
                    continue;
                }
                let jitter = |rng: &mut StdRng| rng.gen_range(-self.jitter_m..=self.jitter_m);
                let p = Point::new(
                    c as f64 * self.spacing_m + jitter(rng),
                    r as f64 * self.spacing_m + jitter(rng),
                );
                node_of[r * cols + c] = positions.len() as u32;
                positions.push(p);
            }
        }
        assert!(positions.len() >= 4, "mask drowned the map");

        let mut edges = Vec::new();
        let mut push_edge = |u: u32, v: u32, positions: &[Point]| {
            let length = positions[u as usize].dist(&positions[v as usize]).max(1.0);
            edges.push(RoadEdge { u, v, length });
        };
        for r in 0..rows {
            for c in 0..cols {
                let u = node_of[r * cols + c];
                if u == u32::MAX {
                    continue;
                }
                // Rightward and downward grid streets.
                if c + 1 < cols {
                    let v = node_of[r * cols + c + 1];
                    if v != u32::MAX && rng.gen::<f64>() >= self.edge_drop_prob {
                        push_edge(u, v, &positions);
                    }
                }
                if r + 1 < rows {
                    let v = node_of[(r + 1) * cols + c];
                    if v != u32::MAX && rng.gen::<f64>() >= self.edge_drop_prob {
                        push_edge(u, v, &positions);
                    }
                }
                // Occasional diagonal street.
                if r + 1 < rows && c + 1 < cols && rng.gen::<f64>() < self.diagonal_prob {
                    let v = node_of[(r + 1) * cols + c + 1];
                    if v != u32::MAX {
                        push_edge(u, v, &positions);
                    }
                }
            }
        }

        // Keep the largest connected component and reindex.
        let full = RoadNetwork::new(positions, edges);
        let labels = connected_components(&full);
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for &l in &labels {
            *counts.entry(l).or_insert(0) += 1;
        }
        let main = counts
            .into_iter()
            .max_by_key(|&(_, c)| c)
            .map(|(l, _)| l)
            .expect("at least one component");
        let mut remap = vec![u32::MAX; full.num_nodes()];
        let mut kept_positions = Vec::new();
        for (i, &l) in labels.iter().enumerate() {
            if l == main {
                remap[i] = kept_positions.len() as u32;
                kept_positions.push(full.position(i as u32));
            }
        }
        let kept_edges: Vec<RoadEdge> = full
            .edges()
            .iter()
            .filter(|e| remap[e.u as usize] != u32::MAX && remap[e.v as usize] != u32::MAX)
            .map(|e| RoadEdge { u: remap[e.u as usize], v: remap[e.v as usize], length: e.length })
            .collect();
        RoadNetwork::new(kept_positions, kept_edges)
    }

    fn sample_hotspots(&self, road: &RoadNetwork, rng: &mut StdRng) -> Vec<(Point, f64)> {
        (0..self.n_hotspots.max(1))
            .map(|_| {
                let node = rng.gen_range(0..road.num_nodes() as u32);
                (road.position(node), rng.gen_range(0.5..1.5))
            })
            .collect()
    }

    /// Samples a road node, biased toward hotspots.
    fn sample_node(
        &self,
        road: &RoadNetwork,
        index: &GridIndex,
        hotspots: &[(Point, f64)],
        rng: &mut StdRng,
    ) -> u32 {
        if rng.gen::<f64>() < self.hotspot_bias && !hotspots.is_empty() {
            let total: f64 = hotspots.iter().map(|h| h.1).sum();
            let mut pick = rng.gen_range(0.0..total);
            let mut center = hotspots[0].0;
            for &(p, w) in hotspots {
                if pick < w {
                    center = p;
                    break;
                }
                pick -= w;
            }
            let gauss = |rng: &mut StdRng| {
                let u1: f64 = 1.0 - rng.gen::<f64>();
                let u2: f64 = rng.gen::<f64>();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            };
            let target = Point::new(
                center.x + gauss(rng) * self.hotspot_sigma_m,
                center.y + gauss(rng) * self.hotspot_sigma_m,
            );
            if let Some(n) = index.nearest(&target) {
                return n;
            }
        }
        rng.gen_range(0..road.num_nodes() as u32)
    }

    fn generate_transit(
        &self,
        road: &RoadNetwork,
        hotspots: &[(Point, f64)],
        rng: &mut StdRng,
    ) -> ct_graph::TransitNetwork {
        let index = GridIndex::build(self.spacing_m.max(1.0), road.positions());
        let diameter = {
            let corner_a = index.nearest(&Point::new(0.0, 0.0));
            let corner_b = index.nearest(&Point::new(
                self.cols as f64 * self.spacing_m,
                self.rows as f64 * self.spacing_m,
            ));
            match (corner_a, corner_b) {
                (Some(a), Some(b)) => road.position(a).dist(&road.position(b)),
                _ => self.spacing_m * (self.rows + self.cols) as f64 / 2.0,
            }
        };

        let mut builder = TransitNetworkBuilder::new();
        let mut stop_of_node: HashMap<u32, u32> = HashMap::new();
        let mut node_of_stop: Vec<u32> = Vec::new();
        let mut routes_built = 0usize;
        let mut attempts = 0usize;
        while routes_built < self.n_routes && attempts < self.n_routes * 30 {
            attempts += 1;
            let a = self.sample_node(road, &index, hotspots, rng);
            let mut b = self.sample_node(road, &index, hotspots, rng);
            // Prefer distant anchors so routes are corridors, not stubs.
            for _ in 0..10 {
                if road.position(a).dist(&road.position(b)) >= 0.35 * diameter {
                    break;
                }
                b = self.sample_node(road, &index, hotspots, rng);
            }
            if a == b {
                continue;
            }
            let Some(path) = shortest_path(road, a, b) else { continue };
            if path.nodes.len() < self.stop_spacing_blocks + 1 {
                continue;
            }

            // Place stops every `stop_spacing_blocks` nodes along the path.
            let mut stop_nodes: Vec<usize> =
                (0..path.nodes.len()).step_by(self.stop_spacing_blocks).collect();
            if *stop_nodes.last().unwrap() != path.nodes.len() - 1 {
                stop_nodes.push(path.nodes.len() - 1);
            }
            stop_nodes.truncate(self.max_stops_per_route);
            if stop_nodes.len() < 2 {
                continue;
            }

            let mut stop_seq = Vec::with_capacity(stop_nodes.len());
            for &pi in &stop_nodes {
                let node = path.nodes[pi];
                let sid = *stop_of_node.entry(node).or_insert_with(|| {
                    node_of_stop.push(node);
                    builder.add_stop(node, road.position(node))
                });
                // Shared stops can make consecutive entries identical when two
                // path nodes map to one stop; skip duplicates.
                if stop_seq.last() != Some(&sid) {
                    stop_seq.push(sid);
                }
            }
            if stop_seq.len() < 2 {
                continue;
            }

            // Geometry per consecutive stop pair: the road sub-path.
            let mut seg_geom: HashMap<(u32, u32), (f64, Vec<u32>)> = HashMap::new();
            {
                let mut cursor = 0usize;
                for w in stop_seq.windows(2) {
                    // Advance cursor to the path index of w[1]'s road node.
                    let from_node = node_of_stop[w[0] as usize];
                    let to_node = node_of_stop[w[1] as usize];
                    debug_assert_eq!(path.nodes[cursor], from_node);
                    let mut end = cursor + 1;
                    while path.nodes[end] != to_node {
                        end += 1;
                    }
                    let seg_edges: Vec<u32> = path.edges[cursor..end].to_vec();
                    let len: f64 = seg_edges.iter().map(|&e| road.edge(e).length).sum();
                    let key = (w[0].min(w[1]), w[0].max(w[1]));
                    seg_geom.entry(key).or_insert((len.max(1.0), seg_edges));
                    cursor = end;
                }
            }
            builder.add_route(&stop_seq, |u, v| {
                seg_geom
                    .get(&(u.min(v), u.max(v)))
                    .cloned()
                    .expect("geometry prepared for every segment")
            });
            routes_built += 1;
        }
        builder.build()
    }

    fn generate_trajectories(
        &self,
        road: &RoadNetwork,
        hotspots: &[(Point, f64)],
        rng: &mut StdRng,
    ) -> Vec<Trajectory> {
        if self.n_trajectories == 0 {
            return Vec::new();
        }
        let index = GridIndex::build(self.spacing_m.max(1.0), road.positions());
        let n_origins = (self.n_trajectories / 25).clamp(8, 400);
        let origins: Vec<u32> =
            (0..n_origins).map(|_| self.sample_node(road, &index, hotspots, rng)).collect();

        let mut out = Vec::with_capacity(self.n_trajectories);
        let per_origin = self.n_trajectories / origins.len() + 1;
        'outer: for &origin in &origins {
            let (_, parent) = dijkstra_tree(road, origin);
            for _ in 0..per_origin {
                if out.len() >= self.n_trajectories {
                    break 'outer;
                }
                let mut dest = self.sample_node(road, &index, hotspots, rng);
                let mut tries = 0;
                while (dest == origin || parent[dest as usize].is_none()) && tries < 10 {
                    dest = self.sample_node(road, &index, hotspots, rng);
                    tries += 1;
                }
                if dest == origin || parent[dest as usize].is_none() {
                    continue;
                }
                if let Some((nodes, edges)) = reconstruct_path(origin, dest, &parent) {
                    out.push(Trajectory::new(nodes, edges));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_city_is_consistent() {
        let city = CityConfig::small().generate();
        assert!(city.validate().is_empty(), "{:?}", city.validate());
        let s = city.stats();
        assert!(s.road_nodes > 50);
        assert!(s.routes >= 2);
        assert!(s.stops >= 10);
        assert!(s.trajectories > 500);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CityConfig::small().generate();
        let b = CityConfig::small().generate();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.trajectories, b.trajectories);
        assert_eq!(a.road.positions(), b.road.positions());
    }

    #[test]
    fn different_seeds_differ() {
        let a = CityConfig::small().seed(1).generate();
        let b = CityConfig::small().seed(2).generate();
        // Positions are jittered per-seed; collisions are essentially impossible.
        assert_ne!(a.road.positions(), b.road.positions());
    }

    #[test]
    fn road_is_connected() {
        let city = CityConfig::small().seed(3).generate();
        assert!(
            connected_components(&city.road).iter().all(|&l| l == 0),
            "road network must be a single component"
        );
    }

    #[test]
    fn routes_share_stops() {
        // Crossing routes (shared stops) are what makes transfers possible;
        // the generator's hotspot bias must produce some.
        let city = CityConfig::medium().generate();
        let total_visits: usize = city.transit.routes().iter().map(|r| r.stops.len()).sum();
        assert!(
            total_visits > city.transit.num_stops(),
            "no stop sharing: {} visits over {} stops",
            total_visits,
            city.transit.num_stops()
        );
    }

    #[test]
    fn coastline_mask_removes_land() {
        let m =
            GeographyMask::Coastline { side: CoastSide::East, base_frac: 0.3, amplitude_frac: 0.0 };
        assert!(m.is_land(0.5, 0.5));
        assert!(!m.is_land(0.9, 0.5));
        assert!(GeographyMask::None.is_land(0.99, 0.99));
    }

    #[test]
    fn coastline_sides_are_oriented() {
        let west =
            GeographyMask::Coastline { side: CoastSide::West, base_frac: 0.3, amplitude_frac: 0.0 };
        assert!(!west.is_land(0.05, 0.5));
        assert!(west.is_land(0.9, 0.5));
        let north = GeographyMask::Coastline {
            side: CoastSide::North,
            base_frac: 0.3,
            amplitude_frac: 0.0,
        };
        assert!(!north.is_land(0.5, 0.05));
        assert!(north.is_land(0.5, 0.9));
    }

    #[test]
    fn trajectory_count_honored() {
        let city = CityConfig::small().trajectories(200).generate();
        assert_eq!(city.trajectories.len(), 200);
    }

    #[test]
    fn zero_trajectories_ok() {
        let city = CityConfig::small().trajectories(0).generate();
        assert!(city.trajectories.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 2×2")]
    fn degenerate_grid_panics() {
        let mut c = CityConfig::small();
        c.rows = 1;
        c.generate();
    }

    #[test]
    fn transit_edges_have_road_geometry() {
        let city = CityConfig::small().seed(11).generate();
        for e in city.transit.edges() {
            assert!(!e.road_edges.is_empty(), "transit edge without road path");
            let len: f64 = e.road_edges.iter().map(|&re| city.road.edge(re).length).sum();
            assert!((len - e.length).abs() < 1e-6, "length mismatch: {} vs {}", len, e.length);
        }
    }
}
