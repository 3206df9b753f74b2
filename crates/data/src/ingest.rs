//! City-scale GTFS ingestion: one snap index and one corridor cache per
//! road network, streaming `stop_times.txt`.
//!
//! [`crate::gtfs::GtfsFeed::into_transit`] is a one-shot convenience: it
//! builds a [`GtfsIngest`], imports once and drops it, so the road-node
//! spatial index and every realized hop path go with it. The paper's real
//! workload (§7.1.1) can be many feeds, or many revisions of one feed,
//! against a single road network, where routes share corridors heavily.
//! [`GtfsIngest`] is the reusable pipeline for that:
//!
//! * [`SnapIndex`] — one [`ct_spatial::GridIndex`] over the road nodes,
//!   built once per road network, with a snap radius (`max_snap_m`) so a
//!   stop far outside the network is *dropped* instead of snapping to an
//!   arbitrary border node and fabricating absurd hops;
//! * a corridor cache — road shortest paths keyed by canonical road-node
//!   pair, shared by **all** routes and kept across imports, so each unique
//!   corridor runs Dijkstra exactly once (counted in [`HopCacheStats`]);
//!   the missing corridors of an import are realized in one
//!   [`ct_graph::shortest_paths_batch`] over all cores;
//! * imports either from a parsed [`GtfsFeed`] ([`GtfsIngest::import`]) or
//!   streaming straight from a feed directory ([`GtfsIngest::import_dir`]),
//!   which never materializes the full `stop_times.txt` table.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::path::Path;

use ct_graph::{shortest_paths_batch, RoadNetwork, TransitNetwork, TransitNetworkBuilder};
use ct_spatial::{GeoPoint, GridIndex, Point, Projection};

use crate::gtfs::{
    parse_routes, parse_stops, parse_trips, GtfsError, GtfsFeed, GtfsImportStats, GtfsStop,
    StopTimesReader,
};

/// Cell size of the road-node snap grid, meters.
pub const DEFAULT_SNAP_CELL_M: f64 = 250.0;

/// Default snap radius: a GTFS stop farther than this from every road node
/// is dropped rather than snapped (paper's stop-spacing scale, τ = 500 m).
pub const DEFAULT_MAX_SNAP_M: f64 = 500.0;

/// A road-node spatial index built once per road network and shared across
/// imports, with a snap radius cap.
///
/// Replaces the `GridIndex::build(250.0, …)` that the importer used to run
/// inside every call, and fixes the unbounded-`nearest` bug: the plain
/// index *always* resolves, so a stop 50 km outside the network would snap
/// to a border node and fabricate absurd hops.
#[derive(Debug, Clone)]
pub struct SnapIndex {
    index: GridIndex,
    max_snap_m: f64,
}

impl SnapIndex {
    /// Builds the index over `road`'s nodes with [`DEFAULT_MAX_SNAP_M`].
    pub fn build(road: &RoadNetwork) -> Self {
        SnapIndex {
            index: GridIndex::build(DEFAULT_SNAP_CELL_M, road.positions()),
            max_snap_m: DEFAULT_MAX_SNAP_M,
        }
    }

    /// Overrides the snap radius (builder style). `f64::INFINITY` restores
    /// the legacy always-resolve behaviour.
    pub fn with_max_snap_m(mut self, max_snap_m: f64) -> Self {
        self.max_snap_m = max_snap_m;
        self
    }

    /// Nearest road node within the snap radius, as `(node, distance_m)`;
    /// `None` if every road node is farther than `max_snap_m`.
    pub fn snap(&self, p: &Point) -> Option<(u32, f64)> {
        let node = self.index.nearest_within(p, self.max_snap_m)?;
        Some((node, self.index.point(node).dist(p)))
    }
}

/// A realized corridor: `(path length, road edge ids)`; `None` when no
/// road path connects the pair.
type HopPath = Option<(f64, Vec<u32>)>;

/// The cache key of corridor `(a, b)`: the unordered road-node pair.
fn corridor(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

/// Counters of a [`GtfsIngest`]'s corridor cache: how much corridor reuse
/// saved, over every import so far. Every corridor request lands in
/// exactly one of `hits` and `dijkstra_runs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopCacheStats {
    /// Dijkstra runs performed: exactly one per unique corridor, ever.
    pub dijkstra_runs: usize,
    /// Corridor requests answered from the cache (within an import, across
    /// routes, or across imports).
    pub hits: usize,
    /// Unique corridors with no connecting road path.
    pub unroutable: usize,
}

/// Reusable GTFS import pipeline for one road network: a [`SnapIndex`] and
/// a corridor cache that persist across imports.
///
/// ```
/// use ct_data::{CityConfig, GtfsFeed, GtfsIngest};
/// use ct_spatial::{GeoPoint, Projection};
///
/// let city = CityConfig::small().seed(3).generate();
/// let proj = Projection::new(GeoPoint::new(41.85, -87.65));
/// let feed = GtfsFeed::from_transit(&city.transit, &proj);
///
/// let mut ingest = GtfsIngest::new(&city.road);
/// let (net, stats) = ingest.import(&feed, &proj).unwrap();
/// assert_eq!(net.num_stops(), stats.stops);
/// // Every transit edge is one corridor, and each ran Dijkstra exactly once;
/// // the hops that repeat a corridor were answered from the cache.
/// let runs = ingest.stats().dijkstra_runs;
/// assert_eq!(runs, net.num_edges());
/// let hops: usize = net.routes().iter().map(|r| r.stops.len() - 1).sum();
/// assert_eq!(runs + ingest.stats().hits, hops);
/// // A re-import answers every hop from the cache.
/// ingest.import(&feed, &proj).unwrap();
/// assert_eq!(ingest.stats().dijkstra_runs, runs);
/// ```
#[derive(Debug)]
pub struct GtfsIngest<'a> {
    road: &'a RoadNetwork,
    snap: SnapIndex,
    /// Canonical road-node pair → realized path, in the orientation of the
    /// corridor's first request (what the builder puts on the first transit
    /// edge using it).
    corridors: HashMap<(u32, u32), HopPath>,
    stats: HopCacheStats,
}

impl<'a> GtfsIngest<'a> {
    /// Builds the pipeline for `road`: snap index with
    /// [`DEFAULT_MAX_SNAP_M`], empty corridor cache.
    pub fn new(road: &'a RoadNetwork) -> Self {
        GtfsIngest {
            road,
            snap: SnapIndex::build(road),
            corridors: HashMap::new(),
            stats: HopCacheStats::default(),
        }
    }

    /// Corridor-cache counters, accumulated over every import so far.
    pub fn stats(&self) -> HopCacheStats {
        self.stats
    }

    /// Realizes every corridor in `wanted` that the cache lacks, in one
    /// [`shortest_paths_batch`] over all cores, and returns the path of
    /// **each** `wanted` entry, in order (`None` = unroutable).
    ///
    /// Corridors may repeat (the importer feeds every hop of every route);
    /// each is realized once, in the orientation of its first request, and
    /// every request it answers after that counts as a hit.
    fn realize(&mut self, wanted: &[(u32, u32)]) -> Vec<&HopPath> {
        let mut missing: Vec<(u32, u32)> = Vec::new();
        let mut queued: HashSet<(u32, u32)> = HashSet::new();
        for &(a, b) in wanted {
            let key = corridor(a, b);
            if self.corridors.contains_key(&key) || !queued.insert(key) {
                self.stats.hits += 1;
            } else {
                missing.push((a, b));
            }
        }
        let results = shortest_paths_batch(self.road, &missing, 0);
        self.stats.dijkstra_runs += missing.len();
        for (&(a, b), result) in missing.iter().zip(results) {
            let path = result.map(|p| (p.dist, p.edges));
            self.stats.unroutable += usize::from(path.is_none());
            self.corridors.insert(corridor(a, b), path);
        }
        wanted.iter().map(|&(a, b)| &self.corridors[&corridor(a, b)]).collect()
    }

    /// Imports a parsed feed. See [`GtfsFeed::into_transit`] for the
    /// robustness rules; unlike that convenience, the snap index and the
    /// corridor cache persist for the next import.
    pub fn import(
        &mut self,
        feed: &GtfsFeed,
        projection: &Projection,
    ) -> Result<(TransitNetwork, GtfsImportStats), GtfsError> {
        let sequences = feed.route_stop_sequences()?;
        self.assemble(&feed.stops, &sequences, projection)
    }

    /// Imports a feed directory, streaming `stop_times.txt` through
    /// [`StopTimesReader`] — the full table is never materialized, so peak
    /// memory beyond the (small) other tables is one in-flight trip group
    /// plus each route's current representative sequence.
    ///
    /// Produces bit-identical output to `GtfsFeed::load_dir` +
    /// [`GtfsIngest::import`] for feeds whose `stop_times.txt` is grouped
    /// by `trip_id` (the GTFS norm). A trip whose records are scattered
    /// across non-adjacent blocks raises [`GtfsError::BadRecord`] telling
    /// the caller to use the eager path.
    pub fn import_dir(
        &mut self,
        dir: impl AsRef<Path>,
        projection: &Projection,
    ) -> Result<(TransitNetwork, GtfsImportStats), GtfsError> {
        let dir = dir.as_ref();
        let open = |name: &str| -> Result<std::io::BufReader<std::fs::File>, GtfsError> {
            Ok(std::io::BufReader::new(std::fs::File::open(dir.join(name))?))
        };
        let stops = parse_stops(open("stops.txt")?)?;
        let routes = parse_routes(open("routes.txt")?)?;
        let trips = parse_trips(open("trips.txt")?)?;

        // Mirror `route_stop_sequences`' reference validation. A trip id
        // listed for several routes (duplicate trips.txt rows) makes its
        // records a representative candidate for each, as in the eager path.
        let route_ids: HashSet<&str> = routes.iter().map(|r| r.id.as_str()).collect();
        let mut trip_info: HashMap<&str, Vec<(usize, &str)>> = HashMap::new();
        for (i, trip) in trips.iter().enumerate() {
            if !route_ids.contains(trip.route_id.as_str()) {
                return Err(GtfsError::DanglingReference {
                    kind: "route",
                    id: trip.route_id.clone(),
                });
            }
            trip_info.entry(trip.id.as_str()).or_default().push((i, trip.route_id.as_str()));
        }
        let stop_ids: HashSet<&str> = stops.iter().map(|s| s.id.as_str()).collect();

        // One pass over stop_times: keep only each route's best (longest,
        // earliest-in-trips.txt on ties) representative so far, as
        // `(trips.txt index, records)`.
        type RepTrip = (usize, Vec<(u32, String)>);
        let mut best: HashMap<&str, RepTrip> = HashMap::new();
        let mut closed: HashSet<String> = HashSet::new();
        for group in StopTimesReader::new(open("stop_times.txt")?)? {
            let group = group?;
            for (_, stop_id) in &group.records {
                if !stop_ids.contains(stop_id.as_str()) {
                    return Err(GtfsError::DanglingReference { kind: "stop", id: stop_id.clone() });
                }
            }
            if !closed.insert(group.trip_id.clone()) {
                return Err(GtfsError::BadRecord {
                    file: "stop_times.txt",
                    line: group.line,
                    reason: format!(
                        "trip `{}` reappears after other trips; streaming import needs \
                         stop_times grouped by trip_id (load_dir + into_transit handles \
                         unsorted feeds)",
                        group.trip_id
                    ),
                });
            }
            let Some(info) = trip_info.get(group.trip_id.as_str()) else {
                continue; // records of trips absent from trips.txt are ignored
            };
            for &(trip_idx, route_id) in info {
                match best.entry(route_id) {
                    Entry::Vacant(slot) => {
                        slot.insert((trip_idx, group.records.clone()));
                    }
                    Entry::Occupied(mut slot) => {
                        let (cur_idx, cur) = slot.get();
                        if group.records.len() > cur.len()
                            || (group.records.len() == cur.len() && trip_idx < *cur_idx)
                        {
                            slot.insert((trip_idx, group.records.clone()));
                        }
                    }
                }
            }
        }

        let mut sequences = Vec::new();
        for route in &routes {
            let Some((_, records)) = best.get_mut(route.id.as_str()) else { continue };
            records.sort_by_key(|&(seq, _)| seq);
            let seq = records.iter().map(|(_, sid)| sid.clone()).collect();
            sequences.push((route.id.clone(), seq));
        }
        self.assemble(&stops, &sequences, projection)
    }

    /// Shared back half of both import paths: snap referenced stops,
    /// realize the missing corridors in one parallel batch, split routes at
    /// unroutable hops, and build the network from the surviving pieces.
    fn assemble(
        &mut self,
        stops: &[GtfsStop],
        sequences: &[(String, Vec<String>)],
        projection: &Projection,
    ) -> Result<(TransitNetwork, GtfsImportStats), GtfsError> {
        let mut stats = GtfsImportStats::default();

        // Snap only stops some route references (referential hygiene: the
        // old importer added every stop in stops.txt, inflating the matrix
        // dimension with orphan zero-degree stops).
        let referenced: HashSet<&str> =
            sequences.iter().flat_map(|(_, seq)| seq.iter().map(String::as_str)).collect();
        let mut snapped: HashMap<&str, (u32, f64)> = HashMap::new();
        for stop in stops {
            if !referenced.contains(stop.id.as_str()) {
                stats.dropped_stops += 1;
                continue;
            }
            let p = projection.project(&GeoPoint::new(stop.lat, stop.lon));
            match self.snap.snap(&p) {
                Some(hit) => {
                    snapped.insert(stop.id.as_str(), hit);
                }
                None => stats.dropped_stops += 1,
            }
        }

        // Road-node sequences (consecutive stops sharing a snapped node
        // merge) and the corridors they need, in first-encounter order.
        let mut node_seqs: Vec<Vec<u32>> = Vec::with_capacity(sequences.len());
        let mut wanted: Vec<(u32, u32)> = Vec::new();
        for (_route_id, seq) in sequences {
            let mut nodes: Vec<u32> = Vec::with_capacity(seq.len());
            for gid in seq {
                let Some(&(node, _)) = snapped.get(gid.as_str()) else { continue };
                if nodes.last() != Some(&node) {
                    nodes.push(node);
                }
            }
            for w in nodes.windows(2) {
                wanted.push((w[0], w[1]));
            }
            node_seqs.push(nodes);
        }

        // One Dijkstra per corridor the cache lacks, in one parallel batch.
        let resolved = self.realize(&wanted);

        // Split each route at unroutable hops; pieces with ≥ 2 stops
        // survive and mark their nodes as used. The hops come in the order
        // `wanted` lists them.
        let mut hops = resolved.into_iter();
        let mut used: HashSet<u32> = HashSet::new();
        let mut route_pieces: Vec<Vec<Vec<u32>>> = Vec::with_capacity(node_seqs.len());
        for nodes in &node_seqs {
            let mut pieces: Vec<Vec<u32>> = Vec::new();
            let mut piece: Vec<u32> = Vec::new();
            for &node in nodes {
                if !piece.is_empty() && hops.next().expect("one path per hop").is_none() {
                    stats.dropped_hops += 1;
                    pieces.push(std::mem::take(&mut piece));
                }
                piece.push(node);
            }
            pieces.push(piece);
            pieces.retain(|p| p.len() >= 2);
            for p in &pieces {
                used.extend(p.iter().copied());
            }
            route_pieces.push(pieces);
        }

        // Stops: stops.txt order, merged by road node, used nodes only.
        let mut builder = TransitNetworkBuilder::new();
        let mut sid_of_node: HashMap<u32, u32> = HashMap::new();
        let mut stop_road: Vec<u32> = Vec::new();
        for stop in stops {
            let Some(&(node, dist)) = snapped.get(stop.id.as_str()) else { continue };
            if !used.contains(&node) {
                stats.dropped_stops += 1;
                continue;
            }
            stats.max_snap_m = stats.max_snap_m.max(dist);
            sid_of_node.entry(node).or_insert_with(|| {
                stop_road.push(node);
                builder.add_stop(node, self.road.position(node))
            });
        }
        stats.stops = builder.num_stops();

        // Routes: every surviving piece becomes one transit route; edge
        // geometry comes straight from the corridor cache.
        for pieces in &route_pieces {
            let mut added = false;
            for piece in pieces {
                let stop_seq: Vec<u32> = piece.iter().map(|n| sid_of_node[n]).collect();
                builder.add_route(&stop_seq, |u, v| {
                    let a = stop_road[u as usize];
                    let b = stop_road[v as usize];
                    self.corridors[&corridor(a, b)].clone().expect("a surviving hop is routable")
                });
                added = true;
                stats.routes += 1;
            }
            if !added {
                stats.dropped_routes += 1;
            }
        }
        if stats.routes == 0 {
            return Err(GtfsError::EmptyFeed);
        }
        Ok((builder.build(), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtfs::{into_transit_reference, GtfsRoute, GtfsStopTime, GtfsTrip};
    use ct_graph::RoadEdge;

    fn assert_net_identical(a: &TransitNetwork, b: &TransitNetwork) {
        assert_eq!(a.stops(), b.stops(), "stops differ");
        assert_eq!(a.edges(), b.edges(), "edges differ");
        assert_eq!(a.routes(), b.routes(), "routes differ");
    }

    /// A `rows × cols` full grid road network, 100 m spacing.
    fn grid_road(rows: u32, cols: u32) -> RoadNetwork {
        let mut positions = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                positions.push(Point::new(c as f64 * 100.0, r as f64 * 100.0));
            }
        }
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let u = r * cols + c;
                if c + 1 < cols {
                    edges.push(RoadEdge { u, v: u + 1, length: 100.0 });
                }
                if r + 1 < rows {
                    edges.push(RoadEdge { u, v: u + cols, length: 100.0 });
                }
            }
        }
        RoadNetwork::new(positions, edges)
    }

    /// A feed over `road` whose routes visit the given node paths, one stop
    /// per node, one trip per route.
    fn feed_over_nodes(road: &RoadNetwork, proj: &Projection, routes: &[Vec<u32>]) -> GtfsFeed {
        let mut referenced: Vec<u32> = routes.iter().flatten().copied().collect();
        referenced.sort_unstable();
        referenced.dedup();
        let stops = referenced
            .iter()
            .map(|&n| {
                let g = proj.unproject(&road.position(n));
                crate::gtfs::GtfsStop {
                    id: format!("S{n}"),
                    name: String::new(),
                    lat: g.lat,
                    lon: g.lon,
                }
            })
            .collect();
        let mut feed =
            GtfsFeed { stops, routes: Vec::new(), trips: Vec::new(), stop_times: Vec::new() };
        for (ri, nodes) in routes.iter().enumerate() {
            feed.routes.push(GtfsRoute { id: format!("R{ri}"), short_name: format!("{ri}") });
            feed.trips.push(GtfsTrip { id: format!("T{ri}"), route_id: format!("R{ri}") });
            for (si, &n) in nodes.iter().enumerate() {
                feed.stop_times.push(GtfsStopTime {
                    trip_id: format!("T{ri}"),
                    stop_id: format!("S{n}"),
                    sequence: si as u32,
                });
            }
        }
        feed
    }

    #[test]
    fn snap_index_enforces_radius() {
        let road = grid_road(3, 3);
        let snap = SnapIndex::build(&road);
        // The default radius: a stop just inside it of node 0 (every other
        // node is farther) snaps there, and one just outside snaps nowhere.
        let inside = snap.snap(&Point::new(-(DEFAULT_MAX_SNAP_M - 1.0), 0.0));
        assert_eq!(inside, Some((0, DEFAULT_MAX_SNAP_M - 1.0)));
        assert!(snap.snap(&Point::new(-(DEFAULT_MAX_SNAP_M + 1.0), 0.0)).is_none());
        let (node, d) = snap.snap(&Point::new(3.0, 4.0)).unwrap();
        assert_eq!(node, 0);
        assert!((d - 5.0).abs() < 1e-9);
        assert!(snap.snap(&Point::new(50_000.0, 50_000.0)).is_none());
        let loose = SnapIndex::build(&road).with_max_snap_m(f64::INFINITY);
        assert_eq!(loose.snap(&Point::new(50_000.0, 50_000.0)).map(|(n, _)| n), Some(8));
    }

    #[test]
    fn hop_cache_runs_one_dijkstra_per_unique_corridor() {
        let road = grid_road(3, 3);
        let mut ingest = GtfsIngest::new(&road);
        // (0,1) requested three times — once reversed — plus (1,2).
        let paths = ingest.realize(&[(0, 1), (1, 2), (1, 0), (0, 1)]);
        assert_eq!(paths.len(), 4);
        assert_eq!(paths[0].as_ref().unwrap().0, 100.0);
        assert_eq!(paths[2], paths[0], "a reversed request reads the same corridor");
        assert_eq!(paths[3], paths[0]);
        let s = ingest.stats();
        assert_eq!(s.dijkstra_runs, 2);
        assert_eq!(s.hits, 2);
        // A later batch over the same corridors runs nothing new.
        let paths = ingest.realize(&[(2, 1), (1, 0)]);
        assert_eq!(paths[1].as_ref().unwrap().0, 100.0);
        assert_eq!(ingest.stats().dijkstra_runs, 2);
        assert_eq!(ingest.stats().hits, 4);
    }

    #[test]
    fn hop_cache_records_unroutable_corridors() {
        let road = RoadNetwork::new(
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0), Point::new(10_000.0, 0.0)],
            vec![RoadEdge { u: 0, v: 1, length: 100.0 }],
        );
        let mut ingest = GtfsIngest::new(&road);
        let paths = ingest.realize(&[(0, 2), (0, 1)]);
        assert!(paths[0].is_none());
        assert!(paths[1].is_some());
        assert_eq!(ingest.stats().unroutable, 1);
        // The unroutable corridor is still cached: asking again runs nothing.
        assert!(ingest.realize(&[(2, 0)])[0].is_none());
        assert_eq!(ingest.stats(), HopCacheStats { dijkstra_runs: 2, hits: 1, unroutable: 1 });
    }

    #[test]
    fn new_pipeline_matches_reference_on_generated_city() {
        let city = crate::CityConfig::small().seed(11).generate();
        let proj = Projection::new(GeoPoint::new(41.85, -87.65));
        let feed = GtfsFeed::from_transit(&city.transit, &proj);
        let (reference, ref_stats) =
            into_transit_reference(&feed, &city.road, &proj).expect("reference import");
        let mut ingest = GtfsIngest::new(&city.road);
        let (net, stats) = ingest.import(&feed, &proj).expect("import");
        assert_net_identical(&net, &reference);
        assert_eq!(stats.stops, ref_stats.stops);
        assert_eq!(stats.routes, ref_stats.routes);
        assert_eq!(stats.dropped_hops, ref_stats.dropped_hops);
        assert_eq!(stats.dropped_routes, ref_stats.dropped_routes);
        assert_eq!(stats.max_snap_m, ref_stats.max_snap_m);
        assert_eq!(stats.dropped_stops, 0);
    }

    /// The acceptance-scale scenario: a city with ≥ 5k stops and ≥ 200
    /// routes sharing corridors imports with exactly one Dijkstra per
    /// unique corridor, and answers a re-import entirely from the cache.
    #[test]
    fn large_city_runs_one_dijkstra_per_unique_corridor() {
        let (rows, cols) = (75u32, 70u32);
        let road = grid_road(rows, cols);
        let proj = Projection::new(GeoPoint::new(41.85, -87.65));
        let node = |r: u32, c: u32| r * cols + c;
        let mut routes: Vec<Vec<u32>> = Vec::new();
        // One route per row and per column (every node referenced)…
        for r in 0..rows {
            routes.push((0..cols).map(|c| node(r, c)).collect());
        }
        for c in 0..cols {
            routes.push((0..rows).map(|r| node(r, c)).collect());
        }
        // …plus 65 L-shaped routes that reuse row/column corridors.
        for i in 0..65u32 {
            let mut path: Vec<u32> = (0..35).map(|c| node(i, c)).collect();
            path.extend((i + 1..(i + 21).min(rows)).map(|r| node(r, 34)));
            routes.push(path);
        }
        assert!(routes.len() >= 200);
        let feed = feed_over_nodes(&road, &proj, &routes);
        assert!(feed.stops.len() >= 5_000);

        let mut ingest = GtfsIngest::new(&road);
        let (net, stats) = ingest.import(&feed, &proj).expect("import");
        assert_eq!(net.num_stops(), (rows * cols) as usize);
        assert_eq!(stats.routes, routes.len());
        assert_eq!(stats.dropped_stops, 0);

        // Exactly one Dijkstra per unique corridor, despite heavy sharing.
        let corridors: HashSet<(u32, u32)> =
            routes.iter().flat_map(|r| r.windows(2).map(|w| corridor(w[0], w[1]))).collect();
        let s = ingest.stats();
        assert_eq!(s.dijkstra_runs, corridors.len());
        assert!(s.hits > 0, "L-routes must reuse row/column corridors");
        assert_eq!(s.unroutable, 0);

        // Re-import: fully answered by the city-wide cache.
        let (net2, _) = ingest.import(&feed, &proj).expect("re-import");
        assert_eq!(ingest.stats().dijkstra_runs, s.dijkstra_runs);
        assert_net_identical(&net2, &net);
    }

    #[test]
    fn streaming_import_dir_matches_eager_import() {
        let city = crate::CityConfig::small().seed(17).generate();
        let proj = Projection::new(GeoPoint::new(41.85, -87.65));
        let feed = GtfsFeed::from_transit(&city.transit, &proj);
        let dir = std::env::temp_dir().join(format!("ctbus-ingest-stream-{}", std::process::id()));
        feed.write_dir(&dir).expect("write feed");

        let (eager, eager_stats) = GtfsIngest::new(&city.road)
            .import(&GtfsFeed::load_dir(&dir).expect("load"), &proj)
            .expect("eager import");
        let mut ingest = GtfsIngest::new(&city.road);
        let (streamed, stats) = ingest.import_dir(&dir, &proj).expect("streaming import");
        assert_net_identical(&streamed, &eager);
        assert_eq!(stats, eager_stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_import_detects_ungrouped_stop_times() {
        let road = grid_road(2, 3);
        let proj = Projection::new(GeoPoint::new(41.85, -87.65));
        let feed = feed_over_nodes(&road, &proj, &[vec![0, 1, 2]]);
        let dir = std::env::temp_dir().join(format!("ctbus-ingest-split-{}", std::process::id()));
        feed.write_dir(&dir).expect("write feed");
        // Interleave a second trip between two halves of T0.
        std::fs::write(
            dir.join("stop_times.txt"),
            "trip_id,arrival_time,departure_time,stop_id,stop_sequence\n\
             T0,08:00:00,08:00:00,S0,0\n\
             TX,08:00:00,08:00:00,S1,0\n\
             T0,08:01:00,08:01:00,S2,1\n",
        )
        .expect("rewrite stop_times");
        let err = GtfsIngest::new(&road).import_dir(&dir, &proj).unwrap_err();
        match err {
            GtfsError::BadRecord { file: "stop_times.txt", line, reason } => {
                assert_eq!(line, 4);
                assert!(reason.contains("T0"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_import_surfaces_malformed_rows_as_errors_not_panics() {
        let road = grid_road(2, 3);
        let proj = Projection::new(GeoPoint::new(41.85, -87.65));
        let feed = feed_over_nodes(&road, &proj, &[vec![0, 1, 2]]);
        let dir = std::env::temp_dir().join(format!("ctbus-ingest-bad-{}", std::process::id()));
        feed.write_dir(&dir).expect("write feed");

        // A junk stop_sequence mid-table must point at its own line.
        std::fs::write(
            dir.join("stop_times.txt"),
            "trip_id,arrival_time,departure_time,stop_id,stop_sequence\n\
             T0,08:00:00,08:00:00,S0,0\n\
             T0,08:01:00,08:01:00,S1,one\n",
        )
        .expect("rewrite stop_times");
        match GtfsIngest::new(&road).import_dir(&dir, &proj).unwrap_err() {
            GtfsError::BadRecord { file: "stop_times.txt", line: 3, reason } => {
                assert!(reason.contains("stop_sequence"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }

        // Invalid UTF-8 bytes in a row must become a positioned error too —
        // a city-scale feed with one corrupt line should name that line.
        let mut bytes = b"trip_id,arrival_time,departure_time,stop_id,stop_sequence\n\
             T0,08:00:00,08:00:00,S0,0\n"
            .to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFE, b'\n']);
        std::fs::write(dir.join("stop_times.txt"), &bytes).expect("rewrite stop_times");
        match GtfsIngest::new(&road).import_dir(&dir, &proj).unwrap_err() {
            GtfsError::BadRecord { file: "stop_times.txt", line: 3, reason } => {
                assert!(reason.contains("unreadable line"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_import_picks_longest_trip_like_eager() {
        let road = grid_road(2, 3);
        let proj = Projection::new(GeoPoint::new(41.85, -87.65));
        let mut feed = feed_over_nodes(&road, &proj, &[vec![0, 1, 2]]);
        // A longer second trip on the same route must win, as in the eager
        // representative-trip rule; a trailing short one must not.
        feed.trips.push(GtfsTrip { id: "T0b".into(), route_id: "R0".into() });
        feed.trips.push(GtfsTrip { id: "T0c".into(), route_id: "R0".into() });
        for (si, n) in [0u32, 1, 2, 5].iter().enumerate() {
            feed.stop_times.push(GtfsStopTime {
                trip_id: "T0b".into(),
                stop_id: format!("S{n}"),
                sequence: si as u32,
            });
        }
        feed.stops.push(crate::gtfs::GtfsStop {
            id: "S5".into(),
            name: String::new(),
            lat: proj.unproject(&road.position(5)).lat,
            lon: proj.unproject(&road.position(5)).lon,
        });
        feed.stop_times.push(GtfsStopTime {
            trip_id: "T0c".into(),
            stop_id: "S0".into(),
            sequence: 0,
        });
        let dir = std::env::temp_dir().join(format!("ctbus-ingest-rep-{}", std::process::id()));
        feed.write_dir(&dir).expect("write feed");
        let (eager, _) = GtfsIngest::new(&road).import(&feed, &proj).expect("eager");
        let (streamed, _) =
            GtfsIngest::new(&road).import_dir(&dir, &proj).expect("streaming import");
        assert_net_identical(&streamed, &eager);
        assert_eq!(streamed.route(0).stops.len(), 4, "longest trip represents the route");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_import_handles_duplicate_trip_rows_like_eager() {
        let road = grid_road(2, 3);
        let proj = Projection::new(GeoPoint::new(41.85, -87.65));
        let mut feed = feed_over_nodes(&road, &proj, &[vec![0, 1, 2]]);
        // A second route served by the SAME trip id (duplicate trips.txt
        // row): the eager path makes T0's records represent both routes.
        feed.routes.push(GtfsRoute { id: "R1".into(), short_name: "1".into() });
        feed.trips.push(GtfsTrip { id: "T0".into(), route_id: "R1".into() });
        let dir = std::env::temp_dir().join(format!("ctbus-ingest-dup-{}", std::process::id()));
        feed.write_dir(&dir).expect("write feed");
        let (eager, eager_stats) = GtfsIngest::new(&road)
            .import(&GtfsFeed::load_dir(&dir).expect("load"), &proj)
            .expect("eager");
        assert_eq!(eager.num_routes(), 2, "both routes represented");
        let (streamed, stats) =
            GtfsIngest::new(&road).import_dir(&dir, &proj).expect("streaming import");
        assert_net_identical(&streamed, &eager);
        assert_eq!(stats, eager_stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphan_stops_are_dropped_and_reference_importer_keeps_them() {
        let road = grid_road(3, 3);
        let proj = Projection::new(GeoPoint::new(41.85, -87.65));
        let mut feed = feed_over_nodes(&road, &proj, &[vec![0, 1, 2]]);
        // An orphan stop: present in stops.txt, referenced by no trip.
        let g = proj.unproject(&road.position(8));
        feed.stops.push(crate::gtfs::GtfsStop {
            id: "ORPHAN".into(),
            name: String::new(),
            lat: g.lat,
            lon: g.lon,
        });

        let mut ingest = GtfsIngest::new(&road);
        let (net, stats) = ingest.import(&feed, &proj).expect("import");
        assert_eq!(net.num_stops(), 3, "only referenced stops imported");
        assert_eq!(stats.stops, 3);
        assert_eq!(stats.dropped_stops, 1);
        // The Laplacian dimension is the referenced stop count.
        assert_eq!(net.adjacency_matrix().n(), 3);

        // The retained pre-refactor importer exhibits the bug.
        let (buggy, buggy_stats) = into_transit_reference(&feed, &road, &proj).expect("reference");
        assert_eq!(buggy.num_stops(), 4, "reference importer keeps the orphan");
        assert_eq!(buggy_stats.stops, 4);
        assert_eq!(buggy.adjacency_matrix().n(), 4, "orphan inflates the matrix dimension");
    }

    #[test]
    fn far_away_stops_are_dropped_and_reference_importer_snaps_them() {
        let road = grid_road(3, 3);
        let proj = Projection::new(GeoPoint::new(41.85, -87.65));
        let mut feed = feed_over_nodes(&road, &proj, &[vec![0, 1, 2]]);
        // A referenced stop ~50 km outside the network.
        let g = proj.unproject(&Point::new(50_000.0, 50_000.0));
        feed.stops.push(crate::gtfs::GtfsStop {
            id: "FAR".into(),
            name: String::new(),
            lat: g.lat,
            lon: g.lon,
        });
        feed.stop_times.push(GtfsStopTime {
            trip_id: "T0".into(),
            stop_id: "FAR".into(),
            sequence: 3,
        });

        let mut ingest = GtfsIngest::new(&road);
        let (net, stats) = ingest.import(&feed, &proj).expect("import");
        assert_eq!(net.num_stops(), 3, "far stop dropped, route continues");
        assert_eq!(net.num_edges(), 2);
        assert_eq!(stats.dropped_stops, 1);
        assert!(stats.max_snap_m < 1.0, "snap stat unpolluted: {}", stats.max_snap_m);

        // The reference importer snaps it to a border node and fabricates
        // a hop tens of kilometers long.
        let (buggy, buggy_stats) = into_transit_reference(&feed, &road, &proj).expect("reference");
        assert_eq!(buggy.num_stops(), 4);
        assert_eq!(buggy.num_edges(), 3);
        assert!(buggy_stats.max_snap_m > 10_000.0, "absurd snap: {}", buggy_stats.max_snap_m);
    }

    #[test]
    fn referenced_stop_with_no_surviving_piece_is_dropped() {
        // Disconnected road: node 2 is unreachable, so the single-hop
        // route through it dies and its stops must not linger.
        let road = RoadNetwork::new(
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0), Point::new(10_000.0, 0.0)],
            vec![RoadEdge { u: 0, v: 1, length: 100.0 }],
        );
        let proj = Projection::new(GeoPoint::new(41.85, -87.65));
        let feed = feed_over_nodes(&road, &proj, &[vec![0, 1], vec![0, 2]]);
        let (net, stats) = GtfsIngest::new(&road).import(&feed, &proj).expect("import");
        assert_eq!(net.num_stops(), 2);
        assert_eq!(stats.routes, 1);
        assert_eq!(stats.dropped_routes, 1);
        // S2 was referenced and snapped but ended in no surviving piece.
        assert_eq!(stats.dropped_stops, 1);
    }
}
