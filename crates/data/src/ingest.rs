//! City-scale GTFS ingestion: shared snap index, city-wide hop-path cache,
//! streaming `stop_times.txt`.
//!
//! [`crate::gtfs::GtfsFeed::into_transit`] is a one-shot convenience: it
//! rebuilds the road-node spatial index and forgets every realized hop path
//! as soon as it returns. That is fine for a single import and wasteful for
//! the paper's real workload (§7.1.1) — many feeds (or many revisions of
//! one feed) against a single road network, where routes share corridors
//! heavily. This module is the reusable pipeline:
//!
//! * [`SnapIndex`] — one [`ct_spatial::GridIndex`] over the road nodes,
//!   built once per road network and shared across imports, with a
//!   configurable snap radius (`max_snap_m`) so a stop far outside the
//!   network is *dropped* instead of snapping to an arbitrary border node
//!   and fabricating absurd hops;
//! * [`HopPathCache`] — road shortest paths keyed by canonical road-node
//!   pair, shared across **all** routes and persistent across imports, so
//!   each unique corridor runs Dijkstra exactly once (counted in
//!   [`HopCacheStats`]); realization fans out over
//!   [`ct_graph::shortest_paths_batch`]. The cache is internally
//!   synchronized (`&self` everywhere, counters atomic), so one
//!   `Arc<HopPathCache>` can back concurrent imports on a serving host —
//!   see [`GtfsIngest::with_shared_cache`];
//! * [`GtfsIngest`] — ties both to a road network and drives imports,
//!   either from a parsed [`GtfsFeed`] ([`GtfsIngest::import`]) or
//!   streaming straight from a feed directory
//!   ([`GtfsIngest::import_dir`]), which never materializes the full
//!   `stop_times.txt` table.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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

    /// The configured snap radius, meters.
    pub fn max_snap_m(&self) -> f64 {
        self.max_snap_m
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

/// Counters for [`HopPathCache`]: how much corridor reuse saved.
///
/// Accumulated atomically, so totals are **exact** however many importer
/// threads share the cache — every corridor request lands in exactly one
/// counter, hence the conservation law `hits + dijkstra_runs == total
/// corridor requests` holds under any interleaving (tested). Two racing
/// batches that both miss the same corridor each count their own Dijkstra
/// run (the work really happened); sequential use keeps the strict
/// one-run-per-unique-corridor accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopCacheStats {
    /// Dijkstra runs performed — one per unique corridor requested while it
    /// is resident (an evicted corridor re-runs on its next request; with
    /// an unbounded cache and a single importer this is exactly one per
    /// unique corridor, ever).
    pub dijkstra_runs: usize,
    /// Corridor requests answered from the cache (within a batch, across
    /// routes, or across imports).
    pub hits: usize,
    /// Unique corridors with no connecting road path.
    pub unroutable: usize,
    /// Corridors dropped by the entry cap (see
    /// [`HopPathCache::with_max_entries`]); `0` when unbounded.
    pub evictions: usize,
}

/// Atomic accumulators behind [`HopCacheStats`]. Relaxed ordering is
/// enough: the counters carry no cross-thread happens-before obligations,
/// only totals, and `fetch_add` never loses an increment.
#[derive(Debug, Default)]
struct CacheCounters {
    dijkstra_runs: AtomicUsize,
    hits: AtomicUsize,
    unroutable: AtomicUsize,
    evictions: AtomicUsize,
}

impl CacheCounters {
    fn snapshot(&self) -> HopCacheStats {
        HopCacheStats {
            dijkstra_runs: self.dijkstra_runs.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            unroutable: self.unroutable.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// The map state of [`HopPathCache`], guarded by one mutex. The lock is
/// held only for map surgery — never across a Dijkstra batch.
#[derive(Debug, Default)]
struct CacheInner {
    /// Canonical pair → realized path. Geometry is stored in the
    /// orientation of the corridor's first realization (matching what the
    /// pre-refactor importer put on the first transit edge using it).
    paths: HashMap<(u32, u32), HopPath>,
    /// Realization order of resident corridors (front = oldest), used for
    /// eviction when bounded.
    order: std::collections::VecDeque<(u32, u32)>,
}

/// A city-wide cache of realized hop paths, keyed by canonical (unordered)
/// road-node pair.
///
/// The pre-refactor importer memoized Dijkstra **per route**, so corridors
/// shared between routes — the common case in any real network — re-ran
/// it once per route. This cache is shared across all routes of all
/// imports it lives through: each unique corridor costs exactly one
/// Dijkstra while resident (asserted by `HopCacheStats::dijkstra_runs`).
///
/// By default the cache is unbounded. Long-lived servers importing many
/// feeds should cap it with [`HopPathCache::with_max_entries`]: beyond the
/// cap the **oldest-realized** corridor is dropped first (FIFO — corridor
/// popularity is dominated by feed locality, so age is a good proxy), and
/// every drop is counted in [`HopCacheStats::evictions`].
///
/// **Thread safety.** Every method takes `&self`: the maps sit behind one
/// mutex (held only for map surgery, never across a Dijkstra batch) and
/// the counters are atomic, so a single `Arc<HopPathCache>` serves any
/// number of concurrent importers with exact totals. Callers consume a
/// batch through the value [`HopPathCache::realize`] *returns* — never
/// through follow-up [`HopPathCache::path`] lookups — so a concurrent
/// batch enforcing the cap can never yank a corridor out from under the
/// import that just realized it.
#[derive(Debug, Default)]
pub struct HopPathCache {
    inner: Mutex<CacheInner>,
    /// Entry cap; `0` = unbounded. Fixed at construction.
    max_entries: usize,
    stats: CacheCounters,
}

impl Clone for HopPathCache {
    /// Deep-copies the resident corridors and the counter values; the
    /// clone is an independent cache (shared use goes through `Arc`, not
    /// `Clone`).
    fn clone(&self) -> Self {
        let inner = self.inner.lock().expect("hop cache poisoned");
        let stats = self.stats.snapshot();
        HopPathCache {
            inner: Mutex::new(CacheInner {
                paths: inner.paths.clone(),
                order: inner.order.clone(),
            }),
            max_entries: self.max_entries,
            stats: CacheCounters {
                dijkstra_runs: AtomicUsize::new(stats.dijkstra_runs),
                hits: AtomicUsize::new(stats.hits),
                unroutable: AtomicUsize::new(stats.unroutable),
                evictions: AtomicUsize::new(stats.evictions),
            },
        }
    }
}

impl HopPathCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the cache at `max_entries` corridors (builder style; `0` =
    /// unbounded). The cap is enforced at the **start** of each
    /// [`HopPathCache::realize`] batch — never mid-batch — so corridors the
    /// current batch realized stay resident until their caller has read
    /// them; a single batch may therefore transiently exceed the cap by
    /// its own working-set size. Evicted corridors re-run Dijkstra on
    /// their next request.
    pub fn with_max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = max_entries;
        let inner = self.inner.get_mut().expect("hop cache poisoned");
        Self::enforce_cap(inner, max_entries, &self.stats);
        self
    }

    /// The configured entry cap (`0` = unbounded).
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    fn enforce_cap(inner: &mut CacheInner, max_entries: usize, stats: &CacheCounters) {
        if max_entries == 0 {
            return;
        }
        while inner.paths.len() > max_entries {
            let oldest = inner.order.pop_front().expect("order tracks every resident corridor");
            inner.paths.remove(&oldest);
            stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn key(a: u32, b: u32) -> (u32, u32) {
        (a.min(b), a.max(b))
    }

    /// Number of unique corridors realized so far (routable or not).
    // ctlint::allow(dead-pub): cache-accounting contract documented in docs/gtfs_read.md; crates/data/tests/properties.rs asserts the cap with it
    pub fn unique_corridors(&self) -> usize {
        self.inner.lock().expect("hop cache poisoned").paths.len()
    }

    /// Reuse/miss counters (an atomic point-in-time snapshot).
    pub fn stats(&self) -> HopCacheStats {
        self.stats.snapshot()
    }

    /// The realized path for corridor `(a, b)`, if it is resident and
    /// routable. An owned copy: residency is only guaranteed at the moment
    /// of the call (a concurrent capped batch may evict afterwards), so no
    /// reference into the cache can be handed out.
    pub fn path(&self, a: u32, b: u32) -> Option<(f64, Vec<u32>)> {
        self.inner
            .lock()
            .expect("hop cache poisoned")
            .paths
            .get(&Self::key(a, b))
            .and_then(|p| p.clone())
    }

    /// Whether corridor `(a, b)` is resident (routable or not).
    pub fn contains(&self, a: u32, b: u32) -> bool {
        self.inner.lock().expect("hop cache poisoned").paths.contains_key(&Self::key(a, b))
    }

    /// Ensures every corridor in `wanted` is realized, running the missing
    /// ones through [`shortest_paths_batch`] over `threads` workers (`0` =
    /// all cores), and returns the resolved path for **each** `wanted`
    /// entry, in order (`None` = unroutable).
    ///
    /// Corridors may repeat (the importer feeds every hop of every route);
    /// each is realized at most once per batch, in the orientation of its
    /// first occurrence, and every avoided run counts as a hit. Results
    /// merge by corridor key, so the cache contents are invariant under
    /// thread count. Work with the returned vector, not follow-up
    /// [`HopPathCache::path`] calls: the return value is immune to
    /// evictions by concurrent batches.
    ///
    /// Concurrency: the lock is released while Dijkstra runs, so racing
    /// batches overlap their compute. Two batches that both miss the same
    /// corridor both run it (both runs are counted; the first merge wins
    /// residency) — the conservation law `hits + dijkstra_runs == total
    /// requests` stays exact either way.
    pub fn realize(
        &self,
        road: &RoadNetwork,
        wanted: &[(u32, u32)],
        threads: usize,
    ) -> Vec<HopPath> {
        // Phase 1 (locked): trim to the cap *before* realizing — so this
        // batch's corridors stay resident for its duration — and split
        // `wanted` into resident (resolved now, immune to later eviction)
        // and missing (first-occurrence orientation).
        let mut resolved: Vec<Option<HopPath>> = Vec::with_capacity(wanted.len());
        let mut missing: Vec<(u32, u32)> = Vec::new();
        let mut queued: HashMap<(u32, u32), usize> = HashMap::new();
        let mut hits = 0usize;
        {
            let mut inner = self.inner.lock().expect("hop cache poisoned");
            Self::enforce_cap(&mut inner, self.max_entries, &self.stats);
            for &(a, b) in wanted {
                let key = Self::key(a, b);
                if let Some(path) = inner.paths.get(&key) {
                    hits += 1;
                    resolved.push(Some(path.clone()));
                } else {
                    match queued.entry(key) {
                        Entry::Occupied(_) => hits += 1, // repeat within this batch
                        Entry::Vacant(slot) => {
                            slot.insert(missing.len());
                            missing.push((a, b));
                        }
                    }
                    resolved.push(None); // filled from `computed` in phase 3
                }
            }
        }
        self.stats.hits.fetch_add(hits, Ordering::Relaxed);
        if missing.is_empty() {
            return resolved.into_iter().map(|p| p.expect("all resident")).collect();
        }

        // Phase 2 (unlocked): the expensive part.
        let results = shortest_paths_batch(road, &missing, threads);
        self.stats.dijkstra_runs.fetch_add(missing.len(), Ordering::Relaxed);
        let computed: Vec<HopPath> = missing
            .iter()
            .zip(results)
            .map(|(_, result)| match result {
                Some(p) => Some((p.dist, p.edges)),
                None => {
                    self.stats.unroutable.fetch_add(1, Ordering::Relaxed);
                    None
                }
            })
            .collect();

        // Phase 3 (locked): merge. A corridor a racing batch inserted
        // meanwhile keeps the racer's entry (first realization wins,
        // including its orientation — the single-importer rule, extended).
        {
            let mut inner = self.inner.lock().expect("hop cache poisoned");
            for (&(a, b), stored) in missing.iter().zip(&computed) {
                let key = Self::key(a, b);
                if let Entry::Vacant(slot) = inner.paths.entry(key) {
                    slot.insert(stored.clone());
                    inner.order.push_back(key);
                }
            }
        }
        resolved
            .into_iter()
            .zip(wanted)
            .map(|(path, &(a, b))| match path {
                Some(path) => path,
                None => computed[queued[&Self::key(a, b)]].clone(),
            })
            .collect()
    }
}

/// Reusable GTFS import pipeline for one road network: shared [`SnapIndex`],
/// persistent [`HopPathCache`], parallel hop realization.
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
/// // Every unique corridor ran Dijkstra exactly once.
/// assert_eq!(ingest.cache().stats().dijkstra_runs, ingest.cache().unique_corridors());
/// // A re-import answers every hop from the cache.
/// let runs = ingest.cache().stats().dijkstra_runs;
/// ingest.import(&feed, &proj).unwrap();
/// assert_eq!(ingest.cache().stats().dijkstra_runs, runs);
/// ```
#[derive(Debug)]
pub struct GtfsIngest<'a> {
    road: &'a RoadNetwork,
    snap: SnapIndex,
    /// Shared so several importer threads can pool one city-wide cache
    /// ([`GtfsIngest::with_shared_cache`]); a solo pipeline is simply the
    /// `Arc`'s only holder.
    cache: Arc<HopPathCache>,
    threads: usize,
}

impl<'a> GtfsIngest<'a> {
    /// Builds the pipeline for `road`: snap index with
    /// [`DEFAULT_MAX_SNAP_M`], empty cache, all cores.
    pub fn new(road: &'a RoadNetwork) -> Self {
        GtfsIngest {
            road,
            snap: SnapIndex::build(road),
            cache: Arc::new(HopPathCache::new()),
            threads: 0,
        }
    }

    /// Overrides the snap radius (builder style).
    pub fn with_max_snap_m(mut self, max_snap_m: f64) -> Self {
        self.snap = self.snap.with_max_snap_m(max_snap_m);
        self
    }

    /// Caps the hop-path cache at `max_entries` corridors (builder style;
    /// `0` = unbounded, the default). Long-lived servers importing many
    /// feeds should set this so the cache cannot grow without bound; see
    /// [`HopPathCache::with_max_entries`] for the eviction policy.
    /// Replaces the pipeline's cache with a fresh capped one — call it at
    /// construction, before anything is realized.
    // ctlint::allow(dead-pub): long-lived-server knob documented in docs/gtfs_read.md
    pub fn with_cache_cap(mut self, max_entries: usize) -> Self {
        self.cache = Arc::new(HopPathCache::new().with_max_entries(max_entries));
        self
    }

    /// Attaches an existing (possibly already warm) cache, typically one
    /// `Arc` shared by several importer pipelines on a serving host:
    /// concurrent imports then pool their realized corridors, and
    /// [`HopCacheStats`] totals stay exact across all of them (builder
    /// style).
    // ctlint::allow(dead-pub): cache-pooling contract documented in docs/gtfs_read.md
    pub fn with_shared_cache(mut self, cache: Arc<HopPathCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Overrides the worker-thread count for hop realization (builder
    /// style). `0` means all available cores — the same convention as
    /// `ct_core::Parallelism`, whose `worker_threads()` value callers
    /// plumbing the workspace-wide knob should pass here. Never affects
    /// results (corridors merge by key).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The city-wide hop-path cache (persistent across imports).
    pub fn cache(&self) -> &HopPathCache {
        &self.cache
    }

    /// Imports a parsed feed. See [`GtfsFeed::into_transit`] for the
    /// robustness rules; unlike that convenience, the snap index and hop
    /// cache persist for the next import.
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
    /// realize unique corridors in one parallel batch, split routes at
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

        // One parallel Dijkstra per unique corridor, city-wide. This
        // import works off the *returned* batch from here on: a concurrent
        // import enforcing the cache cap may evict corridors at any time,
        // so later `cache.path()` lookups could miss what this batch just
        // realized.
        let resolved = self.cache.realize(self.road, &wanted, self.threads);
        let mut batch: HashMap<(u32, u32), HopPath> = HashMap::with_capacity(wanted.len());
        for (&(a, b), path) in wanted.iter().zip(resolved) {
            batch.entry((a.min(b), a.max(b))).or_insert(path);
        }
        let hop = |a: u32, b: u32| -> &HopPath { &batch[&(a.min(b), a.max(b))] };

        // Split each route at unroutable hops; pieces with ≥ 2 stops
        // survive and mark their nodes as used.
        let mut used: HashSet<u32> = HashSet::new();
        let mut route_pieces: Vec<Vec<Vec<u32>>> = Vec::with_capacity(node_seqs.len());
        for nodes in &node_seqs {
            let mut pieces: Vec<Vec<u32>> = Vec::new();
            let mut piece: Vec<u32> = Vec::new();
            for &node in nodes {
                if let Some(&prev) = piece.last() {
                    if hop(prev, node).is_none() {
                        stats.dropped_hops += 1;
                        pieces.push(std::mem::take(&mut piece));
                    }
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
        // geometry comes straight from the cache.
        for pieces in &route_pieces {
            let mut added = false;
            for piece in pieces {
                let stop_seq: Vec<u32> = piece.iter().map(|n| sid_of_node[n]).collect();
                builder.add_route(&stop_seq, |u, v| {
                    let a = stop_road[u as usize];
                    let b = stop_road[v as usize];
                    hop(a, b).clone().expect("routable hop resolved by this batch")
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
    use crate::gtfs::{GtfsRoute, GtfsStopTime, GtfsTrip};
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
        assert_eq!(snap.max_snap_m(), DEFAULT_MAX_SNAP_M);
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
        let cache = HopPathCache::new();
        // (0,1) requested three times — once reversed — plus (1,2).
        cache.realize(&road, &[(0, 1), (1, 2), (1, 0), (0, 1)], 1);
        let s = cache.stats();
        assert_eq!(s.dijkstra_runs, 2);
        assert_eq!(s.hits, 2);
        assert_eq!(cache.unique_corridors(), 2);
        // A later batch over the same corridors runs nothing new.
        cache.realize(&road, &[(2, 1), (1, 0)], 1);
        assert_eq!(cache.stats().dijkstra_runs, 2);
        assert_eq!(cache.stats().hits, 4);
        assert!(cache.path(0, 1).is_some());
        assert_eq!(cache.path(0, 1).unwrap().0, 100.0);
    }

    #[test]
    fn hop_cache_cap_evicts_oldest_corridor_first() {
        let road = grid_road(3, 3);
        let cache = HopPathCache::new().with_max_entries(2);
        assert_eq!(cache.max_entries(), 2);
        cache.realize(&road, &[(0, 1), (1, 2), (2, 5)], 1);
        // The cap pins the current batch: all three stay resident for the
        // caller that requested them; nothing is evicted yet.
        assert_eq!(cache.unique_corridors(), 3);
        assert_eq!(cache.stats().evictions, 0);

        // The next batch trims to the cap first — the oldest, (0,1), goes
        // — and then re-realizes it: an eviction-induced Dijkstra re-run.
        let runs = cache.stats().dijkstra_runs;
        cache.realize(&road, &[(0, 1)], 1);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().dijkstra_runs, runs + 1);
        assert!(cache.contains(0, 1) && cache.contains(1, 2) && cache.contains(2, 5));
        assert_eq!(cache.path(0, 1).unwrap().0, 100.0);

        // Next trim drops (1,2) — strictly oldest-first — and the resident
        // (2,5) answers from the cache.
        let hits = cache.stats().hits;
        cache.realize(&road, &[(2, 5)], 1);
        assert_eq!(cache.stats().evictions, 2);
        assert!(!cache.contains(1, 2), "oldest corridor must go first");
        assert_eq!(cache.stats().hits, hits + 1);
        assert_eq!(cache.unique_corridors(), 2);
    }

    #[test]
    fn uncapped_cache_never_evicts() {
        let road = grid_road(3, 3);
        let cache = HopPathCache::new();
        let wanted: Vec<(u32, u32)> = (0..8).map(|i| (i, i + 1)).collect();
        cache.realize(&road, &wanted, 1);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.unique_corridors(), 8);
    }

    #[test]
    fn ingest_cache_cap_is_plumbed_and_survives_imports() {
        let city = crate::CityConfig::small().seed(31).generate();
        let proj = Projection::new(GeoPoint::new(41.85, -87.65));
        let feed = GtfsFeed::from_transit(&city.transit, &proj);
        let mut capped = GtfsIngest::new(&city.road).with_cache_cap(4);
        let (net, _) = capped.import(&feed, &proj).expect("capped import");
        // The cap bounds residency *between* batches, never correctness:
        // output matches the unbounded pipeline.
        let (reference, _) = GtfsIngest::new(&city.road).import(&feed, &proj).expect("import");
        assert_net_identical(&net, &reference);
        let corridors = capped.cache().unique_corridors();
        assert!(corridors > 4, "fixture too small to exercise the cap");

        // A re-import trims to the cap first, then re-realizes what the
        // feed needs: evictions are surfaced and the evicted corridors
        // cost fresh Dijkstras — the price of bounded memory.
        let runs = capped.cache().stats().dijkstra_runs;
        let (net2, _) = capped.import(&feed, &proj).expect("re-import");
        assert_net_identical(&net2, &reference);
        assert_eq!(capped.cache().stats().evictions, corridors - 4);
        assert!(capped.cache().stats().dijkstra_runs > runs, "evicted corridors must re-run");
        // Steady state: residency returns to the feed's working set, not
        // the sum over imports.
        assert_eq!(capped.cache().unique_corridors(), corridors);
    }

    #[test]
    fn concurrent_imports_share_cache_with_exact_totals() {
        // The serving-host pattern: several importer threads pooling one
        // Arc'd cache. Counters must obey the conservation law exactly —
        // every corridor request is either a hit or a counted Dijkstra
        // run, with no lost increments — and every import must produce
        // the same network a solo import produces.
        let city = crate::CityConfig::small().seed(41).generate();
        let proj = Projection::new(GeoPoint::new(41.85, -87.65));
        let feed = GtfsFeed::from_transit(&city.transit, &proj);
        let (reference, _) = GtfsIngest::new(&city.road).import(&feed, &proj).expect("solo");
        // Request count per import = hops of every route = what one
        // import's `wanted` list holds (deterministic for a fixed feed).
        let solo = Arc::new(HopPathCache::new());
        let requests_per_import = {
            let mut ingest = GtfsIngest::new(&city.road).with_shared_cache(Arc::clone(&solo));
            ingest.import(&feed, &proj).expect("count import");
            let s = solo.stats();
            s.hits + s.dijkstra_runs
        };

        let cache = Arc::new(HopPathCache::new());
        let importers = 4usize;
        std::thread::scope(|scope| {
            for _ in 0..importers {
                let cache = Arc::clone(&cache);
                let (road, feed, proj, reference) = (&city.road, &feed, &proj, &reference);
                scope.spawn(move || {
                    let mut ingest = GtfsIngest::new(road).with_shared_cache(cache);
                    for _ in 0..2 {
                        let (net, _) = ingest.import(feed, proj).expect("concurrent import");
                        assert_net_identical(&net, reference);
                    }
                });
            }
        });

        let s = cache.stats();
        assert_eq!(
            s.hits + s.dijkstra_runs,
            requests_per_import * importers * 2,
            "counter conservation violated: {s:?}"
        );
        // Racing first imports may duplicate runs for a corridor, but
        // never miss one, and the seven warm imports answer everything
        // from the pooled cache — so runs stay far below request volume.
        assert!(s.dijkstra_runs >= cache.unique_corridors(), "{s:?}");
        assert!(s.hits >= requests_per_import * (importers * 2 - 4), "{s:?}");
        assert_eq!(s.evictions, 0);

        // Single-writer accounting stays strict: a fresh solo pipeline
        // over the same feed runs one Dijkstra per unique corridor.
        let mut strict = GtfsIngest::new(&city.road);
        strict.import(&feed, &proj).expect("strict import");
        assert_eq!(strict.cache().stats().dijkstra_runs, strict.cache().unique_corridors());
    }

    #[test]
    fn hop_cache_records_unroutable_corridors() {
        let road = RoadNetwork::new(
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0), Point::new(10_000.0, 0.0)],
            vec![RoadEdge { u: 0, v: 1, length: 100.0 }],
        );
        let cache = HopPathCache::new();
        cache.realize(&road, &[(0, 2), (0, 1)], 2);
        assert_eq!(cache.stats().unroutable, 1);
        assert!(cache.path(0, 2).is_none());
        assert!(cache.contains(0, 2), "unroutable corridor is still cached");
        assert!(cache.path(0, 1).is_some());
    }

    #[test]
    fn new_pipeline_matches_reference_on_generated_city() {
        let city = crate::CityConfig::small().seed(11).generate();
        let proj = Projection::new(GeoPoint::new(41.85, -87.65));
        let feed = GtfsFeed::from_transit(&city.transit, &proj);
        let (reference, ref_stats) =
            feed.into_transit_reference(&city.road, &proj).expect("reference import");
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

    #[test]
    fn import_is_invariant_under_thread_count() {
        let city = crate::CityConfig::small().seed(21).generate();
        let proj = Projection::new(GeoPoint::new(41.85, -87.65));
        let feed = GtfsFeed::from_transit(&city.transit, &proj);
        let (reference, ref_stats) = GtfsIngest::new(&city.road)
            .with_threads(1)
            .import(&feed, &proj)
            .expect("single-threaded import");
        for threads in [0, 2, 5] {
            let mut ingest = GtfsIngest::new(&city.road).with_threads(threads);
            let (net, stats) = ingest.import(&feed, &proj).expect("import");
            assert_net_identical(&net, &reference);
            assert_eq!(stats, ref_stats, "threads={threads}");
        }
    }

    /// The acceptance-scale scenario: a city with ≥ 5k stops and ≥ 200
    /// routes sharing corridors imports with exactly one Dijkstra per
    /// unique corridor, invariant under thread count, and answers a
    /// re-import entirely from the cache.
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
        let s = ingest.cache().stats();
        assert_eq!(s.dijkstra_runs, ingest.cache().unique_corridors());
        assert!(s.hits > 0, "L-routes must reuse row/column corridors");
        assert_eq!(s.unroutable, 0);

        // Re-import: fully answered by the city-wide cache.
        let (net2, _) = ingest.import(&feed, &proj).expect("re-import");
        assert_eq!(ingest.cache().stats().dijkstra_runs, s.dijkstra_runs);
        assert_net_identical(&net2, &net);

        // Thread invariance at scale.
        let (net4, _) =
            GtfsIngest::new(&road).with_threads(4).import(&feed, &proj).expect("4-thread import");
        assert_net_identical(&net4, &net);
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
        let (buggy, buggy_stats) = feed.into_transit_reference(&road, &proj).expect("reference");
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
        let (buggy, buggy_stats) = feed.into_transit_reference(&road, &proj).expect("reference");
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
        let (net, stats) = GtfsIngest::new(&road)
            .with_max_snap_m(f64::INFINITY)
            .import(&feed, &proj)
            .expect("import");
        assert_eq!(net.num_stops(), 2);
        assert_eq!(stats.routes, 1);
        assert_eq!(stats.dropped_routes, 1);
        // S2 was referenced and snapped but ended in no surviving piece.
        assert_eq!(stats.dropped_stops, 1);
    }
}
