//! GTFS feed ingestion and export.
//!
//! The paper extracts its transit networks from public shapefile/GTFS
//! feeds (§7.1.1, refs [3, 8]). This module reads the four core GTFS
//! tables — `stops.txt`, `routes.txt`, `trips.txt`, `stop_times.txt` — and
//! assembles a [`TransitNetwork`] over a road network by snapping stops to
//! road nodes and realizing inter-stop hops as road shortest paths; the
//! reverse direction exports any transit network (including planned
//! routes) back to GTFS so results round-trip into standard tooling.
//!
//! Scope: static topology only. Calendars, fares, frequencies, and
//! transfers are irrelevant to CT-Bus (the paper plans geometry, not
//! timetables — its footnote 5) and are ignored on read; exports emit a
//! single synthetic trip per route with a constant-speed schedule so the
//! files validate.

use std::collections::HashMap;
use std::fmt;
use std::io::BufRead;
use std::path::Path;

use ct_graph::{RoadNetwork, TransitNetwork};
use ct_spatial::Projection;
use serde::{Deserialize, Serialize};

use crate::csv::{quote, split_record, Header};

/// One record of `stops.txt`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GtfsStop {
    /// `stop_id`.
    pub id: String,
    /// `stop_name` (may be empty).
    pub name: String,
    /// `stop_lat` in WGS84 degrees.
    pub lat: f64,
    /// `stop_lon` in WGS84 degrees.
    pub lon: f64,
}

/// One record of `routes.txt`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GtfsRoute {
    /// `route_id`.
    pub id: String,
    /// `route_short_name` (falls back to `route_long_name`, may be empty).
    pub short_name: String,
}

/// One record of `trips.txt`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GtfsTrip {
    /// `trip_id`.
    pub id: String,
    /// `route_id` the trip belongs to.
    pub route_id: String,
}

/// One record of `stop_times.txt` (times are ignored on read).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GtfsStopTime {
    /// `trip_id`.
    pub trip_id: String,
    /// `stop_id`.
    pub stop_id: String,
    /// `stop_sequence` (ordering key within the trip).
    pub sequence: u32,
}

/// A parsed GTFS feed (the four tables CT-Bus needs).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GtfsFeed {
    /// All stops.
    pub stops: Vec<GtfsStop>,
    /// All routes.
    pub routes: Vec<GtfsRoute>,
    /// All trips.
    pub trips: Vec<GtfsTrip>,
    /// All stop-time records.
    pub stop_times: Vec<GtfsStopTime>,
}

/// Errors raised while reading or importing a GTFS feed.
#[derive(Debug)]
pub enum GtfsError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A required column is missing from a file's header.
    MissingColumn {
        /// File (e.g. `"stops.txt"`).
        file: &'static str,
        /// Column name.
        column: &'static str,
    },
    /// A record could not be interpreted.
    BadRecord {
        /// File the record came from.
        file: &'static str,
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The feed references an id that is not defined.
    DanglingReference {
        /// Kind of entity (e.g. `"stop"`).
        kind: &'static str,
        /// The unresolved id.
        id: String,
    },
    /// The feed produced no usable route.
    EmptyFeed,
}

impl fmt::Display for GtfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GtfsError::Io(e) => write!(f, "gtfs i/o error: {e}"),
            GtfsError::MissingColumn { file, column } => {
                write!(f, "{file}: missing required column `{column}`")
            }
            GtfsError::BadRecord { file, line, reason } => {
                write!(f, "{file}:{line}: {reason}")
            }
            GtfsError::DanglingReference { kind, id } => {
                write!(f, "dangling {kind} reference `{id}`")
            }
            GtfsError::EmptyFeed => write!(f, "feed contains no usable route"),
        }
    }
}

impl std::error::Error for GtfsError {}

impl From<std::io::Error> for GtfsError {
    fn from(e: std::io::Error) -> Self {
        GtfsError::Io(e)
    }
}

/// What happened while snapping a feed onto a road network.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GtfsImportStats {
    /// Stops imported (deduplicated by snapped road node per stop id).
    /// Counts only stops actually used by a surviving route piece.
    pub stops: usize,
    /// Routes imported.
    pub routes: usize,
    /// Routes dropped because fewer than two of their stops were usable.
    pub dropped_routes: usize,
    /// Consecutive stop pairs dropped because no road path connects them.
    pub dropped_hops: usize,
    /// Stops from `stops.txt` left out of the network: unreferenced by any
    /// route, farther than the snap radius from every road node, or
    /// belonging to no surviving route piece.
    pub dropped_stops: usize,
    /// Greatest snap distance between a GTFS stop and its road node, m.
    /// Counts only used stops (see [`GtfsImportStats::stops`]).
    pub max_snap_m: f64,
}

impl GtfsFeed {
    /// Parses a feed from the four table readers.
    ///
    /// ```
    /// use ct_data::GtfsFeed;
    /// let feed = GtfsFeed::parse(
    ///     "stop_id,stop_name,stop_lat,stop_lon\nA,\"Main, St\",41.88,-87.63\n".as_bytes(),
    ///     "route_id,route_short_name\nr1,10\n".as_bytes(),
    ///     "route_id,trip_id\nr1,t1\n".as_bytes(),
    ///     "trip_id,stop_id,stop_sequence\nt1,A,1\n".as_bytes(),
    /// )
    /// .unwrap();
    /// assert_eq!(feed.stops[0].name, "Main, St");
    /// assert_eq!(feed.route_stop_sequences().unwrap()[0].1, vec!["A"]);
    /// ```
    pub fn parse<R1, R2, R3, R4>(
        stops: R1,
        routes: R2,
        trips: R3,
        stop_times: R4,
    ) -> Result<Self, GtfsError>
    where
        R1: BufRead,
        R2: BufRead,
        R3: BufRead,
        R4: BufRead,
    {
        Ok(GtfsFeed {
            stops: parse_stops(stops)?,
            routes: parse_routes(routes)?,
            trips: parse_trips(trips)?,
            stop_times: parse_stop_times(stop_times)?,
        })
    }

    /// Loads `stops.txt`, `routes.txt`, `trips.txt`, `stop_times.txt` from
    /// a directory (the unzipped feed layout).
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Self, GtfsError> {
        let dir = dir.as_ref();
        let open = |name: &str| -> Result<std::io::BufReader<std::fs::File>, GtfsError> {
            Ok(std::io::BufReader::new(std::fs::File::open(dir.join(name))?))
        };
        GtfsFeed::parse(
            open("stops.txt")?,
            open("routes.txt")?,
            open("trips.txt")?,
            open("stop_times.txt")?,
        )
    }

    /// Orders each route's stops using its longest trip (the usual
    /// representative-trip heuristic), returning
    /// `(route_id, [stop ids in sequence])` in `routes.txt` order.
    pub fn route_stop_sequences(&self) -> Result<Vec<(String, Vec<String>)>, GtfsError> {
        // Validate every stop_times record — not only the representative
        // trips' — so a dangling stop in any trip is caught (first bad
        // record in file order wins).
        let stop_ids: std::collections::HashSet<&str> =
            self.stops.iter().map(|s| s.id.as_str()).collect();
        for st in &self.stop_times {
            if !stop_ids.contains(st.stop_id.as_str()) {
                return Err(GtfsError::DanglingReference { kind: "stop", id: st.stop_id.clone() });
            }
        }
        // Group stop_times by trip.
        let mut by_trip: HashMap<&str, Vec<&GtfsStopTime>> = HashMap::new();
        for st in &self.stop_times {
            by_trip.entry(st.trip_id.as_str()).or_default().push(st);
        }
        for times in by_trip.values_mut() {
            times.sort_by_key(|st| st.sequence);
        }
        // Validate trip→route references and pick the longest trip per route.
        let route_ids: HashMap<&str, usize> =
            self.routes.iter().enumerate().map(|(i, r)| (r.id.as_str(), i)).collect();
        let mut best: HashMap<&str, &Vec<&GtfsStopTime>> = HashMap::new();
        for trip in &self.trips {
            if !route_ids.contains_key(trip.route_id.as_str()) {
                return Err(GtfsError::DanglingReference {
                    kind: "route",
                    id: trip.route_id.clone(),
                });
            }
            let Some(times) = by_trip.get(trip.id.as_str()) else { continue };
            let cur = best.entry(trip.route_id.as_str()).or_insert(times);
            if times.len() > cur.len() {
                *cur = times;
            }
        }
        let mut out = Vec::new();
        for route in &self.routes {
            let Some(times) = best.get(route.id.as_str()) else { continue };
            let seq = times.iter().map(|st| st.stop_id.clone()).collect();
            out.push((route.id.clone(), seq));
        }
        Ok(out)
    }

    /// Assembles a [`TransitNetwork`] over `road` by snapping stops to
    /// their nearest road node (via `projection`) and realizing each
    /// consecutive stop pair as the road shortest path.
    ///
    /// Robustness rules (each counted in the stats): stops unreferenced by
    /// any route, beyond [`crate::ingest::DEFAULT_MAX_SNAP_M`] of every road
    /// node, or left in no surviving route piece are dropped; stops snapping
    /// to the same road node merge; consecutive stops with no connecting
    /// road path split the route at that hop; routes left with fewer than
    /// two stops are dropped. Returns [`GtfsError::EmptyFeed`] if nothing
    /// survives.
    ///
    /// This is a one-shot convenience over [`crate::ingest::GtfsIngest`] —
    /// it builds the snap index and the corridor cache, imports, and
    /// discards them. When importing several feeds against the same road
    /// network, hold a `GtfsIngest` instead so the index and the city-wide
    /// corridor cache are reused.
    pub fn into_transit(
        &self,
        road: &RoadNetwork,
        projection: &Projection,
    ) -> Result<(TransitNetwork, GtfsImportStats), GtfsError> {
        crate::ingest::GtfsIngest::new(road).import(self, projection)
    }

    /// Exports a transit network as a GTFS feed.
    ///
    /// Stop ids are `S<stop>`, route ids `R<route>`; each route gets one
    /// synthetic trip `T<route>` ([`GtfsFeed::stop_times_txt`] synthesizes
    /// a schedule for it).
    pub fn from_transit(network: &TransitNetwork, projection: &Projection) -> GtfsFeed {
        let stops = network
            .stops()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let g = projection.unproject(&s.pos);
                GtfsStop { id: format!("S{i}"), name: format!("Stop {i}"), lat: g.lat, lon: g.lon }
            })
            .collect();
        let mut routes = Vec::with_capacity(network.num_routes());
        let mut trips = Vec::with_capacity(network.num_routes());
        let mut stop_times = Vec::new();
        for (ri, route) in network.routes().iter().enumerate() {
            routes.push(GtfsRoute { id: format!("R{ri}"), short_name: format!("{ri}") });
            trips.push(GtfsTrip { id: format!("T{ri}"), route_id: format!("R{ri}") });
            for (si, &stop) in route.stops.iter().enumerate() {
                stop_times.push(GtfsStopTime {
                    trip_id: format!("T{ri}"),
                    stop_id: format!("S{stop}"),
                    sequence: si as u32,
                });
            }
        }
        GtfsFeed { stops, routes, trips, stop_times }
    }

    /// Writes the four tables into `dir` (created if missing).
    pub fn write_dir(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("stops.txt"), self.stops_txt())?;
        std::fs::write(dir.join("routes.txt"), self.routes_txt())?;
        std::fs::write(dir.join("trips.txt"), self.trips_txt())?;
        std::fs::write(dir.join("stop_times.txt"), self.stop_times_txt())?;
        Ok(())
    }

    /// Renders `stops.txt`. All fields — ids included — are quoted as
    /// needed so adversarial ids survive a `write_dir` → `load_dir` round
    /// trip.
    pub fn stops_txt(&self) -> String {
        let mut out = String::from("stop_id,stop_name,stop_lat,stop_lon\n");
        for s in &self.stops {
            out.push_str(&format!(
                "{},{},{:.6},{:.6}\n",
                quote(&s.id),
                quote(&s.name),
                s.lat,
                s.lon
            ));
        }
        out
    }

    /// Renders `routes.txt` (`route_type` 3 = bus).
    pub fn routes_txt(&self) -> String {
        let mut out = String::from("route_id,route_short_name,route_type\n");
        for r in &self.routes {
            out.push_str(&format!("{},{},3\n", quote(&r.id), quote(&r.short_name)));
        }
        out
    }

    /// Renders `trips.txt`.
    pub fn trips_txt(&self) -> String {
        let mut out = String::from("route_id,service_id,trip_id\n");
        for t in &self.trips {
            out.push_str(&format!("{},always,{}\n", quote(&t.route_id), quote(&t.id)));
        }
        out
    }

    /// Renders `stop_times.txt` with a synthetic constant-dwell schedule
    /// (arrival = departure, one minute per hop — readers that care about
    /// real times should regenerate them; CT-Bus itself never does).
    pub fn stop_times_txt(&self) -> String {
        let mut out = String::from("trip_id,arrival_time,departure_time,stop_id,stop_sequence\n");
        for st in &self.stop_times {
            let t = hms(8 * 3600 + st.sequence as u64 * 60);
            out.push_str(&format!(
                "{},{t},{t},{},{}\n",
                quote(&st.trip_id),
                quote(&st.stop_id),
                st.sequence
            ));
        }
        out
    }
}

fn hms(total_secs: u64) -> String {
    format!("{:02}:{:02}:{:02}", total_secs / 3600, (total_secs % 3600) / 60, total_secs % 60)
}

pub(crate) fn parse_stops<R: BufRead>(reader: R) -> Result<Vec<GtfsStop>, GtfsError> {
    const FILE: &str = "stops.txt";
    let mut lines = reader.lines();
    let header = Header::parse(
        &lines.next().ok_or(GtfsError::MissingColumn { file: FILE, column: "stop_id" })??,
    );
    for col in ["stop_id", "stop_lat", "stop_lon"] {
        if header.index(col).is_none() {
            return Err(GtfsError::MissingColumn {
                file: FILE,
                column: match col {
                    "stop_id" => "stop_id",
                    "stop_lat" => "stop_lat",
                    _ => "stop_lon",
                },
            });
        }
    }
    let mut out = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let rec = split_record(&line);
        let id = header.get(&rec, "stop_id").unwrap_or("").to_string();
        let lat: f64 = parse_field(&header, &rec, "stop_lat", FILE, i + 2)?;
        let lon: f64 = parse_field(&header, &rec, "stop_lon", FILE, i + 2)?;
        if id.is_empty() {
            return Err(GtfsError::BadRecord {
                file: FILE,
                line: i + 2,
                reason: "empty stop_id".into(),
            });
        }
        if !(-90.0..=90.0).contains(&lat) || !(-180.0..=180.0).contains(&lon) {
            return Err(GtfsError::BadRecord {
                file: FILE,
                line: i + 2,
                reason: format!("coordinates out of range: ({lat}, {lon})"),
            });
        }
        let name = header.get(&rec, "stop_name").unwrap_or("").to_string();
        out.push(GtfsStop { id, name, lat, lon });
    }
    Ok(out)
}

pub(crate) fn parse_routes<R: BufRead>(reader: R) -> Result<Vec<GtfsRoute>, GtfsError> {
    const FILE: &str = "routes.txt";
    let mut lines = reader.lines();
    let header = Header::parse(
        &lines.next().ok_or(GtfsError::MissingColumn { file: FILE, column: "route_id" })??,
    );
    if header.index("route_id").is_none() {
        return Err(GtfsError::MissingColumn { file: FILE, column: "route_id" });
    }
    let mut out = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let rec = split_record(&line);
        let id = header.get(&rec, "route_id").unwrap_or("").to_string();
        if id.is_empty() {
            return Err(GtfsError::BadRecord {
                file: FILE,
                line: i + 2,
                reason: "empty route_id".into(),
            });
        }
        let short = header
            .get(&rec, "route_short_name")
            .filter(|s| !s.is_empty())
            .or_else(|| header.get(&rec, "route_long_name"))
            .unwrap_or("")
            .to_string();
        out.push(GtfsRoute { id, short_name: short });
    }
    Ok(out)
}

pub(crate) fn parse_trips<R: BufRead>(reader: R) -> Result<Vec<GtfsTrip>, GtfsError> {
    const FILE: &str = "trips.txt";
    let mut lines = reader.lines();
    let header = Header::parse(
        &lines.next().ok_or(GtfsError::MissingColumn { file: FILE, column: "trip_id" })??,
    );
    for col in ["trip_id", "route_id"] {
        if header.index(col).is_none() {
            return Err(GtfsError::MissingColumn {
                file: FILE,
                column: if col == "trip_id" { "trip_id" } else { "route_id" },
            });
        }
    }
    let mut out = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let rec = split_record(&line);
        let id = header.get(&rec, "trip_id").unwrap_or("").to_string();
        let route_id = header.get(&rec, "route_id").unwrap_or("").to_string();
        if id.is_empty() || route_id.is_empty() {
            return Err(GtfsError::BadRecord {
                file: FILE,
                line: i + 2,
                reason: "empty trip_id or route_id".into(),
            });
        }
        out.push(GtfsTrip { id, route_id });
    }
    Ok(out)
}

/// One trip's worth of consecutive `stop_times.txt` records, as yielded by
/// [`StopTimesReader`].
#[derive(Debug, Clone, PartialEq)]
pub struct TripGroup {
    /// The `trip_id` shared by every record in the group.
    pub trip_id: String,
    /// `(stop_sequence, stop_id)` records in file order (callers sort by
    /// sequence where ordering matters).
    pub records: Vec<(u32, String)>,
    /// 1-based line number of the group's first record (error reporting).
    pub line: usize,
}

/// Streaming `stop_times.txt` reader: yields one [`TripGroup`] per
/// consecutive run of records sharing a `trip_id`, without ever
/// materializing the whole table.
///
/// **Memory contract:** at most one group — the trip currently being
/// accumulated — is held at a time, so peak memory is O(largest trip)
/// regardless of file size. This is what lets
/// [`crate::ingest::GtfsIngest::import_dir`] ingest NYC-scale feeds whose
/// `stop_times.txt` dwarfs every other table.
///
/// The reader assumes the file is grouped by `trip_id` (the GTFS best
/// practice, true of virtually all published feeds); it does **not** merge
/// a trip whose records are scattered across non-adjacent blocks — each run
/// becomes its own group, and consumers that need whole trips must detect
/// the reappearance (as `import_dir` does). The eager
/// [`GtfsFeed::parse`]/[`GtfsFeed::load_dir`] path is a thin collect over
/// this reader and handles unsorted feeds fine, since it regroups in
/// memory.
#[derive(Debug)]
pub struct StopTimesReader<R: BufRead> {
    lines: std::io::Lines<R>,
    header: Header,
    /// 1-based line number of the last line read.
    line: usize,
    pending: Option<TripGroup>,
    done: bool,
}

impl<R: BufRead> StopTimesReader<R> {
    /// Parses and validates the header; the records stream lazily through
    /// the [`Iterator`] impl.
    pub fn new(reader: R) -> Result<Self, GtfsError> {
        const FILE: &str = "stop_times.txt";
        let mut lines = reader.lines();
        let header_line = lines
            .next()
            .ok_or(GtfsError::MissingColumn { file: FILE, column: "trip_id" })?
            .map_err(|e| GtfsError::BadRecord {
                file: FILE,
                line: 1,
                reason: format!("unreadable header: {e}"),
            })?;
        let header = Header::parse(&header_line);
        for col in ["trip_id", "stop_id", "stop_sequence"] {
            if header.index(col).is_none() {
                return Err(GtfsError::MissingColumn {
                    file: FILE,
                    column: match col {
                        "trip_id" => "trip_id",
                        "stop_id" => "stop_id",
                        _ => "stop_sequence",
                    },
                });
            }
        }
        Ok(StopTimesReader { lines, header, line: 1, pending: None, done: false })
    }
}

impl<R: BufRead> Iterator for StopTimesReader<R> {
    type Item = Result<TripGroup, GtfsError>;

    fn next(&mut self) -> Option<Self::Item> {
        const FILE: &str = "stop_times.txt";
        if self.done {
            return None;
        }
        loop {
            let Some(line) = self.lines.next() else {
                self.done = true;
                return self.pending.take().map(Ok);
            };
            self.line += 1;
            let line = match line {
                Ok(l) => l,
                // A mid-stream read failure (truncated file, invalid
                // UTF-8, disk error) keeps its position: file + line, like
                // every other malformed-record error — a bare `Io` here
                // would strand the operator of a city-scale feed with no
                // idea where the corruption sits.
                Err(e) => {
                    self.done = true;
                    return Some(Err(GtfsError::BadRecord {
                        file: FILE,
                        line: self.line,
                        reason: format!("unreadable line: {e}"),
                    }));
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let rec = split_record(&line);
            let trip_id = self.header.get(&rec, "trip_id").unwrap_or("").to_string();
            let stop_id = self.header.get(&rec, "stop_id").unwrap_or("").to_string();
            let sequence: u32 =
                match parse_field(&self.header, &rec, "stop_sequence", FILE, self.line) {
                    Ok(s) => s,
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                };
            if trip_id.is_empty() || stop_id.is_empty() {
                self.done = true;
                return Some(Err(GtfsError::BadRecord {
                    file: FILE,
                    line: self.line,
                    reason: "empty trip_id or stop_id".into(),
                }));
            }
            match &mut self.pending {
                Some(group) if group.trip_id == trip_id => group.records.push((sequence, stop_id)),
                pending => {
                    let next =
                        TripGroup { trip_id, records: vec![(sequence, stop_id)], line: self.line };
                    if let Some(finished) = pending.replace(next) {
                        return Some(Ok(finished));
                    }
                }
            }
        }
    }
}

/// Eager `stop_times.txt` parse: a thin collect over [`StopTimesReader`].
fn parse_stop_times<R: BufRead>(reader: R) -> Result<Vec<GtfsStopTime>, GtfsError> {
    let mut out = Vec::new();
    for group in StopTimesReader::new(reader)? {
        let group = group?;
        for (sequence, stop_id) in group.records {
            out.push(GtfsStopTime { trip_id: group.trip_id.clone(), stop_id, sequence });
        }
    }
    Ok(out)
}

fn parse_field<T: std::str::FromStr>(
    header: &Header,
    rec: &[String],
    col: &str,
    file: &'static str,
    line: usize,
) -> Result<T, GtfsError> {
    header.get(rec, col).and_then(|v| v.parse().ok()).ok_or_else(|| GtfsError::BadRecord {
        file,
        line,
        reason: format!("missing or malformed `{col}`"),
    })
}

/// The pre-refactor importer, kept in test scope as the equivalence oracle
/// of [`GtfsFeed::into_transit`].
///
/// Differences from `into_transit`, all deliberate: it rebuilds the snap
/// `GridIndex` on every call, memoizes Dijkstra per route only (shared
/// corridors re-run), snaps with no radius cap (a stop 50 km away resolves
/// to a border node), and adds **every** stop in `stops.txt` to the
/// network — including orphans no route references, which inflate the
/// Laplacian dimension. The orphan-stop and snap-radius regression tests
/// assert these bugs against this function and their absence in the new
/// pipeline.
#[cfg(test)]
pub(crate) fn into_transit_reference(
    feed: &GtfsFeed,
    road: &RoadNetwork,
    projection: &Projection,
) -> Result<(TransitNetwork, GtfsImportStats), GtfsError> {
    let sequences = feed.route_stop_sequences()?;
    let node_index = ct_spatial::GridIndex::build(250.0, road.positions());
    let mut stats = GtfsImportStats::default();

    // Snap every referenced stop once.
    let mut builder = ct_graph::TransitNetworkBuilder::new();
    let mut stop_road: Vec<u32> = Vec::new(); // builder stop id → road node
    let mut by_gtfs_id: HashMap<&str, u32> = HashMap::new();
    let mut by_road_node: HashMap<u32, u32> = HashMap::new();
    for stop in &feed.stops {
        let p = projection.project(&ct_spatial::GeoPoint::new(stop.lat, stop.lon));
        let Some(node) = node_index.nearest(&p) else { continue };
        stats.max_snap_m = stats.max_snap_m.max(p.dist(&road.position(node)));
        let sid = *by_road_node.entry(node).or_insert_with(|| {
            stop_road.push(node);
            builder.add_stop(node, road.position(node))
        });
        by_gtfs_id.insert(stop.id.as_str(), sid);
    }
    stats.stops = builder.num_stops();

    for (_route_id, seq) in &sequences {
        // Translate to transit stop ids, dropping consecutive repeats
        // (distinct GTFS stops can share one snapped node).
        let mut stops: Vec<u32> = Vec::with_capacity(seq.len());
        for gid in seq {
            let Some(&sid) = by_gtfs_id.get(gid.as_str()) else { continue };
            if stops.last() != Some(&sid) {
                stops.push(sid);
            }
        }
        // Split at unroutable hops, then add each piece with ≥ 2 stops.
        let mut piece: Vec<u32> = Vec::new();
        let mut pieces: Vec<Vec<u32>> = Vec::new();
        let mut paths: HashMap<(u32, u32), (f64, Vec<u32>)> = HashMap::new();
        for &sid in &stops {
            if let Some(&prev) = piece.last() {
                let a = stop_road[prev as usize];
                let b = stop_road[sid as usize];
                let key = (a.min(b), a.max(b));
                let routable = if let Some(hit) = paths.get(&key) {
                    hit.0.is_finite()
                } else {
                    match ct_graph::shortest_path(road, a, b) {
                        Some(p) => {
                            paths.insert(key, (p.dist, p.edges));
                            true
                        }
                        None => {
                            paths.insert(key, (f64::INFINITY, Vec::new()));
                            false
                        }
                    }
                };
                if !routable {
                    stats.dropped_hops += 1;
                    pieces.push(std::mem::take(&mut piece));
                }
            }
            piece.push(sid);
        }
        pieces.push(piece);
        let mut added = false;
        for piece in pieces {
            if piece.len() < 2 {
                continue;
            }
            builder.add_route(&piece, |u, v| {
                let a = stop_road[u as usize];
                let b = stop_road[v as usize];
                let key = (a.min(b), a.max(b));
                paths.get(&key).expect("hop path cached").clone()
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

#[cfg(test)]
mod tests {
    use super::*;
    use ct_graph::RoadEdge;
    use ct_spatial::{GeoPoint, Point};

    /// A 4×4 road grid, 100 m spacing, anchored at a Chicago-like origin.
    fn grid() -> (RoadNetwork, Projection) {
        let mut positions = Vec::new();
        for r in 0..4 {
            for c in 0..4 {
                positions.push(Point::new(c as f64 * 100.0, r as f64 * 100.0));
            }
        }
        let mut edges = Vec::new();
        for r in 0..4u32 {
            for c in 0..4u32 {
                let u = r * 4 + c;
                if c + 1 < 4 {
                    edges.push(RoadEdge { u, v: u + 1, length: 100.0 });
                }
                if r + 1 < 4 {
                    edges.push(RoadEdge { u, v: u + 4, length: 100.0 });
                }
            }
        }
        (RoadNetwork::new(positions, edges), Projection::new(GeoPoint::new(41.85, -87.65)))
    }

    /// Positions three stops on grid nodes 0, 2, and 10 in lat/lon space.
    fn feed_for_grid(proj: &Projection, road: &RoadNetwork) -> GtfsFeed {
        let g = |node: u32| proj.unproject(&road.position(node));
        let (a, b, c) = (g(0), g(2), g(10));
        let stops = format!(
            "stop_id,stop_name,stop_lat,stop_lon\n\
             A,\"First, St\",{},{}\n\
             B,Second,{},{}\n\
             C,Third,{},{}\n",
            a.lat, a.lon, b.lat, b.lon, c.lat, c.lon
        );
        let routes = "route_id,route_short_name,route_type\nr1,10,3\n";
        let trips = "route_id,service_id,trip_id\nr1,wk,t1\n";
        let stop_times = "trip_id,arrival_time,departure_time,stop_id,stop_sequence\n\
             t1,08:00:00,08:00:00,A,1\n\
             t1,08:05:00,08:05:00,B,2\n\
             t1,08:09:00,08:09:00,C,3\n";
        GtfsFeed::parse(
            stops.as_bytes(),
            routes.as_bytes(),
            trips.as_bytes(),
            stop_times.as_bytes(),
        )
        .expect("parse feed")
    }

    #[test]
    fn parses_quoted_names_and_counts() {
        let (road, proj) = grid();
        let feed = feed_for_grid(&proj, &road);
        assert_eq!(feed.stops.len(), 3);
        assert_eq!(feed.stops[0].name, "First, St");
        assert_eq!(feed.routes.len(), 1);
        assert_eq!(feed.trips.len(), 1);
        assert_eq!(feed.stop_times.len(), 3);
    }

    #[test]
    fn import_builds_transit_over_road_paths() {
        let (road, proj) = grid();
        let feed = feed_for_grid(&proj, &road);
        let (net, stats) = feed.into_transit(&road, &proj).expect("import");
        assert_eq!(net.num_stops(), 3);
        assert_eq!(net.num_routes(), 1);
        assert_eq!(net.num_edges(), 2);
        assert_eq!(stats.routes, 1);
        assert_eq!(stats.dropped_routes, 0);
        assert_eq!(stats.dropped_hops, 0);
        assert!(stats.max_snap_m < 1.0, "snap {:.3}", stats.max_snap_m);
        // Hop A→B spans grid nodes 0→2: two road edges, 200 m.
        let e = net.edge(0);
        assert!((e.length - 200.0).abs() < 1e-6);
        assert_eq!(e.road_edges.len(), 2);
        // Route stop sequence is in stop_sequence order.
        assert_eq!(net.route(0).stops.len(), 3);
    }

    #[test]
    fn stops_on_same_node_merge() {
        let (road, proj) = grid();
        let mut feed = feed_for_grid(&proj, &road);
        // A duplicate stop a few meters from A snaps to the same node. The
        // trip visits it right after A (same sequence, later in file order)
        // so it is referenced — unreferenced stops are dropped outright.
        let near_a = proj.unproject(&Point::new(3.0, 4.0));
        feed.stops.push(GtfsStop {
            id: "A2".into(),
            name: String::new(),
            lat: near_a.lat,
            lon: near_a.lon,
        });
        feed.stop_times.push(GtfsStopTime {
            trip_id: "t1".into(),
            stop_id: "A2".into(),
            sequence: 1,
        });
        let (net, stats) = feed.into_transit(&road, &proj).expect("import");
        assert_eq!(net.num_stops(), 3, "duplicate stop not merged");
        assert_eq!(stats.dropped_stops, 0, "merged stop is used, not dropped");
        assert!(stats.max_snap_m >= 5.0 - 1e-9);
    }

    #[test]
    fn longest_trip_represents_the_route() {
        let (road, proj) = grid();
        let mut feed = feed_for_grid(&proj, &road);
        // A second, shorter trip on the same route must not win.
        feed.trips.push(GtfsTrip { id: "t2".into(), route_id: "r1".into() });
        feed.stop_times.push(GtfsStopTime {
            trip_id: "t2".into(),
            stop_id: "A".into(),
            sequence: 1,
        });
        feed.stop_times.push(GtfsStopTime {
            trip_id: "t2".into(),
            stop_id: "B".into(),
            sequence: 2,
        });
        let seqs = feed.route_stop_sequences().expect("sequences");
        assert_eq!(seqs.len(), 1);
        assert_eq!(seqs[0].1, vec!["A", "B", "C"]);
    }

    #[test]
    fn unroutable_hop_splits_the_route() {
        // Two disconnected road components.
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(10_000.0, 0.0),
            Point::new(10_100.0, 0.0),
        ];
        let edges =
            vec![RoadEdge { u: 0, v: 1, length: 100.0 }, RoadEdge { u: 2, v: 3, length: 100.0 }];
        let road = RoadNetwork::new(positions, edges);
        let proj = Projection::new(GeoPoint::new(41.85, -87.65));
        let g = |node: u32| proj.unproject(&road.position(node));
        let pts: Vec<GeoPoint> = (0..4).map(g).collect();
        let stops = format!(
            "stop_id,stop_lat,stop_lon\nA,{},{}\nB,{},{}\nC,{},{}\nD,{},{}\n",
            pts[0].lat,
            pts[0].lon,
            pts[1].lat,
            pts[1].lon,
            pts[2].lat,
            pts[2].lon,
            pts[3].lat,
            pts[3].lon,
        );
        let routes = "route_id\nr1\n";
        let trips = "route_id,trip_id\nr1,t1\n";
        let stop_times = "trip_id,stop_id,stop_sequence\nt1,A,1\nt1,B,2\nt1,C,3\nt1,D,4\n";
        let feed = GtfsFeed::parse(
            stops.as_bytes(),
            routes.as_bytes(),
            trips.as_bytes(),
            stop_times.as_bytes(),
        )
        .expect("parse");
        let (net, stats) = feed.into_transit(&road, &proj).expect("import");
        // The B→C hop is unroutable: the route splits into A-B and C-D.
        assert_eq!(stats.dropped_hops, 1);
        assert_eq!(net.num_routes(), 2);
        assert_eq!(stats.routes, 2);
    }

    #[test]
    fn route_with_no_usable_hops_is_dropped_and_empty_feed_errors() {
        let (road, proj) = grid();
        let g0 = proj.unproject(&road.position(0));
        let stops = format!("stop_id,stop_lat,stop_lon\nA,{},{}\n", g0.lat, g0.lon);
        let routes = "route_id\nr1\n";
        let trips = "route_id,trip_id\nr1,t1\n";
        // One-stop trip: nothing to connect.
        let stop_times = "trip_id,stop_id,stop_sequence\nt1,A,1\n";
        let feed = GtfsFeed::parse(
            stops.as_bytes(),
            routes.as_bytes(),
            trips.as_bytes(),
            stop_times.as_bytes(),
        )
        .expect("parse");
        match feed.into_transit(&road, &proj) {
            Err(GtfsError::EmptyFeed) => {}
            other => panic!("expected EmptyFeed, got {other:?}"),
        }
    }

    #[test]
    fn missing_columns_are_reported_per_file() {
        let bad_stops = "stop_id,stop_lat\nA,41.0\n"; // no stop_lon
        let err = GtfsFeed::parse(
            bad_stops.as_bytes(),
            "route_id\n".as_bytes(),
            "route_id,trip_id\n".as_bytes(),
            "trip_id,stop_id,stop_sequence\n".as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(err, GtfsError::MissingColumn { file: "stops.txt", column: "stop_lon" }));

        let err = GtfsFeed::parse(
            "stop_id,stop_lat,stop_lon\n".as_bytes(),
            "wrong\n".as_bytes(),
            "route_id,trip_id\n".as_bytes(),
            "trip_id,stop_id,stop_sequence\n".as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(err, GtfsError::MissingColumn { file: "routes.txt", column: "route_id" }));
    }

    #[test]
    fn malformed_records_are_reported_with_line_numbers() {
        let stops = "stop_id,stop_lat,stop_lon\nA,not_a_number,10.0\n";
        let err = GtfsFeed::parse(
            stops.as_bytes(),
            "route_id\n".as_bytes(),
            "route_id,trip_id\n".as_bytes(),
            "trip_id,stop_id,stop_sequence\n".as_bytes(),
        )
        .unwrap_err();
        match err {
            GtfsError::BadRecord { file: "stops.txt", line: 2, reason } => {
                assert!(reason.contains("stop_lat"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_of_range_coordinates_rejected() {
        let stops = "stop_id,stop_lat,stop_lon\nA,95.0,10.0\n";
        let err = GtfsFeed::parse(
            stops.as_bytes(),
            "route_id\n".as_bytes(),
            "route_id,trip_id\n".as_bytes(),
            "trip_id,stop_id,stop_sequence\n".as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(err, GtfsError::BadRecord { file: "stops.txt", line: 2, .. }));
    }

    #[test]
    fn dangling_references_are_detected() {
        let (road, proj) = grid();
        let mut feed = feed_for_grid(&proj, &road);
        feed.stop_times.push(GtfsStopTime {
            trip_id: "t1".into(),
            stop_id: "GHOST".into(),
            sequence: 9,
        });
        match feed.route_stop_sequences() {
            Err(GtfsError::DanglingReference { kind: "stop", id }) => assert_eq!(id, "GHOST"),
            other => panic!("unexpected {other:?}"),
        }

        // A dangling stop in a NON-representative trip must be caught too:
        // validation covers every stop_times record, not just the longest
        // trip's (t2 is shorter than t1, so it never represents r1).
        let mut feed = feed_for_grid(&proj, &road);
        feed.trips.push(GtfsTrip { id: "t2".into(), route_id: "r1".into() });
        feed.stop_times.push(GtfsStopTime {
            trip_id: "t2".into(),
            stop_id: "GHOST2".into(),
            sequence: 1,
        });
        match feed.route_stop_sequences() {
            Err(GtfsError::DanglingReference { kind: "stop", id }) => assert_eq!(id, "GHOST2"),
            other => panic!("non-representative trip not validated: {other:?}"),
        }

        let mut feed = feed_for_grid(&proj, &road);
        feed.trips.push(GtfsTrip { id: "tX".into(), route_id: "NO_ROUTE".into() });
        assert!(matches!(
            feed.route_stop_sequences(),
            Err(GtfsError::DanglingReference { kind: "route", .. })
        ));
    }

    #[test]
    fn new_pipeline_matches_reference_on_grid_fixture() {
        let (road, proj) = grid();
        let feed = feed_for_grid(&proj, &road);
        let (net, stats) = feed.into_transit(&road, &proj).expect("import");
        let (reference, ref_stats) =
            into_transit_reference(&feed, &road, &proj).expect("reference");
        assert_eq!(net.stops(), reference.stops());
        assert_eq!(net.edges(), reference.edges());
        assert_eq!(net.routes(), reference.routes());
        assert_eq!(stats.stops, ref_stats.stops);
        assert_eq!(stats.routes, ref_stats.routes);
        assert_eq!(stats.max_snap_m, ref_stats.max_snap_m);
    }

    #[test]
    fn adversarial_ids_survive_export_round_trip() {
        let stops = vec![
            GtfsStop { id: "plain".into(), name: "Plain".into(), lat: 41.5, lon: -87.5 },
            GtfsStop { id: "has,comma".into(), name: "A, B".into(), lat: 41.5, lon: -87.5 },
            GtfsStop { id: "has\"quote".into(), name: "say \"hi\"".into(), lat: 41.5, lon: -87.5 },
        ];
        let routes = vec![GtfsRoute { id: "r,1".into(), short_name: "10,\"X\"".into() }];
        let trips = vec![GtfsTrip { id: "t\"1\",a".into(), route_id: "r,1".into() }];
        let stop_times = (0..3)
            .map(|i| GtfsStopTime {
                trip_id: "t\"1\",a".into(),
                stop_id: stops[i].id.clone(),
                sequence: i as u32,
            })
            .collect();
        let feed = GtfsFeed { stops, routes, trips, stop_times };
        let reparsed = GtfsFeed::parse(
            feed.stops_txt().as_bytes(),
            feed.routes_txt().as_bytes(),
            feed.trips_txt().as_bytes(),
            feed.stop_times_txt().as_bytes(),
        )
        .expect("reparse adversarial ids");
        assert_eq!(reparsed.stops, feed.stops);
        assert_eq!(reparsed.routes, feed.routes);
        assert_eq!(reparsed.trips, feed.trips);
        assert_eq!(reparsed.stop_times, feed.stop_times);
        // And the reparse still resolves references.
        assert_eq!(reparsed.route_stop_sequences().unwrap()[0].0, "r,1");
    }

    #[test]
    fn export_then_reimport_preserves_topology() {
        let (road, proj) = grid();
        let feed = feed_for_grid(&proj, &road);
        let (net, _) = feed.into_transit(&road, &proj).expect("import");

        let exported = GtfsFeed::from_transit(&net, &proj);
        let reparsed = GtfsFeed::parse(
            exported.stops_txt().as_bytes(),
            exported.routes_txt().as_bytes(),
            exported.trips_txt().as_bytes(),
            exported.stop_times_txt().as_bytes(),
        )
        .expect("reparse");
        let (net2, _) = reparsed.into_transit(&road, &proj).expect("reimport");
        assert_eq!(net2.num_stops(), net.num_stops());
        assert_eq!(net2.num_edges(), net.num_edges());
        assert_eq!(net2.num_routes(), net.num_routes());
        for (r1, r2) in net.routes().iter().zip(net2.routes()) {
            let n1: Vec<u32> = r1.stops.iter().map(|&s| net.stop(s).road_node).collect();
            let n2: Vec<u32> = r2.stops.iter().map(|&s| net2.stop(s).road_node).collect();
            assert_eq!(n1, n2, "route road-node sequence changed in round trip");
        }
    }

    #[test]
    fn generated_city_round_trips_through_gtfs() {
        let city = crate::CityConfig::small().seed(9).generate();
        let proj = Projection::new(GeoPoint::new(41.85, -87.65));
        let exported = GtfsFeed::from_transit(&city.transit, &proj);
        let (net, stats) = exported.into_transit(&city.road, &proj).expect("import");
        assert_eq!(net.num_stops(), city.transit.num_stops());
        assert_eq!(net.num_routes(), city.transit.num_routes());
        assert!(stats.max_snap_m < 1.0);
    }

    #[test]
    fn writer_formats_are_valid() {
        let (road, proj) = grid();
        let feed = feed_for_grid(&proj, &road);
        let (net, _) = feed.into_transit(&road, &proj).expect("import");
        let out = GtfsFeed::from_transit(&net, &proj);
        assert!(out.stops_txt().starts_with("stop_id,stop_name,stop_lat,stop_lon\n"));
        assert!(out.routes_txt().contains(",3\n"), "bus route_type missing");
        assert!(out.trips_txt().contains("R0,always,T0"));
        let st = out.stop_times_txt();
        assert!(st.contains("08:00:00"));
        assert!(st.contains("08:01:00"), "per-hop minute schedule: {st}");
    }

    #[test]
    fn hms_formats() {
        assert_eq!(hms(0), "00:00:00");
        assert_eq!(hms(8 * 3600 + 61), "08:01:01");
        assert_eq!(hms(25 * 3600), "25:00:00"); // GTFS allows >24h
    }

    #[test]
    fn write_dir_and_load_dir_round_trip() {
        let (road, proj) = grid();
        let feed = feed_for_grid(&proj, &road);
        let (net, _) = feed.into_transit(&road, &proj).expect("import");
        let out = GtfsFeed::from_transit(&net, &proj);
        let dir = std::env::temp_dir().join(format!("ctbus-gtfs-test-{}", std::process::id()));
        out.write_dir(&dir).expect("write feed");
        let loaded = GtfsFeed::load_dir(&dir).expect("load feed");
        assert_eq!(loaded.stops.len(), out.stops.len());
        assert_eq!(loaded.routes.len(), out.routes.len());
        assert_eq!(loaded.stop_times.len(), out.stop_times.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_dir_missing_file_is_io_error() {
        let dir = std::env::temp_dir().join("ctbus-gtfs-nonexistent");
        assert!(matches!(GtfsFeed::load_dir(&dir), Err(GtfsError::Io(_))));
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    const STOP_TIMES: &str = "trip_id,stop_id,stop_sequence\n\
         t1,A,2\n\
         t1,B,1\n\
         t1,C,3\n\
         t2,B,1\n\
         t2,C,2\n\
         t3,A,1\n";

    #[test]
    fn reader_groups_consecutive_records_by_trip() {
        let groups: Vec<TripGroup> = StopTimesReader::new(STOP_TIMES.as_bytes())
            .expect("header")
            .collect::<Result<_, _>>()
            .expect("groups");
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].trip_id, "t1");
        // Records stay in file order; callers sort by sequence.
        assert_eq!(
            groups[0].records,
            vec![(2, "A".to_string()), (1, "B".to_string()), (3, "C".to_string())]
        );
        assert_eq!(groups[0].line, 2);
        assert_eq!(groups[1].trip_id, "t2");
        assert_eq!(groups[1].line, 5);
        assert_eq!(groups[2].trip_id, "t3");
        assert_eq!(groups[2].records, vec![(1, "A".to_string())]);
    }

    #[test]
    fn eager_parse_is_a_thin_collect_over_the_reader() {
        let eager = parse_stop_times(STOP_TIMES.as_bytes()).expect("parse");
        let streamed: Vec<GtfsStopTime> = StopTimesReader::new(STOP_TIMES.as_bytes())
            .expect("header")
            .map(|g| g.expect("group"))
            .flat_map(|TripGroup { trip_id, records, .. }| {
                records
                    .into_iter()
                    .map(move |(sequence, stop_id)| GtfsStopTime {
                        trip_id: trip_id.clone(),
                        stop_id,
                        sequence,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(eager, streamed);
    }

    #[test]
    fn reader_reports_errors_with_line_numbers() {
        let bad = "trip_id,stop_id,stop_sequence\nt1,A,1\nt1,B,not_a_number\n";
        let mut reader = StopTimesReader::new(bad.as_bytes()).expect("header");
        match reader.next() {
            Some(Err(GtfsError::BadRecord { file: "stop_times.txt", line: 3, reason })) => {
                assert!(reason.contains("stop_sequence"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(reader.next().is_none(), "reader fuses after an error");

        let empty_field = "trip_id,stop_id,stop_sequence\nt1,,1\n";
        let mut reader = StopTimesReader::new(empty_field.as_bytes()).expect("header");
        assert!(matches!(
            reader.next(),
            Some(Err(GtfsError::BadRecord { file: "stop_times.txt", line: 2, .. }))
        ));

        assert!(matches!(
            StopTimesReader::new("trip_id,stop_id\n".as_bytes()),
            Err(GtfsError::MissingColumn { file: "stop_times.txt", column: "stop_sequence" })
        ));
    }

    #[test]
    fn reader_reports_unreadable_bytes_as_bad_records_not_panics() {
        // Invalid UTF-8 mid-file: the row itself is unreadable, so the error
        // must carry the file and line like any other malformed record.
        let mut bytes = b"trip_id,stop_id,stop_sequence\nt1,A,1\n".to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFE, b',', b'B', b',', b'2', b'\n']);
        let mut reader = StopTimesReader::new(&bytes[..]).expect("header");
        match reader.next() {
            Some(Err(GtfsError::BadRecord { file: "stop_times.txt", line: 3, reason })) => {
                assert!(reason.contains("unreadable line"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(reader.next().is_none(), "reader fuses after an io error");

        // Invalid UTF-8 in the header line: surfaced as line 1, not io noise.
        let bad_header = [0xFF, 0xFE, b'\n', b't', b'1', b',', b'A', b',', b'1', b'\n'];
        match StopTimesReader::new(&bad_header[..]) {
            Err(GtfsError::BadRecord { file: "stop_times.txt", line: 1, reason }) => {
                assert!(reason.contains("unreadable header"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reader_rejects_negative_float_and_truncated_sequences() {
        for (row, needle) in [
            ("t1,A,-3", "stop_sequence"),
            ("t1,A,1.5", "stop_sequence"),
            ("t1,A,", "stop_sequence"),
            ("t1,A", "stop_sequence"),
        ] {
            let table = format!("trip_id,stop_id,stop_sequence\n{row}\n");
            let mut reader = StopTimesReader::new(table.as_bytes()).expect("header");
            match reader.next() {
                Some(Err(GtfsError::BadRecord { file: "stop_times.txt", line: 2, reason })) => {
                    assert!(reason.contains(needle), "row {row:?}: {reason}");
                }
                other => panic!("row {row:?}: unexpected {other:?}"),
            }
        }
    }

    /// A `BufRead` that serves one line at a time and counts how many lines
    /// have been handed out — lets the test observe that the reader pulls
    /// input incrementally instead of slurping the table.
    struct LineMeter {
        lines: Vec<Vec<u8>>,
        idx: usize,
        off: usize,
        served: Rc<Cell<usize>>,
    }

    impl LineMeter {
        fn new(text: &str, served: Rc<Cell<usize>>) -> Self {
            let lines = text.split_inclusive('\n').map(|l| l.as_bytes().to_vec()).collect();
            LineMeter { lines, idx: 0, off: 0, served }
        }
    }

    impl std::io::Read for LineMeter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            use std::io::BufRead;
            let src = self.fill_buf()?;
            let n = src.len().min(buf.len());
            buf[..n].copy_from_slice(&src[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl std::io::BufRead for LineMeter {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.idx >= self.lines.len() {
                return Ok(&[]);
            }
            if self.off == 0 {
                self.served.set(self.served.get() + 1);
            }
            Ok(&self.lines[self.idx][self.off..])
        }

        fn consume(&mut self, amt: usize) {
            if self.idx >= self.lines.len() {
                return;
            }
            self.off += amt;
            if self.off >= self.lines[self.idx].len() {
                self.idx += 1;
                self.off = 0;
            }
        }
    }

    #[test]
    fn reader_consumes_input_lazily() {
        let served = Rc::new(Cell::new(0usize));
        let meter = LineMeter::new(STOP_TIMES, served.clone());
        let mut reader = StopTimesReader::new(meter).expect("header");
        // Header only so far (plus nothing speculative).
        assert_eq!(served.get(), 1);
        let g1 = reader.next().unwrap().unwrap();
        assert_eq!(g1.trip_id, "t1");
        // Yielding t1 required its 3 records plus exactly one lookahead
        // line (the first t2 record) — the table was not slurped.
        assert_eq!(served.get(), 5);
        let g2 = reader.next().unwrap().unwrap();
        assert_eq!(g2.trip_id, "t2");
        assert_eq!(served.get(), 7);
        assert_eq!(reader.next().unwrap().unwrap().trip_id, "t3");
        assert!(reader.next().is_none());
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;

    #[test]
    fn crlf_line_endings_parse_cleanly() {
        // Windows-exported feeds carry \r\n; fields must come out trimmed.
        let stops = "stop_id,stop_name,stop_lat,stop_lon\r\nA,Main,41.88,-87.63\r\n";
        let routes = "route_id,route_short_name\r\nr1,10\r\n";
        let trips = "route_id,trip_id\r\nr1,t1\r\n";
        let stop_times = "trip_id,stop_id,stop_sequence\r\nt1,A,1\r\n";
        let feed = GtfsFeed::parse(
            stops.as_bytes(),
            routes.as_bytes(),
            trips.as_bytes(),
            stop_times.as_bytes(),
        )
        .expect("CRLF feed parses");
        assert_eq!(feed.stops[0].id, "A");
        assert_eq!(feed.stops[0].name, "Main");
        assert_eq!(feed.stops[0].lon, -87.63);
        assert_eq!(feed.routes[0].short_name, "10");
        assert_eq!(feed.stop_times[0].sequence, 1);
    }

    #[test]
    fn bom_and_crlf_together() {
        let stops = "\u{feff}stop_id,stop_lat,stop_lon\r\nA,41.0,-87.0\r\n";
        let feed = GtfsFeed::parse(
            stops.as_bytes(),
            "route_id\nr1\n".as_bytes(),
            "route_id,trip_id\nr1,t1\n".as_bytes(),
            "trip_id,stop_id,stop_sequence\nt1,A,1\n".as_bytes(),
        )
        .expect("BOM+CRLF feed parses");
        assert_eq!(feed.stops.len(), 1);
    }

    #[test]
    fn quoted_field_with_trailing_cr() {
        let stops = "stop_id,stop_name,stop_lat,stop_lon\r\nA,\"Main, St\",41.0,-87.0\r\n";
        let feed = GtfsFeed::parse(
            stops.as_bytes(),
            "route_id\nr1\n".as_bytes(),
            "route_id,trip_id\nr1,t1\n".as_bytes(),
            "trip_id,stop_id,stop_sequence\nt1,A,1\n".as_bytes(),
        )
        .expect("quoted CRLF feed parses");
        assert_eq!(feed.stops[0].name, "Main, St");
    }

    #[test]
    fn extra_unknown_columns_are_ignored() {
        let stops = "stop_id,zone_id,stop_lat,wheelchair,stop_lon\nA,z9,41.0,1,-87.0\n";
        let feed = GtfsFeed::parse(
            stops.as_bytes(),
            "agency_id,route_id,color\nag,r1,FF0000\n".as_bytes(),
            "service_id,route_id,trip_id,headsign\nwk,r1,t1,Downtown\n".as_bytes(),
            "trip_id,arrival_time,stop_id,stop_sequence\nt1,08:00:00,A,1\n".as_bytes(),
        )
        .expect("extra columns ignored");
        assert_eq!(feed.stops[0].lat, 41.0);
        assert_eq!(feed.trips[0].route_id, "r1");
    }
}
