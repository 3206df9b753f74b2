//! Loaders: trip-record CSV ingestion and JSON city snapshots.
//!
//! The trip loader mirrors the paper's preprocessing (§7.1.1): each record
//! has pickup/drop-off coordinates plus reported travel distance; we snap
//! the endpoints to road nodes, expand the shortest path, and accept the
//! trip as a trajectory if the path length is within a tolerance of the
//! reported distance (the paper uses 5%).

use std::io::{BufRead, Write};

use ct_graph::{PathScratch, RoadNetwork};
use ct_spatial::Point;
use serde::{Deserialize, Serialize};

use crate::city::City;
use crate::ingest::SnapIndex;
use crate::trajectory::Trajectory;

/// A raw trip record: projected endpoints and reported travel distance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TripRecord {
    /// Pickup location (projected meters).
    pub pickup: Point,
    /// Drop-off location (projected meters).
    pub dropoff: Point,
    /// Reported travel distance in meters (`<= 0` means unreported).
    pub distance_m: f64,
}

/// Parses trip records from CSV with columns
/// `pickup_x,pickup_y,dropoff_x,dropoff_y,distance_m` (header optional).
///
/// Malformed rows are skipped; the second element of the return value counts
/// them so callers can report data quality.
pub fn load_trip_records_csv<R: BufRead>(reader: R) -> std::io::Result<(Vec<TripRecord>, usize)> {
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        if fields.len() < 5 {
            skipped += 1;
            continue;
        }
        let parsed: Option<Vec<f64>> = fields[..5].iter().map(|f| f.parse().ok()).collect();
        match parsed {
            Some(v) => records.push(TripRecord {
                pickup: Point::new(v[0], v[1]),
                dropoff: Point::new(v[2], v[3]),
                distance_m: v[4],
            }),
            None => {
                // Allow a header on the first line without counting it.
                if i > 0 {
                    skipped += 1;
                }
            }
        }
    }
    Ok((records, skipped))
}

/// Expands trip records into road trajectories.
///
/// A trip becomes a trajectory when (a) both endpoints snap to road nodes,
/// (b) a road path exists, and (c) if the record reports a distance, the
/// shortest-path length is within `tolerance` (fractional, e.g. `0.05`) of
/// it — the paper's trip→trajectory approximation filter.
pub fn trips_to_trajectories(
    road: &RoadNetwork,
    trips: &[TripRecord],
    tolerance: f64,
) -> Vec<Trajectory> {
    let snap = SnapIndex::build(road).with_max_snap_m(f64::INFINITY);
    trips_to_trajectories_with(road, &snap, trips, tolerance)
}

/// [`trips_to_trajectories`] against a caller-held [`SnapIndex`], so corpora
/// loaded in several batches against one road network share the index (and
/// its snap-radius policy) instead of rebuilding it per call.
pub fn trips_to_trajectories_with(
    road: &RoadNetwork,
    snap: &SnapIndex,
    trips: &[TripRecord],
    tolerance: f64,
) -> Vec<Trajectory> {
    let mut scratch = PathScratch::new();
    let mut out = Vec::with_capacity(trips.len());
    for trip in trips {
        let (Some((a, _)), Some((b, _))) = (snap.snap(&trip.pickup), snap.snap(&trip.dropoff))
        else {
            continue;
        };
        if a == b {
            continue;
        }
        let Some(path) = scratch.shortest_path(road, a, b) else { continue };
        if trip.distance_m > 0.0 {
            let rel = (path.dist - trip.distance_m).abs() / trip.distance_m;
            if rel > tolerance {
                continue;
            }
        }
        out.push(Trajectory::new(path.nodes, path.edges));
    }
    out
}

/// Serializes a city to pretty JSON.
pub fn save_city_json<W: Write>(city: &City, writer: W) -> serde_json::Result<()> {
    serde_json::to_writer(writer, city)
}

/// Deserializes a city from JSON and checks it with [`City::validate`].
///
/// Deserializing fills the road network field by field, past the checks
/// of `RoadNetwork::new`, so a file with a non-positive road length or an
/// edited adjacency would otherwise load and then hang or mislead every
/// shortest-path search. Any problem is an error, reported with the first
/// one.
pub fn load_city_json<R: std::io::Read>(reader: R) -> serde_json::Result<City> {
    let city: City = serde_json::from_reader(reader)?;
    let problems = city.validate();
    match problems.first() {
        None => Ok(city),
        Some(first) => Err(serde_json::Error::custom(format!(
            "invalid city ({} problem{}): {first}",
            problems.len(),
            if problems.len() == 1 { "" } else { "s" }
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CityConfig;
    use ct_graph::RoadEdge;

    fn grid_road() -> RoadNetwork {
        // 3×3 grid, spacing 100.
        let mut positions = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                positions.push(Point::new(c as f64 * 100.0, r as f64 * 100.0));
            }
        }
        let mut edges = Vec::new();
        for r in 0..3u32 {
            for c in 0..3u32 {
                let u = r * 3 + c;
                if c + 1 < 3 {
                    edges.push(RoadEdge { u, v: u + 1, length: 100.0 });
                }
                if r + 1 < 3 {
                    edges.push(RoadEdge { u, v: u + 3, length: 100.0 });
                }
            }
        }
        RoadNetwork::new(positions, edges)
    }

    #[test]
    fn csv_parsing_with_header_and_bad_rows() {
        let csv = "px,py,dx,dy,dist\n0,0,200,0,205\nnot,a,number,at,all\n0,0,0,200,190\n";
        let (records, skipped) = load_trip_records_csv(csv.as_bytes()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(skipped, 1); // only the mid-file bad row counts
        assert_eq!(records[0].distance_m, 205.0);
    }

    #[test]
    fn csv_short_rows_are_skipped() {
        let csv = "1,2,3\n1,2,3,4,5\n";
        let (records, skipped) = load_trip_records_csv(csv.as_bytes()).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn trips_expand_and_filter_by_distance() {
        let road = grid_road();
        let trips = vec![
            // Good: reported 200m, shortest path 200m.
            TripRecord {
                pickup: Point::new(0.0, 0.0),
                dropoff: Point::new(200.0, 0.0),
                distance_m: 200.0,
            },
            // Bad: reported distance far from road distance (detour trip).
            TripRecord {
                pickup: Point::new(0.0, 0.0),
                dropoff: Point::new(200.0, 0.0),
                distance_m: 900.0,
            },
            // Unreported distance: accepted.
            TripRecord {
                pickup: Point::new(0.0, 0.0),
                dropoff: Point::new(0.0, 200.0),
                distance_m: 0.0,
            },
            // Degenerate: same snapped endpoint.
            TripRecord {
                pickup: Point::new(0.0, 0.0),
                dropoff: Point::new(10.0, 0.0),
                distance_m: 10.0,
            },
        ];
        let trajs = trips_to_trajectories(&road, &trips, 0.05);
        assert_eq!(trajs.len(), 2);
        assert!(trajs.iter().all(|t| t.is_consistent(&road)));
    }

    #[test]
    fn shared_snap_index_matches_per_call_expansion() {
        let road = grid_road();
        let trips = vec![
            TripRecord {
                pickup: Point::new(0.0, 0.0),
                dropoff: Point::new(200.0, 0.0),
                distance_m: 200.0,
            },
            TripRecord {
                pickup: Point::new(0.0, 0.0),
                dropoff: Point::new(0.0, 200.0),
                distance_m: 0.0,
            },
        ];
        let snap = SnapIndex::build(&road);
        let shared = trips_to_trajectories_with(&road, &snap, &trips, 0.05);
        assert_eq!(shared, trips_to_trajectories(&road, &trips, 0.05));
        // A bounded index drops trips whose endpoints are too far away.
        let tight = SnapIndex::build(&road).with_max_snap_m(10.0);
        let far = vec![TripRecord {
            pickup: Point::new(5_000.0, 5_000.0),
            dropoff: Point::new(0.0, 0.0),
            distance_m: 0.0,
        }];
        assert!(trips_to_trajectories_with(&road, &tight, &far, 0.05).is_empty());
        assert_eq!(trips_to_trajectories(&road, &far, 0.05).len(), 1);
    }

    /// The small city saved to JSON, with `edit` applied to its tree.
    fn edited_city_json(edit: impl FnOnce(&mut serde_json::Value)) -> String {
        let city = CityConfig::small().trajectories(20).generate();
        let mut tree = serde_json::to_value(&city).unwrap();
        edit(&mut tree);
        serde_json::to_string(&tree).unwrap()
    }

    /// The node at `path` in `tree`: object keys, or array indices as
    /// decimal strings.
    fn at<'a>(tree: &'a mut serde_json::Value, path: &[&str]) -> &'a mut serde_json::Value {
        path.iter().fold(tree, |node, key| match key.parse::<usize>() {
            Ok(i) => &mut node.as_array_mut().expect("array")[i],
            Err(_) => node.as_object_mut().expect("object").get_mut(*key).expect("key"),
        })
    }

    fn load_error(json: &str) -> String {
        load_city_json(json.as_bytes()).expect_err("malformed city loaded").to_string()
    }

    #[test]
    fn malformed_road_network_is_an_error_not_a_hang() {
        // A saved city loads, and loading checks what deserializing skips.
        assert!(load_city_json(edited_city_json(|_| {}).as_bytes()).is_ok());

        // One road length edited to −5000: Dijkstra would never leave the
        // negative 2-cycle it forms.
        let json = edited_city_json(|t| {
            *at(t, &["road", "edges", "0", "length"]) = serde_json::json!(-5000.0);
        });
        assert!(load_error(&json).contains("non-positive length -5000"), "{}", load_error(&json));
        let json = edited_city_json(|t| {
            *at(t, &["road", "edges", "3", "length"]) = serde_json::json!(0.0);
        });
        assert!(load_error(&json).contains("road edge 3 has non-positive length"));

        // An endpoint out of range.
        let json = edited_city_json(|t| {
            let n = at(t, &["road", "positions"]).as_array().unwrap().len();
            *at(t, &["road", "edges", "0", "u"]) = serde_json::json!(n);
        });
        assert!(load_error(&json).contains("out of bounds"), "{}", load_error(&json));

        // An adjacency that disagrees with the edge list.
        let json = edited_city_json(|t| {
            let neighbour = at(t, &["road", "adj", "0", "0"]);
            *neighbour = serde_json::json!(neighbour.as_u64().unwrap() + 1);
        });
        assert!(load_error(&json).contains("adjacency disagrees"), "{}", load_error(&json));

        // A problem `City::validate` reported before: a stop on a road node
        // that does not exist.
        let json = edited_city_json(|t| {
            *at(t, &["transit", "stops", "0", "road_node"]) = serde_json::json!(1_000_000);
        });
        assert!(load_error(&json).contains("unknown road node"), "{}", load_error(&json));
    }

    #[test]
    fn malformed_transit_network_is_an_error_not_a_panic() {
        // An edge endpoint past the last stop: planning would index the
        // adjacency with it and panic.
        let json = edited_city_json(|t| {
            *at(t, &["transit", "edges", "0", "u"]) = serde_json::json!(10_000);
        });
        let err = load_error(&json);
        assert!(err.contains("transit edge 0 (10000,") && err.contains("out of bounds"), "{err}");

        // A route stop past the last stop.
        let json = edited_city_json(|t| {
            *at(t, &["transit", "routes", "0", "stops", "0"]) = serde_json::json!(9_999);
        });
        let err = load_error(&json);
        assert!(err.contains("route 0 visits unknown stop 9999"), "{err}");

        // An adjacency entry that disagrees with the edge list.
        let json = edited_city_json(|t| {
            let neighbour = at(t, &["transit", "adj", "0", "0"]);
            *neighbour = serde_json::json!(neighbour.as_u64().unwrap() + 1);
        });
        let err = load_error(&json);
        assert!(err.contains("transit adjacency disagrees"), "{err}");
    }

    #[test]
    fn city_json_roundtrip() {
        let city = CityConfig::small().trajectories(50).generate();
        let mut buf = Vec::new();
        save_city_json(&city, &mut buf).unwrap();
        let loaded = load_city_json(buf.as_slice()).unwrap();
        assert_eq!(city.stats(), loaded.stats());
        assert_eq!(city.trajectories, loaded.trajectories);
        // Lazy lookup caches must be rebuilt transparently after deserialize.
        let e = city.transit.edges()[0].clone();
        assert_eq!(loaded.transit.edge_between(e.u, e.v), city.transit.edge_between(e.u, e.v));
    }
}
