//! Property-based and invariant tests for dataset generation and demand.

use ct_data::{CityConfig, DemandModel, Trajectory};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn generated_cities_are_internally_consistent(seed in 0u64..10_000) {
        let city = CityConfig::small().seed(seed).trajectories(300).generate();
        prop_assert!(city.validate().is_empty(), "{:?}", city.validate());
        // Road is one component (generator keeps the largest).
        prop_assert!(ct_graph::connected_components(&city.road).iter().all(|&l| l == 0));
        // Every route has at least 2 stops and its consecutive stops are
        // joined by transit edges.
        for r in city.transit.routes() {
            prop_assert!(r.len() >= 2);
            for w in r.stops.windows(2) {
                prop_assert!(city.transit.edge_between(w[0], w[1]).is_some());
            }
        }
    }

    #[test]
    fn total_demand_weight_equals_total_trajectory_length(seed in 0u64..10_000) {
        // Σ_e f_e·|e| = Σ_T length(T): both sides count each traversal of
        // each edge exactly once, weighted by length.
        let city = CityConfig::small().seed(seed).trajectories(200).generate();
        let demand = DemandModel::from_city(&city);
        let lhs = demand.total_weight();
        let rhs: f64 = city.trajectories.iter().map(|t| t.length_m(&city.road)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-6 * rhs.max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn trajectories_are_shortest_paths(seed in 0u64..10_000) {
        // The generator expands OD pairs via Dijkstra; each stored
        // trajectory's length must equal the shortest-path distance.
        let city = CityConfig::small().seed(seed).trajectories(60).generate();
        for t in city.trajectories.iter().take(10) {
            let (o, d) = (t.origin().unwrap(), t.destination().unwrap());
            let sp = ct_graph::shortest_path(&city.road, o, d).unwrap();
            prop_assert!((t.length_m(&city.road) - sp.dist).abs() < 1e-6);
        }
    }
}

#[test]
fn demand_is_additive_across_corpora() {
    let city = CityConfig::small().seed(5).trajectories(100).generate();
    let (a, b) = city.trajectories.split_at(50);
    let d_all = DemandModel::new(&city.road, &city.trajectories);
    let d_a = DemandModel::new(&city.road, a);
    let d_b = DemandModel::new(&city.road, b);
    for e in 0..city.road.num_edges() as u32 {
        assert_eq!(d_all.count(e), d_a.count(e) + d_b.count(e));
        assert!((d_all.weight(e) - d_a.weight(e) - d_b.weight(e)).abs() < 1e-9);
    }
}

#[test]
fn trip_loader_rejects_out_of_tolerance_distances() {
    let city = CityConfig::small().seed(9).generate();
    // Take a real trajectory, report a distance 20% off: must be dropped at
    // 5% tolerance, kept at 30%.
    let t: &Trajectory = &city.trajectories[0];
    let o = city.road.position(t.origin().unwrap());
    let d = city.road.position(t.destination().unwrap());
    let real = t.length_m(&city.road);
    let trip = ct_data::TripRecord { pickup: o, dropoff: d, distance_m: real * 1.2 };
    let strict = ct_data::loaders::trips_to_trajectories(&city.road, &[trip], 0.05);
    assert!(strict.is_empty());
    let loose = ct_data::loaders::trips_to_trajectories(&city.road, &[trip], 0.30);
    assert_eq!(loose.len(), 1);
}

/// Characters that stress the CSV writer: separators, quotes, and the
/// doubling escape. Whitespace is excluded at the edges below (the reader
/// trims fields, so edge whitespace cannot round-trip by design).
const ID_CHARS: &[char] = &['a', 'B', '3', ',', '"', '\'', ';', ':', '_', '-', '.', '/', ' ', '€'];

fn id_from(indices: &[usize]) -> String {
    let s: String = indices.iter().map(|&i| ID_CHARS[i % ID_CHARS.len()]).collect();
    let t = s.trim();
    if t.is_empty() {
        "x".into()
    } else {
        t.to_string()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn adversarial_ids_round_trip_through_gtfs_text(
        raw in proptest::collection::vec(
            proptest::collection::vec(0usize..14, 1..12),
            4..9,
        ),
        route_raw in proptest::collection::vec(0usize..14, 1..12),
        trip_raw in proptest::collection::vec(0usize..14, 1..12),
    ) {
        use ct_data::gtfs::{GtfsFeed, GtfsRoute, GtfsStop, GtfsStopTime, GtfsTrip};
        let stop_ids: Vec<String> = raw.iter().map(|r| id_from(r)).collect();
        let route_id = id_from(&route_raw);
        let trip_id = id_from(&trip_raw);
        let feed = GtfsFeed {
            stops: stop_ids
                .iter()
                .enumerate()
                .map(|(i, id)| GtfsStop {
                    id: id.clone(),
                    name: format!("name \"{i}\", unit"),
                    lat: 41.5,
                    lon: -87.5,
                })
                .collect(),
            routes: vec![GtfsRoute { id: route_id.clone(), short_name: route_id.clone() }],
            trips: vec![GtfsTrip { id: trip_id.clone(), route_id: route_id.clone() }],
            stop_times: stop_ids
                .iter()
                .enumerate()
                .map(|(i, id)| GtfsStopTime {
                    trip_id: trip_id.clone(),
                    stop_id: id.clone(),
                    sequence: i as u32,
                })
                .collect(),
        };
        let reparsed = GtfsFeed::parse(
            feed.stops_txt().as_bytes(),
            feed.routes_txt().as_bytes(),
            feed.trips_txt().as_bytes(),
            feed.stop_times_txt().as_bytes(),
        )
        .expect("adversarial ids must reparse");
        prop_assert_eq!(&reparsed.stops, &feed.stops);
        prop_assert_eq!(&reparsed.routes, &feed.routes);
        prop_assert_eq!(&reparsed.trips, &feed.trips);
        prop_assert_eq!(&reparsed.stop_times, &feed.stop_times);
    }
}
