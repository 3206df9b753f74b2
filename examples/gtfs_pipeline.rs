//! GTFS round trip: import a transit feed, plan a new route with CT-Bus,
//! and export the enriched network back to GTFS.
//!
//! The paper builds its transit networks from public GTFS/shapefile feeds
//! (§7.1.1). This example writes a feed for a synthetic city, re-imports
//! it (exercising the snapping and path-stitching a real feed would go
//! through), plans a route, and emits the updated feed — the files a
//! transit agency's tooling would ingest.
//!
//! ```sh
//! cargo run --release --example gtfs_pipeline
//! ```

use ct_bus::core::{CtBusParams, Planner, PlannerMode};
use ct_bus::data::{City, CityConfig, DemandModel, GtfsFeed};
use ct_bus::spatial::{GeoPoint, Projection};

fn main() {
    let city = CityConfig::small().seed(33).generate();
    let proj = Projection::new(GeoPoint::new(41.85, -87.65)); // Chicago anchor

    // 1. Export the city's transit network as a GTFS feed (four tables).
    let feed = GtfsFeed::from_transit(&city.transit, &proj);
    let dir = std::env::temp_dir().join("ctbus-gtfs-demo");
    feed.write_dir(&dir).expect("write GTFS feed");
    println!(
        "exported GTFS feed to {}: {} stops, {} routes, {} stop_times",
        dir.display(),
        feed.stops.len(),
        feed.routes.len(),
        feed.stop_times.len()
    );

    // 2. Re-import: snap stops to the road network, stitch hops from road
    //    shortest paths — exactly what a real downloaded feed goes through.
    //    `GtfsIngest` streams `stop_times.txt` (never materializing the
    //    table), shares one snap index, and realizes each unique corridor
    //    with exactly one Dijkstra, city-wide.
    let mut ingest = ct_bus::data::GtfsIngest::new(&city.road);
    let (transit, stats) = ingest.import_dir(&dir, &proj).expect("import feed");
    let cache = ingest.stats();
    println!(
        "imported: {} stops / {} edges / {} routes (max snap {:.1} m, {} dropped hops, \
         {} dropped stops; {} corridor Dijkstras, {} cache hits)",
        transit.num_stops(),
        transit.num_edges(),
        transit.num_routes(),
        stats.max_snap_m,
        stats.dropped_hops,
        stats.dropped_stops,
        cache.dijkstra_runs,
        cache.hits
    );

    // 3. Plan over the imported network.
    // Copy-on-write: roads and trajectories are shared with `city`, only
    // the freshly imported transit layer is new.
    let imported_city = City { name: "gtfs-import".into(), ..city.with_transit(transit) };
    let demand = DemandModel::from_city(&imported_city);
    let params = CtBusParams { k: 10, w: 0.5, ..CtBusParams::small_defaults() };
    let planner = Planner::new(&imported_city, &demand, params);
    let result = planner.run(PlannerMode::EtaPre);
    let plan = &result.best;
    println!(
        "\nplanned route: {} edges ({} new), objective {:.4}, stops {:?}",
        plan.num_edges(),
        plan.num_new_edges(),
        plan.objective,
        plan.stops
    );

    // 4. Export the enriched network (existing + planned route) as GTFS.
    let enriched =
        ct_bus::core::apply_plan(&imported_city.transit, plan, &planner.precomputed().candidates);
    let out = GtfsFeed::from_transit(&enriched, &proj);
    let out_dir = std::env::temp_dir().join("ctbus-gtfs-demo-enriched");
    out.write_dir(&out_dir).expect("write enriched feed");
    println!(
        "enriched feed written to {}: now {} routes ({} stop_times)",
        out_dir.display(),
        out.routes.len(),
        out.stop_times.len()
    );
}
