//! GTFS ingestion at city scale: cold and warm imports through one
//! [`GtfsIngest`], plus the streaming directory path.
//!
//! The city has ≥ 5k stops and ≥ 200 routes with overlapping corridors.
//! `cold` builds a fresh [`GtfsIngest`] per import (one Dijkstra per unique
//! corridor, batched over all cores); `warm` re-imports through a
//! persistent ingest whose cache already holds every corridor — the
//! many-feeds-one-network steady state; `streaming` drives the same warm
//! ingest from a feed directory through the streaming `stop_times.txt`
//! reader. Recorded into `target/experiments/bench_baseline.json` (see
//! docs/benchmarks.md).

use criterion::{criterion_group, criterion_main, Criterion};

use ct_data::{City, CityConfig, CoastSide, GeographyMask, GtfsFeed, GtfsIngest};
use ct_spatial::{GeoPoint, Projection};

fn large_city() -> City {
    CityConfig {
        name: "ingest-large".into(),
        rows: 90,
        cols: 90,
        spacing_m: 120.0,
        jitter_m: 12.0,
        diagonal_prob: 0.04,
        edge_drop_prob: 0.05,
        mask: GeographyMask::Coastline {
            side: CoastSide::East,
            base_frac: 0.08,
            amplitude_frac: 0.04,
        },
        n_routes: 340,
        stop_spacing_blocks: 1,
        max_stops_per_route: 90,
        n_trajectories: 0,
        n_hotspots: 16,
        hotspot_sigma_m: 700.0,
        hotspot_bias: 0.3,
        seed: 42,
    }
    .generate()
}

fn bench_gtfs_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("gtfs_ingest");
    group.sample_size(10);

    let city = large_city();
    let proj = Projection::new(GeoPoint::new(41.85, -87.65));
    let feed = GtfsFeed::from_transit(&city.transit, &proj);
    assert!(feed.stops.len() >= 5_000, "bench city too small: {} stops", feed.stops.len());
    assert!(feed.routes.len() >= 200, "bench city too small: {} routes", feed.routes.len());

    let mut warm = GtfsIngest::new(&city.road);
    warm.import(&feed, &proj).expect("import");

    let dir = std::env::temp_dir().join(format!("ctbus-bench-gtfs-{}", std::process::id()));
    feed.write_dir(&dir).expect("write feed dir");

    group.bench_function("import_cached_cold", |b| {
        b.iter(|| GtfsIngest::new(&city.road).import(&feed, &proj).expect("cold import"))
    });
    group.bench_function("import_cached_warm", |b| {
        b.iter(|| warm.import(&feed, &proj).expect("warm import"))
    });
    group.bench_function("import_streaming_dir", |b| {
        b.iter(|| warm.import_dir(&dir, &proj).expect("streaming import"))
    });
    group.finish();

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_gtfs_ingest);
criterion_main!(benches);
