#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Datasets for CT-Bus.
//!
//! The paper evaluates on New York City and Chicago: DIMACS road networks,
//! GTFS/shapefile transit networks, and taxi trip records expanded into
//! road-network trajectories (§7.1.1). Those datasets are public but not
//! bundled here, so this crate provides two equivalent sources:
//!
//! * a deterministic **synthetic city generator** ([`generator`]) whose
//!   presets track the paper's Table 5 statistics at a laptop-friendly
//!   scale — planar jittered grid roads with coastline masks, bus routes as
//!   corridors over road shortest paths, and hotspot-mixture taxi trips
//!   expanded via shortest paths exactly like the paper's preprocessing;
//! * **loaders** ([`loaders`]) for CSV trip records and JSON city snapshots,
//!   and a **GTFS reader/writer** ([`gtfs`]) for the standard transit feed
//!   format, so real datasets can be plugged in unchanged.
//!
//! Demand aggregation ([`demand`]) turns trajectories into the per-edge
//! weights `f_e · |e|` that the CT-Bus objective consumes (paper Eq. 4).

pub mod city;
pub mod csv;
pub mod demand;
pub mod export;
pub mod generator;
pub mod geojson;
pub mod gtfs;
pub mod ingest;
pub mod loaders;
pub mod trajectory;

pub use city::{City, CityStats};
pub use demand::DemandModel;
pub use export::city_summary_json;
pub use generator::{CityConfig, CoastSide, GeographyMask};
pub use geojson::GeoJsonExporter;
pub use gtfs::{GtfsError, GtfsFeed, GtfsImportStats, StopTimesReader, TripGroup};
pub use ingest::{GtfsIngest, HopCacheStats, SnapIndex};
pub use loaders::{
    load_city_json, load_trip_records_csv, save_city_json, trips_to_trajectories,
    trips_to_trajectories_with, TripRecord,
};
pub use trajectory::Trajectory;
