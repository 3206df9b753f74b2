#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Geometry substrate for CT-Bus.
//!
//! Everything CT-Bus needs to reason about *where* stops, road vertices, and
//! trajectories are: planar points in a local metric projection, geographic
//! coordinates with haversine distances, turn-angle classification for the
//! paper's feasibility rules (Algorithm 2), axis-aligned bounding boxes,
//! polylines, and a uniform grid index used to find candidate stop pairs
//! within the spacing threshold `τ`.
//!
//! Coordinates are expressed in **meters** in a local tangent-plane
//! (equirectangular) projection; [`GeoPoint`] carries raw WGS84 degrees and
//! can be projected with [`Projection`].

pub mod angle;
pub mod bbox;
pub mod distance;
pub mod grid;
pub mod point;
pub mod polyline;

pub use angle::{turn_angle, TurnClass, TURN_KILL_ANGLE, TURN_THRESHOLD_ANGLE};
pub use bbox::BBox;
pub use distance::{equirectangular_m, haversine_m, EARTH_RADIUS_M};
pub use grid::GridIndex;
pub use point::{GeoPoint, Point, Projection};
pub use polyline::Polyline;
