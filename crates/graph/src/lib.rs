#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Graph substrate for CT-Bus.
//!
//! Two network layers, mirroring the paper's Definitions 1–2:
//!
//! * [`road::RoadNetwork`] — the undirected road graph `G = (V, E)` whose
//!   vertices are intersections and whose edges carry travel lengths and,
//!   after demand aggregation, trajectory counts;
//! * [`transit::TransitNetwork`] — the undirected transit graph
//!   `Gr = (Vr, Er)` whose vertices are bus stops (each affiliated with a
//!   road vertex) and whose edges are inter-stop hops realized as road
//!   paths, grouped into [`transit::Route`]s.
//!
//! Plus the algorithms both layers need: binary-heap Dijkstra with early
//! exit ([`dijkstra`]), BFS and connected components ([`bfs`]), and the
//! stop–route transfer search used by the paper's convenience metrics
//! ([`transfers`]).

pub mod bfs;
pub mod dijkstra;
pub mod mincut;
pub mod road;
pub mod transfers;
pub mod transit;

pub use bfs::{bfs_hops, connected_components};
pub use dijkstra::{
    dijkstra_all, dijkstra_bounded, dijkstra_tree, reconstruct_path, shortest_path,
    shortest_paths_batch, PathResult, PathScratch,
};
pub use mincut::{edge_connectivity, global_min_cut, MinCut};
pub use road::{RoadEdge, RoadNetwork};
pub use transfers::{min_transfers, TransferIndex};
pub use transit::{Route, Stop, TransitEdge, TransitNetwork, TransitNetworkBuilder};
