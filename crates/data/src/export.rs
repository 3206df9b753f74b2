//! Textual/JSON exports standing in for the paper's map visualizations
//! (Figs. 5–8). The measurable content — stop coordinates, route shapes,
//! which existing routes a new route crosses — is emitted as JSON that any
//! GIS/plotting tool can consume.

use serde::Serialize;

use crate::city::City;

/// Geometry dump of one route: ordered stop coordinates.
#[derive(Debug, Clone, Serialize)]
pub struct RouteGeometry {
    /// Route id in the transit network.
    pub route_id: u32,
    /// Number of stops.
    pub num_stops: usize,
    /// `[x, y]` stop positions in projected meters.
    pub stops: Vec<[f64; 2]>,
}

/// JSON overview of a city (Fig. 5 substitute): stats plus route geometries.
pub fn city_summary_json(city: &City) -> serde_json::Value {
    let stats = city.stats();
    let routes: Vec<RouteGeometry> =
        (0..city.transit.num_routes() as u32).map(|r| route_geometry(city, r)).collect();
    serde_json::json!({
        "name": city.name,
        "stats": {
            "routes": stats.routes,
            "avg_route_len": stats.avg_route_len,
            "road_nodes": stats.road_nodes,
            "road_edges": stats.road_edges,
            "stops": stats.stops,
            "transit_edges": stats.transit_edges,
            "trajectories": stats.trajectories,
        },
        "routes": routes,
    })
}

fn route_geometry(city: &City, route_id: u32) -> RouteGeometry {
    let route = city.transit.route(route_id);
    let stops = route
        .stops
        .iter()
        .map(|&s| {
            let p = city.transit.stop(s).pos;
            [p.x, p.y]
        })
        .collect();
    RouteGeometry { route_id, num_stops: route.stops.len(), stops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CityConfig;

    #[test]
    fn summary_contains_stats_and_routes() {
        let city = CityConfig::small().trajectories(100).generate();
        let v = city_summary_json(&city);
        assert_eq!(v["name"], "small");
        assert_eq!(v["stats"]["trajectories"], 100);
        assert_eq!(v["routes"].as_array().unwrap().len(), city.transit.num_routes());
    }

    #[test]
    fn route_geometry_has_coordinates() {
        let city = CityConfig::small().trajectories(10).generate();
        let v = serde_json::to_value(route_geometry(&city, 0)).unwrap();
        let stops = v["stops"].as_array().unwrap();
        assert_eq!(stops.len(), city.transit.route(0).stops.len());
        assert_eq!(stops[0].as_array().unwrap().len(), 2);
    }
}
