//! Geographic distance functions.

use crate::point::GeoPoint;

/// Mean Earth radius in meters (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Great-circle distance between two WGS84 points, in meters (haversine).
// ctlint::allow(dead-pub): geodesic API named in the crate docs; its callers are distance::tests (ROADMAP item 6)
pub fn haversine_m(a: &GeoPoint, b: &GeoPoint) -> f64 {
    let (la1, la2) = (a.lat.to_radians(), b.lat.to_radians());
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();
    let s = (dlat / 2.0).sin().powi(2) + la1.cos() * la2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_M * s.sqrt().asin()
}

/// Fast equirectangular approximation of geographic distance, in meters.
///
/// Within ~0.1% of haversine at city scales; used in hot loops where the
/// exact great-circle distance is overkill.
// ctlint::allow(dead-pub): geodesic API named in the crate docs; its caller is distance::tests (ROADMAP item 6)
pub fn equirectangular_m(a: &GeoPoint, b: &GeoPoint) -> f64 {
    let x = (b.lon - a.lon).to_radians() * ((a.lat + b.lat) / 2.0).to_radians().cos();
    let y = (b.lat - a.lat).to_radians();
    EARTH_RADIUS_M * x.hypot(y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_zero_for_identical_points() {
        let p = GeoPoint::new(41.85, -87.65);
        assert_eq!(haversine_m(&p, &p), 0.0);
    }

    #[test]
    fn haversine_one_degree_latitude() {
        let a = GeoPoint::new(40.0, -74.0);
        let b = GeoPoint::new(41.0, -74.0);
        let d = haversine_m(&a, &b);
        assert!((d - 111_195.0).abs() < 100.0, "got {d}");
    }

    #[test]
    fn haversine_symmetric() {
        let a = GeoPoint::new(40.7128, -74.0060); // NYC
        let b = GeoPoint::new(41.8781, -87.6298); // Chicago
        assert!((haversine_m(&a, &b) - haversine_m(&b, &a)).abs() < 1e-9);
    }

    #[test]
    fn nyc_to_chicago_is_about_1145km() {
        let a = GeoPoint::new(40.7128, -74.0060);
        let b = GeoPoint::new(41.8781, -87.6298);
        let d = haversine_m(&a, &b);
        assert!((d - 1_145_000.0).abs() < 10_000.0, "got {d}");
    }

    #[test]
    fn equirectangular_close_to_haversine_at_city_scale() {
        let a = GeoPoint::new(41.85, -87.65);
        let b = GeoPoint::new(41.90, -87.70);
        let h = haversine_m(&a, &b);
        let e = equirectangular_m(&a, &b);
        assert!((h - e).abs() / h < 1e-3, "h={h} e={e}");
    }
}
