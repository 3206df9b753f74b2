//! Polylines over projected points.

use serde::{Deserialize, Serialize};

use crate::bbox::BBox;
use crate::point::Point;

/// An ordered sequence of projected points (e.g. the geometry of a bus route).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Polyline {
    points: Vec<Point>,
}

impl Polyline {
    /// Creates a polyline from its vertices.
    pub fn new(points: Vec<Point>) -> Self {
        Polyline { points }
    }

    /// The vertices of the polyline.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the polyline has no vertices.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Appends a vertex.
    pub fn push(&mut self, p: Point) {
        self.points.push(p);
    }

    /// Total length in meters.
    pub fn length(&self) -> f64 {
        self.points.windows(2).map(|w| w[0].dist(&w[1])).sum()
    }

    /// Bounding box of the polyline, `None` if empty.
    pub fn bbox(&self) -> Option<BBox> {
        BBox::of_points(self.points.iter())
    }

    /// The point at arc-length fraction `t ∈ [0, 1]` along the polyline.
    ///
    /// Returns `None` for polylines with fewer than one vertex. Degenerate
    /// (zero-length) polylines return their first vertex.
    // ctlint::allow(dead-pub): polyline API; its callers are polyline::tests and the point_at proptest in crates/spatial/tests/properties.rs (ROADMAP item 6)
    pub fn point_at(&self, t: f64) -> Option<Point> {
        let first = *self.points.first()?;
        let total = self.length();
        if total == 0.0 || t <= 0.0 {
            return Some(first);
        }
        if t >= 1.0 {
            return self.points.last().copied();
        }
        let target = total * t;
        let mut acc = 0.0;
        for w in self.points.windows(2) {
            let seg = w[0].dist(&w[1]);
            if acc + seg >= target {
                let local = if seg == 0.0 { 0.0 } else { (target - acc) / seg };
                return Some(w[0].lerp(&w[1], local));
            }
            acc += seg;
        }
        self.points.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polyline {
        Polyline::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(10.0, 10.0)])
    }

    #[test]
    fn length_sums_segments() {
        assert_eq!(l_shape().length(), 20.0);
        assert_eq!(Polyline::default().length(), 0.0);
    }

    #[test]
    fn point_at_endpoints_and_middle() {
        let p = l_shape();
        assert_eq!(p.point_at(0.0), Some(Point::new(0.0, 0.0)));
        assert_eq!(p.point_at(1.0), Some(Point::new(10.0, 10.0)));
        assert_eq!(p.point_at(0.5), Some(Point::new(10.0, 0.0)));
        assert_eq!(p.point_at(0.25), Some(Point::new(5.0, 0.0)));
    }

    #[test]
    fn point_at_empty_is_none() {
        assert_eq!(Polyline::default().point_at(0.5), None);
    }

    #[test]
    fn bbox_covers_all_vertices() {
        let b = l_shape().bbox().unwrap();
        assert_eq!(b.width(), 10.0);
        assert_eq!((b.min_y, b.max_y), (0.0, 10.0));
    }
}
