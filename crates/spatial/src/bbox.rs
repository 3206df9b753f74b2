//! Axis-aligned bounding boxes over projected points.

use serde::{Deserialize, Serialize};

use crate::point::Point;

/// Axis-aligned bounding box in projected meters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BBox {
    /// Western edge (meters).
    pub min_x: f64,
    /// Southern edge (meters).
    pub min_y: f64,
    /// Eastern edge (meters).
    pub max_x: f64,
    /// Northern edge (meters).
    pub max_y: f64,
}

impl BBox {
    /// An empty box that any point will expand.
    pub fn empty() -> Self {
        BBox {
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
        }
    }

    /// Builds the bounding box of a point set; `None` if the set is empty.
    pub fn of_points<'a, I: IntoIterator<Item = &'a Point>>(points: I) -> Option<BBox> {
        let mut b = BBox::empty();
        let mut any = false;
        for p in points {
            b.expand(p);
            any = true;
        }
        any.then_some(b)
    }

    /// Grows the box to contain `p`.
    pub fn expand(&mut self, p: &Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Whether `p` lies inside the box (boundary inclusive).
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Box width in meters.
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Center of the box.
    pub fn center(&self) -> Point {
        Point::new((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)
    }

    /// The box inflated by `margin` meters on every side.
    // ctlint::allow(dead-pub): bounding-box API; its caller is bbox::tests::inflate_grows_all_sides (ROADMAP item 6)
    pub fn inflate(&self, margin: f64) -> BBox {
        BBox {
            min_x: self.min_x - margin,
            min_y: self.min_y - margin,
            max_x: self.max_x + margin,
            max_y: self.max_y + margin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_points_none_when_empty() {
        assert!(BBox::of_points(std::iter::empty()).is_none());
    }

    #[test]
    fn expand_and_contains() {
        let pts = [Point::new(0.0, 0.0), Point::new(10.0, 5.0), Point::new(-2.0, 8.0)];
        let b = BBox::of_points(pts.iter()).unwrap();
        assert_eq!(b.min_x, -2.0);
        assert_eq!(b.max_x, 10.0);
        assert_eq!(b.max_y, 8.0);
        assert!(b.contains(&Point::new(0.0, 4.0)));
        assert!(!b.contains(&Point::new(11.0, 4.0)));
        assert_eq!(b.width(), 12.0);
        assert_eq!(b.max_y - b.min_y, 8.0);
    }

    #[test]
    fn inflate_grows_all_sides() {
        let b = BBox::of_points([Point::new(0.0, 0.0), Point::new(1.0, 1.0)].iter()).unwrap();
        let g = b.inflate(2.0);
        assert!(g.contains(&Point::new(-1.5, -1.5)));
        assert_eq!(g.width(), 5.0);
    }

    #[test]
    fn center_is_midpoint() {
        let b = BBox::of_points([Point::new(0.0, 0.0), Point::new(4.0, 6.0)].iter()).unwrap();
        assert_eq!(b.center(), Point::new(2.0, 3.0));
    }
}
