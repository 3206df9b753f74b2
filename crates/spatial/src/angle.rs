//! Turn-angle computation.
//!
//! The paper's feasibility rules (Algorithm 2) classify the angle between
//! consecutive route edges: a deflection greater than `π/4` counts as a turn,
//! and greater than `π/2` disqualifies the candidate path outright (the turn
//! counter is slammed to `Tn`). These thresholds are exposed as constants so
//! planners and tests share one source of truth.

use crate::point::Point;

/// Deflection above which an edge junction counts as a turn (`π/4`).
pub const TURN_THRESHOLD_ANGLE: f64 = std::f64::consts::FRAC_PI_4;

/// Deflection above which a candidate is disqualified (`π/2`).
pub const TURN_KILL_ANGLE: f64 = std::f64::consts::FRAC_PI_2;

/// Classification of the deflection at a junction of two consecutive edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TurnClass {
    /// Deflection ≤ π/4: not a turn.
    Straight,
    /// π/4 < deflection ≤ π/2: one turn.
    Turn,
    /// Deflection > π/2: the path doubles back too sharply and is infeasible.
    Sharp,
}

impl TurnClass {
    /// Classifies a deflection angle in radians (0 = perfectly straight).
    pub fn from_angle(angle: f64) -> TurnClass {
        if angle > TURN_KILL_ANGLE {
            TurnClass::Sharp
        } else if angle > TURN_THRESHOLD_ANGLE {
            TurnClass::Turn
        } else {
            TurnClass::Straight
        }
    }
}

/// Deflection angle at `mid` when travelling `prev → mid → next`, in `[0, π]`.
///
/// Zero means continuing dead straight; `π` means a full U-turn. Degenerate
/// zero-length segments deflect by 0 (they cannot witness a turn).
pub fn turn_angle(prev: &Point, mid: &Point, next: &Point) -> f64 {
    let (ux, uy) = prev.delta(mid);
    let (vx, vy) = mid.delta(next);
    let nu = ux.hypot(uy);
    let nv = vx.hypot(vy);
    if nu == 0.0 || nv == 0.0 {
        return 0.0;
    }
    let cos = ((ux * vx + uy * vy) / (nu * nv)).clamp(-1.0, 1.0);
    cos.acos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn straight_line_has_zero_turn() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let c = Point::new(2.0, 0.0);
        assert!(turn_angle(&a, &b, &c).abs() < 1e-12);
    }

    #[test]
    fn right_angle_turn() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let c = Point::new(1.0, 1.0);
        assert!((turn_angle(&a, &b, &c) - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn u_turn_is_pi() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let c = Point::new(0.0, 0.0);
        assert!((turn_angle(&a, &b, &c) - PI).abs() < 1e-12);
    }

    #[test]
    fn degenerate_segment_is_straight() {
        let a = Point::new(1.0, 1.0);
        assert_eq!(turn_angle(&a, &a, &a), 0.0);
    }

    #[test]
    fn classification_thresholds() {
        assert_eq!(TurnClass::from_angle(0.1), TurnClass::Straight);
        assert_eq!(TurnClass::from_angle(TURN_THRESHOLD_ANGLE), TurnClass::Straight);
        assert_eq!(TurnClass::from_angle(1.0), TurnClass::Turn);
        assert_eq!(TurnClass::from_angle(TURN_KILL_ANGLE), TurnClass::Turn);
        assert_eq!(TurnClass::from_angle(2.0), TurnClass::Sharp);
    }

    #[test]
    fn shallow_bend_is_straight_class() {
        // 30° deflection: below the π/4 turn threshold.
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let c = Point::new(1.0 + 0.866, 0.5);
        let ang = turn_angle(&a, &b, &c);
        assert_eq!(TurnClass::from_angle(ang), TurnClass::Straight);
    }
}
