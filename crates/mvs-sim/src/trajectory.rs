//! Vehicle routes, traffic lights, and arrival processes.
//!
//! The AI City Challenge scenes the paper evaluates on are traffic scenes:
//! signalized intersections with platooned flow (S1), sparse residential
//! traffic (S2), and a busy fork road (S3). This module provides the
//! world-side vocabulary to reproduce those dynamics: polyline [`Route`]s,
//! [`TrafficLight`]s that gate them (producing the strong temporal workload
//! variation of Fig. 2), and Poisson [`SpawnConfig`]s.

use mvs_geometry::Point2;
use serde::{Deserialize, Serialize};

/// A polyline path through the world that vehicles follow, parameterized by
/// arc length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Route {
    waypoints: Vec<Point2>,
    /// Cumulative arc length at each waypoint; `lengths[0] == 0`.
    lengths: Vec<f64>,
    /// Nominal cruise speed in m/s.
    pub speed_mps: f64,
}

impl Route {
    /// Creates a route from at least two waypoints.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two waypoints are given, consecutive waypoints
    /// coincide, or the speed is not positive.
    pub fn new(waypoints: Vec<Point2>, speed_mps: f64) -> Self {
        assert!(waypoints.len() >= 2, "route needs at least two waypoints");
        assert!(speed_mps > 0.0, "route speed must be positive");
        let mut lengths = Vec::with_capacity(waypoints.len());
        lengths.push(0.0);
        for w in waypoints.windows(2) {
            let seg = w[0].distance(w[1]);
            assert!(seg > 1e-9, "consecutive waypoints must be distinct");
            lengths.push(lengths.last().expect("non-empty") + seg);
        }
        Route {
            waypoints,
            lengths,
            speed_mps,
        }
    }

    /// Total route length in metres.
    pub fn length(&self) -> f64 {
        *self.lengths.last().expect("non-empty")
    }

    /// Position at arc-length `s` (clamped to the route's ends).
    pub fn position_at(&self, s: f64) -> Point2 {
        let s = s.clamp(0.0, self.length());
        // Find the segment containing s.
        let idx = match self
            .lengths
            .binary_search_by(|l| l.partial_cmp(&s).expect("finite lengths"))
        {
            Ok(i) => i.min(self.waypoints.len() - 2),
            Err(i) => i.saturating_sub(1).min(self.waypoints.len() - 2),
        };
        let seg_len = self.lengths[idx + 1] - self.lengths[idx];
        let t = (s - self.lengths[idx]) / seg_len;
        self.waypoints[idx].lerp(self.waypoints[idx + 1], t)
    }
}

/// A fixed-cycle traffic light gating a route at a stop line.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficLight {
    /// Full signal period in seconds.
    pub period_s: f64,
    /// Fraction of the period that is green, in `(0, 1)`.
    pub green_fraction: f64,
    /// Phase offset in seconds (lets opposing roads alternate).
    pub offset_s: f64,
    /// Arc length of the stop line along the gated route.
    pub stop_line_s: f64,
}

impl TrafficLight {
    /// Whether the light shows green at absolute time `t` seconds.
    fn is_green(&self, t: f64) -> bool {
        let phase = (t + self.offset_s).rem_euclid(self.period_s) / self.period_s;
        phase < self.green_fraction
    }
}

/// Poisson arrival process for one route.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpawnConfig {
    /// Mean arrivals per second.
    pub rate_per_s: f64,
    /// Minimum headway (metres) to the previous vehicle before a new one
    /// may enter.
    pub min_gap_m: f64,
}

/// Car-following parameters shared by all vehicles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FollowingModel {
    /// Bumper-to-bumper distance below which a vehicle fully stops.
    pub stop_gap_m: f64,
    /// Distance below which a vehicle halves its speed.
    pub slow_gap_m: f64,
    /// How far before the stop line a red light starts to matter.
    pub red_zone_m: f64,
}

impl Default for FollowingModel {
    fn default() -> Self {
        FollowingModel {
            stop_gap_m: 7.0,
            slow_gap_m: 15.0,
            red_zone_m: 40.0,
        }
    }
}

impl FollowingModel {
    /// Effective speed for a vehicle at arc length `s` on a route, given
    /// its nominal speed, the gap to its leader (`None` when unobstructed)
    /// and the gating light (`None` when the route is unsignalled).
    pub(crate) fn effective_speed(
        &self,
        nominal_mps: f64,
        s: f64,
        leader_gap_m: Option<f64>,
        light: Option<(&TrafficLight, f64)>,
    ) -> f64 {
        let mut speed = nominal_mps;
        if let Some(gap) = leader_gap_m {
            if gap <= self.stop_gap_m {
                return 0.0;
            }
            if gap <= self.slow_gap_m {
                speed *= 0.5;
            }
        }
        if let Some((light, t)) = light {
            if !light.is_green(t) {
                let to_stop = light.stop_line_s - s;
                if to_stop > 0.0 && to_stop <= self.red_zone_m {
                    // Approaching a red light: creep, then stop at the line.
                    if to_stop <= self.stop_gap_m {
                        return 0.0;
                    }
                    speed = speed.min(nominal_mps * 0.4);
                }
            }
        }
        speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_route() -> Route {
        Route::new(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(10.0, 0.0),
                Point2::new(10.0, 10.0),
            ],
            10.0,
        )
    }

    #[test]
    fn arc_length_parameterization() {
        let r = l_route();
        assert_eq!(r.length(), 20.0);
        assert_eq!(r.position_at(0.0), Point2::new(0.0, 0.0));
        assert_eq!(r.position_at(5.0), Point2::new(5.0, 0.0));
        assert_eq!(r.position_at(10.0), Point2::new(10.0, 0.0));
        assert_eq!(r.position_at(15.0), Point2::new(10.0, 5.0));
        // Clamped at both ends.
        assert_eq!(r.position_at(-3.0), Point2::new(0.0, 0.0));
        assert_eq!(r.position_at(99.0), Point2::new(10.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "at least two waypoints")]
    fn rejects_single_waypoint() {
        Route::new(vec![Point2::ORIGIN], 10.0);
    }

    #[test]
    #[should_panic(expected = "must be distinct")]
    fn rejects_duplicate_waypoints() {
        Route::new(vec![Point2::ORIGIN, Point2::ORIGIN], 10.0);
    }

    #[test]
    fn light_cycles() {
        let light = TrafficLight {
            period_s: 30.0,
            green_fraction: 0.5,
            offset_s: 0.0,
            stop_line_s: 50.0,
        };
        assert!(light.is_green(0.0));
        assert!(light.is_green(14.9));
        assert!(!light.is_green(15.1));
        assert!(light.is_green(30.1)); // next cycle
                                       // Offset shifts the phase.
        let shifted = TrafficLight {
            offset_s: 15.0,
            ..light
        };
        assert!(!shifted.is_green(0.0));
    }

    #[test]
    fn following_model_brakes_for_leader() {
        let f = FollowingModel::default();
        assert_eq!(f.effective_speed(10.0, 0.0, None, None), 10.0);
        assert_eq!(f.effective_speed(10.0, 0.0, Some(5.0), None), 0.0);
        assert_eq!(f.effective_speed(10.0, 0.0, Some(10.0), None), 5.0);
        assert_eq!(f.effective_speed(10.0, 0.0, Some(50.0), None), 10.0);
    }

    #[test]
    fn following_model_stops_at_red() {
        let f = FollowingModel::default();
        let light = TrafficLight {
            period_s: 30.0,
            green_fraction: 0.5,
            offset_s: 0.0,
            stop_line_s: 100.0,
        };
        // Red at t=20. Vehicle just before the stop line → halt.
        assert_eq!(
            f.effective_speed(10.0, 95.0, None, Some((&light, 20.0))),
            0.0
        );
        // Red but far away → cruise.
        assert_eq!(
            f.effective_speed(10.0, 10.0, None, Some((&light, 20.0))),
            10.0
        );
        // Green → cruise through.
        assert_eq!(
            f.effective_speed(10.0, 95.0, None, Some((&light, 5.0))),
            10.0
        );
        // Past the stop line (inside the intersection) → keep moving.
        assert_eq!(
            f.effective_speed(10.0, 105.0, None, Some((&light, 20.0))),
            10.0
        );
    }
}
