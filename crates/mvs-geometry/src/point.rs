//! Points and displacements in the plane.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point (or displacement vector) in the 2-D plane.
///
/// `Point2` is deliberately used for both positions and displacements; the
/// workspace is small enough that a separate vector type would add friction
/// without catching real bugs.
///
/// # Examples
///
/// ```
/// use mvs_geometry::Point2;
///
/// let a = Point2::new(1.0, 2.0);
/// let b = Point2::new(4.0, 6.0);
/// assert_eq!(a.distance(b), 5.0);
/// assert_eq!((b - a).norm(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2 {
    /// The origin, `(0, 0)`.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point2) -> f64 {
        (self - other).norm()
    }

    /// Euclidean norm when interpreting the point as a displacement.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Dot product with `other`.
    #[inline]
    pub fn dot(self, other: Point2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (`z` component of the 3-D cross product).
    ///
    /// Positive when `other` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(self, other: Point2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        self + (other - self) * t
    }

    /// Rotates the displacement by `angle` radians counter-clockwise.
    pub fn rotated(self, angle: f64) -> Point2 {
        let (s, c) = angle.sin_cos();
        Point2::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }

    /// True when both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point2 {
    #[inline]
    fn add_assign(&mut self, rhs: Point2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Point2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn mul(self, rhs: f64) -> Point2 {
        Point2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn div(self, rhs: f64) -> Point2 {
        Point2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point2 {
    type Output = Point2;
    #[inline]
    fn neg(self) -> Point2 {
        Point2::new(-self.x, -self.y)
    }
}

impl From<(f64, f64)> for Point2 {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point2::new(x, y)
    }
}

impl From<Point2> for (f64, f64) {
    #[inline]
    fn from(p: Point2) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_round_trip() {
        let a = Point2::new(3.0, -4.0);
        let b = Point2::new(-1.0, 2.0);
        assert_eq!(a + b - b, a);
        assert_eq!(a * 2.0 / 2.0, a);
        assert_eq!(-(-a), a);
    }

    #[test]
    fn norm_and_distance_agree() {
        let a = Point2::new(1.0, 1.0);
        let b = Point2::new(4.0, 5.0);
        assert_eq!(a.distance(b), (b - a).norm());
    }

    #[test]
    fn dot_and_cross() {
        let x = Point2::new(1.0, 0.0);
        let y = Point2::new(0.0, 1.0);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.cross(y), 1.0);
        assert_eq!(y.cross(x), -1.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, -2.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point2::new(5.0, -1.0));
    }

    #[test]
    fn rotation_quarter_turn() {
        let p = Point2::new(1.0, 0.0).rotated(std::f64::consts::FRAC_PI_2);
        assert!((p.x).abs() < 1e-12);
        assert!((p.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tuple_conversions() {
        let p: Point2 = (2.0, 3.0).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (2.0, 3.0));
    }
}
