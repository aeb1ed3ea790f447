//! Projective (homography) transforms.

use crate::Point2;
use serde::{Deserialize, Serialize};

/// A 3×3 projective transform of the plane (a homography).
///
/// Stored row-major. Applying the transform maps homogeneous coordinates
/// `(x, y, 1)` through the matrix and divides by the resulting `w`.
///
/// The paper's homography *baseline* (Fig. 11) estimates one of these per
/// camera pair; the estimation itself lives in `mvs-ml`, while this type
/// provides representation, composition, inversion, and application.
///
/// # Examples
///
/// ```
/// use mvs_geometry::{Point2, Projective2};
///
/// let t = Projective2::translation(10.0, -5.0);
/// assert_eq!(t.apply(Point2::new(1.0, 2.0)), Some(Point2::new(11.0, -3.0)));
/// let back = t.inverse().unwrap();
/// assert_eq!(back.apply(Point2::new(11.0, -3.0)), Some(Point2::new(1.0, 2.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Projective2 {
    m: [[f64; 3]; 3],
}

impl Projective2 {
    /// The identity transform.
    const IDENTITY: Projective2 = Projective2 {
        m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// Creates a transform from a row-major 3×3 matrix.
    #[inline]
    pub const fn from_matrix(m: [[f64; 3]; 3]) -> Self {
        Projective2 { m }
    }

    /// A pure translation.
    pub fn translation(dx: f64, dy: f64) -> Self {
        Projective2 {
            m: [[1.0, 0.0, dx], [0.0, 1.0, dy], [0.0, 0.0, 1.0]],
        }
    }

    /// A uniform scale about the origin.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero (the transform would be singular).
    pub fn scale(s: f64) -> Self {
        assert!(s != 0.0, "scale factor must be non-zero");
        Projective2 {
            m: [[s, 0.0, 0.0], [0.0, s, 0.0], [0.0, 0.0, 1.0]],
        }
    }

    /// A rotation about the origin by `angle` radians.
    pub fn rotation(angle: f64) -> Self {
        let (s, c) = angle.sin_cos();
        Projective2 {
            m: [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]],
        }
    }

    /// The row-major matrix.
    #[inline]
    pub fn matrix(&self) -> &[[f64; 3]; 3] {
        &self.m
    }

    /// Applies the transform to a point.
    ///
    /// Returns `None` when the point maps to infinity (`w ≈ 0`) or the
    /// result is not finite.
    pub fn apply(&self, p: Point2) -> Option<Point2> {
        let x = self.m[0][0] * p.x + self.m[0][1] * p.y + self.m[0][2];
        let y = self.m[1][0] * p.x + self.m[1][1] * p.y + self.m[1][2];
        let w = self.m[2][0] * p.x + self.m[2][1] * p.y + self.m[2][2];
        if w.abs() < 1e-12 {
            return None;
        }
        let out = Point2::new(x / w, y / w);
        out.is_finite().then_some(out)
    }

    /// Composition: `self.compose(other)` applies `other` first, then `self`.
    pub fn compose(&self, other: &Projective2) -> Projective2 {
        let mut m = [[0.0; 3]; 3];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (0..3).map(|k| self.m[i][k] * other.m[k][j]).sum();
            }
        }
        Projective2 { m }
    }

    /// Matrix determinant.
    pub fn det(&self) -> f64 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// The inverse transform, or `None` when singular.
    pub fn inverse(&self) -> Option<Projective2> {
        let d = self.det();
        if d.abs() < 1e-12 {
            return None;
        }
        let m = &self.m;
        let inv = [
            [
                (m[1][1] * m[2][2] - m[1][2] * m[2][1]) / d,
                (m[0][2] * m[2][1] - m[0][1] * m[2][2]) / d,
                (m[0][1] * m[1][2] - m[0][2] * m[1][1]) / d,
            ],
            [
                (m[1][2] * m[2][0] - m[1][0] * m[2][2]) / d,
                (m[0][0] * m[2][2] - m[0][2] * m[2][0]) / d,
                (m[0][2] * m[1][0] - m[0][0] * m[1][2]) / d,
            ],
            [
                (m[1][0] * m[2][1] - m[1][1] * m[2][0]) / d,
                (m[0][1] * m[2][0] - m[0][0] * m[2][1]) / d,
                (m[0][0] * m[1][1] - m[0][1] * m[1][0]) / d,
            ],
        ];
        Some(Projective2 { m: inv })
    }
}

impl Default for Projective2 {
    fn default() -> Self {
        Projective2::IDENTITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Point2, b: Point2) {
        assert!(a.distance(b) < 1e-9, "{a:?} vs {b:?}");
    }

    #[test]
    fn identity_is_noop() {
        let p = Point2::new(3.0, -7.0);
        assert_eq!(Projective2::IDENTITY.apply(p), Some(p));
    }

    #[test]
    fn translation_and_inverse() {
        let t = Projective2::translation(5.0, 2.0);
        let p = Point2::new(1.0, 1.0);
        let q = t.apply(p).unwrap();
        assert_close(q, Point2::new(6.0, 3.0));
        assert_close(t.inverse().unwrap().apply(q).unwrap(), p);
    }

    #[test]
    fn composition_order() {
        // Scale then translate != translate then scale.
        let s = Projective2::scale(2.0);
        let t = Projective2::translation(1.0, 0.0);
        let p = Point2::new(1.0, 0.0);
        // t ∘ s : scale first.
        assert_close(t.compose(&s).apply(p).unwrap(), Point2::new(3.0, 0.0));
        // s ∘ t : translate first.
        assert_close(s.compose(&t).apply(p).unwrap(), Point2::new(4.0, 0.0));
    }

    #[test]
    fn rotation_quarter_turn() {
        let r = Projective2::rotation(std::f64::consts::FRAC_PI_2);
        assert_close(
            r.apply(Point2::new(1.0, 0.0)).unwrap(),
            Point2::new(0.0, 1.0),
        );
    }

    #[test]
    fn singular_has_no_inverse() {
        let z = Projective2::from_matrix([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]]);
        assert!(z.inverse().is_none());
    }

    #[test]
    fn point_at_infinity_is_none() {
        // Bottom row sends y=1 to w=0.
        let h = Projective2::from_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 1.0]]);
        assert!(h.apply(Point2::new(0.0, 1.0)).is_none());
    }
}
