//! Convex polygons for camera fields of view.

use crate::{BBox, Point2};
use serde::{Deserialize, Serialize};

/// A convex polygon with counter-clockwise winding.
///
/// Used for camera view footprints on the world ground plane: the simulator
/// intersects object positions with each camera's view polygon to decide
/// which cameras can see an object (its *coverage set*).
///
/// # Examples
///
/// ```
/// use mvs_geometry::{Point2, Polygon};
///
/// let tri = Polygon::new(vec![
///     Point2::new(0.0, 0.0),
///     Point2::new(4.0, 0.0),
///     Point2::new(0.0, 4.0),
/// ]).unwrap();
/// assert!(tri.contains(Point2::new(1.0, 1.0)));
/// assert!(!tri.contains(Point2::new(3.0, 3.0)));
/// assert_eq!(tri.area(), 8.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polygon {
    vertices: Vec<Point2>,
}

/// Error returned when constructing an invalid [`Polygon`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than three vertices were supplied.
    TooFewVertices,
    /// A vertex coordinate was NaN or infinite.
    NonFinite,
    /// The vertices were not in counter-clockwise convex position.
    NotConvexCcw,
}

impl std::fmt::Display for PolygonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolygonError::TooFewVertices => write!(f, "polygon needs at least three vertices"),
            PolygonError::NonFinite => write!(f, "polygon vertex was not finite"),
            PolygonError::NotConvexCcw => {
                write!(f, "polygon vertices were not convex counter-clockwise")
            }
        }
    }
}

impl std::error::Error for PolygonError {}

impl Polygon {
    /// Creates a convex polygon from counter-clockwise vertices.
    ///
    /// # Errors
    ///
    /// Returns an error when fewer than three vertices are supplied, a
    /// coordinate is not finite, or the winding is not convex
    /// counter-clockwise.
    pub fn new(vertices: Vec<Point2>) -> Result<Self, PolygonError> {
        if vertices.len() < 3 {
            return Err(PolygonError::TooFewVertices);
        }
        if vertices.iter().any(|v| !v.is_finite()) {
            return Err(PolygonError::NonFinite);
        }
        let n = vertices.len();
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            let c = vertices[(i + 2) % n];
            if (b - a).cross(c - b) < 0.0 {
                return Err(PolygonError::NotConvexCcw);
            }
        }
        Ok(Polygon { vertices })
    }

    /// An axis-aligned rectangle polygon.
    pub fn rectangle(b: &BBox) -> Self {
        Polygon {
            vertices: vec![
                Point2::new(b.x1(), b.y1()),
                Point2::new(b.x2(), b.y1()),
                Point2::new(b.x2(), b.y2()),
                Point2::new(b.x1(), b.y2()),
            ],
        }
    }

    /// A camera "view wedge": an isosceles trapezoid opening from `apex` in
    /// direction `heading` (radians), with half-angle `half_fov`, starting at
    /// `near` and ending at `far` distance.
    ///
    /// # Panics
    ///
    /// Panics if `far <= near`, `near < 0`, or `half_fov` is not in
    /// `(0, PI/2)`.
    pub fn view_wedge(apex: Point2, heading: f64, half_fov: f64, near: f64, far: f64) -> Self {
        assert!(far > near && near >= 0.0, "need 0 <= near < far");
        assert!(
            half_fov > 0.0 && half_fov < std::f64::consts::FRAC_PI_2,
            "half_fov must be in (0, PI/2)"
        );
        let dir = Point2::new(heading.cos(), heading.sin());
        let left = dir.rotated(half_fov);
        let right = dir.rotated(-half_fov);
        let scale = 1.0 / half_fov.cos();
        // CCW order: near-right, far-right, far-left, near-left.
        let vertices = vec![
            apex + right * (near * scale),
            apex + right * (far * scale),
            apex + left * (far * scale),
            apex + left * (near * scale),
        ];
        Polygon::new(vertices).expect("wedge construction yields convex CCW vertices")
    }

    /// The polygon's vertices in counter-clockwise order.
    #[inline]
    pub fn vertices(&self) -> &[Point2] {
        &self.vertices
    }

    /// Polygon area (shoelace formula).
    pub fn area(&self) -> f64 {
        let n = self.vertices.len();
        let mut acc = 0.0;
        for i in 0..n {
            acc += self.vertices[i].cross(self.vertices[(i + 1) % n]);
        }
        acc / 2.0
    }

    /// Whether `p` lies inside (boundary inclusive).
    pub fn contains(&self, p: Point2) -> bool {
        let n = self.vertices.len();
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            if (b - a).cross(p - a) < -1e-9 {
                return false;
            }
        }
        true
    }

    /// The polygon's axis-aligned bounding box.
    pub fn bbox(&self) -> BBox {
        BBox::hull(self.vertices.iter().copied()).expect("polygon has at least three vertices")
    }

    /// Exact overlap test with another convex polygon (separating-axis
    /// theorem). Touching boundaries count as intersecting.
    ///
    /// Two convex polygons are disjoint iff some edge normal of either
    /// polygon separates their vertex projections, so checking every edge
    /// normal of both polygons is a complete test — no sampling, unlike
    /// [`Polygon::overlap_area_approx`]. Used to build camera view-overlap
    /// graphs, where a false negative would split an overlapping pair into
    /// different components.
    ///
    /// # Examples
    ///
    /// ```
    /// use mvs_geometry::{BBox, Polygon};
    ///
    /// let a = Polygon::rectangle(&BBox::new(0.0, 0.0, 4.0, 4.0)?);
    /// let b = Polygon::rectangle(&BBox::new(3.0, 3.0, 7.0, 7.0)?);
    /// let c = Polygon::rectangle(&BBox::new(5.0, 5.0, 9.0, 9.0)?);
    /// assert!(a.intersects(&b));
    /// assert!(!a.intersects(&c));
    /// # Ok::<(), mvs_geometry::BBoxError>(())
    /// ```
    pub fn intersects(&self, other: &Polygon) -> bool {
        !self.separates(other) && !other.separates(self)
    }

    /// Whether any edge normal of `self` is a separating axis: all of
    /// `other`'s vertices lie strictly outside that edge's half-plane.
    fn separates(&self, other: &Polygon) -> bool {
        let n = self.vertices.len();
        for i in 0..n {
            let a = self.vertices[i];
            let edge = self.vertices[(i + 1) % n] - a;
            // CCW winding: the interior is on the left of every edge, so a
            // strictly negative cross product for *every* vertex of `other`
            // puts it entirely in the outside half-plane.
            if other.vertices.iter().all(|&v| edge.cross(v - a) < 0.0) {
                return true;
            }
        }
        false
    }

    /// Approximate overlap area with `other`, estimated on a `samples`×
    /// `samples` grid over this polygon's bounding box.
    ///
    /// Used only for reporting view-overlap statistics, where Monte-Carlo
    /// accuracy is sufficient.
    pub fn overlap_area_approx(&self, other: &Polygon, samples: usize) -> f64 {
        let bb = self.bbox();
        if samples == 0 || bb.area() == 0.0 {
            return 0.0;
        }
        let mut hits = 0usize;
        for i in 0..samples {
            for j in 0..samples {
                let p = Point2::new(
                    bb.x1() + bb.width() * (i as f64 + 0.5) / samples as f64,
                    bb.y1() + bb.height() * (j as f64 + 0.5) / samples as f64,
                );
                if self.contains(p) && other.contains(p) {
                    hits += 1;
                }
            }
        }
        bb.area() * hits as f64 / (samples * samples) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_input() {
        assert!(Polygon::new(vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)]).is_err());
        // Clockwise square.
        assert!(Polygon::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.0, 1.0),
            Point2::new(1.0, 1.0),
            Point2::new(1.0, 0.0),
        ])
        .is_err());
    }

    #[test]
    fn rectangle_contains_and_area() {
        let r = Polygon::rectangle(&BBox::new(0.0, 0.0, 4.0, 2.0).unwrap());
        assert_eq!(r.area(), 8.0);
        assert!(r.contains(Point2::new(2.0, 1.0)));
        assert!(r.contains(Point2::new(0.0, 0.0))); // boundary
        assert!(!r.contains(Point2::new(5.0, 1.0)));
    }

    #[test]
    fn wedge_geometry() {
        let w = Polygon::view_wedge(Point2::ORIGIN, 0.0, 0.5, 1.0, 10.0);
        // Points along the heading inside [near, far] are inside.
        assert!(w.contains(Point2::new(5.0, 0.0)));
        assert!(!w.contains(Point2::new(0.5, 0.0))); // before near plane
        assert!(!w.contains(Point2::new(12.0, 0.0))); // beyond far plane
        assert!(!w.contains(Point2::new(5.0, 5.0))); // outside half-angle
        assert!(w.area() > 0.0);
    }

    #[test]
    fn bbox_encloses_polygon() {
        let w = Polygon::view_wedge(Point2::new(3.0, 4.0), 1.0, 0.6, 0.5, 8.0);
        let bb = w.bbox();
        for &v in w.vertices() {
            assert!(bb.contains_point(v));
        }
    }

    #[test]
    fn overlap_approx_identical() {
        let r = Polygon::rectangle(&BBox::new(0.0, 0.0, 10.0, 10.0).unwrap());
        let overlap = r.overlap_area_approx(&r, 50);
        assert!((overlap - 100.0).abs() < 1.0);
    }

    #[test]
    fn overlap_approx_disjoint() {
        let a = Polygon::rectangle(&BBox::new(0.0, 0.0, 1.0, 1.0).unwrap());
        let b = Polygon::rectangle(&BBox::new(5.0, 5.0, 6.0, 6.0).unwrap());
        assert_eq!(a.overlap_area_approx(&b, 20), 0.0);
    }

    #[test]
    fn intersects_basic_cases() {
        let a = Polygon::rectangle(&BBox::new(0.0, 0.0, 4.0, 4.0).unwrap());
        let overlapping = Polygon::rectangle(&BBox::new(2.0, 2.0, 6.0, 6.0).unwrap());
        let disjoint = Polygon::rectangle(&BBox::new(5.0, 0.0, 9.0, 4.0).unwrap());
        let touching = Polygon::rectangle(&BBox::new(4.0, 0.0, 8.0, 4.0).unwrap());
        let inside = Polygon::rectangle(&BBox::new(1.0, 1.0, 2.0, 2.0).unwrap());
        assert!(a.intersects(&overlapping));
        assert!(overlapping.intersects(&a));
        assert!(!a.intersects(&disjoint));
        assert!(!disjoint.intersects(&a));
        assert!(a.intersects(&touching), "shared edge counts as overlap");
        assert!(a.intersects(&inside), "containment is overlap");
        assert!(inside.intersects(&a));
        assert!(a.intersects(&a));
    }

    #[test]
    fn intersects_needs_both_polygons_axes() {
        // Two rotated wedges whose bounding boxes overlap but whose shapes
        // do not: only an edge normal of one of them separates, so a
        // one-sided SAT would report a false positive.
        let a = Polygon::view_wedge(Point2::ORIGIN, std::f64::consts::FRAC_PI_4, 0.3, 1.0, 10.0);
        let b = Polygon::view_wedge(
            Point2::new(10.0, 0.0),
            3.0 * std::f64::consts::FRAC_PI_4,
            0.3,
            1.0,
            10.0,
        );
        assert!(
            a.bbox().iou(&b.bbox()) > 0.0,
            "test premise: bounding boxes overlap"
        );
        assert!(a.intersects(&b) == b.intersects(&a));
    }

    #[test]
    fn intersects_agrees_with_sampled_overlap() {
        // SAT vs. the Monte-Carlo overlap estimator on a grid of wedges:
        // wherever sampling finds area, SAT must agree; where SAT reports
        // disjoint, sampling must find (almost) nothing.
        let mk = |x: f64, heading: f64| {
            Polygon::view_wedge(Point2::new(x, 0.0), heading, 0.48, 4.0, 60.0)
        };
        for dx in [0.0, 30.0, 60.0, 90.0, 150.0] {
            for heading in [0.0, 1.2, std::f64::consts::PI] {
                let a = mk(0.0, 0.0);
                let b = mk(dx, heading);
                let sampled = a.overlap_area_approx(&b, 60);
                if sampled > 1.0 {
                    assert!(
                        a.intersects(&b),
                        "dx={dx} heading={heading}: sampled {sampled}"
                    );
                }
                if !a.intersects(&b) {
                    assert!(
                        sampled <= 1.0,
                        "dx={dx} heading={heading}: sampled {sampled}"
                    );
                }
            }
        }
    }
}
