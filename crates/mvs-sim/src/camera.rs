//! Static camera models: world→image projection and occlusion.

use crate::world::World;
use mvs_geometry::{BBox, FrameDims, Point2, Polygon};
use mvs_vision::GroundTruthObject;
use serde::{Deserialize, Serialize};

/// A statically mounted camera: world pose plus a ground-plane pinhole
/// projection into its own pixel frame.
///
/// The projection models what matters for the scheduler: objects closer to
/// the camera occupy more pixels (larger crop sizes, higher per-object
/// cost), and every camera sees the shared world region at its own pixel
/// coordinates and scale (which is what makes homography-free, data-driven
/// association necessary).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CameraModel {
    /// Camera position on the ground plane (metres).
    pub position: Point2,
    /// Viewing direction, radians (world frame).
    pub heading: f64,
    /// Half of the horizontal field of view, radians.
    pub half_fov: f64,
    /// Nearest visible ground distance, metres.
    pub near_m: f64,
    /// Farthest visible ground distance, metres.
    pub far_m: f64,
    /// Mounting height, metres.
    pub height_m: f64,
    /// Focal length in pixels.
    pub focal_px: f64,
    /// Pixel frame dimensions.
    pub frame: FrameDims,
}

impl CameraModel {
    /// A camera at `position` looking at `target`, with sensible defaults
    /// for the remaining intrinsics.
    pub fn looking_at(position: Point2, target: Point2, frame: FrameDims) -> Self {
        let d = target - position;
        CameraModel {
            position,
            heading: d.y.atan2(d.x),
            half_fov: 0.48,
            near_m: 4.0,
            far_m: 90.0,
            height_m: 6.0,
            focal_px: 1000.0,
            frame,
        }
    }

    /// The camera's visibility footprint on the ground plane.
    pub(crate) fn view_polygon(&self) -> Polygon {
        Polygon::view_wedge(
            self.position,
            self.heading,
            self.half_fov,
            self.near_m,
            self.far_m,
        )
    }

    /// Projects a world-plane object into this camera's pixel frame.
    ///
    /// Returns `None` when the object is outside the view wedge or its
    /// projected box retains too little area inside the frame. The box is a
    /// ground-plane pinhole projection: horizontal position/scale follow
    /// `focal · lateral / depth`, the bottom edge sits where the ground at
    /// that depth projects, and the top edge rises with object height.
    pub fn project(&self, world_pos: Point2, length_m: f64, height_m: f64) -> Option<BBox> {
        let (dir, max_slope) = self.view_axes();
        self.project_along(dir, max_slope, world_pos, length_m, height_m)
            .map(|(_, bbox)| bbox)
    }

    /// The pose-derived constants of [`CameraModel::project`]: the unit
    /// viewing direction and the largest visible `|lateral| / depth`.
    fn view_axes(&self) -> (Point2, f64) {
        (
            Point2::new(self.heading.cos(), self.heading.sin()),
            self.half_fov.tan(),
        )
    }

    /// [`CameraModel::project`] given this camera's
    /// [`view_axes`](CameraModel::view_axes); also returns the object's
    /// depth along the viewing direction.
    fn project_along(
        &self,
        dir: Point2,
        max_slope: f64,
        world_pos: Point2,
        length_m: f64,
        height_m: f64,
    ) -> Option<(f64, BBox)> {
        let rel = world_pos - self.position;
        let right = Point2::new(dir.y, -dir.x);
        let depth = rel.dot(dir);
        if depth < self.near_m || depth > self.far_m {
            return None;
        }
        let lateral = rel.dot(right);
        if lateral.abs() / depth > max_slope {
            return None;
        }
        let cx = self.frame.width as f64 / 2.0;
        // Horizon row: where infinitely-far ground projects. Placed at 30%
        // of the frame height, as with a typical slightly-downward tilt.
        let horizon = 0.30 * self.frame.height as f64;
        let x_center = cx + self.focal_px * lateral / depth;
        let y_bottom = horizon + self.focal_px * self.height_m / depth;
        let y_top = horizon + self.focal_px * (self.height_m - height_m) / depth;
        let width = self.focal_px * length_m / depth;
        let raw = BBox::new(
            x_center - width / 2.0,
            y_top,
            x_center + width / 2.0,
            y_bottom,
        )
        .ok()?;
        let clamped = raw.clamped_to(self.frame)?;
        // Require most of the object to be inside the frame.
        (clamped.area() >= 0.5 * raw.area()).then_some((depth, clamped))
    }

    /// Projects every world object visible to this camera, applying
    /// depth-order occlusion: an object mostly hidden behind a nearer
    /// object's box is dropped.
    pub fn visible_objects(
        &self,
        world: &World,
        occlusion_threshold: f64,
    ) -> Vec<GroundTruthObject> {
        let mut out = Vec::new();
        self.visible_objects_into(world, occlusion_threshold, &mut Vec::new(), &mut out);
        out
    }

    /// [`CameraModel::visible_objects`] into caller-held buffers: `out` is
    /// cleared and filled with the view, `by_depth` is the depth-sort
    /// working buffer. Kept across frames, neither reallocates in steady
    /// state.
    pub fn visible_objects_into(
        &self,
        world: &World,
        occlusion_threshold: f64,
        by_depth: &mut Vec<(f64, GroundTruthObject)>,
        out: &mut Vec<GroundTruthObject>,
    ) {
        let (dir, max_slope) = self.view_axes();
        // (depth, ground-truth) pairs, nearest first.
        by_depth.clear();
        by_depth.extend(
            world
                .objects()
                .iter()
                .zip(world.positions())
                .filter_map(|(o, &pos)| {
                    let (depth, bbox) =
                        self.project_along(dir, max_slope, pos, o.length_m, o.height_m)?;
                    Some((depth, GroundTruthObject { id: o.id, bbox }))
                }),
        );
        by_depth.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite depth"));
        out.clear();
        out.reserve(by_depth.len());
        for &(_, gt) in by_depth.iter() {
            let occluded = out
                .iter()
                .any(|nearer| gt.bbox.coverage_by(&nearer.bbox) >= occlusion_threshold);
            if !occluded {
                out.push(gt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::{FollowingModel, Route, SpawnConfig};
    use crate::world::Lane;

    fn camera() -> CameraModel {
        CameraModel::looking_at(Point2::ORIGIN, Point2::new(50.0, 0.0), FrameDims::REGULAR)
    }

    #[test]
    fn closer_objects_are_larger_and_lower() {
        let cam = camera();
        let near = cam.project(Point2::new(15.0, 0.0), 4.5, 1.6).unwrap();
        let far = cam.project(Point2::new(60.0, 0.0), 4.5, 1.6).unwrap();
        assert!(near.width() > 2.0 * far.width());
        assert!(near.y2() > far.y2(), "closer object sits lower in frame");
    }

    #[test]
    fn out_of_wedge_is_invisible() {
        let cam = camera();
        assert!(cam.project(Point2::new(2.0, 0.0), 4.5, 1.6).is_none()); // before near
        assert!(cam.project(Point2::new(120.0, 0.0), 4.5, 1.6).is_none()); // past far
        assert!(cam.project(Point2::new(20.0, 30.0), 4.5, 1.6).is_none()); // off-axis
        assert!(cam.project(Point2::new(-20.0, 0.0), 4.5, 1.6).is_none()); // behind
    }

    #[test]
    fn lateral_offset_moves_box_horizontally() {
        let cam = camera();
        let center = cam.project(Point2::new(30.0, 0.0), 4.5, 1.6).unwrap();
        // Camera looks along +x; right-hand side is -y… check both offsets
        // land on opposite sides of the centre.
        let left = cam.project(Point2::new(30.0, 8.0), 4.5, 1.6).unwrap();
        let right = cam.project(Point2::new(30.0, -8.0), 4.5, 1.6).unwrap();
        assert!(left.center().x < center.center().x);
        assert!(right.center().x > center.center().x);
    }

    #[test]
    fn taller_objects_have_taller_boxes() {
        let cam = camera();
        let short = cam.project(Point2::new(30.0, 0.0), 4.5, 1.4).unwrap();
        let tall = cam.project(Point2::new(30.0, 0.0), 4.5, 2.0).unwrap();
        assert!(tall.height() > short.height());
        assert_eq!(tall.y2(), short.y2()); // same ground contact row
    }

    #[test]
    fn view_polygon_agrees_with_projection() {
        let cam = camera();
        let poly = cam.view_polygon();
        // A point that projects must be inside the polygon.
        let p = Point2::new(25.0, 3.0);
        assert!(cam.project(p, 4.5, 1.6).is_some());
        assert!(poly.contains(p));
        // A point outside the polygon must not project.
        let q = Point2::new(25.0, 25.0);
        assert!(!poly.contains(q));
        assert!(cam.project(q, 4.5, 1.6).is_none());
    }

    fn world_with(positions: &[f64]) -> World {
        let lane = Lane {
            route: Route::new(vec![Point2::new(0.0, 0.0), Point2::new(200.0, 0.0)], 10.0),
            light: None,
            spawn: SpawnConfig {
                rate_per_s: 0.0,
                min_gap_m: 8.0,
            },
        };
        let mut w = World::new(vec![lane], FollowingModel::default());
        for &p in positions {
            w.spawn_at(0, p, 4.5, 1.6);
        }
        w
    }

    #[test]
    fn occlusion_drops_hidden_objects() {
        // Camera behind the lane looking along it: vehicles line up, the
        // nearer one occludes the farther one.
        let cam = CameraModel::looking_at(
            Point2::new(-10.0, 0.0),
            Point2::new(50.0, 0.0),
            FrameDims::REGULAR,
        );
        let w = world_with(&[10.0, 14.0]);
        let strict = cam.visible_objects(&w, 0.35);
        assert_eq!(strict.len(), 1, "farther vehicle occluded");
        // With occlusion effectively off, both project.
        let lax = cam.visible_objects(&w, 2.0);
        assert_eq!(lax.len(), 2);
    }

    #[test]
    fn side_view_has_no_occlusion() {
        // Camera perpendicular to the lane: vehicles are spread out
        // horizontally, nobody hides anybody.
        let cam = CameraModel::looking_at(
            Point2::new(25.0, -20.0),
            Point2::new(25.0, 0.0),
            FrameDims::REGULAR,
        );
        let w = world_with(&[15.0, 25.0, 35.0]);
        let visible = cam.visible_objects(&w, 0.65);
        assert_eq!(visible.len(), 3);
    }
}
