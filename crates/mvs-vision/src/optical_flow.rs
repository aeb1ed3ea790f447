//! Simulated optical flow.
//!
//! The paper uses dense-inverse-search optical flow to (a) project tracked
//! object locations into the current frame and (b) find clusters of moving
//! pixels that belong to no tracked object — candidate new objects. With
//! statically mounted cameras, all pixel motion is object motion.
//!
//! This module simulates flow at the object level: the field knows the true
//! inter-frame displacement of every object and serves noisy displacement
//! queries *by pixel location* (never by object identity), which is exactly
//! the interface a real flow estimator offers.
//!
//! The field is stored in columns: previous-frame boxes live in [`BBoxSoA`]
//! columns and per-box motion in flat `dx`/`dy` columns, so the displacement
//! lookup — the innermost loop of track prediction — scans contiguous `f64`
//! slices instead of chasing an id-keyed hash map through an array of
//! structs. The array-of-structs form it replaced is kept as a test-only
//! reference (`scalar.rs`) that the differential proptests hold it to, bit
//! for bit.

use crate::GroundTruthObject;
use mvs_geometry::{BBox, BBoxSoA, Point2};
use rand::Rng;

/// A flow displacement sample (pixels moved between the two input frames).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowVector {
    /// Pixel displacement from the previous frame to the current frame.
    pub displacement: Point2,
}

/// A simulated dense optical-flow field between two consecutive frames.
///
/// Previous-frame boxes are [`BBoxSoA`] columns with a parallel id column;
/// each box's displacement (if one exists for its id) is resolved once at
/// estimation time into flat `dx`/`dy` columns, so
/// [`displacement_at`](FlowField::displacement_at) is a pure column scan
/// with no hashing and no pointer chasing.
///
/// # Examples
///
/// ```
/// use mvs_geometry::{BBox, Point2};
/// use mvs_vision::{FlowField, GroundTruthObject};
/// use rand::SeedableRng;
///
/// let prev = [GroundTruthObject { id: 1, bbox: BBox::new(0.0, 0.0, 50.0, 50.0)? }];
/// let curr = [GroundTruthObject { id: 1, bbox: BBox::new(10.0, 0.0, 60.0, 50.0)? }];
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let flow = FlowField::estimate(&prev, &curr, 0.0, &mut rng);
/// // Querying inside the object's previous box returns its motion.
/// let v = flow.displacement_at(Point2::new(25.0, 25.0));
/// assert_eq!(v.displacement, Point2::new(10.0, 0.0));
/// // Background pixels do not move (static camera).
/// assert_eq!(flow.displacement_at(Point2::new(500.0, 500.0)).displacement, Point2::ORIGIN);
/// # Ok::<(), mvs_geometry::BBoxError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowField {
    /// Previous-frame object boxes (the support of non-zero flow).
    boxes: BBoxSoA,
    /// Ground-truth id of each previous-frame box.
    ids: Vec<u64>,
    /// Resolved per-box displacement columns; meaningful only where
    /// `has_motion` is set.
    motion_dx: Vec<f64>,
    motion_dy: Vec<f64>,
    /// Whether a displacement vector exists for the box's id (the id also
    /// appeared in the current frame).
    has_motion: Vec<bool>,
    /// Clusters of moving pixels in the *current* frame.
    clusters: Vec<BBox>,
    /// Insertion-ordered (id, motion) pairs recorded while walking the
    /// current frame — the flat stand-in for an id-keyed map (later
    /// inserts shadow earlier ones on lookup).
    pending: Vec<(u64, Point2)>,
}

impl FlowField {
    /// Minimum displacement (pixels) for an object to register as "moving".
    const MOTION_EPSILON: f64 = 0.5;

    /// An empty field with no probed objects (every query returns zero
    /// motion). The natural initial value for a per-worker scratch field
    /// that is refilled each frame via [`FlowField::estimate_into`].
    #[must_use]
    pub fn empty() -> FlowField {
        FlowField::default()
    }

    /// Estimates flow between two frames described by their ground-truth
    /// object sets. `noise_px` is the standard deviation of the estimation
    /// noise added to each displacement component.
    pub fn estimate<R: Rng + ?Sized>(
        prev: &[GroundTruthObject],
        curr: &[GroundTruthObject],
        noise_px: f64,
        rng: &mut R,
    ) -> FlowField {
        let mut field = FlowField::empty();
        field.estimate_into(prev, curr, noise_px, rng);
        field
    }

    /// Re-estimates this field in place, reusing every column buffer — the
    /// steady-state loop's allocation-free path. Produces exactly the field
    /// [`FlowField::estimate`] would, drawing the RNG in the same order
    /// (two gaussians per current object, whether or not it existed in the
    /// previous frame).
    pub fn estimate_into<R: Rng + ?Sized>(
        &mut self,
        prev: &[GroundTruthObject],
        curr: &[GroundTruthObject],
        noise_px: f64,
        rng: &mut R,
    ) {
        self.boxes.clear();
        self.ids.clear();
        self.clusters.clear();
        self.pending.clear();
        for p in prev {
            self.boxes.push(p.bbox);
            self.ids.push(p.id);
        }
        for c in curr {
            let noise = Point2::new(gaussian(rng) * noise_px, gaussian(rng) * noise_px);
            // Last match wins, like an id-keyed map (ids are unique in
            // practice).
            match self.ids.iter().rposition(|&id| id == c.id) {
                Some(pi) => {
                    let motion = c.bbox.center() - self.boxes.center(pi) + noise;
                    if motion.norm() > Self::MOTION_EPSILON {
                        self.clusters.push(c.bbox);
                    }
                    self.pending.push((c.id, motion));
                }
                None => {
                    // Newly appeared object: all of its pixels changed, so it
                    // shows up as a moving cluster even though no
                    // displacement vector exists for it.
                    self.clusters.push(c.bbox);
                }
            }
        }
        // Resolve the id-keyed motions into per-box columns once, so every
        // later displacement query is a straight column read. Scanning
        // `pending` backwards reproduces a map's last-insert-wins lookup.
        let n = self.ids.len();
        self.motion_dx.clear();
        self.motion_dx.resize(n, 0.0);
        self.motion_dy.clear();
        self.motion_dy.resize(n, 0.0);
        self.has_motion.clear();
        self.has_motion.resize(n, false);
        for i in 0..n {
            let id = self.ids[i];
            if let Some(&(_, m)) = self.pending.iter().rev().find(|&&(pid, _)| pid == id) {
                self.motion_dx[i] = m.x;
                self.motion_dy[i] = m.y;
                self.has_motion[i] = true;
            }
        }
    }

    /// The flow displacement at a pixel of the *previous* frame.
    ///
    /// Pixels inside a previous-frame object box move with that object;
    /// background pixels are static (the cameras are statically mounted).
    /// When boxes overlap, the smaller (closer) object wins; ties break to
    /// the earlier box.
    pub fn displacement_at(&self, p: Point2) -> FlowVector {
        let displacement = match self.boxes.smallest_containing(p) {
            Some(i) if self.has_motion[i] => Point2::new(self.motion_dx[i], self.motion_dy[i]),
            _ => Point2::ORIGIN,
        };
        FlowVector { displacement }
    }

    /// Clusters of moving pixels in the current frame (object-sized boxes).
    ///
    /// Includes both moving known objects and newly appeared objects; the
    /// new-region detector subtracts predicted track boxes from this list.
    pub fn moving_clusters(&self) -> &[BBox] {
        &self.clusters
    }
}

/// One standard normal draw (Box–Muller).
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn obj(id: u64, x: f64, y: f64, side: f64) -> GroundTruthObject {
        GroundTruthObject {
            id,
            bbox: BBox::new(x, y, x + side, y + side).unwrap(),
        }
    }

    #[test]
    fn noiseless_flow_is_exact() {
        let prev = [obj(1, 0.0, 0.0, 40.0), obj(2, 200.0, 200.0, 40.0)];
        let curr = [obj(1, 5.0, 3.0, 40.0), obj(2, 200.0, 200.0, 40.0)];
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let flow = FlowField::estimate(&prev, &curr, 0.0, &mut rng);
        assert_eq!(
            flow.displacement_at(Point2::new(20.0, 20.0)).displacement,
            Point2::new(5.0, 3.0)
        );
        // Object 2 did not move.
        assert_eq!(
            flow.displacement_at(Point2::new(220.0, 220.0)).displacement,
            Point2::ORIGIN
        );
    }

    #[test]
    fn moving_clusters_only_for_movers_and_newcomers() {
        let prev = [obj(1, 0.0, 0.0, 40.0), obj(2, 200.0, 200.0, 40.0)];
        let curr = [
            obj(1, 10.0, 0.0, 40.0),    // moved
            obj(2, 200.0, 200.0, 40.0), // static
            obj(3, 400.0, 100.0, 40.0), // new
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let flow = FlowField::estimate(&prev, &curr, 0.0, &mut rng);
        let clusters = flow.moving_clusters();
        assert_eq!(clusters.len(), 2);
        assert!(clusters.iter().any(|c| *c == curr[0].bbox));
        assert!(clusters.iter().any(|c| *c == curr[2].bbox));
    }

    #[test]
    fn overlapping_boxes_prefer_smaller_object() {
        // A small object in front of a large one: the small box's pixels
        // should carry the small object's motion.
        let prev = [
            GroundTruthObject {
                id: 1,
                bbox: BBox::new(0.0, 0.0, 200.0, 200.0).unwrap(),
            },
            GroundTruthObject {
                id: 2,
                bbox: BBox::new(50.0, 50.0, 90.0, 90.0).unwrap(),
            },
        ];
        let curr = [
            GroundTruthObject {
                id: 1,
                bbox: BBox::new(2.0, 0.0, 202.0, 200.0).unwrap(),
            },
            GroundTruthObject {
                id: 2,
                bbox: BBox::new(60.0, 50.0, 100.0, 90.0).unwrap(),
            },
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let flow = FlowField::estimate(&prev, &curr, 0.0, &mut rng);
        let v = flow.displacement_at(Point2::new(70.0, 70.0));
        assert_eq!(v.displacement, Point2::new(10.0, 0.0));
    }

    #[test]
    fn noise_perturbs_but_is_bounded_in_distribution() {
        let prev = [obj(1, 100.0, 100.0, 60.0)];
        let curr = [obj(1, 110.0, 100.0, 60.0)];
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut total_err = 0.0;
        let n = 200;
        for _ in 0..n {
            let flow = FlowField::estimate(&prev, &curr, 1.5, &mut rng);
            let v = flow.displacement_at(Point2::new(130.0, 130.0)).displacement;
            total_err += (v - Point2::new(10.0, 0.0)).norm();
        }
        let mean_err = total_err / n as f64;
        // Mean error of a 2-D gaussian with sigma 1.5 ≈ 1.88.
        assert!(mean_err > 0.5 && mean_err < 4.0, "mean error {mean_err}");
    }

    #[test]
    fn query_outside_every_probed_box_is_static() {
        // Points beyond the probed grid — outside all previous-frame boxes,
        // including negative coordinates — must read as background.
        let prev = [obj(1, 100.0, 100.0, 40.0)];
        let curr = [obj(1, 110.0, 100.0, 40.0)];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let flow = FlowField::estimate(&prev, &curr, 0.0, &mut rng);
        for p in [
            Point2::new(-50.0, -50.0),
            Point2::new(99.9, 120.0),
            Point2::new(140.1, 120.0),
            Point2::new(1e9, 1e9),
        ] {
            assert_eq!(flow.displacement_at(p).displacement, Point2::ORIGIN);
        }
    }

    #[test]
    fn static_scene_yields_empty_cluster_set() {
        // Nothing moved and nothing appeared: no clusters at all, and the
        // empty slice must be stable across repeated calls.
        let prev = [obj(1, 0.0, 0.0, 40.0), obj(2, 200.0, 200.0, 40.0)];
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let flow = FlowField::estimate(&prev, &prev, 0.0, &mut rng);
        assert!(flow.moving_clusters().is_empty());
        assert!(flow.moving_clusters().is_empty());
        let empty = FlowField::empty();
        assert!(empty.moving_clusters().is_empty());
        assert!(empty.ids.is_empty());
        assert_eq!(
            empty.displacement_at(Point2::new(10.0, 10.0)).displacement,
            Point2::ORIGIN
        );
    }

    #[test]
    fn single_probe_field_answers_inside_and_outside() {
        // A one-object field: the box boundary separates the object's
        // motion from the static background exactly.
        let prev = [obj(9, 50.0, 50.0, 30.0)];
        let curr = [obj(9, 53.0, 46.0, 30.0)];
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let flow = FlowField::estimate(&prev, &curr, 0.0, &mut rng);
        let motion = Point2::new(3.0, -4.0);
        assert_eq!(
            flow.displacement_at(Point2::new(65.0, 65.0)).displacement,
            motion
        );
        // Box corners are inclusive; just past them is background.
        assert_eq!(
            flow.displacement_at(Point2::new(50.0, 50.0)).displacement,
            motion
        );
        assert_eq!(
            flow.displacement_at(Point2::new(80.0, 80.0)).displacement,
            motion
        );
        assert_eq!(
            flow.displacement_at(Point2::new(80.1, 80.0)).displacement,
            Point2::ORIGIN
        );
        assert_eq!(flow.moving_clusters(), &[curr[0].bbox]);
    }

    #[test]
    fn estimate_into_reuses_buffers_and_matches_estimate() {
        let prev = [obj(1, 0.0, 0.0, 40.0), obj(2, 200.0, 200.0, 40.0)];
        let curr = [obj(1, 10.0, 0.0, 40.0), obj(3, 400.0, 100.0, 40.0)];
        let mut rng_a = ChaCha8Rng::seed_from_u64(13);
        let mut rng_b = ChaCha8Rng::seed_from_u64(13);
        let batch = FlowField::estimate(&prev, &curr, 1.0, &mut rng_a);
        let mut scratch = FlowField::empty();
        // Pollute the scratch with an unrelated frame first.
        scratch.estimate_into(&curr, &prev, 1.0, &mut ChaCha8Rng::seed_from_u64(99));
        scratch.estimate_into(&prev, &curr, 1.0, &mut rng_b);
        assert_eq!(scratch.moving_clusters(), batch.moving_clusters());
        for p in [
            Point2::new(20.0, 20.0),
            Point2::new(220.0, 220.0),
            Point2::new(410.0, 110.0),
            Point2::new(-5.0, 3.0),
        ] {
            assert_eq!(
                scratch.displacement_at(p).displacement,
                batch.displacement_at(p).displacement,
                "at {p:?}"
            );
        }
        // The RNG streams advanced identically.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn disappeared_object_contributes_nothing() {
        let prev = [obj(1, 0.0, 0.0, 40.0)];
        let curr: [GroundTruthObject; 0] = [];
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let flow = FlowField::estimate(&prev, &curr, 0.0, &mut rng);
        assert!(flow.moving_clusters().is_empty());
        assert_eq!(flow.ids.len(), 1);
        // Query inside the vanished object's old box: no motion info.
        assert_eq!(
            flow.displacement_at(Point2::new(20.0, 20.0)).displacement,
            Point2::ORIGIN
        );
    }

    #[test]
    fn duplicate_ids_resolve_like_an_id_keyed_map() {
        // Two previous boxes share an id (degenerate input): both must
        // carry the single motion recorded for that id, and the current
        // frame's last write wins — exactly the scalar map semantics.
        let prev = [obj(7, 0.0, 0.0, 40.0), obj(7, 200.0, 0.0, 40.0)];
        let curr = [obj(7, 206.0, 0.0, 40.0)];
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let flow = FlowField::estimate(&prev, &curr, 0.0, &mut rng);
        // Motion is measured against the *last* matching previous box.
        let motion = Point2::new(6.0, 0.0);
        assert_eq!(
            flow.displacement_at(Point2::new(20.0, 20.0)).displacement,
            motion
        );
        assert_eq!(
            flow.displacement_at(Point2::new(220.0, 20.0)).displacement,
            motion
        );
    }
}
