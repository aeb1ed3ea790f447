//! Simulated DNN object detector.
//!
//! Stand-in for YOLOv5 (see DESIGN.md, substitution 2). The detector
//! receives the ground-truth boxes that are visible in the inspected area
//! and degrades them through a quality model: a miss probability that grows
//! for small objects and for objects poorly covered by the inspected crop,
//! Gaussian localization jitter, and occasional false positives. Every
//! random draw comes from a caller-provided RNG, so whole experiments are
//! reproducible from one seed.

use mvs_geometry::{BBox, FrameDims, Point2, SizeClass};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A ground-truth object visible in a camera frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroundTruthObject {
    /// Stable world identity of the object (assigned by the simulator).
    pub id: u64,
    /// Its true bounding box in this camera's pixel coordinates.
    pub bbox: BBox,
}

/// One detection emitted by the (simulated) DNN.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// Detected bounding box (jittered relative to ground truth).
    pub bbox: BBox,
    /// Detection confidence in `[0, 1]`.
    pub confidence: f64,
    /// Ground-truth identity behind this detection, or `None` for a false
    /// positive. **Evaluation only** — the pipeline must never branch on
    /// this field; association and tracking work purely from `bbox`.
    pub truth_id: Option<u64>,
}

/// Quality parameters of the simulated detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionModel {
    /// Miss probability for a comfortably large, fully covered object.
    pub base_miss_rate: f64,
    /// Extra miss probability per unit of "smallness": an object whose long
    /// side is `s` pixels gains `small_miss_scale * max(0, 1 - s/64)`.
    pub small_miss_scale: f64,
    /// Standard deviation of corner jitter, as a fraction of the object's
    /// long side.
    pub jitter_frac: f64,
    /// Probability of one false positive per full-frame inspection.
    pub false_positive_rate: f64,
    /// Minimum fraction of the object's area that must lie inside the
    /// inspected crop for the object to be detectable at all.
    pub min_coverage: f64,
}

impl Default for DetectionModel {
    fn default() -> Self {
        DetectionModel {
            base_miss_rate: 0.02,
            small_miss_scale: 0.15,
            jitter_frac: 0.03,
            false_positive_rate: 0.02,
            min_coverage: 0.35,
        }
    }
}

impl DetectionModel {
    /// A perfect detector (no misses, no jitter, no false positives); handy
    /// in tests that need deterministic geometry.
    pub fn perfect() -> Self {
        DetectionModel {
            base_miss_rate: 0.0,
            small_miss_scale: 0.0,
            jitter_frac: 0.0,
            false_positive_rate: 0.0,
            min_coverage: 0.35,
        }
    }

    /// Miss probability for an object with the given long side (pixels).
    fn miss_probability(&self, long_side: f64) -> f64 {
        let smallness = (1.0 - long_side / 64.0).max(0.0);
        (self.base_miss_rate + self.small_miss_scale * smallness).clamp(0.0, 1.0)
    }
}

/// The simulated DNN detector.
///
/// # Examples
///
/// ```
/// use mvs_geometry::{BBox, FrameDims};
/// use mvs_vision::{DetectionModel, GroundTruthObject, SimulatedDetector};
/// use rand::SeedableRng;
///
/// let det = SimulatedDetector::new(DetectionModel::perfect(), FrameDims::REGULAR);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let objects = [GroundTruthObject { id: 7, bbox: BBox::new(100.0, 100.0, 180.0, 160.0)? }];
/// let dets = det.detect_full_frame(&objects, &mut rng);
/// assert_eq!(dets.len(), 1);
/// assert_eq!(dets[0].truth_id, Some(7));
/// # Ok::<(), mvs_geometry::BBoxError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimulatedDetector {
    model: DetectionModel,
    frame: FrameDims,
}

impl SimulatedDetector {
    /// Creates a detector with the given quality model and frame size.
    pub fn new(model: DetectionModel, frame: FrameDims) -> Self {
        SimulatedDetector { model, frame }
    }

    /// The quality model in use.
    pub fn model(&self) -> &DetectionModel {
        &self.model
    }

    /// Full-frame inspection: every visible object is a detection candidate.
    pub fn detect_full_frame<R: Rng + ?Sized>(
        &self,
        objects: &[GroundTruthObject],
        rng: &mut R,
    ) -> Vec<Detection> {
        let frame_box = self.frame.as_bbox();
        let mut out = Vec::with_capacity(objects.len());
        for obj in objects {
            if let Some(d) = self.try_detect(obj, &frame_box, rng) {
                out.push(d);
            }
        }
        if rng.gen_bool(self.model.false_positive_rate.clamp(0.0, 1.0)) {
            out.push(self.false_positive(rng));
        }
        out
    }

    /// Partial-frame inspection of one crop: objects are detectable only if
    /// the crop covers enough of them. `size` documents the crop's
    /// quantized size (latency is accounted elsewhere).
    pub fn detect_region<R: Rng + ?Sized>(
        &self,
        region: &BBox,
        size: SizeClass,
        objects: &[GroundTruthObject],
        rng: &mut R,
    ) -> Vec<Detection> {
        let mut out = Vec::new();
        self.detect_region_into(region, size, objects, rng, &mut out);
        out
    }

    /// [`SimulatedDetector::detect_region`] appending to `out`: a frame's
    /// crops accumulate into one caller-held list, which in steady state
    /// never reallocates.
    pub fn detect_region_into<R: Rng + ?Sized>(
        &self,
        region: &BBox,
        _size: SizeClass,
        objects: &[GroundTruthObject],
        rng: &mut R,
        out: &mut Vec<Detection>,
    ) {
        out.extend(
            objects
                .iter()
                .filter_map(|obj| self.try_detect(obj, region, rng)),
        );
    }

    fn try_detect<R: Rng + ?Sized>(
        &self,
        obj: &GroundTruthObject,
        area: &BBox,
        rng: &mut R,
    ) -> Option<Detection> {
        if obj.bbox.coverage_by(area) < self.model.min_coverage {
            return None;
        }
        let long = obj.bbox.long_side();
        if rng.gen_bool(self.model.miss_probability(long).clamp(0.0, 1.0)) {
            return None;
        }
        let sigma = self.model.jitter_frac * long;
        let jitter = |rng: &mut R| {
            if sigma > 0.0 {
                // Box-Muller normal draw.
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            } else {
                0.0
            }
        };
        let a = obj.bbox.to_array();
        let jittered = [
            a[0] + jitter(rng),
            a[1] + jitter(rng),
            a[2] + jitter(rng),
            a[3] + jitter(rng),
        ];
        let bbox = BBox::from_array_lenient(jittered).ok()?;
        let bbox = bbox.clamped_to(self.frame)?;
        let confidence = (1.0 - self.model.miss_probability(long)) * rng.gen_range(0.85..1.0);
        Some(Detection {
            bbox,
            confidence,
            truth_id: Some(obj.id),
        })
    }

    fn false_positive<R: Rng + ?Sized>(&self, rng: &mut R) -> Detection {
        let w = rng.gen_range(20.0..80.0);
        let h = rng.gen_range(20.0..80.0);
        let cx = rng.gen_range(w..(self.frame.width as f64 - w));
        let cy = rng.gen_range(h..(self.frame.height as f64 - h));
        Detection {
            bbox: BBox::from_center(Point2::new(cx, cy), w, h)
                .clamped_to(self.frame)
                .expect("false positive is constructed inside the frame"),
            confidence: rng.gen_range(0.3..0.6),
            truth_id: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn obj(id: u64, x: f64, y: f64, w: f64, h: f64) -> GroundTruthObject {
        GroundTruthObject {
            id,
            bbox: BBox::new(x, y, x + w, y + h).unwrap(),
        }
    }

    #[test]
    fn perfect_detector_finds_everything_exactly() {
        let det = SimulatedDetector::new(DetectionModel::perfect(), FrameDims::REGULAR);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let objects = [
            obj(1, 100.0, 100.0, 80.0, 60.0),
            obj(2, 500.0, 300.0, 40.0, 40.0),
        ];
        let dets = det.detect_full_frame(&objects, &mut rng);
        assert_eq!(dets.len(), 2);
        for (d, o) in dets.iter().zip(&objects) {
            assert_eq!(d.truth_id, Some(o.id));
            assert!(d.bbox.iou(&o.bbox) > 0.999);
        }
    }

    #[test]
    fn region_detection_requires_coverage() {
        let det = SimulatedDetector::new(DetectionModel::perfect(), FrameDims::REGULAR);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let objects = [obj(1, 100.0, 100.0, 60.0, 60.0)];
        // Crop right on top of the object: found.
        let good = BBox::from_center(Point2::new(130.0, 130.0), 128.0, 128.0);
        assert_eq!(
            det.detect_region(&good, SizeClass::S128, &objects, &mut rng)
                .len(),
            1
        );
        // Crop far away: not found.
        let bad = BBox::from_center(Point2::new(800.0, 500.0), 128.0, 128.0);
        assert!(det
            .detect_region(&bad, SizeClass::S128, &objects, &mut rng)
            .is_empty());
        // Crop covering only a sliver: below min_coverage.
        let sliver = BBox::new(90.0, 90.0, 110.0, 170.0).unwrap();
        assert!(det
            .detect_region(&sliver, SizeClass::S128, &objects, &mut rng)
            .is_empty());
    }

    #[test]
    fn small_objects_miss_more_often() {
        let model = DetectionModel::default();
        assert!(model.miss_probability(20.0) > model.miss_probability(60.0));
        assert_eq!(model.miss_probability(64.0), model.base_miss_rate);
        assert_eq!(model.miss_probability(500.0), model.base_miss_rate);
    }

    #[test]
    fn miss_rate_is_statistically_respected() {
        let model = DetectionModel {
            base_miss_rate: 0.3,
            small_miss_scale: 0.0,
            jitter_frac: 0.0,
            false_positive_rate: 0.0,
            min_coverage: 0.35,
        };
        let det = SimulatedDetector::new(model, FrameDims::REGULAR);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let objects = [obj(1, 100.0, 100.0, 100.0, 100.0)];
        let mut found = 0;
        let n = 2000;
        for _ in 0..n {
            found += det.detect_full_frame(&objects, &mut rng).len();
        }
        let rate = found as f64 / n as f64;
        assert!((rate - 0.7).abs() < 0.05, "observed detection rate {rate}");
    }

    #[test]
    fn jitter_moves_but_preserves_overlap() {
        let model = DetectionModel {
            jitter_frac: 0.05,
            base_miss_rate: 0.0,
            small_miss_scale: 0.0,
            false_positive_rate: 0.0,
            min_coverage: 0.35,
        };
        let det = SimulatedDetector::new(model, FrameDims::REGULAR);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let o = obj(1, 300.0, 300.0, 100.0, 80.0);
        let mut any_moved = false;
        for _ in 0..20 {
            let d = &det.detect_full_frame(&[o], &mut rng)[0];
            assert!(d.bbox.iou(&o.bbox) > 0.5);
            if d.bbox != o.bbox {
                any_moved = true;
            }
        }
        assert!(any_moved);
    }

    #[test]
    fn false_positives_have_no_truth_id() {
        let model = DetectionModel {
            false_positive_rate: 1.0,
            ..DetectionModel::perfect()
        };
        let det = SimulatedDetector::new(model, FrameDims::REGULAR);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let dets = det.detect_full_frame(&[], &mut rng);
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].truth_id, None);
        assert!(FrameDims::REGULAR.contains(&dets[0].bbox));
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let det = SimulatedDetector::new(DetectionModel::default(), FrameDims::REGULAR);
        let objects = [
            obj(1, 50.0, 60.0, 90.0, 70.0),
            obj(2, 700.0, 400.0, 30.0, 30.0),
        ];
        let a = det.detect_full_frame(&objects, &mut ChaCha8Rng::seed_from_u64(9));
        let b = det.detect_full_frame(&objects, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
