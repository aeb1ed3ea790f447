//! Optical-flow tracking-by-detection.
//!
//! The per-camera tracker of Sec. II-B: previously detected objects are
//! projected into the current frame with optical flow, partial-frame
//! detections are associated back to tracks by IoU via the Hungarian
//! algorithm, and tracks that keep missing are dropped.

use crate::{Detection, FlowField};
use mvs_geometry::{BBox, FrameDims, SizeClass};
use mvs_ml::HungarianSolver;
use serde::{Deserialize, Serialize};

/// Identifier of a track within one camera's tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TrackId(pub u64);

/// One tracked object on one camera.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Track {
    /// Tracker-local identity.
    pub id: TrackId,
    /// Current (flow-predicted or detection-corrected) bounding box.
    pub bbox: BBox,
    /// Quantized crop size, fixed for the scheduling horizon. If the object
    /// grows past it the crop is downsampled rather than re-quantized
    /// (Sec. II-B).
    pub size: SizeClass,
    /// Frames survived since creation.
    pub age: u32,
    /// Consecutive frames without a matched detection.
    pub misses: u32,
    /// Ground-truth identity of the last matched detection. **Evaluation
    /// only** — never used by tracking logic.
    pub last_truth: Option<u64>,
}

/// Tracker configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackerConfig {
    /// Minimum IoU for a detection↔track match.
    pub iou_threshold: f64,
    /// Consecutive misses after which a track is dropped.
    pub max_misses: u32,
    /// Fractional margin added around a detection before quantizing its
    /// search-region size (gives the object room to move within a horizon).
    pub margin_frac: f64,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            iou_threshold: 0.1,
            max_misses: 3,
            margin_frac: 0.25,
        }
    }
}

/// Result of one association round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AssociationOutcome {
    /// Indices (into the detection slice) that matched an existing track.
    pub matched: Vec<(TrackId, usize)>,
    /// Indices of detections that matched no track.
    pub unmatched_detections: Vec<usize>,
}

/// Per-camera flow tracker.
///
/// # Examples
///
/// ```
/// use mvs_geometry::{BBox, FrameDims};
/// use mvs_vision::{FlowTracker, TrackerConfig};
///
/// let mut tracker = FlowTracker::new(TrackerConfig::default(), FrameDims::REGULAR);
/// let id = tracker.seed(BBox::new(100.0, 100.0, 160.0, 150.0)?, Some(42));
/// assert_eq!(tracker.tracks().len(), 1);
/// assert_eq!(tracker.get(id).unwrap().last_truth, Some(42));
/// # Ok::<(), mvs_geometry::BBoxError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlowTracker {
    config: TrackerConfig,
    frame: FrameDims,
    tracks: Vec<Track>,
    next_id: u64,
    scratch: MatchScratch,
}

/// Working memory of [`FlowTracker::associate_into`] (cleared, never
/// shrunk): the row-major track × detection IoU matrix, the matching
/// solver, and which detections got matched.
#[derive(Debug, Clone, Default)]
struct MatchScratch {
    scores: Vec<f64>,
    solver: HungarianSolver,
    det_used: Vec<bool>,
}

impl FlowTracker {
    /// Creates an empty tracker.
    pub fn new(config: TrackerConfig, frame: FrameDims) -> Self {
        FlowTracker {
            config,
            frame,
            tracks: Vec::new(),
            next_id: 0,
            scratch: MatchScratch::default(),
        }
    }

    /// Currently live tracks.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Looks up one track.
    pub fn get(&self, id: TrackId) -> Option<&Track> {
        self.tracks.iter().find(|t| t.id == id)
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &TrackerConfig {
        &self.config
    }

    /// Drops every track (start of a new horizon re-seeds from the central
    /// assignment).
    pub fn clear(&mut self) {
        self.tracks.clear();
    }

    /// Seeds a track from a key-frame detection (or a takeover decision).
    /// The crop size is quantized once here and then stays fixed.
    pub fn seed(&mut self, bbox: BBox, truth: Option<u64>) -> TrackId {
        let id = TrackId(self.next_id);
        self.next_id += 1;
        let m = 1.0 + self.config.margin_frac;
        let size = SizeClass::quantize(bbox.width() * m, bbox.height() * m);
        self.tracks.push(Track {
            id,
            bbox,
            size,
            age: 0,
            misses: 0,
            last_truth: truth,
        });
        id
    }

    /// Removes a track (e.g. the distributed stage hands it to another
    /// camera). Returns `true` if it existed.
    pub fn remove(&mut self, id: TrackId) -> bool {
        let before = self.tracks.len();
        self.tracks.retain(|t| t.id != id);
        self.tracks.len() != before
    }

    /// Advances every track by the optical-flow displacement sampled at its
    /// box centre, clamping to the frame. Tracks that drift entirely out of
    /// frame are dropped.
    pub fn predict(&mut self, flow: &FlowField) {
        let frame = self.frame;
        self.tracks.retain_mut(|t| {
            let v = flow.displacement_at(t.bbox.center());
            let moved = t.bbox.translated(v.displacement);
            match moved.clamped_to(frame) {
                // Keep only tracks that remain meaningfully in frame.
                Some(clamped) if clamped.area() > 0.25 * t.bbox.area() => {
                    t.bbox = moved;
                    t.age += 1;
                    true
                }
                _ => false,
            }
        });
    }

    /// Associates detections with tracks (maximum-IoU Hungarian matching),
    /// corrects matched tracks, and increments misses on unmatched ones.
    ///
    /// Returns which detections matched and which are left over (candidate
    /// new objects).
    pub fn associate(&mut self, detections: &[Detection]) -> AssociationOutcome {
        let mut outcome = AssociationOutcome::default();
        self.associate_into(detections, &mut outcome);
        outcome
    }

    /// [`FlowTracker::associate`] into a caller-held outcome (cleared
    /// first): with the outcome kept across frames, a steady-state round
    /// allocates nothing.
    pub fn associate_into(&mut self, detections: &[Detection], outcome: &mut AssociationOutcome) {
        outcome.matched.clear();
        outcome.unmatched_detections.clear();
        // Every track misses unless a match below says otherwise.
        for t in &mut self.tracks {
            t.misses += 1;
        }
        if self.tracks.is_empty() || detections.is_empty() {
            outcome.unmatched_detections.extend(0..detections.len());
            return;
        }
        let MatchScratch {
            scores,
            solver,
            det_used,
        } = &mut self.scratch;
        scores.clear();
        for t in &self.tracks {
            scores.extend(detections.iter().map(|d| t.bbox.iou(&d.bbox)));
        }
        let assignment = solver
            .solve_max(self.tracks.len(), detections.len(), scores)
            .expect("finite IoU matrix");
        det_used.clear();
        det_used.resize(detections.len(), false);
        for (ti, di) in assignment.iter() {
            if scores[ti * detections.len() + di] >= self.config.iou_threshold {
                let t = &mut self.tracks[ti];
                t.bbox = detections[di].bbox;
                t.misses = 0;
                t.last_truth = detections[di].truth_id;
                outcome.matched.push((t.id, di));
                det_used[di] = true;
            }
        }
        outcome
            .unmatched_detections
            .extend((0..detections.len()).filter(|&di| !det_used[di]));
    }

    /// Drops tracks whose consecutive misses exceed the configured maximum.
    /// Returns the dropped ids.
    pub fn prune(&mut self) -> Vec<TrackId> {
        let max = self.config.max_misses;
        let dropped: Vec<TrackId> = self
            .tracks
            .iter()
            .filter(|t| t.misses > max)
            .map(|t| t.id)
            .collect();
        self.tracks.retain(|t| t.misses <= max);
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroundTruthObject;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn bb(x: f64, y: f64, s: f64) -> BBox {
        BBox::new(x, y, x + s, y + s).unwrap()
    }

    fn det(bbox: BBox, truth: Option<u64>) -> Detection {
        Detection {
            bbox,
            confidence: 0.9,
            truth_id: truth,
        }
    }

    #[test]
    fn seed_quantizes_with_margin() {
        let mut t = FlowTracker::new(TrackerConfig::default(), FrameDims::REGULAR);
        // 60 px side * 1.25 margin = 75 → S128.
        let id = t.seed(bb(0.0, 0.0, 60.0), None);
        assert_eq!(t.get(id).unwrap().size, SizeClass::S128);
        // 40 px side * 1.25 = 50 → S64.
        let id2 = t.seed(bb(0.0, 0.0, 40.0), None);
        assert_eq!(t.get(id2).unwrap().size, SizeClass::S64);
    }

    #[test]
    fn predict_moves_tracks_with_flow() {
        let mut tracker = FlowTracker::new(TrackerConfig::default(), FrameDims::REGULAR);
        tracker.seed(bb(100.0, 100.0, 50.0), Some(1));
        let prev = [GroundTruthObject {
            id: 1,
            bbox: bb(100.0, 100.0, 50.0),
        }];
        let curr = [GroundTruthObject {
            id: 1,
            bbox: bb(112.0, 104.0, 50.0),
        }];
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let flow = FlowField::estimate(&prev, &curr, 0.0, &mut rng);
        tracker.predict(&flow);
        let t = &tracker.tracks()[0];
        assert!((t.bbox.x1() - 112.0).abs() < 1e-9);
        assert!((t.bbox.y1() - 104.0).abs() < 1e-9);
        assert_eq!(t.age, 1);
    }

    #[test]
    fn tracks_leaving_frame_are_dropped_on_predict() {
        let mut tracker = FlowTracker::new(TrackerConfig::default(), FrameDims::REGULAR);
        tracker.seed(bb(10.0, 10.0, 40.0), Some(1));
        let prev = [GroundTruthObject {
            id: 1,
            bbox: bb(10.0, 10.0, 40.0),
        }];
        // Object jumps far out of frame.
        let curr = [GroundTruthObject {
            id: 1,
            bbox: BBox::new(-500.0, 10.0, -460.0, 50.0).unwrap(),
        }];
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let flow = FlowField::estimate(&prev, &curr, 0.0, &mut rng);
        tracker.predict(&flow);
        assert!(tracker.tracks().is_empty());
    }

    #[test]
    fn association_corrects_matched_tracks() {
        let mut tracker = FlowTracker::new(TrackerConfig::default(), FrameDims::REGULAR);
        let id = tracker.seed(bb(100.0, 100.0, 50.0), None);
        let d = det(bb(105.0, 102.0, 50.0), Some(9));
        let out = tracker.associate(&[d]);
        assert_eq!(out.matched, vec![(id, 0)]);
        assert!(out.unmatched_detections.is_empty());
        let t = tracker.get(id).unwrap();
        assert_eq!(t.bbox, d.bbox);
        assert_eq!(t.last_truth, Some(9));
        assert_eq!(t.misses, 0);
    }

    #[test]
    fn association_leaves_far_detections_unmatched() {
        let mut tracker = FlowTracker::new(TrackerConfig::default(), FrameDims::REGULAR);
        tracker.seed(bb(100.0, 100.0, 50.0), None);
        let far = det(bb(900.0, 500.0, 50.0), Some(2));
        let out = tracker.associate(&[far]);
        assert!(out.matched.is_empty());
        assert_eq!(out.unmatched_detections, vec![0]);
        assert_eq!(tracker.tracks()[0].misses, 1);
    }

    #[test]
    fn hungarian_resolves_crossing_tracks() {
        let mut tracker = FlowTracker::new(TrackerConfig::default(), FrameDims::REGULAR);
        let a = tracker.seed(bb(100.0, 100.0, 50.0), None);
        let b = tracker.seed(bb(200.0, 100.0, 50.0), None);
        // Two detections near each track, slightly shuffled in order.
        let d_b = det(bb(195.0, 100.0, 50.0), Some(2));
        let d_a = det(bb(108.0, 100.0, 50.0), Some(1));
        let out = tracker.associate(&[d_b, d_a]);
        let map: std::collections::HashMap<TrackId, usize> = out.matched.into_iter().collect();
        assert_eq!(map[&a], 1);
        assert_eq!(map[&b], 0);
    }

    #[test]
    fn prune_drops_after_max_misses() {
        let cfg = TrackerConfig {
            max_misses: 1,
            ..Default::default()
        };
        let mut tracker = FlowTracker::new(cfg, FrameDims::REGULAR);
        let id = tracker.seed(bb(100.0, 100.0, 50.0), None);
        tracker.associate(&[]); // miss 1
        assert!(tracker.prune().is_empty());
        tracker.associate(&[]); // miss 2 > max 1
        assert_eq!(tracker.prune(), vec![id]);
        assert!(tracker.tracks().is_empty());
    }

    #[test]
    fn remove_and_clear() {
        let mut tracker = FlowTracker::new(TrackerConfig::default(), FrameDims::REGULAR);
        let id = tracker.seed(bb(0.0, 0.0, 30.0), None);
        assert!(tracker.remove(id));
        assert!(!tracker.remove(id));
        tracker.seed(bb(0.0, 0.0, 30.0), None);
        tracker.clear();
        assert!(tracker.tracks().is_empty());
    }
}
