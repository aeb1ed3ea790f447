//! Object recall (the paper's detection-quality metric, Sec. IV-C).

use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Accumulates object recall over a run.
///
/// At every timestamp, for each ground-truth object visible to at least one
/// camera, the object is a true positive if *any* camera detected/tracked
/// it and a false negative otherwise. Object recall is `TP / (TP + FN)`.
/// The metric is deliberately insensitive to which camera found the object
/// and to false positives (the paper scores those via association
/// precision instead).
///
/// # Examples
///
/// ```
/// use mvs_metrics::RecallAccumulator;
///
/// let mut recall = RecallAccumulator::new();
/// // Frame 1: objects {1, 2} visible, only 1 detected somewhere.
/// recall.record([1, 2], [1]);
/// // Frame 2: object 2 visible and detected.
/// recall.record([2], [2]);
/// // Two true positives, one false negative.
/// assert!((recall.recall() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecallAccumulator {
    tp: u64,
    fn_: u64,
    frames: u64,
}

impl RecallAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RecallAccumulator::default()
    }

    /// Records one timestamp: the set of ground-truth objects visible to at
    /// least one camera, and the set of object ids detected by any camera.
    /// Detected ids not in the visible set are ignored (false positives are
    /// not part of this metric).
    pub fn record<V, D>(&mut self, visible: V, detected: D)
    where
        V: IntoIterator<Item = u64>,
        D: IntoIterator<Item = u64>,
    {
        self.record_against(visible, &detected.into_iter().collect());
    }

    /// [`RecallAccumulator::record`] against a detected set the caller
    /// already holds (and may reuse from frame to frame).
    pub fn record_against<V>(&mut self, visible: V, detected: &HashSet<u64>)
    where
        V: IntoIterator<Item = u64>,
    {
        for id in visible {
            if detected.contains(&id) {
                self.tp += 1;
            } else {
                self.fn_ += 1;
            }
        }
        self.frames += 1;
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &RecallAccumulator) {
        self.tp += other.tp;
        self.fn_ += other.fn_;
        self.frames += other.frames;
    }

    /// Number of recorded timestamps.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Object recall in `[0, 1]`; `1.0` when nothing was ever visible.
    pub fn recall(&self) -> f64 {
        let total = self.tp + self.fn_;
        if total == 0 {
            1.0
        } else {
            self.tp as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_has_perfect_recall() {
        assert_eq!(RecallAccumulator::new().recall(), 1.0);
    }

    #[test]
    fn any_camera_detection_counts() {
        let mut r = RecallAccumulator::new();
        // Object 5 visible; the union of camera detections contains it.
        r.record([5], [9, 5, 3]);
        assert_eq!(r.tp, 1);
        assert_eq!(r.fn_, 0);
    }

    #[test]
    fn false_positives_do_not_affect_recall() {
        let mut r = RecallAccumulator::new();
        r.record([1], [1, 99, 100]);
        assert_eq!(r.recall(), 1.0);
    }

    #[test]
    fn missed_objects_are_false_negatives() {
        let mut r = RecallAccumulator::new();
        r.record([1, 2, 3], [2]);
        assert_eq!(r.tp, 1);
        assert_eq!(r.fn_, 2);
        assert!((r.recall() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = RecallAccumulator::new();
        a.record([1], [1]);
        let mut b = RecallAccumulator::new();
        b.record([1, 2], []);
        a.merge(&b);
        assert_eq!(a.tp, 1);
        assert_eq!(a.fn_, 2);
        assert_eq!(a.frames(), 2);
    }
}
