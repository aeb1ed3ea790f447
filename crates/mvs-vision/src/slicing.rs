//! Tracking-based image slicing.
//!
//! At regular frames the DNN inspects only small crops around the
//! flow-predicted object locations instead of the whole frame (Sec. II-B).
//! Each crop is a square of the track's quantized [`SizeClass`] side,
//! centred on the prediction and clamped to the frame.

use crate::{Track, TrackId};
use mvs_geometry::{BBox, FrameDims, SizeClass};
use serde::{Deserialize, Serialize};

/// One partial-frame inspection task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionTask {
    /// The track this crop searches for (`None` for new-region probes).
    pub track: Option<TrackId>,
    /// Crop rectangle in frame coordinates.
    pub region: BBox,
    /// The quantized batchable size of the crop.
    pub size: SizeClass,
}

impl RegionTask {
    /// Builds a task for an anonymous region (new-object probe): the region
    /// is expanded to its quantized square and clamped to the frame.
    /// Returns `None` when the region lies outside the frame.
    pub fn for_region(region: BBox, frame: FrameDims) -> Option<RegionTask> {
        let size = SizeClass::quantize(region.width(), region.height());
        let crop = region
            .expanded_to_square(size.side() as f64)
            .clamped_to(frame)?;
        Some(RegionTask {
            track: None,
            region: crop,
            size,
        })
    }
}

/// Slices the current frame into one crop per track.
///
/// The crop side equals the track's fixed [`SizeClass`]; if the object has
/// grown past it, the crop still uses that side (the paper downsizes the
/// content rather than re-quantizing mid-horizon). Tracks whose crop falls
/// entirely outside the frame are skipped.
///
/// # Examples
///
/// ```
/// use mvs_geometry::{BBox, FrameDims};
/// use mvs_vision::{slice_regions, FlowTracker, TrackerConfig};
///
/// let mut tracker = FlowTracker::new(TrackerConfig::default(), FrameDims::REGULAR);
/// tracker.seed(BBox::new(100.0, 100.0, 150.0, 140.0)?, None);
/// let tasks = slice_regions(tracker.tracks(), FrameDims::REGULAR);
/// assert_eq!(tasks.len(), 1);
/// assert_eq!(tasks[0].size.side(), 64);
/// # Ok::<(), mvs_geometry::BBoxError>(())
/// ```
pub fn slice_regions(tracks: &[Track], frame: FrameDims) -> Vec<RegionTask> {
    let mut tasks = Vec::new();
    slice_regions_into(tracks, frame, &mut tasks);
    tasks
}

/// Buffer-reusing variant of [`slice_regions`]: clears `out` and fills it
/// with the same tasks, so the steady-state loop can slice every frame
/// without allocating once the buffer has reached its high-water capacity.
pub fn slice_regions_into(tracks: &[Track], frame: FrameDims, out: &mut Vec<RegionTask>) {
    out.clear();
    out.extend(tracks.iter().filter_map(|t| {
        let crop = t
            .bbox
            .expanded_to_square(t.size.side() as f64)
            .clamped_to(frame)?;
        Some(RegionTask {
            track: Some(t.id),
            region: crop,
            size: t.size,
        })
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowTracker, TrackerConfig};

    fn tracker_with(boxes: &[BBox]) -> FlowTracker {
        let mut t = FlowTracker::new(TrackerConfig::default(), FrameDims::REGULAR);
        for &b in boxes {
            t.seed(b, None);
        }
        t
    }

    #[test]
    fn crop_is_centred_square_of_track_size() {
        let b = BBox::new(300.0, 300.0, 360.0, 340.0).unwrap();
        let t = tracker_with(&[b]);
        let tasks = slice_regions(t.tracks(), FrameDims::REGULAR);
        let task = tasks[0];
        assert_eq!(task.region.width(), task.size.side() as f64);
        assert_eq!(task.region.height(), task.size.side() as f64);
        assert_eq!(task.region.center(), b.center());
        assert!(task.region.contains_box(&b));
    }

    #[test]
    fn crop_at_frame_edge_is_clamped() {
        let b = BBox::new(0.0, 0.0, 50.0, 40.0).unwrap();
        let t = tracker_with(&[b]);
        let tasks = slice_regions(t.tracks(), FrameDims::REGULAR);
        let r = tasks[0].region;
        assert!(r.x1() >= 0.0 && r.y1() >= 0.0);
        assert!(r.width() <= tasks[0].size.side() as f64);
    }

    #[test]
    fn track_outside_frame_yields_no_task() {
        let t = tracker_with(&[BBox::new(100.0, 100.0, 150.0, 150.0).unwrap()]);
        // Manually push the track's box outside the frame to simulate drift
        // (predict() would normally drop it, but slicing must be safe too).
        let moved = t.tracks()[0]
            .bbox
            .translated(mvs_geometry::Point2::new(-4000.0, 0.0));
        let mut tr = t.tracks()[0].clone();
        tr.bbox = moved;
        let tasks = slice_regions(&[tr], FrameDims::REGULAR);
        assert!(tasks.is_empty());
    }

    #[test]
    fn anonymous_region_task_quantizes() {
        let region = BBox::new(500.0, 200.0, 570.0, 260.0).unwrap();
        let task = RegionTask::for_region(region, FrameDims::REGULAR).unwrap();
        assert_eq!(task.track, None);
        assert_eq!(task.size, SizeClass::S128);
        assert!(task.region.contains_box(&region));
        // Fully outside the frame → None.
        let outside = BBox::new(-300.0, -300.0, -200.0, -200.0).unwrap();
        assert!(RegionTask::for_region(outside, FrameDims::REGULAR).is_none());
    }

    #[test]
    fn one_task_per_live_track() {
        let boxes = [
            BBox::new(10.0, 10.0, 60.0, 60.0).unwrap(),
            BBox::new(200.0, 200.0, 360.0, 340.0).unwrap(),
            BBox::new(700.0, 100.0, 1100.0, 600.0).unwrap(),
        ];
        let t = tracker_with(&boxes);
        let tasks = slice_regions(t.tracks(), FrameDims::REGULAR);
        assert_eq!(tasks.len(), 3);
        // Sizes increase with object size.
        assert_eq!(tasks[0].size, SizeClass::S64);
        assert_eq!(tasks[1].size, SizeClass::S256);
        assert_eq!(tasks[2].size, SizeClass::S512);
    }
}
