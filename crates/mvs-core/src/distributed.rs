//! The distributed stage of BALB.
//!
//! Between key frames, cameras cannot afford per-frame communication with
//! the central scheduler, so assignment updates for *new* objects and
//! *departed* objects follow fixed, self-organizing policies derived from
//! the central stage's latency order (Sec. III-C2):
//!
//! * A new object is tracked by the highest-priority camera whose mask owns
//!   the cell where it appeared.
//! * When an object leaves its assigned camera's view, the highest-priority
//!   camera that still sees it takes over.
//!
//! All cameras reach the same decisions without talking to each other
//! because they share the priority order and the (synchronized) masks.

use crate::{BalbSchedule, CameraId};
use mvs_geometry::BBox;
use mvs_trace::{span_into, Stage, TraceBuf};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The fixed per-horizon policy each camera runs locally at regular frames.
///
/// # Examples
///
/// ```
/// use mvs_core::{CameraId, DistributedPolicy};
///
/// let policy = DistributedPolicy::new(vec![CameraId(2), CameraId(0), CameraId(1)]);
/// // Camera 2 has the highest priority (lowest central-stage latency).
/// assert_eq!(policy.rank(CameraId(2)), Some(0));
/// // A camera missing from the order (e.g. one that dropped out before
/// // the central stage ran) has no rank.
/// assert_eq!(policy.rank(CameraId(7)), None);
/// // Takeover: the highest-priority camera among those still seeing the
/// // object wins.
/// assert_eq!(
///     policy.select_owner([CameraId(0), CameraId(1)]),
///     Some(CameraId(0))
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistributedPolicy {
    /// Cameras in decreasing priority (increasing central-stage latency).
    priority: Vec<CameraId>,
}

impl DistributedPolicy {
    /// Builds a policy from an explicit priority order (highest first).
    ///
    /// # Panics
    ///
    /// Panics if the order is empty or contains duplicates.
    pub fn new(priority: Vec<CameraId>) -> Self {
        assert!(!priority.is_empty(), "priority order must be non-empty");
        // Priority orders are fleet-sized (a handful of cameras), so a
        // quadratic scan beats cloning and sorting a scratch copy.
        for (i, c) in priority.iter().enumerate() {
            assert!(
                !priority[..i].contains(c),
                "priority order must not contain duplicates"
            );
        }
        DistributedPolicy { priority }
    }

    /// Extracts the policy from a central-stage schedule.
    pub fn from_schedule(schedule: &BalbSchedule) -> Self {
        DistributedPolicy::new(schedule.priority.clone())
    }

    /// The priority order, highest first.
    pub fn priority(&self) -> &[CameraId] {
        &self.priority
    }

    /// Rank of a camera (0 = highest priority), or `None` when the camera
    /// is not part of the order — e.g. it was dead or desynchronized when
    /// the central stage produced this horizon's priority.
    pub fn rank(&self, camera: CameraId) -> Option<usize> {
        self.priority.iter().position(|&c| c == camera)
    }

    /// Whether the camera participates in this horizon's order.
    pub fn contains(&self, camera: CameraId) -> bool {
        self.priority.contains(&camera)
    }

    /// Selects the owner for an object given the cameras currently able to
    /// see it: the highest-priority member of the coverage set. Cameras
    /// absent from the priority order (dead or desynchronized) are skipped;
    /// ownership fails over along the order. Returns `None` when no ranked
    /// camera sees the object (it is lost to every surviving view).
    pub fn select_owner<I: IntoIterator<Item = CameraId>>(&self, coverage: I) -> Option<CameraId> {
        coverage
            .into_iter()
            .filter_map(|c| self.rank(c).map(|r| (r, c)))
            .min()
            .map(|(_, c)| c)
    }

    /// Convenience for the per-camera decision: should `myself` start
    /// tracking an object with this coverage set? True iff `myself` is the
    /// selected owner. Every camera evaluating this on the same coverage
    /// set reaches a consistent answer; a camera outside the priority order
    /// never elects itself.
    pub fn should_track<I: IntoIterator<Item = CameraId>>(
        &self,
        myself: CameraId,
        coverage: I,
    ) -> bool {
        self.select_owner(coverage) == Some(myself)
    }
}

/// A camera's local estimate of an object assigned to *another* camera:
/// the flow-updated bounding box plus how many consecutive frames the
/// cross-camera models have said the object is gone from every owner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShadowTrack {
    /// This camera's flow-updated estimate of the object's box.
    pub bbox: BBox,
    /// Consecutive frames the owners have reported the object gone.
    pub gone_frames: u32,
}

impl ShadowTrack {
    /// A fresh shadow seeded from a key-frame detection.
    pub fn new(bbox: BBox) -> Self {
        ShadowTrack {
            bbox,
            gone_frames: 0,
        }
    }
}

/// Per-shadow answer to "should this camera consider taking the object
/// over?", produced by the caller's cross-camera models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowVerdict {
    /// This camera is itself an owner — nothing to take over.
    OwnedHere,
    /// The object has left every owner's view (per the synchronized pair
    /// models); one step toward the hysteresis threshold.
    Gone,
    /// At least one owner still sees the object; the gone-streak resets.
    Visible,
}

/// One regular-frame takeover scan: the core of the distributed stage.
///
/// Walks the shadows in ascending global-object order (the `BTreeMap`
/// order, which is what makes the scan deterministic), updates each
/// shadow's gone-streak from `verdict`, and collects the shadows whose
/// streak reached `hysteresis` *and* whose box falls in a cell this camera
/// owns (`responsible`). Collected shadows are removed from the map and
/// returned as `(global index, box)` seeds for the caller's tracker.
///
/// The hysteresis exists so one noisy classifier answer cannot steal a
/// still-tracked object (Sec. III-C2).
///
/// Records a [`Stage::Distributed`] span (items = takeovers; duration zero,
/// since the scan's wall-clock cost is accounted by the caller).
///
/// `seeds` is cleared and filled with this frame's takeovers, so a caller
/// that keeps the buffer across frames allocates nothing here in steady
/// state.
pub fn scan_takeovers_into<V, R>(
    shadows: &mut BTreeMap<usize, ShadowTrack>,
    hysteresis: u32,
    mut verdict: V,
    mut responsible: R,
    trace: Option<&mut TraceBuf>,
    seeds: &mut Vec<(usize, BBox)>,
) where
    V: FnMut(usize, &BBox) -> ShadowVerdict,
    R: FnMut(&BBox) -> bool,
{
    seeds.clear();
    for (&g, shadow) in shadows.iter_mut() {
        match verdict(g, &shadow.bbox) {
            ShadowVerdict::OwnedHere => continue,
            ShadowVerdict::Gone => shadow.gone_frames += 1,
            ShadowVerdict::Visible => shadow.gone_frames = 0,
        }
        if shadow.gone_frames >= hysteresis && responsible(&shadow.bbox) {
            seeds.push((g, shadow.bbox));
        }
    }
    for (g, _) in seeds.iter() {
        shadows.remove(g);
    }
    span_into(trace, Stage::Distributed, 0.0, seeds.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> DistributedPolicy {
        DistributedPolicy::new(vec![CameraId(1), CameraId(2), CameraId(0)])
    }

    #[test]
    fn ranks_follow_order() {
        let p = policy();
        assert_eq!(p.rank(CameraId(1)), Some(0));
        assert_eq!(p.rank(CameraId(2)), Some(1));
        assert_eq!(p.rank(CameraId(0)), Some(2));
    }

    #[test]
    fn unknown_camera_has_no_rank() {
        let p = policy();
        assert_eq!(p.rank(CameraId(3)), None);
        assert!(!p.contains(CameraId(3)));
        assert!(p.contains(CameraId(0)));
    }

    #[test]
    fn select_owner_skips_unknown_cameras() {
        // Camera 5 is not in the order (it dropped before the central
        // stage); ownership fails over to the best ranked survivor.
        let p = policy();
        assert_eq!(
            p.select_owner([CameraId(5), CameraId(0), CameraId(2)]),
            Some(CameraId(2))
        );
        // Coverage made up entirely of unknown cameras selects nobody.
        assert_eq!(p.select_owner([CameraId(5), CameraId(9)]), None);
    }

    #[test]
    fn unknown_camera_never_tracks() {
        let p = policy();
        let coverage = [CameraId(5), CameraId(0)];
        assert!(!p.should_track(CameraId(5), coverage));
        assert!(p.should_track(CameraId(0), coverage));
    }

    #[test]
    fn owner_is_highest_priority_in_coverage() {
        let p = policy();
        assert_eq!(
            p.select_owner([CameraId(0), CameraId(2)]),
            Some(CameraId(2))
        );
        assert_eq!(p.select_owner([CameraId(0)]), Some(CameraId(0)));
        assert_eq!(p.select_owner([]), None);
    }

    #[test]
    fn should_track_is_consistent_across_cameras() {
        let p = policy();
        let coverage = [CameraId(0), CameraId(1), CameraId(2)];
        let trackers: Vec<CameraId> = coverage
            .iter()
            .copied()
            .filter(|&c| p.should_track(c, coverage))
            .collect();
        // Exactly one camera decides to track, and it is the top-priority
        // one — the self-organized consistency property.
        assert_eq!(trackers, vec![CameraId(1)]);
    }

    #[test]
    #[should_panic(expected = "must not contain duplicates")]
    fn rejects_duplicate_cameras() {
        DistributedPolicy::new(vec![CameraId(0), CameraId(0)]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_order() {
        DistributedPolicy::new(vec![]);
    }

    fn shadow_at(x: f64) -> ShadowTrack {
        ShadowTrack::new(BBox::new(x, 0.0, x + 10.0, 10.0).unwrap())
    }

    /// One untraced scan into a fresh buffer.
    fn scan(
        shadows: &mut BTreeMap<usize, ShadowTrack>,
        hysteresis: u32,
        verdict: impl FnMut(usize, &BBox) -> ShadowVerdict,
        responsible: impl FnMut(&BBox) -> bool,
    ) -> Vec<(usize, BBox)> {
        let mut seeds = Vec::new();
        scan_takeovers_into(shadows, hysteresis, verdict, responsible, None, &mut seeds);
        seeds
    }

    #[test]
    fn takeover_requires_consecutive_gone_frames() {
        let mut shadows = BTreeMap::from([(4usize, shadow_at(0.0))]);
        // Two gone frames, then a visible one, then two more: the streak
        // resets, so hysteresis 3 is never reached.
        for v in [
            ShadowVerdict::Gone,
            ShadowVerdict::Gone,
            ShadowVerdict::Visible,
            ShadowVerdict::Gone,
            ShadowVerdict::Gone,
        ] {
            let seeds = scan(&mut shadows, 3, |_, _| v, |_| true);
            assert!(seeds.is_empty());
        }
        assert_eq!(shadows[&4].gone_frames, 2);
        // A third consecutive gone frame finally triggers the takeover and
        // removes the shadow.
        let seeds = scan(&mut shadows, 3, |_, _| ShadowVerdict::Gone, |_| true);
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].0, 4);
        assert!(shadows.is_empty());
    }

    #[test]
    fn owned_shadows_are_skipped_entirely() {
        let mut shadows = BTreeMap::from([(0usize, shadow_at(0.0))]);
        for _ in 0..5 {
            let seeds = scan(&mut shadows, 1, |_, _| ShadowVerdict::OwnedHere, |_| true);
            assert!(seeds.is_empty());
        }
        // OwnedHere neither increments nor resets the streak.
        assert_eq!(shadows[&0].gone_frames, 0);
    }

    #[test]
    fn irresponsible_camera_keeps_counting_but_never_takes() {
        let mut shadows = BTreeMap::from([(1usize, shadow_at(0.0))]);
        for _ in 0..4 {
            let seeds = scan(&mut shadows, 3, |_, _| ShadowVerdict::Gone, |_| false);
            assert!(seeds.is_empty());
        }
        assert_eq!(shadows[&1].gone_frames, 4);
    }

    #[test]
    fn scan_visits_shadows_in_global_index_order() {
        let mut shadows = BTreeMap::from([
            (9usize, shadow_at(0.0)),
            (2usize, shadow_at(20.0)),
            (5usize, shadow_at(40.0)),
        ]);
        let mut visited = Vec::new();
        scan(
            &mut shadows,
            1,
            |g, _| {
                visited.push(g);
                ShadowVerdict::Gone
            },
            |_| true,
        );
        assert_eq!(visited, vec![2, 5, 9]);
        assert!(shadows.is_empty());
    }
}
