//! Per-camera execution state and its fan-out over the persistent pool.
//!
//! The pipeline owns one [`CameraWorker`] per camera. A worker bundles
//! everything a camera *mutates* every frame — detector, tracker, shadows,
//! distributed-stage mask, lag ring buffer, and a *private* deterministic
//! RNG stream — so per-frame camera stages can run on independent pool
//! threads without sharing mutable state. What a camera only reads (its
//! device latency profile, SP's static mask) stays in the run's shared
//! `Deployment`.
//!
//! Determinism contract: every random draw a camera makes comes from its
//! own ChaCha stream (`set_stream(index + 1)` over the run seed; stream 0
//! belongs to the world/coordinator). A camera's stream advances only with
//! that camera's own work, and cross-camera effects are merged serially in
//! camera-index order, so results are bitwise identical at any thread
//! count — including one.

use crate::camera::CameraModel;
use crate::world::World;
use mvs_core::{CameraMask, ShadowTrack};
use mvs_geometry::{BBox, FrameDims};
use mvs_trace::TraceBuf;
use mvs_vision::{
    AssociationOutcome, Detection, FlowField, FlowTracker, GroundTruthObject, NewRegionFinder,
    RegionTask, SimulatedDetector, TrackId,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Per-camera scratch arena: every buffer the steady-state frame loop
/// fills and drains each frame. Buffers are cleared (never shrunk) between
/// frames, so once each reaches its high-water capacity the regular-frame
/// path stops allocating. Owned by exactly one [`CameraWorker`], so pool
/// threads touch disjoint arenas without synchronization.
#[derive(Debug, Default)]
pub(crate) struct FrameScratch {
    /// This frame's optical-flow estimate (probe + cluster buffers reused
    /// via [`FlowField::estimate_into`]).
    pub flow: FlowField,
    /// Per-track crop tasks from slicing (plus new-region probes).
    pub tasks: Vec<RegionTask>,
    /// Flow-predicted track boxes, input to new-region detection.
    pub predicted: Vec<BBox>,
    /// Unexplained moving clusters (new-object probe regions).
    pub fresh: Vec<BBox>,
    /// Column-major scratch for the new-region coverage test.
    pub regions: NewRegionFinder,
    /// `(global index, seed box)` pairs from the takeover scan; the serial
    /// merge reads this frame's takeovers from here.
    pub takeover_seeds: Vec<(usize, BBox)>,
    /// Detections accumulated across this frame's crop tasks (deduplicated);
    /// the serial merge reads this frame's detected identities from here.
    pub detections: Vec<Detection>,
    /// Which of `detections` matched a track.
    pub outcome: AssociationOutcome,
    /// Depth-sort buffer of the view projection.
    pub by_depth: Vec<(f64, GroundTruthObject)>,
}

impl FrameScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Everything one camera mutates during a frame. Sending a `&mut
/// CameraWorker` to a pool thread is safe because no field is shared.
#[derive(Debug)]
pub(crate) struct CameraWorker {
    /// This camera's index in the scenario (also its merge position).
    pub index: usize,
    /// Camera frame dimensions.
    pub frame: FrameDims,
    /// Processing lag in frames (Sec. V imperfect synchronization).
    pub lag: usize,
    /// Detector quality model for this camera's frame.
    pub detector: SimulatedDetector,
    /// Flow tracker (per-horizon track state).
    pub tracker: FlowTracker,
    /// Private deterministic RNG stream (stream `index + 1` of the seed).
    pub rng: ChaCha8Rng,
    /// This frame's processed (lag-adjusted; empty while dead) view, filled
    /// by [`CameraWorker::observe`].
    pub view: Vec<GroundTruthObject>,
    /// Previous frame's processed view, input to flow estimation. The frame
    /// loop swaps it with `view` at the end of every frame, so the two
    /// buffers alternate and neither is reallocated.
    pub prev_view: Vec<GroundTruthObject>,
    /// This frame's true view when it is not `view` itself (a dead or
    /// lagged camera); read through [`CameraWorker::true_view`].
    pub truth: Vec<GroundTruthObject>,
    /// Ring buffer of recent true views; only kept when `lag > 0`.
    pub history: VecDeque<Vec<GroundTruthObject>>,
    /// Shadow boxes of objects visible here but assigned elsewhere, keyed
    /// by global index (full BALB only). Ordered so takeover scans are
    /// deterministic.
    pub shadows: BTreeMap<usize, ShadowTrack>,
    /// Global index of each seeded track.
    pub track_global: HashMap<TrackId, usize>,
    /// Distributed-stage mask for the current horizon (full BALB only).
    pub mask: Option<CameraMask>,
    /// Span buffer for this camera's lane, populated on the pool thread and
    /// drained by the coordinator per frame. `None` (the default) disables
    /// tracing with zero hot-path cost.
    pub trace: Option<TraceBuf>,
    /// Reusable per-frame buffers (see [`FrameScratch`]).
    pub scratch: FrameScratch,
}

impl CameraWorker {
    /// The camera's private RNG stream for a run seed: same key as the
    /// world stream, distinct ChaCha stream number (stream 0 is the
    /// world/coordinator).
    pub fn stream_rng(seed: u64, index: usize) -> ChaCha8Rng {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.set_stream(index as u64 + 1);
        rng
    }

    /// A live, synchronized camera processes exactly what is in front of
    /// it: its true view is projected straight into `view`.
    fn sees_truth(&self, alive: bool) -> bool {
        alive && self.lag == 0
    }

    /// Extracts this camera's view of the stepped world into `view`,
    /// reusing the worker's buffers. A dead camera produces no frames (its
    /// processed view is empty); a lagged one processes the scene as it
    /// looked `lag` frames ago (or the oldest view it has).
    pub fn observe(&mut self, camera: &CameraModel, world: &World, occlusion: f64, alive: bool) {
        let target = if self.sees_truth(alive) {
            &mut self.view
        } else {
            &mut self.truth
        };
        camera.visible_objects_into(world, occlusion, &mut self.scratch.by_depth, target);
        if !alive {
            self.view.clear();
        } else if self.lag > 0 {
            // A full ring recycles its oldest buffer for the newest view.
            let mut newest = if self.history.len() > self.lag {
                self.history.pop_front().expect("a full ring is not empty")
            } else {
                Vec::new()
            };
            newest.clone_from(&self.truth);
            self.history.push_back(newest);
            self.view
                .clone_from(self.history.front().expect("just pushed"));
        }
    }

    /// What is truly in front of the camera *now*, as of the last
    /// [`CameraWorker::observe`] with the same `alive`.
    pub fn true_view(&self, alive: bool) -> &[GroundTruthObject] {
        if self.sees_truth(alive) {
            &self.view
        } else {
            &self.truth
        }
    }
}

/// Maps `f` over the workers, fanning out across up to `threads` lanes of
/// the persistent pool ([`mvs_exec::pool`]), and returns the outputs in
/// camera-index order regardless of which lane ran which camera. With
/// `threads <= 1` (or one camera) it runs inline — same results, no
/// dispatch.
pub(crate) fn par_map<T, F>(workers: &mut [CameraWorker], threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut CameraWorker) -> T + Sync,
{
    mvs_exec::pool().par_map_mut(workers, threads, f)
}

pub use mvs_exec::resolve_threads;

#[cfg(test)]
mod tests {
    use super::*;
    use mvs_vision::{DetectionModel, TrackerConfig};
    use rand::Rng;

    fn dummy_worker(index: usize) -> CameraWorker {
        let frame = FrameDims::REGULAR;
        CameraWorker {
            index,
            frame,
            lag: 0,
            detector: SimulatedDetector::new(DetectionModel::default(), frame),
            tracker: FlowTracker::new(TrackerConfig::default(), frame),
            rng: CameraWorker::stream_rng(7, index),
            view: Vec::new(),
            prev_view: Vec::new(),
            truth: Vec::new(),
            history: VecDeque::new(),
            shadows: BTreeMap::new(),
            track_global: HashMap::new(),
            mask: None,
            trace: None,
            scratch: FrameScratch::new(),
        }
    }

    #[test]
    fn streams_are_distinct_per_camera() {
        let a: Vec<u64> = (0..4)
            .map(|i| CameraWorker::stream_rng(42, i).gen::<u64>())
            .collect();
        for i in 0..a.len() {
            for j in i + 1..a.len() {
                assert_ne!(a[i], a[j], "cameras {i} and {j} share a stream");
            }
        }
        // And the stream is a function of the seed.
        assert_ne!(
            CameraWorker::stream_rng(42, 0).gen::<u64>(),
            CameraWorker::stream_rng(43, 0).gen::<u64>()
        );
    }

    #[test]
    fn par_map_output_is_index_ordered_at_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let mut workers: Vec<CameraWorker> = (0..7).map(dummy_worker).collect();
            let out = par_map(&mut workers, threads, |w| w.index * 10);
            assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60], "threads={threads}");
        }
    }

    #[test]
    fn par_map_draws_match_serial_draws() {
        // Each worker draws from its own stream; the collected draws must
        // not depend on the thread count.
        let draw = |threads: usize| -> Vec<u64> {
            let mut workers: Vec<CameraWorker> = (0..5).map(dummy_worker).collect();
            let mut out = Vec::new();
            for _ in 0..3 {
                out.extend(par_map(&mut workers, threads, |w| w.rng.gen::<u64>()));
            }
            out
        };
        let serial = draw(1);
        assert_eq!(serial, draw(2));
        assert_eq!(serial, draw(5));
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
