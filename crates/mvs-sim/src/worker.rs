//! Per-camera execution state and the stages that run on it.
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
use crate::correspond::TrainedAssociation;
use crate::masks::StaticWorldPartition;
use crate::runtime::{Algorithm, PipelineConfig};
use crate::world::World;
use mvs_core::{scan_takeovers_into, CameraMask, ShadowTrack, ShadowVerdict};
use mvs_geometry::{BBox, FrameDims};
use mvs_metrics::OverheadSample;
use mvs_trace::{span_into, Stage, TraceBuf};
use mvs_vision::{
    slice_regions_into, AssociationOutcome, Detection, FlowField, FlowTracker, GroundTruthObject,
    LatencyProfile, NewRegionFinder, RegionTask, SimulatedDetector, SizeCounts, TrackId,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

/// Consecutive "gone from owner" frames required before a takeover; one
/// noisy classifier answer must not steal a tracked object.
const TAKEOVER_HYSTERESIS: u32 = 3;

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
    pub(crate) fn stream_rng(seed: u64, index: usize) -> ChaCha8Rng {
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
    pub(crate) fn true_view(&self, alive: bool) -> &[GroundTruthObject] {
        if self.sees_truth(alive) {
            &self.view
        } else {
            &self.truth
        }
    }

    /// Drops the bookkeeping tied to a superseded assignment (shadows and
    /// global ids) but keeps the running tracks: what a camera that missed
    /// the key-frame round trip does while it coasts.
    pub(crate) fn forget_assignment(&mut self) {
        self.shadows.clear();
        self.track_global.clear();
    }

    /// Starts a horizon from nothing: a synced camera's tracks are reseeded
    /// from the new schedule. Its mask stays — BALB rebuilds it in place,
    /// reusing its owner table, and no other algorithm ever sets one.
    pub(crate) fn reset_horizon(&mut self) {
        self.tracker.clear();
        self.forget_assignment();
    }

    /// A camera that went dark: its tracks, shadows, mask and lag history
    /// would all be stale by the time it rejoins.
    pub(crate) fn wipe(&mut self) {
        self.reset_horizon();
        self.mask = None;
        self.history.clear();
    }
}

/// What every camera of a regular frame reads and none of them writes.
pub(crate) struct RegularFrame<'a> {
    pub config: &'a PipelineConfig,
    /// The horizon's amortized central-stage cost, charged to every camera.
    pub central_ms: f64,
    pub alive: &'a [bool],
    pub profiles: &'a [LatencyProfile],
    /// SP's fixed masks (empty for every other algorithm).
    pub static_masks: &'a [CameraMask],
    pub trained: Option<&'a TrainedAssociation>,
    pub partition: Option<&'a StaticWorldPartition>,
    pub world: &'a World,
    /// Owner cameras per global object as of the start of the frame: a
    /// camera does not observe another camera's takeover from the *same*
    /// frame (in exchange, the outcome cannot depend on camera scheduling
    /// order). The winners extend the shared assignment at the merge.
    pub assignment: &'a [Vec<usize>],
}

/// One camera's numbers for a regular frame, produced on a pool thread and
/// merged in camera-index order. The lists of the frame — detected
/// identities, takeovers (already seeded in the worker's own tracker; the
/// shared assignment is extended at merge) — stay in the worker's
/// [`FrameScratch`], where the merge reads them.
pub(crate) struct RegularOutput {
    pub latency_ms: f64,
    pub probes: usize,
    pub sample: OverheadSample,
}

/// The per-camera stages of a regular frame, in the order
/// [`CameraWorker::regular_frame`] runs them. Each works on the worker's
/// own state and scratch and records its own span.
impl CameraWorker {
    /// A regular frame on this camera: flow prediction, the distributed
    /// stage, slicing, new-region probing, batched partial inspection and
    /// track upkeep.
    pub fn regular_frame(&mut self, cx: &RegularFrame<'_>) -> RegularOutput {
        // The merge reads these two lists from every worker.
        self.scratch.takeover_seeds.clear();
        self.scratch.detections.clear();
        let mut sample = OverheadSample {
            central_ms: cx.central_ms,
            ..Default::default()
        };
        if !cx.alive[self.index] {
            // A dead camera does no work; it still carries the amortized
            // central cost like every other column of Table II.
            return RegularOutput {
                latency_ms: 0.0,
                probes: 0,
                sample,
            };
        }
        self.predict(cx);
        sample.distributed_ms = self.takeover_scan(cx);
        self.slice();
        let probes = self.probe(cx);
        let (latency_ms, batching_ms) = self.inspect(cx);
        sample.batching_ms = batching_ms;
        sample.tracking_ms = cx.config.overhead.flow_base_ms + self.track(cx);
        RegularOutput {
            latency_ms,
            probes,
            sample,
        }
    }

    /// Stage 1: flow-predicts tracks and shadows (the flow was estimated
    /// into the worker's scratch arena at observe).
    fn predict(&mut self, cx: &RegularFrame<'_>) {
        let flow = &self.scratch.flow;
        self.tracker.predict(flow);
        if cx.config.algorithm == Algorithm::Balb {
            let frame = self.frame;
            self.shadows.retain(|_, s| {
                let moved = s
                    .bbox
                    .translated(flow.displacement_at(s.bbox.center()).displacement);
                match moved.clamped_to(frame) {
                    Some(c) if c.area() > 0.25 * s.bbox.area() => {
                        s.bbox = moved;
                        true
                    }
                    _ => false,
                }
            });
        }
        span_into(
            self.trace.as_mut(),
            Stage::Flow,
            cx.config.overhead.flow_base_ms,
            self.tracker.tracks().len(),
        );
    }

    /// Stage 2, the distributed stage (measured): scans the shadows against
    /// the frame-start assignment and seeds a track for every object this
    /// camera takes over. Returns the measured cost in milliseconds.
    ///
    /// A takeover needs the object to have left *every* assigned camera's
    /// view (per the synchronized pair models) for [`TAKEOVER_HYSTERESIS`]
    /// frames, and this camera to own the cell where the object now is. A
    /// camera without a mask (rejoined but not yet resynced) skips the
    /// scan; its shadows are empty anyway.
    fn takeover_scan(&mut self, cx: &RegularFrame<'_>) -> f64 {
        let started = cx.config.measured_overheads.then(Instant::now);
        if let (Algorithm::Balb, Some(mask)) = (cx.config.algorithm, self.mask.as_ref()) {
            let trained = cx.trained.expect("BALB trains association");
            let i = self.index;
            scan_takeovers_into(
                &mut self.shadows,
                TAKEOVER_HYSTERESIS,
                |g, bbox| {
                    let owners = &cx.assignment[g];
                    if owners.contains(&i) {
                        ShadowVerdict::OwnedHere
                    } else if owners
                        .iter()
                        .all(|&owner| !trained.is_visible(i, owner, bbox))
                    {
                        ShadowVerdict::Gone
                    } else {
                        ShadowVerdict::Visible
                    }
                },
                |bbox| mask.is_responsible_for(bbox),
                self.trace.as_mut(),
                &mut self.scratch.takeover_seeds,
            );
            for &(g, bbox) in &self.scratch.takeover_seeds {
                let id = self.tracker.seed(bbox, None);
                self.track_global.insert(id, g);
            }
        }
        started.map_or(0.0, |s| s.elapsed().as_secs_f64() * 1e3)
    }

    /// Stage 3: slices one crop per live track into the scratch task
    /// buffer (new-region probes append to it). Pure geometry with negligible
    /// modeled cost: the span witnesses the crop count and stage order.
    fn slice(&mut self) {
        slice_regions_into(self.tracker.tracks(), self.frame, &mut self.scratch.tasks);
        span_into(
            self.trace.as_mut(),
            Stage::Slice,
            0.0,
            self.scratch.tasks.len(),
        );
    }

    /// Stage 4, new-region probing: queues a crop for every moving cluster
    /// that no track or shadow explains and that this camera is responsible
    /// for. Returns the number of probes queued.
    fn probe(&mut self, cx: &RegularFrame<'_>) -> usize {
        if !cx.config.algorithm.probes_new_regions() {
            return 0;
        }
        let i = self.index;
        let s = &mut self.scratch;
        s.predicted.clear();
        s.predicted
            .extend(self.tracker.tracks().iter().map(|t| t.bbox));
        if cx.config.algorithm == Algorithm::Balb {
            s.predicted.extend(self.shadows.values().map(|s| s.bbox));
        }
        s.regions
            .find_into(s.flow.moving_clusters(), &s.predicted, 0.5, &mut s.fresh);
        let mut probes = 0;
        for region in &s.fresh {
            let responsible = match cx.config.algorithm {
                Algorithm::BalbInd => true,
                // No mask (awaiting resync) ⇒ not responsible for
                // anything new.
                Algorithm::Balb => self
                    .mask
                    .as_ref()
                    .is_some_and(|mask| mask.is_responsible_for(region)),
                Algorithm::StaticPartition => cx.static_masks[i].is_responsible_for(region),
                Algorithm::StaticPartitionOracle => {
                    // The oracle SP allocation is geometric; check the
                    // world region behind the cluster.
                    let partition = cx.partition.expect("oracle SP has a partition");
                    self.view.iter().any(|g| {
                        g.bbox.coverage_by(region) >= 0.35
                            && cx
                                .world
                                .objects()
                                .iter()
                                .find(|o| o.id == g.id)
                                .is_some_and(|o| {
                                    partition.owner(cx.world.position_of(o)) == Some(i)
                                })
                    })
                }
                Algorithm::Full | Algorithm::BalbCen => false,
            };
            if responsible {
                if let Some(task) = RegionTask::for_region(*region, self.frame) {
                    s.tasks.push(task);
                    probes += 1;
                }
            }
        }
        probes
    }

    /// Stage 5: runs the (simulated) DNN on every crop; batching decides
    /// the latency. Returns `(DNN latency, batch-assembly cost)` in
    /// milliseconds.
    fn inspect(&mut self, cx: &RegularFrame<'_>) -> (f64, f64) {
        let profile = &cx.profiles[self.index];
        let s = &mut self.scratch;
        let counts = SizeCounts::from_sizes(s.tasks.iter().map(|t| t.size));
        let batches: usize = counts.batches(profile).iter().sum();
        let batching_ms = cx.config.overhead.batch_per_crop_ms * s.tasks.len() as f64
            + cx.config.overhead.batch_per_batch_ms * batches as f64;
        let latency_ms = counts.latency_ms(profile);
        span_into(self.trace.as_mut(), Stage::Batch, batching_ms, batches);
        span_into(
            self.trace.as_mut(),
            Stage::Detect,
            latency_ms,
            counts.total(),
        );
        for task in &s.tasks {
            self.detector.detect_region_into(
                &task.region,
                task.size,
                &self.view,
                &mut self.rng,
                &mut s.detections,
            );
        }
        // Deduplicate: neighbouring crops can both cover one object.
        // (Stable sort: equal ids keep insertion order, so dedup keeps the
        // first crop's detection.)
        s.detections.sort_by_key(|a| a.truth_id);
        s.detections
            .dedup_by(|a, b| a.truth_id.is_some() && a.truth_id == b.truth_id);
        (latency_ms, batching_ms)
    }

    /// Stage 6: track association and lifecycle. Returns the modeled
    /// per-object tracking cost in milliseconds.
    fn track(&mut self, cx: &RegularFrame<'_>) -> f64 {
        let s = &mut self.scratch;
        self.tracker.associate_into(&s.detections, &mut s.outcome);
        if cx.config.algorithm.probes_new_regions() {
            for &di in &s.outcome.unmatched_detections {
                let d = &s.detections[di];
                self.tracker.seed(d.bbox, d.truth_id);
            }
        }
        for id in self.tracker.prune() {
            self.track_global.remove(&id);
        }
        let mut tracked = self.tracker.tracks().len();
        if cx.config.algorithm == Algorithm::Balb {
            tracked += self.shadows.len();
        }
        let tracking_ms = cx.config.overhead.tracking_per_object_ms * tracked as f64;
        span_into(self.trace.as_mut(), Stage::Track, tracking_ms, tracked);
        tracking_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

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
}
