//! One adapter per layer entry point: the public function the default
//! `mvs run` / `mvs serve` path calls for that job, and nothing else — no
//! `_traced`, `_threaded`, `_pipelined`, `_profiled` or `mvs_vision::scalar`
//! variant. The probes call the program only through these, so when an API
//! is folded later, the follow-up here is one line.

use mvs_assoc::GlobalObject;
use mvs_core::{
    balb_central, balb_sharded, scan_takeovers_into, BalbSchedule, BalbSolver, CameraId,
    CameraInfo, CameraMask, MvsProblem, ObjectInfo, OverlapGraph, ShadowTrack, ShadowVerdict,
    ShardPlan,
};
use mvs_geometry::{BBox, BBoxSoA, FrameDims};
use mvs_sim::{
    CameraModel, CorrespondenceData, IngestLane, MaskPrecompute, Scenario, ServeConfig, ServeLoop,
    ServeSnapshot, TrainedAssociation, World,
};
use mvs_vision::{
    slice_regions_into, Detection, FlowField, FlowTracker, GroundTruthObject, LatencyProfile,
    NewRegionFinder, RegionTask, SimulatedDetector, SizeCounts, Track,
};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

// --- mvs-sim: world ---------------------------------------------------------

pub fn world_step(world: &mut World, dt_s: f64, rng: &mut ChaCha8Rng) {
    world.step(dt_s, rng);
}

pub fn observe(camera: &CameraModel, world: &World, occlusion: f64) -> Vec<GroundTruthObject> {
    camera.visible_objects(world, occlusion)
}

// --- mvs-vision -------------------------------------------------------------

pub fn detect_full_frame(
    detector: &SimulatedDetector,
    view: &[GroundTruthObject],
    rng: &mut ChaCha8Rng,
) -> Vec<Detection> {
    detector.detect_full_frame(view, rng)
}

pub fn detect_region(
    detector: &SimulatedDetector,
    task: &RegionTask,
    view: &[GroundTruthObject],
    rng: &mut ChaCha8Rng,
) -> Vec<Detection> {
    detector.detect_region(&task.region, task.size, view, rng)
}

pub fn flow(
    field: &mut FlowField,
    prev: &[GroundTruthObject],
    curr: &[GroundTruthObject],
    noise_px: f64,
    rng: &mut ChaCha8Rng,
) {
    field.estimate_into(prev, curr, noise_px, rng);
}

pub fn track_predict(tracker: &mut FlowTracker, flow: &FlowField) {
    tracker.predict(flow);
}

/// Detection↔track matching, then the lifecycle the frame loop applies:
/// unmatched detections seed tracks, stale tracks are pruned.
pub fn track_associate(tracker: &mut FlowTracker, detections: &[Detection]) {
    let outcome = tracker.associate(detections);
    for &d in &outcome.unmatched_detections {
        tracker.seed(detections[d].bbox, detections[d].truth_id);
    }
    tracker.prune();
}

pub fn slice(tracks: &[Track], frame: FrameDims, out: &mut Vec<RegionTask>) {
    slice_regions_into(tracks, frame, out);
}

pub fn new_regions(
    finder: &mut NewRegionFinder,
    clusters: &[BBox],
    predicted: &[BBox],
    out: &mut Vec<BBox>,
) {
    finder.find_into(clusters, predicted, 0.5, out);
}

/// The `SizeCounts` fold of one camera's crop list: (batches, DNN latency ms).
pub fn batch(tasks: &[RegionTask], profile: &LatencyProfile) -> (usize, f64) {
    let counts = SizeCounts::from_sizes(tasks.iter().map(|t| t.size));
    let batches = counts.batches(profile).iter().sum();
    (batches, counts.latency_ms(profile))
}

// --- mvs-geometry -----------------------------------------------------------

pub fn iou_matrix(a: &BBoxSoA, b: &BBoxSoA, out: &mut Vec<f64>) {
    a.iou_matrix_into(b, out);
}

pub fn covered_mask(a: &BBoxSoA, covers: &BBoxSoA, out: &mut Vec<bool>) {
    a.covered_mask_into(covers, 0.5, out);
}

// --- mvs-ml (through the pair models) and mvs-assoc ---------------------------

/// One KNN classify-then-regress query: where `bbox` on `src` lands on `dst`.
pub fn knn_query(
    trained: &TrainedAssociation,
    src: usize,
    dst: usize,
    bbox: &BBox,
) -> Option<BBox> {
    trained.map_box(src, dst, bbox)
}

pub fn associate(trained: &TrainedAssociation, boxes: &[Vec<BBox>]) -> Vec<GlobalObject> {
    trained.engine.associate(boxes)
}

// --- mvs-core -----------------------------------------------------------------

pub fn problem_build(cameras: Vec<CameraInfo>, objects: Vec<ObjectInfo>) -> MvsProblem {
    MvsProblem::new(cameras, objects).expect("the replay builds valid instances")
}

pub fn solve_cold(problem: &MvsProblem) -> BalbSchedule {
    balb_central(problem)
}

/// The persistent solver over consecutive key steps; returns whether this
/// solve took the warm path.
pub fn solve_warm(solver: &mut BalbSolver, problem: &MvsProblem) -> bool {
    solver.solve(problem);
    solver.last_solve_was_warm()
}

/// Plan construction plus the serial sharded solve; returns the shard count.
pub fn solve_sharded(problem: &MvsProblem) -> (BalbSchedule, usize) {
    let plan = ShardPlan::from_components(&OverlapGraph::from_problem(problem));
    (balb_sharded(problem, &plan), plan.num_shards())
}

pub fn takeover_scan<V, R>(
    shadows: &mut BTreeMap<usize, ShadowTrack>,
    hysteresis: u32,
    verdict: V,
    responsible: R,
    seeds: &mut Vec<(usize, BBox)>,
) where
    V: FnMut(usize, &BBox) -> ShadowVerdict,
    R: FnMut(&BBox) -> bool,
{
    scan_takeovers_into(shadows, hysteresis, verdict, responsible, None, seeds);
}

// --- mvs-sim: masks and correspondence ---------------------------------------

pub fn mask_rebuild(
    precompute: &MaskPrecompute,
    camera: usize,
    priority: &[CameraId],
    slot: &mut Option<CameraMask>,
) {
    precompute.mask_for_into(camera, priority, slot);
}

pub fn mask_precompute(
    frames: &[FrameDims],
    data: &CorrespondenceData,
    cell_px: u32,
) -> MaskPrecompute {
    MaskPrecompute::build(frames, data, cell_px)
}

pub fn correspond_collect(
    scenario: &Scenario,
    train_s: f64,
    rng: &mut ChaCha8Rng,
) -> CorrespondenceData {
    CorrespondenceData::collect(scenario, train_s, 2, rng)
}

pub fn correspond_train(
    cameras: usize,
    data: &CorrespondenceData,
    k: usize,
    iou: f64,
) -> TrainedAssociation {
    TrainedAssociation::train(cameras, data, k, iou).expect("scenario data trains")
}

// --- mvs-exec -------------------------------------------------------------------

/// An empty-payload fan-out: what one dispatch plus join costs.
pub fn dispatch(items: &[u32], lanes: usize) -> usize {
    mvs_exec::pool().par_map(items, lanes, |_| ()).len()
}

// --- mvs-sim: serve -----------------------------------------------------------------

pub fn lane_op(lane: &mut IngestLane, frame: u64) -> Option<u64> {
    lane.offer(frame);
    lane.take()
}

pub fn serve_snapshot(serve: &ServeLoop) -> ServeSnapshot {
    serve.snapshot()
}

pub fn serve_recover(config: &ServeConfig, snapshot: &ServeSnapshot) -> ServeLoop {
    ServeLoop::recover(config, snapshot, snapshot.taken_at_us())
        .expect("a snapshot recovers under the config that took it")
}
