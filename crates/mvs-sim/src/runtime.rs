//! The end-to-end frame-by-frame pipeline (Fig. 5).
//!
//! Drives a [`Scenario`] through the full system: key frames run full-frame
//! inspection, upload object lists to the central scheduler, associate
//! across cameras, and run the BALB central stage; regular frames run
//! optical-flow tracking, tracking-based slicing, batched partial-frame
//! inspection, and the BALB distributed stage (camera masks, new-object
//! probing, takeover). The same runtime executes every baseline of the
//! paper's evaluation, selected by [`Algorithm`].
//!
//! # Threading model
//!
//! Each camera's per-frame work (view extraction, optical flow, detection,
//! tracking, its distributed-stage scan) runs on a [`CameraWorker`] that
//! owns all of that camera's mutable state, including a private
//! deterministic RNG stream. Workers fan out across up to
//! [`PipelineConfig::threads`] scoped threads and their outputs are merged
//! serially in camera-index order, so a run's results are bitwise
//! identical at any thread count. Cross-camera coordination (association,
//! the BALB central stage, takeover bookkeeping) stays on the calling
//! thread.

use crate::correspond::{CorrespondenceData, TrainedAssociation};
use crate::faults::{FaultModel, FaultState};
use crate::masks::{MaskPrecompute, StaticWorldPartition};
use crate::messages::{assignment_len, upload_len};
use crate::network::NetworkModel;
use crate::scenario::Scenario;
use crate::worker::{CameraWorker, FrameScratch, RegularFrame};
use crate::world::World;
use mvs_assoc::{AssociationScratch, GlobalObject};
use mvs_core::{
    BalbSolver, CameraId, CameraInfo, CameraMask, MvsProblem, ObjectId, ObjectInfo, ShadowTrack,
};
use mvs_exec::{pool, resolve_threads};
use mvs_geometry::{BBox, SizeClass};
use mvs_metrics::{
    DegradationCounters, LatencySeries, OverheadBreakdown, OverheadSample, RecallAccumulator,
};
use mvs_trace::{span_into, Stage, Trace, TraceRecorder};
use mvs_vision::{
    Detection, DetectionModel, FlowTracker, GroundTruthObject, LatencyProfile, SimulatedDetector,
    TrackerConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Which scheduling algorithm the pipeline runs (the paper's comparison
/// set, Sec. IV-C/D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Full-frame detection on every frame of every camera.
    Full,
    /// Per-camera BALB machinery without cross-camera coordination.
    BalbInd,
    /// BALB central stage only (no distributed stage).
    BalbCen,
    /// The complete BALB system.
    Balb,
    /// Offline static spatial partitioning: the paper's SP baseline. Uses
    /// the same (imperfect) cross-camera models as BALB to build cell
    /// masks, but with a fixed processing-speed priority instead of the
    /// load-aware latency order — the allocation never reacts to load.
    StaticPartition,
    /// Ablation-only SP variant granted oracle world geometry (true view
    /// polygons and ground-truth object positions) instead of the learned
    /// models; isolates how much of SP's deficit is model error vs.
    /// load-obliviousness.
    StaticPartitionOracle,
}

impl Algorithm {
    /// All algorithms in presentation order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Full,
        Algorithm::BalbInd,
        Algorithm::BalbCen,
        Algorithm::Balb,
        Algorithm::StaticPartition,
        Algorithm::StaticPartitionOracle,
    ];

    /// Whether key frames upload to the central scheduler and run
    /// Algorithm 1 (every other algorithm schedules each camera alone).
    fn has_central_stage(self) -> bool {
        matches!(self, Algorithm::BalbCen | Algorithm::Balb)
    }

    /// Whether regular frames inspect moving regions no track explains.
    pub(crate) fn probes_new_regions(self) -> bool {
        !matches!(self, Algorithm::Full | Algorithm::BalbCen)
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::Full => write!(f, "Full"),
            Algorithm::BalbInd => write!(f, "BALB-Ind"),
            Algorithm::BalbCen => write!(f, "BALB-Cen"),
            Algorithm::Balb => write!(f, "BALB"),
            Algorithm::StaticPartition => write!(f, "SP"),
            Algorithm::StaticPartitionOracle => write!(f, "SP-Oracle"),
        }
    }
}

/// Modeled costs of pipeline components we simulate rather than run (the
/// optical flow and GPU batch assembly of Table II). The scheduler itself
/// (central + distributed stages) is *measured*, not modeled — unless
/// [`PipelineConfig::measured_overheads`] is off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadModel {
    /// Fixed per-frame cost of dense optical flow on reduced resolution.
    pub flow_base_ms: f64,
    /// Additional tracking cost per live track.
    pub tracking_per_object_ms: f64,
    /// Batch-assembly cost per crop (extract + resize + pack).
    pub batch_per_crop_ms: f64,
    /// Batch-assembly cost per launched batch.
    pub batch_per_batch_ms: f64,
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel {
            flow_base_ms: 9.0,
            tracking_per_object_ms: 1.1,
            batch_per_crop_ms: 0.9,
            batch_per_batch_ms: 2.2,
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Scheduling algorithm under test.
    pub algorithm: Algorithm,
    /// Scheduling-horizon length `T` in frames (key frame + `T-1` regular).
    pub horizon: usize,
    /// Detector quality model.
    pub detection: DetectionModel,
    /// Optical-flow estimation noise (σ, pixels).
    pub flow_noise_px: f64,
    /// Neighbours for the association KNN models.
    pub assoc_k: usize,
    /// IoU threshold for cross-camera match acceptance.
    pub assoc_iou: f64,
    /// Cell size of the distributed-stage masks, pixels.
    pub grid_cell_px: u32,
    /// Seconds of simulation used to train the association models (the
    /// "first half" of the paper's protocol).
    pub train_s: f64,
    /// Seconds of simulation evaluated (the "second half").
    pub eval_s: f64,
    /// RNG seed for the whole run.
    pub seed: u64,
    /// Force batch limits to one (ablation: batching contribution).
    pub disable_batching: bool,
    /// Number of cameras assigned per object (1 = the paper's BALB; ≥2 =
    /// the Sec. V redundant-assignment extension for occlusion
    /// robustness). Only affects [`Algorithm::Balb`] / [`Algorithm::BalbCen`].
    pub redundancy: usize,
    /// Per-camera processing lag in frames (Sec. V, "Imperfect
    /// synchronization"): camera `i` processes the scene as it looked
    /// `camera_lag_frames[i]` frames ago. Empty = perfectly synchronized.
    /// Missing entries default to zero.
    pub camera_lag_frames: Vec<usize>,
    /// Worker threads for the per-camera stages. `0` = auto: the
    /// `MVS_THREADS` environment variable if set (it must then be a
    /// positive integer), else the machine's available parallelism. Results are identical at
    /// any value.
    pub threads: usize,
    /// When true (the default), the central- and distributed-stage
    /// scheduler costs are measured wall-clock, like the paper's Table II.
    /// When false they are charged as zero, which makes the whole
    /// [`PipelineResult`] a pure function of `(scenario, config)` — useful
    /// for bitwise reproducibility checks.
    pub measured_overheads: bool,
    /// Per-camera tracker configuration.
    pub tracker: TrackerConfig,
    /// Camera↔scheduler link model.
    pub network: NetworkModel,
    /// Modeled component costs for Table II.
    pub overhead: OverheadModel,
    /// Fault injection: camera dropout/rejoin and key-frame message loss.
    /// [`FaultModel::none`] (the default) makes the run bitwise identical
    /// to the fault-free pipeline.
    pub faults: FaultModel,
    /// Inert: nothing reads it. The per-component key-frame solve it
    /// selected is gone — every fully-synced single-owner horizon is one
    /// pass on the pipeline's [`BalbSolver`] — and any value, or none,
    /// deserializes to the same run. It is still a field only because
    /// `bench-e2e/src/workload.rs` spells it; the `benchmark`-class PR that
    /// stops naming it (ROADMAP item 1) removes it.
    #[doc(hidden)]
    #[serde(default)]
    pub shard_solver: bool,
    /// Inert: nothing reads it. The solve/uplink overlap it selected is
    /// gone — a key frame is one sequential pass — and any value, or none,
    /// deserializes to the same run. It is still a field only because
    /// `bench-e2e/src/workload.rs` spells it; the `benchmark`-class PR that
    /// stops naming it (ROADMAP item 1) removes it.
    #[doc(hidden)]
    #[serde(default)]
    pub pipelined: bool,
}

impl PipelineConfig {
    /// The paper's operating point for a given algorithm: `T = 10` at
    /// 10 FPS, KNN `k = 3`.
    pub fn paper_default(algorithm: Algorithm) -> Self {
        PipelineConfig {
            algorithm,
            horizon: 10,
            detection: DetectionModel::default(),
            flow_noise_px: 1.0,
            assoc_k: 3,
            assoc_iou: 0.15,
            grid_cell_px: 64,
            train_s: 90.0,
            eval_s: 90.0,
            seed: 17,
            disable_batching: false,
            redundancy: 1,
            camera_lag_frames: Vec::new(),
            threads: 0,
            measured_overheads: true,
            tracker: TrackerConfig::default(),
            network: NetworkModel::default(),
            overhead: OverheadModel::default(),
            faults: FaultModel::none(),
            shard_solver: false,
            pipelined: false,
        }
    }
}

/// Distributed-stage activity counters (diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Key frames executed.
    pub key_frames: usize,
    /// Takeovers performed by the distributed stage.
    pub takeovers: usize,
    /// New-region probes issued at regular frames.
    pub probes: usize,
    /// Capture-clock frames skipped without processing (serving front-end
    /// drops; always zero for [`run_pipeline`], which processes every
    /// frame).
    #[serde(default)]
    pub skipped_frames: usize,
}

/// Results of one pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineResult {
    /// The algorithm that produced these numbers.
    pub algorithm: Algorithm,
    /// Evaluated frames.
    pub frames: usize,
    /// Object recall over the evaluation (Fig. 12 metric).
    pub recall: f64,
    /// Mean per-frame DNN latency on the slowest camera (Fig. 13 metric).
    pub mean_latency_ms: f64,
    /// Full per-frame system-latency series.
    pub latency: LatencySeries,
    /// Mean per-frame DNN latency per camera.
    pub per_camera_mean_ms: Vec<f64>,
    /// Full per-frame DNN latency series per camera (one inner vector per
    /// camera, one sample per evaluated frame) — input to the
    /// response-delay replay of [`replay_response`](crate::replay_response).
    pub per_camera_series_ms: Vec<Vec<f64>>,
    /// Mean per-frame overheads (Table II).
    pub overhead_mean: OverheadSample,
    /// Distributed-stage activity counters.
    pub stats: PipelineStats,
    /// Graceful-degradation bookkeeping (all zeros for fault-free runs).
    pub degradation: DegradationCounters,
}

/// Runs the pipeline for `config` on `scenario`.
///
/// Deterministic for a fixed `(scenario, config)` pair, independent of
/// [`PipelineConfig::threads`]; with
/// [`PipelineConfig::measured_overheads`] off the result is additionally
/// bitwise reproducible across runs and machines.
///
/// # Panics
///
/// Panics on nonsensical configuration (zero horizon, empty scenario) and
/// if association-model training fails (cannot happen for the built-in
/// scenarios, whose cameras always see traffic during training).
pub fn run_pipeline(scenario: &Scenario, config: &PipelineConfig) -> PipelineResult {
    run_frames(TenantPipeline::new(scenario, config)).0
}

/// Runs the pipeline with structured tracing enabled and returns the
/// per-stage span stream alongside the normal result.
///
/// The [`Trace`] timestamps live on the sim clock (frame `f` starts at
/// `f / fps` seconds) and span durations are the *modeled* stage costs, so
/// the trace — like the result — is a deterministic function of
/// `(scenario, config)` at any thread count. Stages whose cost the
/// simulator measures wall-clock (central solve, distributed scan) appear
/// with duration zero; with [`PipelineConfig::measured_overheads`] off the
/// trace is additionally bitwise reproducible across machines, which is
/// what the golden-trace suite snapshots.
///
/// # Panics
///
/// Same conditions as [`run_pipeline`].
pub fn run_pipeline_traced(
    scenario: &Scenario,
    config: &PipelineConfig,
) -> (PipelineResult, Trace) {
    let mut pipeline = TenantPipeline::new(scenario, config);
    pipeline.enable_tracing();
    let (result, trace) = run_frames(pipeline);
    (result, trace.expect("tracing was enabled"))
}

/// The closed run loop: steps every frame of the configured evaluation
/// window, then finalizes.
fn run_frames(mut pipeline: TenantPipeline) -> (PipelineResult, Option<Trace>) {
    let frames = (pipeline.inner.deployment.config.eval_s * pipeline.fps()).round() as usize;
    for _ in 0..frames {
        pipeline.step();
    }
    pipeline.finish()
}

/// The coordinator's counterpart of [`FrameScratch`]: the per-frame lists
/// and sets of the serial merge, and the key frame's round-trip and
/// association buffers. Cleared, never shrunk, so the coordinator side of a
/// steady-state frame allocates nothing that grows with the fleet.
#[derive(Debug, Default)]
struct CoordinatorScratch {
    /// Per-camera DNN latency of the current frame.
    latency: Vec<f64>,
    /// Per-camera overhead sample of the current frame.
    oh: Vec<OverheadSample>,
    /// Objects truly visible *now* to any camera, dead ones included (the
    /// recall denominator, so lost coverage degrades recall instead of
    /// shrinking the test).
    visible: HashSet<u64>,
    /// The subset of `visible` in front of at least one *alive* camera;
    /// filled only while some camera is dead.
    covered: HashSet<u64>,
    /// Objects detected by any camera in the current frame.
    detected: HashSet<u64>,
    /// Key-frame uplink / downlink deliveries per camera (`Some(k)` =
    /// delivered after `k` lost attempts) and who completed the round trip.
    up: Vec<Option<u32>>,
    down: Vec<Option<u32>>,
    synced: Vec<bool>,
    /// The synced cameras' uploaded boxes, input to association.
    boxes: Vec<Vec<BBox>>,
    /// Working memory of the association round.
    assoc: AssociationScratch,
}

/// Everything a pipeline run reads and never writes: the scenario and
/// configuration it serves, and what [`Deployment::build`] derived from the
/// two — device profiles, the trained cross-camera models, the coverage
/// precompute, SP's offline allocation, and the world as it stands after
/// the training segment and the warm-up, with the position those left the
/// world RNG stream at. The paper trains once, offline, per deployment
/// (Sec. II-C / IV) and only queries online; this is that "once".
///
/// A pipeline is started from a deployment ([`TenantPipeline::start`]) and
/// shares it through an [`Arc`]: any number of pipelines — one after the
/// other, or side by side — run from one deployment, each bitwise the run
/// a freshly built deployment would give, because a start clones the world
/// and the RNG position and everything else here is only read. The one
/// post-start reconfiguration, [`TenantPipeline::set_redundancy`], is
/// per-run state and never touches the deployment.
#[derive(Debug)]
pub struct Deployment {
    scenario: Scenario,
    config: PipelineConfig,
    /// Resolved worker-thread count for the per-camera stages.
    threads: usize,
    /// Device latency profile per camera.
    profiles: Vec<LatencyProfile>,
    trained: Option<TrainedAssociation>,
    precompute: Option<MaskPrecompute>,
    /// SP's fixed speed-priority mask per camera (empty for every other
    /// algorithm).
    static_masks: Vec<CameraMask>,
    partition: Option<StaticWorldPartition>,
    /// The world after the training segment and the 30 s warm-up; a run
    /// steps a clone of it.
    world: World,
    /// Where training and warm-up left the world stream (stream 0 of the
    /// run seed); a run continues a clone of it.
    rng: ChaCha8Rng,
    /// Each camera's view of `world`: the first frame's flow reference.
    first_views: Vec<Vec<GroundTruthObject>>,
}

impl Deployment {
    /// Trains the association models on the "first half", precomputes the
    /// coverage masks and warms the world — the whole offline phase of
    /// [`run_pipeline`], every draw in its order.
    ///
    /// # Panics
    ///
    /// Same conditions as [`run_pipeline`].
    pub fn build(scenario: &Scenario, config: &PipelineConfig) -> Deployment {
        assert!(config.horizon > 0, "horizon must be positive");
        let m = scenario.num_cameras();
        assert!(m > 0, "scenario has no cameras");
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let profiles: Vec<LatencyProfile> = scenario
            .devices
            .iter()
            .map(|&d| {
                let p = LatencyProfile::for_device(d);
                if config.disable_batching {
                    p.without_batching()
                } else {
                    p
                }
            })
            .collect();

        // Train the association models on the "first half" (the training
        // segment advances the world RNG, exactly like a recorded prefix).
        let needs_assoc = matches!(
            config.algorithm,
            Algorithm::BalbCen | Algorithm::Balb | Algorithm::StaticPartition
        );
        let (trained, precompute) = if needs_assoc {
            let data = CorrespondenceData::collect(scenario, config.train_s, 2, &mut rng);
            let trained = TrainedAssociation::train(m, &data, config.assoc_k, config.assoc_iou)
                .expect("association models must train on scenario data");
            let precompute = matches!(
                config.algorithm,
                Algorithm::Balb | Algorithm::StaticPartition
            )
            .then(|| {
                let frames: Vec<_> = scenario.cameras.iter().map(|c| c.frame).collect();
                MaskPrecompute::build(&frames, &data, config.grid_cell_px)
            });
            (Some(trained), precompute)
        } else {
            (None, None)
        };
        // SP's offline allocation: overlap cells divided among covering
        // cameras in proportion to processing power, frozen for the run.
        let static_masks = if config.algorithm == Algorithm::StaticPartition {
            let weights: Vec<f64> = profiles.iter().map(|p| p.speed_score()).collect();
            let pre = precompute.as_ref().expect("SP precomputes coverage");
            pre.sp_masks(&weights)
        } else {
            Vec::new()
        };
        let partition = matches!(config.algorithm, Algorithm::StaticPartitionOracle).then(|| {
            StaticWorldPartition::new(
                scenario.cameras.iter().map(|c| c.view_polygon()).collect(),
                profiles.iter().map(|p| p.speed_score()).collect(),
            )
        });

        let world = scenario.warmed_world(30.0, &mut rng);
        let first_views = scenario
            .cameras
            .iter()
            .map(|c| c.visible_objects(&world, scenario.occlusion_threshold))
            .collect();
        Deployment {
            scenario: scenario.clone(),
            config: config.clone(),
            threads: resolve_threads(config.threads).min(m),
            profiles,
            trained,
            precompute,
            static_masks,
            partition,
            world,
            rng,
            first_views,
        }
    }

    /// The MVS instance of a key frame: every camera of the deployment
    /// with its device profile, and one object per global object, sized —
    /// crop margin included — on each camera that uploaded it.
    fn mvs_instance(&self, boxes: &[Vec<BBox>], globals: &[GlobalObject]) -> MvsProblem {
        let cameras = self.profiles.iter().enumerate().map(|(i, p)| CameraInfo {
            id: CameraId(i),
            profile: p.clone(),
        });
        let margin = 1.0 + self.config.tracker.margin_frac;
        let objects = globals.iter().enumerate().map(|(g, go)| {
            let sizes = go.members.iter().map(|&(cam, det)| {
                let b = boxes[cam][det];
                let size = SizeClass::quantize(b.width() * margin, b.height() * margin);
                (CameraId(cam), size)
            });
            ObjectInfo {
                id: ObjectId(g),
                sizes: sizes.collect(),
            }
        });
        MvsProblem::new(cameras.collect(), objects.collect())
            .expect("pipeline builds valid instances")
    }
}

struct Pipeline {
    /// What the run reads and never writes — scenario, configuration,
    /// models, masks — shared with every other run of the deployment.
    deployment: Arc<Deployment>,
    /// Cameras assigned per object: [`PipelineConfig::redundancy`] until
    /// [`TenantPipeline::set_redundancy`] says otherwise.
    redundancy: usize,
    /// World/coordinator RNG: stream 0 of the run seed, continued from
    /// where the deployment's training and warm-up left it. Camera draws
    /// live on the per-worker streams.
    rng: ChaCha8Rng,
    world: World,
    /// Fault schedule: dedicated RNG stream, stepped at key frames on the
    /// coordinator thread only.
    faults: FaultState,
    /// Owner cameras per global object of the current horizon (one entry
    /// with redundancy 1; more under the redundant-assignment extension).
    assignment: Vec<Vec<usize>>,
    /// The central stage's solver: its buffers are reused across horizons.
    solver: BalbSolver,
    /// Reused per-frame coordinator buffers (see [`CoordinatorScratch`]).
    scratch: CoordinatorScratch,
    /// Amortized central-stage cost charged to every frame of the horizon.
    central_per_frame_ms: f64,
    /// Structured-tracing recorder; `None` (the default) keeps every
    /// span-recording site a no-op.
    tracer: Option<TraceRecorder>,
    /// Frames actually processed so far (skipped frames excluded).
    frames_done: usize,
    // Outputs.
    recall: RecallAccumulator,
    latency: LatencySeries,
    per_camera: Vec<Vec<f64>>,
    overhead: OverheadBreakdown,
    stats: PipelineStats,
    degradation: DegradationCounters,
}

impl Pipeline {
    /// Starts a run of `deployment`: the coordinator state and the
    /// per-camera workers it steps (owned side by side by
    /// [`TenantPipeline`], so a frame can borrow both mutably), each in
    /// the state a freshly built deployment hands its first run.
    fn start(deployment: Arc<Deployment>) -> (Self, Vec<CameraWorker>) {
        let config = &deployment.config;
        let m = deployment.scenario.num_cameras();
        let workers: Vec<CameraWorker> = (0..m)
            .map(|i| {
                let frame = deployment.scenario.cameras[i].frame;
                CameraWorker {
                    index: i,
                    frame,
                    lag: config.camera_lag_frames.get(i).copied().unwrap_or(0),
                    detector: SimulatedDetector::new(config.detection, frame),
                    tracker: FlowTracker::new(config.tracker, frame),
                    rng: CameraWorker::stream_rng(config.seed, i),
                    view: Vec::new(),
                    prev_view: deployment.first_views[i].clone(),
                    truth: Vec::new(),
                    history: VecDeque::new(),
                    shadows: BTreeMap::new(),
                    track_global: HashMap::new(),
                    mask: None,
                    trace: None,
                    scratch: FrameScratch::default(),
                }
            })
            .collect();
        let pipeline = Pipeline {
            redundancy: config.redundancy,
            rng: deployment.rng.clone(),
            world: deployment.world.clone(),
            faults: FaultState::new(config.faults, config.seed, m),
            assignment: Vec::new(),
            solver: BalbSolver::new(),
            scratch: CoordinatorScratch::default(),
            central_per_frame_ms: 0.0,
            tracer: None,
            frames_done: 0,
            recall: RecallAccumulator::new(),
            latency: LatencySeries::new(),
            per_camera: vec![Vec::new(); m],
            overhead: OverheadBreakdown::new(),
            stats: PipelineStats::default(),
            degradation: DegradationCounters::default(),
            deployment,
        };
        (pipeline, workers)
    }

    /// Processes one frame of the capture clock: steps the world, runs the
    /// per-camera stages and cross-camera coordination for `frame`, and
    /// records every output series. Returns the frame's modeled system
    /// latency (slowest camera, may be non-finite on a poisoned overhead
    /// model — already counted in [`DegradationCounters::rejected_samples`]
    /// by then).
    ///
    /// `frame` is the capture index: `frame % horizon == 0` makes this a
    /// key frame. The serving front-end may skip capture indices (see
    /// [`Pipeline::skip_frame`]); the cadence then degrades exactly like a
    /// lost key-frame round trip — trackers coast until the next processed
    /// key frame.
    fn step_frame(&mut self, workers: &mut [CameraWorker], frame: usize) -> f64 {
        let dt = self.deployment.scenario.frame_dt_s();
        self.world.step(dt, &mut self.rng);
        if let Some(t) = &mut self.tracer {
            let start_us = t.begin_frame(frame);
            for w in workers.iter_mut() {
                if let Some(buf) = &mut w.trace {
                    buf.begin_frame(frame as u32, start_us);
                }
            }
        }
        let is_key = frame.is_multiple_of(self.deployment.config.horizon);
        if is_key {
            self.step_faults(workers);
        }
        self.observe(workers);
        if !self.faults.all_alive() {
            // Coverage irrecoverably lost to dead cameras: objects no
            // surviving camera can see still count against recall.
            let CoordinatorScratch {
                visible, covered, ..
            } = &self.scratch;
            self.degradation.degraded_frames += 1;
            self.degradation.coverage_lost_objects +=
                visible.iter().filter(|id| !covered.contains(id)).count() as u64;
        }

        // Each fills this frame's `latency`, `detected` and `oh`.
        match self.deployment.config.algorithm {
            Algorithm::Full => self.full_frame(workers),
            _ if is_key => self.key_frame(workers),
            _ => self.regular_frame(workers),
        }
        let CoordinatorScratch {
            latency,
            oh,
            visible,
            detected,
            ..
        } = &self.scratch;

        // Recall is judged against what is truly in front of the
        // cameras *now*, which is what makes lag hurt.
        self.recall
            .record_against(visible.iter().copied(), detected);
        let system = latency.iter().fold(0.0, |a: f64, &b| a.max(b));
        if system.is_finite() {
            self.latency.push(system);
        } else {
            self.degradation.rejected_samples += 1;
        }
        for (series, &l) in self.per_camera.iter_mut().zip(latency) {
            if l.is_finite() {
                series.push(l);
            } else {
                self.degradation.rejected_samples += 1;
            }
        }
        self.overhead.record_frame(oh);
        for w in workers.iter_mut() {
            std::mem::swap(&mut w.prev_view, &mut w.view);
        }
        if let Some(t) = &mut self.tracer {
            t.end_frame(workers.iter_mut().filter_map(|w| w.trace.as_mut()));
        }
        self.frames_done += 1;
        system
    }

    /// Skips one frame of the capture clock without processing it: the
    /// world advances (real time passed) but no camera observes, detects,
    /// or draws from its RNG stream, and no series records a sample.
    ///
    /// This is the serving front-end's drop semantics (a frame displaced
    /// from a depth-1 ingest lane was never delivered to the pipeline).
    /// The next processed frame sees the moved world through the stale
    /// `prev_view`, so its optical flow spans the gap — exactly the larger
    /// displacement a real camera would measure across dropped frames.
    fn skip_frame(&mut self) {
        let dt = self.deployment.scenario.frame_dt_s();
        self.world.step(dt, &mut self.rng);
        self.stats.skipped_frames += 1;
    }

    /// Finalizes every output series into a [`PipelineResult`].
    fn finish(self) -> (PipelineResult, Option<Trace>) {
        let per_camera_mean_ms = self
            .per_camera
            .iter()
            .map(|s| s.iter().sum::<f64>() / s.len().max(1) as f64)
            .collect();
        let result = PipelineResult {
            algorithm: self.deployment.config.algorithm,
            frames: self.frames_done,
            recall: self.recall.recall(),
            mean_latency_ms: self.latency.mean_ms(),
            latency: self.latency,
            per_camera_mean_ms,
            per_camera_series_ms: self.per_camera,
            overhead_mean: self.overhead.mean(),
            stats: self.stats,
            degradation: self.degradation,
        };
        (result, self.tracer.map(TraceRecorder::finish))
    }

    /// Advances the fault schedule at a key frame: draws this horizon's
    /// dropout/rejoin decisions and wipes the cameras that just went dark.
    fn step_faults(&mut self, workers: &mut [CameraWorker]) {
        let events = self.faults.step_key_frame();
        self.degradation.dropouts += events.dropped.len() as u64;
        self.degradation.rejoins += events.rejoined.len() as u64;
        for &i in &events.dropped {
            workers[i].wipe();
        }
        if let Some(t) = &mut self.tracer {
            t.coordinator().span(
                Stage::Fault,
                0.0,
                events.dropped.len() + events.rejoined.len(),
            );
        }
    }

    /// Per-camera observation stage (parallel): extract the camera's view
    /// of the stepped world into the worker's `view` buffer, apply its
    /// processing lag, and estimate optical flow against the previous frame
    /// into the worker's scratch arena ([`FrameScratch::flow`], skipped for
    /// the Full baseline, which never consumes it).
    ///
    /// Then fills the recall sets straight from the workers' true views:
    /// [`CoordinatorScratch::visible`] and, while a camera is dead,
    /// [`CoordinatorScratch::covered`].
    fn observe(&mut self, workers: &mut [CameraWorker]) {
        let dep = &*self.deployment;
        let wants_flow = dep.config.algorithm != Algorithm::Full;
        let occlusion = dep.scenario.occlusion_threshold;
        let noise = dep.config.flow_noise_px;
        let cameras = &dep.scenario.cameras;
        let world = &self.world;
        let alive = self.faults.alive();
        pool().par_for_each_mut(workers, dep.threads, |w| {
            w.observe(&cameras[w.index], world, occlusion, alive[w.index]);
            // A dead camera's empty view degenerates the flow estimate to
            // the identity (drawing nothing from its RNG stream).
            if wants_flow {
                w.scratch
                    .flow
                    .estimate_into(&w.prev_view, &w.view, noise, &mut w.rng);
            }
        });
        let CoordinatorScratch {
            visible, covered, ..
        } = &mut self.scratch;
        visible.clear();
        covered.clear();
        let track_coverage = !self.faults.all_alive();
        for w in workers.iter() {
            let ids = w.true_view(alive[w.index]).iter().map(|g| g.id);
            if track_coverage && alive[w.index] {
                covered.extend(ids.clone());
            }
            visible.extend(ids);
        }
    }

    /// Full-frame inspection on every live camera (parallel): the whole of
    /// a Full-baseline frame and the first stage of every key frame. Fills
    /// this frame's `latency` and `detected` and returns each camera's
    /// detections (none for a dead camera).
    fn detect_full(&mut self, workers: &mut [CameraWorker]) -> Vec<Vec<Detection>> {
        let alive = self.faults.alive();
        let profiles = &self.deployment.profiles;
        let full_ms = |i: usize| profiles[i].full_frame_ms();
        let all_dets = pool().par_map_mut(workers, self.deployment.threads, |w| {
            if !alive[w.index] {
                return Vec::new();
            }
            let dets = w.detector.detect_full_frame(&w.view, &mut w.rng);
            span_into(
                w.trace.as_mut(),
                Stage::Detect,
                full_ms(w.index),
                dets.len(),
            );
            dets
        });
        let CoordinatorScratch {
            latency, detected, ..
        } = &mut self.scratch;
        latency.clear();
        detected.clear();
        for (i, dets) in all_dets.iter().enumerate() {
            latency.push(if alive[i] { full_ms(i) } else { 0.0 });
            detected.extend(dets.iter().filter_map(|d| d.truth_id));
        }
        all_dets
    }

    /// The Full baseline: full-frame inspection everywhere, every frame.
    fn full_frame(&mut self, workers: &mut [CameraWorker]) {
        self.detect_full(workers);
        let oh = &mut self.scratch.oh;
        oh.clear();
        oh.resize(workers.len(), OverheadSample::default());
    }

    /// A key frame for the tracking-based algorithms, in the paper's order
    /// (Sec. III–IV, Fig. 5): full-frame inspection on every camera, the
    /// round trip to the scheduler, a fresh horizon, and then either each
    /// camera seeding its own tracks or the central stage assigning them.
    fn key_frame(&mut self, workers: &mut [CameraWorker]) {
        self.stats.key_frames += 1;
        let dets = self.detect_full(workers);
        self.sync_round_trip();
        self.reset_horizon(workers);
        self.central_per_frame_ms = 0.0;
        let config = &self.deployment.config;
        if config.algorithm.has_central_stage() {
            let started = config.measured_overheads.then(Instant::now);
            let schedule = self.central_stage(&dets);
            self.apply_schedule(workers, &dets, schedule.as_ref());
            let compute_ms = started.map_or(0.0, |s| s.elapsed().as_secs_f64() * 1e3);
            self.charge_central(compute_ms, &dets, schedule.map_or(0, |(_, p)| p.len()));
        } else {
            self.seed_locally(workers, &dets);
        }
        let oh = &mut self.scratch.oh;
        oh.clear();
        oh.resize(
            workers.len(),
            OverheadSample {
                central_ms: self.central_per_frame_ms,
                ..Default::default()
            },
        );
    }

    /// The key-frame round trip under message loss: a camera joins this
    /// horizon's schedule (`synced`) only if it is alive and both legs beat
    /// the retry budget. All draws happen here, on the coordinator, in
    /// camera-index order. Without a central stage there is nothing to
    /// exchange and every live camera schedules itself.
    fn sync_round_trip(&mut self) {
        let CoordinatorScratch {
            up, down, synced, ..
        } = &mut self.scratch;
        synced.clear();
        if self.deployment.config.algorithm.has_central_stage() {
            self.faults.round_trip(up, down, &mut self.degradation);
            synced.extend(down.iter().map(Option::is_some));
        } else {
            synced.extend_from_slice(self.faults.alive());
        }
    }

    /// Resets per-horizon state. A desynchronized camera (alive but out of
    /// the round trip) keeps its running tracks and stale mask, but drops
    /// the global bookkeeping tied to the superseded assignment. Dead
    /// cameras were wiped at the dropout event.
    fn reset_horizon(&mut self, workers: &mut [CameraWorker]) {
        let alive = self.faults.alive();
        for w in workers.iter_mut() {
            if self.scratch.synced[w.index] {
                w.reset_horizon();
            } else if alive[w.index] {
                w.forget_assignment();
            }
        }
    }

    /// Key-frame seeding without a central stage: each camera keeps the
    /// detections its own rule makes it responsible for.
    fn seed_locally(&self, workers: &mut [CameraWorker], all_dets: &[Vec<Detection>]) {
        let dep = &*self.deployment;
        let algorithm = dep.config.algorithm;
        // Oracle SP (ablation) allocates by true world position.
        let world_pos: HashMap<u64, mvs_geometry::Point2> =
            if algorithm == Algorithm::StaticPartitionOracle {
                let objects = self.world.objects().iter();
                objects.map(|o| (o.id, self.world.position_of(o))).collect()
            } else {
                HashMap::new()
            };
        for (w, dets) in workers.iter_mut().zip(all_dets) {
            for d in dets {
                let mine = match algorithm {
                    // Every camera keeps everything it saw.
                    Algorithm::BalbInd => true,
                    // The cells its static speed-priority mask owns (same
                    // imperfect models as BALB's masks, but load-oblivious).
                    Algorithm::StaticPartition => {
                        dep.static_masks[w.index].is_responsible_for(&d.bbox)
                    }
                    Algorithm::StaticPartitionOracle => {
                        let partition = dep.partition.as_ref().expect("oracle SP has a partition");
                        match d.truth_id.and_then(|id| world_pos.get(&id)) {
                            Some(&pos) => partition.owner(pos) == Some(w.index),
                            // False positives have no world anchor; the
                            // observing camera keeps them.
                            None => true,
                        }
                    }
                    _ => unreachable!("{algorithm} does not seed locally"),
                };
                if mine {
                    w.tracker.seed(d.bbox, d.truth_id);
                }
            }
        }
    }

    /// The central stage (Sec. IV): associate the synced cameras' uploads
    /// into global objects, build the MVS instance, solve it
    /// ([`BalbSolver::solve_redundant`]) and write the horizon's owners into
    /// `self.assignment`. Returns the global objects and the camera priority
    /// order in deployment ids — or `None` when nobody completed the round
    /// trip or no schedulable camera survived the restriction: the horizon
    /// then coasts, a degradation event in a long-running service, never a
    /// panic.
    fn central_stage(
        &mut self,
        all_dets: &[Vec<Detection>],
    ) -> Option<(Vec<GlobalObject>, Vec<CameraId>)> {
        let dep = &*self.deployment;
        let m = all_dets.len();
        let CoordinatorScratch {
            synced,
            boxes,
            assoc,
            ..
        } = &mut self.scratch;
        // Only uploads the scheduler both received *and* answered enter the
        // schedule: an unacknowledged camera discards the horizon, so every
        // scheduled object has a camera that actually tracks it.
        boxes.resize_with(m, Vec::new);
        for (cam, (list, dets)) in boxes.iter_mut().zip(all_dets).enumerate() {
            list.clear();
            if synced[cam] {
                list.extend(dets.iter().map(|d| d.bbox));
            }
        }
        let boxes = &*boxes;
        let synced_cams: Vec<CameraId> = (0..m).filter(|&i| synced[i]).map(CameraId).collect();
        if synced_cams.is_empty() {
            return None;
        }
        let trained = dep.trained.as_ref().expect("association is trained");
        let globals = trained.engine.associate_with(boxes, assoc);
        // The instance covers the full deployment; a degraded horizon
        // solves its restriction to the synced sub-fleet.
        let problem = dep.mvs_instance(boxes, &globals);
        let subset = if synced_cams.len() == m {
            None
        } else {
            Some(problem.restrict_to_cameras(&synced_cams).ok()?)
        };
        let subset = subset.as_ref();
        // The schedule is in the solved instance's ids (`subset`'s when
        // degraded). A configured redundancy of 0 means 1.
        let schedule = self.solver.solve_redundant(
            subset.map_or(&problem, |s| &s.problem),
            self.redundancy.max(1),
        );
        let solved = schedule.assignment.len();
        span_into(
            self.tracer.as_mut().map(|t| t.coordinator()),
            Stage::Central,
            0.0,
            solved,
        );
        // Owners and priority back in deployment ids (objects the
        // restriction lost keep an empty owner list), over the previous
        // horizon's owner lists.
        self.assignment.iter_mut().for_each(Vec::clear);
        self.assignment.resize_with(globals.len(), Vec::new);
        for j in 0..solved {
            let orig = subset.map_or(j, |s| s.objects[j].0);
            let owners = schedule.assignment.owners_of(ObjectId(j)).iter();
            self.assignment[orig]
                .extend(owners.map(|&c| subset.map_or(c, |s| s.original_camera(c)).0));
        }
        let priority = match subset {
            Some(subset) => subset.lift_priority(&schedule.priority),
            None => schedule.priority.clone(),
        };
        Some((globals, priority))
    }

    /// Applies the new schedule: seeds every owner's tracker, records
    /// shadows on the cameras that see an object without owning it, and
    /// rebuilds the distributed-stage masks. Without a schedule every camera
    /// coasts on its stale mask and running tracks until the next key frame.
    fn apply_schedule(
        &mut self,
        workers: &mut [CameraWorker],
        all_dets: &[Vec<Detection>],
        schedule: Option<&(Vec<GlobalObject>, Vec<CameraId>)>,
    ) {
        let Some((globals, priority)) = schedule else {
            self.assignment.clear();
            self.degradation.coasted_horizons += 1;
            return;
        };
        let dep = &*self.deployment;
        let balb = dep.config.algorithm == Algorithm::Balb;
        for (g, go) in globals.iter().enumerate() {
            let owners = &self.assignment[g];
            for &(cam, det) in &go.members {
                let d = &all_dets[cam][det];
                let w = &mut workers[cam];
                if owners.contains(&cam) {
                    let id = w.tracker.seed(d.bbox, d.truth_id);
                    w.track_global.insert(id, g);
                } else if balb {
                    w.shadows.insert(g, ShadowTrack::new(d.bbox));
                }
            }
        }
        // Only synced cameras hear the new priority order; it omits
        // everyone else, so survivors absorb dead cameras' cells while
        // desynced cameras coast on their stale masks.
        if balb {
            let pre = dep.precompute.as_ref().expect("BALB precomputes masks");
            for w in workers.iter_mut().filter(|w| self.scratch.synced[w.index]) {
                pre.mask_for_into(w.index, priority, &mut w.mask);
            }
        }
    }

    /// Charges the central stage to the horizon: computation plus the
    /// slowest camera's key-frame round trip (the wire messages' lengths),
    /// amortized over the horizon's frames. Lost attempts cost one retry
    /// timeout each; a camera that never answers makes the scheduler wait
    /// out the whole retry schedule.
    fn charge_central(
        &mut self,
        compute_ms: f64,
        all_dets: &[Vec<Detection>],
        priority_len: usize,
    ) {
        let config = &self.deployment.config;
        let model = self.faults.model();
        let CoordinatorScratch {
            up, down, synced, ..
        } = &self.scratch;
        let uplink_phase = all_dets
            .iter()
            .zip(up)
            .map(|(dets, up)| match up {
                Some(lost) => {
                    let sent_ms = config.network.uplink_ms(upload_len(dets.len()));
                    *lost as f64 * model.retry_timeout_ms + sent_ms
                }
                None => model.deadline_ms(),
            })
            .fold(0.0, f64::max);
        let synced_cams = synced.iter().filter(|&&s| s).count();
        let reply_ms = if synced_cams == 0 {
            0.0
        } else {
            let owners = self.assignment.iter().map(Vec::len);
            config
                .network
                .downlink_ms(assignment_len(owners, priority_len))
        };
        let downlink_phase = up
            .iter()
            .zip(down)
            .map(|(up, down)| match (up.is_some(), down) {
                (true, Some(lost)) => *lost as f64 * model.retry_timeout_ms + reply_ms,
                (true, None) => model.deadline_ms(),
                (false, _) => 0.0,
            })
            .fold(0.0, f64::max);
        self.central_per_frame_ms =
            (compute_ms + uplink_phase + downlink_phase) / config.horizon as f64;
        if let Some(t) = &mut self.tracer {
            t.coordinator()
                .span(Stage::Sync, uplink_phase + downlink_phase, synced_cams);
        }
    }

    /// A regular frame: every camera's stages run on the pool
    /// ([`CameraWorker::regular_frame`]), then the cross-camera effects —
    /// takeovers extending the shared assignment, the frame's numbers —
    /// merge in camera-index order.
    fn regular_frame(&mut self, workers: &mut [CameraWorker]) {
        let dep = &*self.deployment;
        let cx = RegularFrame {
            config: &dep.config,
            central_ms: self.central_per_frame_ms,
            alive: self.faults.alive(),
            profiles: &dep.profiles,
            static_masks: &dep.static_masks,
            trained: dep.trained.as_ref(),
            partition: dep.partition.as_ref(),
            world: &self.world,
            assignment: &self.assignment,
        };
        let outs = pool().par_map_mut(workers, dep.threads, |w| w.regular_frame(&cx));

        let CoordinatorScratch {
            latency,
            oh,
            detected,
            ..
        } = &mut self.scratch;
        latency.clear();
        detected.clear();
        oh.clear();
        for (w, out) in workers.iter().zip(outs) {
            self.stats.takeovers += w.scratch.takeover_seeds.len();
            for &(g, _) in &w.scratch.takeover_seeds {
                self.assignment[g].push(w.index);
            }
            self.stats.probes += out.probes;
            latency.push(out.latency_ms);
            detected.extend(w.scratch.detections.iter().filter_map(|d| d.truth_id));
            oh.push(out.sample);
        }
    }
}

/// One tenant's steppable pipeline for the multi-tenant serving front-end
/// (`mvs serve`): the same runtime as [`run_pipeline`], but driven frame
/// by frame by an external event loop instead of a closed run loop. Owns
/// all of its runtime state and shares only the immutable [`Deployment`] it
/// was started from, so N instances multiplex freely onto one scheduler
/// core.
///
/// The capture clock advances by exactly one frame per [`TenantPipeline::step`]
/// or [`TenantPipeline::skip`] call; key frames fall on capture indices
/// divisible by the configured horizon. A skipped key frame means the
/// tenant coasts on its stale schedule until the next *processed* key
/// frame — the same degradation path as a lost key-frame round trip.
///
/// # Examples
///
/// ```no_run
/// use mvs_sim::{Algorithm, PipelineConfig, Scenario, ScenarioKind, TenantPipeline};
///
/// let scenario = Scenario::new(ScenarioKind::S2);
/// let config = PipelineConfig::paper_default(Algorithm::Balb);
/// let mut tenant = TenantPipeline::new(&scenario, &config);
/// let service_ms = tenant.step(); // frame 0 (a key frame)
/// tenant.skip(); // frame 1 dropped by the ingest lane
/// let (result, _trace) = tenant.finish();
/// assert_eq!(result.frames, 1);
/// assert!(service_ms > 0.0);
/// ```
pub struct TenantPipeline {
    inner: Pipeline,
    workers: Vec<CameraWorker>,
    next_frame: usize,
    /// Armed by [`TenantPipeline::poison_next_step`]: the next `step`
    /// panics with a [`PoisonPanic`] payload (chaos injection).
    poisoned: bool,
}

/// Marker payload of a chaos-injected pipeline panic: the serve loop arms
/// a tenant via [`TenantPipeline::poison_next_step`], catches the
/// resulting unwind, and quarantines the tenant. Carrying a dedicated
/// payload type lets the catch site distinguish injected poison from a
/// genuine pipeline bug — anything else is re-raised, never swallowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PoisonPanic;

impl TenantPipeline {
    /// Builds a steppable pipeline (trains association models, warms the
    /// world — the same setup as [`run_pipeline`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`run_pipeline`].
    pub fn new(scenario: &Scenario, config: &PipelineConfig) -> TenantPipeline {
        TenantPipeline::start(Arc::new(Deployment::build(scenario, config)))
    }

    /// Starts a run of an already built deployment: clones its post-warm-up
    /// world and RNG position and seeds the per-run state (workers,
    /// trackers, the fault schedule), sharing everything else. Trains
    /// nothing, so what it costs does not grow with the training window or
    /// the number of camera pairs; the run is bitwise the one
    /// [`TenantPipeline::new`] starts on the same scenario and
    /// configuration, however many runs the deployment started before.
    pub fn start(deployment: Arc<Deployment>) -> TenantPipeline {
        let (inner, workers) = Pipeline::start(deployment);
        TenantPipeline {
            inner,
            workers,
            next_frame: 0,
            poisoned: false,
        }
    }

    /// Frames per second of the tenant's scenario (its capture clock).
    pub fn fps(&self) -> f64 {
        self.inner.deployment.scenario.fps
    }

    /// Number of cameras in the tenant's deployment.
    pub fn num_cameras(&self) -> usize {
        self.workers.len()
    }

    /// The capture index the next [`TenantPipeline::step`] or
    /// [`TenantPipeline::skip`] will consume.
    pub fn next_frame(&self) -> usize {
        self.next_frame
    }

    /// Currently configured redundancy degree.
    pub fn redundancy(&self) -> usize {
        self.inner.redundancy
    }

    /// Reconfigures the redundancy degree, effective at the next processed
    /// key frame. Admission control uses this to shed load (redundancy
    /// first, frames second) without tearing the tenant down.
    pub fn set_redundancy(&mut self, redundancy: usize) {
        assert!(redundancy > 0, "redundancy must be at least one");
        self.inner.redundancy = redundancy;
    }

    /// Turns on structured tracing (see [`run_pipeline_traced`]); spans
    /// carry this tenant's frames only, so a serving front-end can label
    /// each trace with its tenant.
    pub fn enable_tracing(&mut self) {
        self.inner.tracer = Some(TraceRecorder::new(self.fps()));
        for (i, w) in self.workers.iter_mut().enumerate() {
            w.trace = Some(TraceRecorder::camera_buf(i));
        }
    }

    /// Processes the next capture-clock frame and returns its modeled
    /// service cost in milliseconds: the slowest camera's DNN latency plus
    /// the amortized central-stage share. This is the time the frame
    /// occupies the serving core in the event-loop model (cf.
    /// [`replay_response`](crate::replay_response) for one camera).
    ///
    /// The cost is non-negative and finite for every built-in scenario and
    /// overhead model; a poisoned model may yield a non-finite cost, which
    /// the pipeline has already excluded from its own series (counted in
    /// [`DegradationCounters::rejected_samples`]) — callers must guard the
    /// same way.
    pub fn step(&mut self) -> f64 {
        if self.poisoned {
            self.poisoned = false;
            std::panic::panic_any(PoisonPanic);
        }
        let frame = self.next_frame;
        self.next_frame += 1;
        let system = self.inner.step_frame(&mut self.workers, frame);
        system + self.inner.central_per_frame_ms
    }

    /// Arms the pipeline so its next [`TenantPipeline::step`] panics with
    /// a [`PoisonPanic`] payload before touching any state — the serve
    /// layer's chaos harness uses this to exercise its `catch_unwind`
    /// isolation and quarantine path deterministically.
    pub(crate) fn poison_next_step(&mut self) {
        self.poisoned = true;
    }

    /// Records a [`Stage::Recovery`](mvs_trace::Stage::Recovery) span on
    /// the coordinator lane of a traced pipeline: `replay_ms` modeled
    /// milliseconds spent replaying `frames` frames while restoring this
    /// tenant from a snapshot. No-op without tracing.
    pub(crate) fn note_recovery(&mut self, replay_ms: f64, frames: usize) {
        if let Some(tracer) = self.inner.tracer.as_mut() {
            tracer.begin_frame(self.next_frame);
            tracer
                .coordinator()
                .span(mvs_trace::Stage::Recovery, replay_ms, frames);
        }
    }

    /// Drops the next capture-clock frame without processing it (the
    /// serving front-end's latest-frame-wins backpressure displaced it).
    /// The world still advances; no camera observes or draws randomness.
    pub fn skip(&mut self) {
        self.next_frame += 1;
        self.inner.skip_frame();
    }

    /// Finalizes the tenant's series into a [`PipelineResult`] (plus the
    /// trace when [`TenantPipeline::enable_tracing`] was called).
    /// `result.frames` counts processed frames only;
    /// `result.stats.skipped_frames` counts the drops.
    pub fn finish(self) -> (PipelineResult, Option<Trace>) {
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioKind};

    fn quick_config(algorithm: Algorithm) -> PipelineConfig {
        PipelineConfig {
            train_s: 40.0,
            eval_s: 30.0,
            ..PipelineConfig::paper_default(algorithm)
        }
    }

    #[test]
    fn full_baseline_latency_is_constant_slowest_camera() {
        let sc = Scenario::new(ScenarioKind::S2);
        let r = run_pipeline(&sc, &quick_config(Algorithm::Full));
        // S2 = Xavier + Nano → every frame costs the Nano's 650 ms.
        assert!((r.mean_latency_ms - 650.0).abs() < 1e-9);
        assert!(r.recall > 0.9, "full recall {}", r.recall);
    }

    #[test]
    fn balb_is_much_faster_than_full_on_s2() {
        let sc = Scenario::new(ScenarioKind::S2);
        let full = run_pipeline(&sc, &quick_config(Algorithm::Full));
        let balb = run_pipeline(&sc, &quick_config(Algorithm::Balb));
        let speedup = full.mean_latency_ms / balb.mean_latency_ms;
        assert!(speedup > 3.0, "speedup only {speedup:.2}x");
        // And detection quality stays close.
        assert!(
            balb.recall > full.recall - 0.25,
            "balb recall {} vs full {}",
            balb.recall,
            full.recall
        );
    }

    #[test]
    fn balb_ind_sits_between_full_and_balb() {
        // Needs a longer eval window than quick_config: over 30 s the
        // BALB-vs-Ind gap (~30 ms at 60 s+, incl. the paper's 90 s point)
        // is within seed noise.
        let cfg = |algorithm| PipelineConfig {
            train_s: 40.0,
            eval_s: 60.0,
            ..PipelineConfig::paper_default(algorithm)
        };
        let sc = Scenario::new(ScenarioKind::S2);
        let full = run_pipeline(&sc, &cfg(Algorithm::Full));
        let ind = run_pipeline(&sc, &cfg(Algorithm::BalbInd));
        let balb = run_pipeline(&sc, &cfg(Algorithm::Balb));
        assert!(ind.mean_latency_ms < full.mean_latency_ms);
        assert!(balb.mean_latency_ms < ind.mean_latency_ms);
    }

    #[test]
    fn results_are_deterministic() {
        let sc = Scenario::new(ScenarioKind::S2);
        let a = run_pipeline(&sc, &quick_config(Algorithm::Balb));
        let b = run_pipeline(&sc, &quick_config(Algorithm::Balb));
        assert_eq!(a.recall, b.recall);
        assert_eq!(a.latency.samples_ms(), b.latency.samples_ms());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The engine's determinism contract: bitwise-identical results at
        // any thread count, including 1. Measured overheads off so the
        // whole PipelineResult is comparable with `==`.
        let sc = Scenario::new(ScenarioKind::S3);
        for algorithm in [Algorithm::Balb, Algorithm::StaticPartition] {
            let mut base = quick_config(algorithm);
            base.measured_overheads = false;
            let runs: Vec<PipelineResult> = [1usize, 2, 7]
                .iter()
                .map(|&threads| {
                    let cfg = PipelineConfig {
                        threads,
                        ..base.clone()
                    };
                    run_pipeline(&sc, &cfg)
                })
                .collect();
            assert_eq!(runs[0], runs[1], "{algorithm}: 1 vs 2 threads");
            assert_eq!(runs[0], runs[2], "{algorithm}: 1 vs 7 threads");
        }
    }

    #[test]
    fn tracing_changes_nothing_and_spans_are_thread_invariant() {
        let sc = Scenario::new(ScenarioKind::S2);
        let mut base = quick_config(Algorithm::Balb);
        base.measured_overheads = false;
        let untraced = run_pipeline(&sc, &base);
        let traces: Vec<Trace> = [1usize, 2, 5]
            .iter()
            .map(|&threads| {
                let cfg = PipelineConfig {
                    threads,
                    ..base.clone()
                };
                let (result, trace) = run_pipeline_traced(&sc, &cfg);
                // Recording spans must not perturb the simulation.
                assert_eq!(
                    result, untraced,
                    "traced result drifted at {threads} threads"
                );
                trace
            })
            .collect();
        assert!(!traces[0].is_empty());
        assert_eq!(traces[0].records(), traces[1].records(), "1 vs 2 threads");
        assert_eq!(traces[0].records(), traces[2].records(), "1 vs 5 threads");
        // Every stage of the pipeline shows up in a full BALB run.
        let stats = traces[0].stage_stats();
        for stage in [Stage::Central, Stage::Sync, Stage::Flow, Stage::Detect] {
            assert!(stats.contains_key(&stage), "missing {stage:?} spans");
        }
    }

    #[test]
    fn unmeasured_overheads_zero_the_scheduler_costs() {
        let sc = Scenario::new(ScenarioKind::S2);
        let mut cfg = quick_config(Algorithm::Balb);
        cfg.measured_overheads = false;
        let r = run_pipeline(&sc, &cfg);
        // Network round-trip cost is modeled, so central stays positive;
        // the measured pieces are exactly zero.
        assert!(r.overhead_mean.central_ms > 0.0);
        assert_eq!(r.overhead_mean.distributed_ms, 0.0);
    }

    #[test]
    fn overheads_are_populated_for_balb() {
        let sc = Scenario::new(ScenarioKind::S2);
        let r = run_pipeline(&sc, &quick_config(Algorithm::Balb));
        let oh = r.overhead_mean;
        assert!(oh.central_ms > 0.0);
        assert!(oh.tracking_ms > 0.0);
        assert!(oh.batching_ms > 0.0);
        // Distributed stage is measured wall-clock; generous bound so
        // debug builds pass too.
        assert!(
            oh.distributed_ms < 10.0,
            "distributed {}",
            oh.distributed_ms
        );
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_panics() {
        let sc = Scenario::new(ScenarioKind::S2);
        let mut cfg = quick_config(Algorithm::Balb);
        cfg.horizon = 0;
        run_pipeline(&sc, &cfg);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioKind};

    fn quick(algorithm: Algorithm) -> PipelineConfig {
        PipelineConfig {
            train_s: 30.0,
            eval_s: 20.0,
            ..PipelineConfig::paper_default(algorithm)
        }
    }

    #[test]
    fn sp_oracle_runs_and_tracks() {
        let sc = Scenario::new(ScenarioKind::S2);
        let r = run_pipeline(&sc, &quick(Algorithm::StaticPartitionOracle));
        assert!(r.recall > 0.8, "oracle SP recall {}", r.recall);
        assert!(r.mean_latency_ms < 650.0);
    }

    #[test]
    fn balb_cen_never_probes_new_regions() {
        // With the distributed stage off, regular-frame workload can only
        // shrink as tracks are lost; the latency series between key frames
        // must be non-increasing within every horizon.
        let sc = Scenario::new(ScenarioKind::S2);
        let r = run_pipeline(&sc, &quick(Algorithm::BalbCen));
        for horizon in r.latency.samples_ms().chunks(10) {
            // Skip the key frame (index 0); compare per-camera *counts*
            // indirectly: regular-frame system latency never exceeds the
            // first regular frame's by more than one batch step.
            let first_regular = horizon.get(1).copied().unwrap_or(0.0);
            for &v in &horizon[1..] {
                assert!(
                    v <= first_regular + 1e-9,
                    "workload grew mid-horizon without a distributed stage: {v} > {first_regular}"
                );
            }
        }
    }

    #[test]
    fn redundancy_two_tracks_objects_on_multiple_cameras() {
        let sc = Scenario::new(ScenarioKind::S2);
        let single = run_pipeline(&sc, &quick(Algorithm::Balb));
        let mut cfg = quick(Algorithm::Balb);
        cfg.redundancy = 2;
        let double = run_pipeline(&sc, &cfg);
        // More owners ⇒ more crops ⇒ more latency on at least one camera.
        let sum_single: f64 = single.per_camera_mean_ms.iter().sum();
        let sum_double: f64 = double.per_camera_mean_ms.iter().sum();
        assert!(
            sum_double > sum_single,
            "redundancy should add work: {sum_double} vs {sum_single}"
        );
    }

    #[test]
    fn overhead_model_scales_tracking_with_objects() {
        // S3 (busy) must spend more modeled tracking time than S2 (sparse).
        let busy = run_pipeline(&Scenario::new(ScenarioKind::S3), &quick(Algorithm::Balb));
        let sparse = run_pipeline(&Scenario::new(ScenarioKind::S2), &quick(Algorithm::Balb));
        assert!(busy.overhead_mean.tracking_ms > sparse.overhead_mean.tracking_ms);
        assert!(busy.overhead_mean.batching_ms > sparse.overhead_mean.batching_ms);
    }

    #[test]
    fn algorithm_display_names_are_stable() {
        let names: Vec<String> = Algorithm::ALL.iter().map(|a| a.to_string()).collect();
        assert_eq!(
            names,
            vec!["Full", "BALB-Ind", "BALB-Cen", "BALB", "SP", "SP-Oracle"]
        );
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioKind};

    #[test]
    fn stats_reflect_distributed_activity() {
        let sc = Scenario::new(ScenarioKind::S2);
        let cfg = PipelineConfig {
            train_s: 30.0,
            eval_s: 30.0,
            ..PipelineConfig::paper_default(Algorithm::Balb)
        };
        let r = run_pipeline(&sc, &cfg);
        assert_eq!(r.stats.key_frames, 30); // 300 frames / horizon 10
        assert!(r.stats.probes > 0, "sparse traffic still has arrivals");
        // BALB-Cen never probes or takes over.
        let cen = run_pipeline(
            &sc,
            &PipelineConfig {
                train_s: 30.0,
                eval_s: 30.0,
                ..PipelineConfig::paper_default(Algorithm::BalbCen)
            },
        );
        assert_eq!(cen.stats.probes, 0);
        assert_eq!(cen.stats.takeovers, 0);
        assert_eq!(cen.stats.key_frames, 30);
    }
}
