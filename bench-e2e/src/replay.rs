//! The layer replay: the workload's own seeded world, driven through the
//! frame loop one *layer call-group* at a time, every group under a span.
//!
//! `mvs_sim`'s frame loop is private, so this is a stage-major rebuild of
//! it from the public layer functions: the same world stream, the same
//! per-camera RNG streams, the same order of layer calls per camera. What
//! it leaves out stays outside the ledger and shows up as
//! `sim.runtime.unattributed_share`: fault injection, camera lag,
//! redundant assignment, message encoding, recall bookkeeping and the
//! per-frame result series.

use crate::layers;
use crate::spans::SpanLog;
use mvs_core::{
    BalbSolver, CameraId, CameraInfo, CameraMask, ObjectId, ObjectInfo, ShadowTrack, ShadowVerdict,
};
use mvs_geometry::{BBox, FrameDims, SizeClass};
use mvs_sim::{MaskPrecompute, PipelineConfig, Scenario, TrainedAssociation, World};
use mvs_vision::{
    Detection, FlowField, FlowTracker, GroundTruthObject, LatencyProfile, NewRegionFinder,
    RegionTask, SimulatedDetector,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Same constant as the frame loop's: "gone" verdicts needed for a takeover.
const TAKEOVER_HYSTERESIS: u32 = 3;

/// Span names of the replay, also the ledger's row labels.
pub mod span {
    pub const KEY_STEP: &str = "sim.runtime.key_step";
    pub const REGULAR_STEP: &str = "sim.runtime.regular_step";
    pub const WORLD_STEP: &str = "sim.world.step";
    pub const OBSERVE: &str = "sim.world.observe";
    pub const FLOW: &str = "vision.flow";
    pub const DETECT: &str = "vision.detect";
    pub const DETECT_REGION: &str = "vision.detect_region";
    pub const TRACK: &str = "vision.track";
    pub const SLICE: &str = "vision.slice";
    pub const NEW_REGION: &str = "vision.new_region";
    pub const BATCH: &str = "vision.batch";
    pub const ASSOCIATE: &str = "assoc.associate";
    pub const PROBLEM_BUILD: &str = "core.problem_build";
    pub const SOLVE_COLD: &str = "core.solve_cold";
    pub const SOLVE_WARM: &str = "core.solve_warm";
    pub const SOLVE_SHARDED: &str = "core.solve_sharded";
    pub const TAKEOVER_SCAN: &str = "core.takeover_scan";
    pub const MASK_REBUILD: &str = "sim.masks.rebuild";
    pub const MASK_PRECOMPUTE: &str = "sim.masks.precompute";
    pub const COLLECT: &str = "sim.correspond.collect";
    pub const TRAIN: &str = "sim.correspond.train";
}

/// Everything one camera mutates during a frame (cf. the frame loop's
/// private `CameraWorker`).
struct Camera {
    dims: FrameDims,
    profile: LatencyProfile,
    detector: SimulatedDetector,
    tracker: FlowTracker,
    rng: ChaCha8Rng,
    prev_view: Vec<GroundTruthObject>,
    view: Vec<GroundTruthObject>,
    flow: FlowField,
    shadows: BTreeMap<usize, ShadowTrack>,
    mask: Option<CameraMask>,
    tasks: Vec<RegionTask>,
    predicted: Vec<BBox>,
    fresh: Vec<BBox>,
    finder: NewRegionFinder,
    seeds: Vec<(usize, BBox)>,
    detections: Vec<Detection>,
}

/// Work counts of a replay; all of them repeat bit-for-bit for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    pub steps: u64,
    pub key_steps: u64,
    /// Σ steps of live world objects.
    pub world_objects: u64,
    /// Σ key steps of associated global objects (= objects per solve).
    pub globals: u64,
    pub shards: u64,
    pub warm_solves: u64,
    pub takeovers: u64,
    pub probes: u64,
}

impl std::ops::AddAssign for ReplayCounts {
    fn add_assign(&mut self, o: ReplayCounts) {
        self.steps += o.steps;
        self.key_steps += o.key_steps;
        self.world_objects += o.world_objects;
        self.globals += o.globals;
        self.shards += o.shards;
        self.warm_solves += o.warm_solves;
        self.takeovers += o.takeovers;
        self.probes += o.probes;
    }
}

pub struct Replay {
    scenario: Scenario,
    config: PipelineConfig,
    rng: ChaCha8Rng,
    world: World,
    pub trained: TrainedAssociation,
    precompute: MaskPrecompute,
    cameras: Vec<Camera>,
    assignment: Vec<Vec<usize>>,
    solver: BalbSolver,
    tenant: usize,
    frame: usize,
    pub counts: ReplayCounts,
    /// Boxes seen along the way, for the kernel micro-probes.
    pub seen_boxes: Vec<BBox>,
    /// `(samples, src, dst)` of the modeled camera pair with the largest
    /// training set: the KNN query the probe times.
    pub largest_pair: (usize, usize, usize),
}

impl Replay {
    /// Set-up exactly as the pipeline does it — collect, train, precompute
    /// masks, warm the world — each under its span.
    ///
    /// `tenant` labels the spans (their `episode` field): a serve mix is
    /// replayed tenant after tenant into one log.
    pub fn build(
        tenant: usize,
        scenario: Scenario,
        config: PipelineConfig,
        log: &mut SpanLog,
    ) -> Replay {
        let m = scenario.num_cameras();
        log.at(tenant, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let data = log.time(span::COLLECT, || {
            layers::correspond_collect(&scenario, config.train_s, &mut rng)
        });
        let trained = log.time(span::TRAIN, || {
            layers::correspond_train(m, &data, config.assoc_k, config.assoc_iou)
        });
        let dims: Vec<FrameDims> = scenario.cameras.iter().map(|c| c.frame).collect();
        let precompute = log.time(span::MASK_PRECOMPUTE, || {
            layers::mask_precompute(&dims, &data, config.grid_cell_px)
        });
        let largest_pair = data
            .pairs
            .iter()
            .filter(|(pair, _)| trained.models.contains_key(pair))
            .map(|(&(src, dst), samples)| (samples.len(), src, dst))
            .max()
            .expect("a deployment with overlapping views has a pair model");
        let world = scenario.warmed_world(30.0, &mut rng);
        let cameras = (0..m)
            .map(|i| {
                // Stream `i + 1` of the run seed, like the frame loop's workers.
                let mut cam_rng = ChaCha8Rng::seed_from_u64(config.seed);
                cam_rng.set_stream(i as u64 + 1);
                Camera {
                    dims: dims[i],
                    profile: LatencyProfile::for_device(scenario.devices[i]),
                    detector: SimulatedDetector::new(config.detection, dims[i]),
                    tracker: FlowTracker::new(config.tracker, dims[i]),
                    rng: cam_rng,
                    prev_view: layers::observe(
                        &scenario.cameras[i],
                        &world,
                        scenario.occlusion_threshold,
                    ),
                    view: Vec::new(),
                    flow: FlowField::empty(),
                    shadows: BTreeMap::new(),
                    mask: None,
                    tasks: Vec::new(),
                    predicted: Vec::new(),
                    fresh: Vec::new(),
                    finder: NewRegionFinder::new(),
                    seeds: Vec::new(),
                    detections: Vec::new(),
                }
            })
            .collect();
        Replay {
            scenario,
            config,
            rng,
            world,
            trained,
            precompute,
            cameras,
            assignment: Vec::new(),
            solver: BalbSolver::new(),
            tenant,
            frame: 0,
            counts: ReplayCounts::default(),
            seen_boxes: Vec::new(),
            largest_pair,
        }
    }

    pub fn num_cameras(&self) -> usize {
        self.cameras.len()
    }

    pub fn horizon(&self) -> usize {
        self.config.horizon
    }

    /// Advances one capture period, recording one span per layer call-group.
    pub fn step(&mut self, log: &mut SpanLog) {
        let frame = self.frame;
        self.frame += 1;
        let is_key = frame.is_multiple_of(self.config.horizon);
        log.at(self.tenant, frame);
        let root = log.enter(if is_key {
            span::KEY_STEP
        } else {
            span::REGULAR_STEP
        });

        let dt = self.scenario.frame_dt_s();
        log.time(span::WORLD_STEP, || {
            layers::world_step(&mut self.world, dt, &mut self.rng)
        });
        self.counts.steps += 1;
        self.counts.world_objects += self.world.objects().len() as u64;

        log.time(span::OBSERVE, || {
            for (cam, model) in self.cameras.iter_mut().zip(&self.scenario.cameras) {
                cam.view = layers::observe(model, &self.world, self.scenario.occlusion_threshold);
            }
        });
        log.time(span::FLOW, || {
            for cam in &mut self.cameras {
                layers::flow(
                    &mut cam.flow,
                    &cam.prev_view,
                    &cam.view,
                    self.config.flow_noise_px,
                    &mut cam.rng,
                );
            }
        });
        if self.seen_boxes.len() < 4096 {
            self.seen_boxes
                .extend(self.cameras.iter().flat_map(|c| &c.view).map(|g| g.bbox));
        }

        if is_key {
            self.key_frame(log);
        } else {
            self.regular_frame(log);
        }
        for cam in &mut self.cameras {
            std::mem::swap(&mut cam.prev_view, &mut cam.view);
        }
        log.exit(root);
    }

    fn key_frame(&mut self, log: &mut SpanLog) {
        self.counts.key_steps += 1;
        let all_dets: Vec<Vec<Detection>> = log.time(span::DETECT, || {
            self.cameras
                .iter_mut()
                .map(|cam| layers::detect_full_frame(&cam.detector, &cam.view, &mut cam.rng))
                .collect()
        });
        for cam in &mut self.cameras {
            cam.tracker.clear();
            cam.shadows.clear();
        }
        let boxes: Vec<Vec<BBox>> = all_dets
            .iter()
            .map(|dets| dets.iter().map(|d| d.bbox).collect())
            .collect();
        let globals = log.time(span::ASSOCIATE, || layers::associate(&self.trained, &boxes));
        self.counts.globals += globals.len() as u64;

        let problem = log.time(span::PROBLEM_BUILD, || {
            let margin = 1.0 + self.config.tracker.margin_frac;
            let objects = globals
                .iter()
                .enumerate()
                .map(|(g, go)| ObjectInfo {
                    id: ObjectId(g),
                    sizes: go
                        .members
                        .iter()
                        .map(|&(cam, det)| {
                            let b = boxes[cam][det];
                            let size = SizeClass::quantize(b.width() * margin, b.height() * margin);
                            (CameraId(cam), size)
                        })
                        .collect(),
                })
                .collect();
            let cameras = self
                .cameras
                .iter()
                .enumerate()
                .map(|(i, cam)| CameraInfo {
                    id: CameraId(i),
                    profile: cam.profile.clone(),
                })
                .collect();
            layers::problem_build(cameras, objects)
        });

        // All three solve paths run on every key step so each workload
        // reports each of them; they are bitwise-equivalent, and the ledger
        // counts only the one the workload's pipeline takes.
        let cold = log.time(span::SOLVE_COLD, || layers::solve_cold(&problem));
        let (sharded, shards) = log.time(span::SOLVE_SHARDED, || layers::solve_sharded(&problem));
        let warm = log.time(span::SOLVE_WARM, || {
            layers::solve_warm(&mut self.solver, &problem)
        });
        self.counts.shards += shards as u64;
        self.counts.warm_solves += u64::from(warm);
        assert_eq!(
            cold.assignment, sharded.assignment,
            "sharded and monolithic solves must agree"
        );
        assert_eq!(
            &cold.assignment,
            &self.solver.schedule().assignment,
            "warm and cold solves must agree"
        );

        // Apply: owners track, everyone else who saw the object shadows it.
        self.assignment = (0..globals.len())
            .map(|g| {
                cold.assignment
                    .owners_of(ObjectId(g))
                    .iter()
                    .map(|c| c.0)
                    .collect()
            })
            .collect();
        for (g, go) in globals.iter().enumerate() {
            for &(cam, det) in &go.members {
                let d = &all_dets[cam][det];
                let camera = &mut self.cameras[cam];
                if self.assignment[g].contains(&cam) {
                    camera.tracker.seed(d.bbox, d.truth_id);
                } else {
                    camera.shadows.insert(g, ShadowTrack::new(d.bbox));
                }
            }
        }
        log.time(span::MASK_REBUILD, || {
            for (i, cam) in self.cameras.iter_mut().enumerate() {
                layers::mask_rebuild(&self.precompute, i, &cold.priority, &mut cam.mask);
            }
        });
    }

    fn regular_frame(&mut self, log: &mut SpanLog) {
        log.time(span::TRACK, || {
            for cam in &mut self.cameras {
                layers::track_predict(&mut cam.tracker, &cam.flow);
            }
        });
        // Shadows ride the same flow field (inline in the frame loop, so
        // unattributed here too).
        for cam in &mut self.cameras {
            let (flow, dims) = (&cam.flow, cam.dims);
            cam.shadows.retain(|_, s| {
                let moved = s
                    .bbox
                    .translated(flow.displacement_at(s.bbox.center()).displacement);
                match moved.clamped_to(dims) {
                    Some(c) if c.area() > 0.25 * s.bbox.area() => {
                        s.bbox = moved;
                        true
                    }
                    _ => false,
                }
            });
        }

        log.time(span::TAKEOVER_SCAN, || {
            let (assignment, trained) = (&self.assignment, &self.trained);
            for (i, cam) in self.cameras.iter_mut().enumerate() {
                let Some(mask) = cam.mask.as_ref() else {
                    continue;
                };
                layers::takeover_scan(
                    &mut cam.shadows,
                    TAKEOVER_HYSTERESIS,
                    |g, bbox| {
                        let owners = &assignment[g];
                        if owners.contains(&i) {
                            ShadowVerdict::OwnedHere
                        } else if owners
                            .iter()
                            .all(|&owner| layers::knn_query(trained, i, owner, bbox).is_none())
                        {
                            ShadowVerdict::Gone
                        } else {
                            ShadowVerdict::Visible
                        }
                    },
                    |bbox| mask.is_responsible_for(bbox),
                    &mut cam.seeds,
                );
                for &(_, bbox) in &cam.seeds {
                    cam.tracker.seed(bbox, None);
                }
            }
        });

        log.time(span::SLICE, || {
            for cam in &mut self.cameras {
                layers::slice(cam.tracker.tracks(), cam.dims, &mut cam.tasks);
            }
        });

        let mut probes = 0;
        log.time(span::NEW_REGION, || {
            for cam in &mut self.cameras {
                cam.predicted.clear();
                cam.predicted
                    .extend(cam.tracker.tracks().iter().map(|t| t.bbox));
                cam.predicted.extend(cam.shadows.values().map(|s| s.bbox));
                layers::new_regions(
                    &mut cam.finder,
                    cam.flow.moving_clusters(),
                    &cam.predicted,
                    &mut cam.fresh,
                );
                for &region in &cam.fresh {
                    let mine = cam
                        .mask
                        .as_ref()
                        .is_some_and(|mask| mask.is_responsible_for(&region));
                    if let (true, Some(task)) = (mine, RegionTask::for_region(region, cam.dims)) {
                        cam.tasks.push(task);
                        probes += 1;
                    }
                }
            }
        });
        self.counts.probes += probes;

        log.time(span::BATCH, || {
            for cam in &self.cameras {
                std::hint::black_box(layers::batch(&cam.tasks, &cam.profile));
            }
        });

        log.time(span::DETECT_REGION, || {
            for cam in &mut self.cameras {
                cam.detections.clear();
                for task in &cam.tasks {
                    cam.detections.extend(layers::detect_region(
                        &cam.detector,
                        task,
                        &cam.view,
                        &mut cam.rng,
                    ));
                }
                cam.detections.sort_by_key(|d| d.truth_id);
                cam.detections
                    .dedup_by(|a, b| a.truth_id.is_some() && a.truth_id == b.truth_id);
            }
        });

        log.time(span::TRACK, || {
            for cam in &mut self.cameras {
                layers::track_associate(&mut cam.tracker, &cam.detections);
            }
        });

        // Index-ordered merge of this frame's takeovers, as the frame loop does.
        for (i, cam) in self.cameras.iter().enumerate() {
            self.counts.takeovers += cam.seeds.len() as u64;
            for &(g, _) in &cam.seeds {
                self.assignment[g].push(i);
            }
        }
        for cam in &mut self.cameras {
            cam.seeds.clear();
        }
    }
}
