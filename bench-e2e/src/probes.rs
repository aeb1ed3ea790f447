//! Probes that are not part of the frame replay: kernel and queue
//! micro-loops on recorded inputs, the serve layer's snapshot, recovery and
//! bare-pipeline cost, and a two-thread pass. The work of each is fixed, so
//! every count reported from it is the same on every run.

use crate::episode::{ns_since, Live};
use crate::layers;
use crate::replay::Replay;
use crate::spans::SpanLog;
use crate::workload::{tenant_deployment, EpisodeSpec};
use mvs_geometry::BBoxSoA;
use mvs_sim::{AdmissionDecision, IngestLane, ServeConfig, ServeLoop, ServeReport, TenantPipeline};
use std::hint::black_box;
use std::time::Instant;

/// Rounds per micro-probe; the fastest round is reported (same estimator
/// as the envelope, for the same reason).
const ROUNDS: usize = 5;

/// Fastest of [`ROUNDS`] rounds of `f`, in ns.
fn fastest_round(mut f: impl FnMut()) -> u64 {
    (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            f();
            ns_since(t)
        })
        .min()
        .expect("ROUNDS > 0")
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Micro {
    pub iou_ns_per_pair: f64,
    pub cover_ns_per_pair: f64,
    pub knn_query_ns: f64,
    pub knn_train_samples: usize,
    pub dispatch_ns: f64,
    /// Lanes the dispatch probe fanned out over (2, or 1 on a 1-cpu host).
    pub dispatch_lanes: usize,
    pub lane_op_ns: f64,
}

/// Kernel, KNN, dispatch and lane micro-loops on boxes the replay recorded.
pub fn micro(replay: &Replay, cpus: usize, log: &mut SpanLog) -> Micro {
    const KERNEL_BOXES: usize = 64;
    const KERNEL_REPS: usize = 400;
    let boxes = &replay.seen_boxes;
    assert!(boxes.len() >= 2, "the replay saw no objects");
    let half = (boxes.len() / 2).min(KERNEL_BOXES);
    let a = BBoxSoA::from_boxes(&boxes[..half]);
    let b = BBoxSoA::from_boxes(&boxes[half..2 * half]);
    let pairs = (half * half * KERNEL_REPS) as f64;

    let mut ious = Vec::new();
    let iou_ns = log.time("geometry.iou", || {
        fastest_round(|| {
            for _ in 0..KERNEL_REPS {
                layers::iou_matrix(black_box(&a), black_box(&b), &mut ious);
                black_box(&ious);
            }
        })
    });
    let mut covered = Vec::new();
    let cover_ns = log.time("geometry.cover", || {
        fastest_round(|| {
            for _ in 0..KERNEL_REPS {
                layers::covered_mask(black_box(&a), black_box(&b), &mut covered);
                black_box(&covered);
            }
        })
    });

    let (knn_train_samples, src, dst) = replay.largest_pair;
    let queries = &boxes[..boxes.len().min(256)];
    let knn_ns = log.time("ml.knn_query", || {
        fastest_round(|| {
            for q in queries {
                black_box(layers::knn_query(&replay.trained, src, dst, black_box(q)));
            }
        })
    });

    const DISPATCH_REPS: usize = 2_000;
    let items = vec![0u32; replay.num_cameras()];
    let dispatch_lanes = cpus.min(2);
    let dispatch_ns = log.time("exec.dispatch", || {
        fastest_round(|| {
            for _ in 0..DISPATCH_REPS {
                black_box(layers::dispatch(black_box(&items), dispatch_lanes));
            }
        })
    });

    const LANE_OPS: u64 = 100_000;
    let mut lane = IngestLane::new();
    let mut next_frame = 0u64;
    let lane_ns = log.time("sim.serve.lane_op", || {
        fastest_round(|| {
            for _ in 0..LANE_OPS {
                black_box(layers::lane_op(&mut lane, next_frame));
                next_frame += 1;
            }
        })
    });

    Micro {
        iou_ns_per_pair: iou_ns as f64 / pairs,
        cover_ns_per_pair: cover_ns as f64 / pairs,
        knn_query_ns: knn_ns as f64 / queries.len() as f64,
        knn_train_samples,
        dispatch_ns: dispatch_ns as f64 / DISPATCH_REPS as f64,
        dispatch_lanes,
        lane_op_ns: lane_ns as f64 / LANE_OPS as f64,
    }
}

/// Snapshot and recovery cost at mid-run, where the replay recipes carry
/// half the run's history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    pub snapshot_ns: f64,
    /// Length of the snapshot serialized as JSON.
    pub snapshot_bytes: usize,
    pub recover_s: f64,
}

pub fn checkpoint(config: &ServeConfig, log: &mut SpanLog) -> Checkpoint {
    let mut live = ServeLoop::new(config).expect("workload serve configs validate");
    live.run_until((config.duration_s * 1e6 / 2.0) as u64);
    let snapshot_ns = log.time("sim.serve.snapshot", || {
        fastest_round(|| {
            black_box(layers::serve_snapshot(&live));
        })
    });
    let snapshot = layers::serve_snapshot(&live);
    let snapshot_bytes = serde_json::to_string(&snapshot)
        .expect("snapshots serialize")
        .len();
    drop(live);
    let t = Instant::now();
    let recovered = log.time("sim.serve.recover", || {
        layers::serve_recover(config, &snapshot)
    });
    let recover_s = t.elapsed().as_secs_f64();
    drop(recovered);
    Checkpoint {
        snapshot_ns: snapshot_ns as f64,
        snapshot_bytes,
        recover_s,
    }
}

/// The served tenants as bare pipelines, without the serve loop around them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bare {
    /// Wall of stepping (and finishing) every tenant's processed frames.
    pub ns: u64,
    /// Frames processed, by kind.
    pub key_frames: u64,
    pub regular_frames: u64,
    pub takeovers: u64,
    pub probes: u64,
}

/// Steps each tenant of `config` as a stand-alone `TenantPipeline` for as
/// many frames as `report` says the serve loop processed for it, thinned by
/// the tenant's final `keep_every`: what the pipelines alone cost. Queue
/// drops and quarantine gaps are not reproduced (the report does not say
/// which frames they hit), so the frames are the first ones, back to back.
pub fn bare_pipelines(config: &ServeConfig, report: &ServeReport) -> Bare {
    let frames_due = (config.duration_s * config.fps).round() as u64;
    let mut bare = Bare {
        ns: 0,
        key_frames: 0,
        regular_frames: 0,
        takeovers: 0,
        probes: 0,
    };
    for tenant in &report.tenants {
        if tenant.processed == 0 {
            continue;
        }
        let keep_every = match tenant.decision {
            AdmissionDecision::Degraded { keep_every } => keep_every,
            _ => 1,
        };
        let (scenario, pipeline_config) = tenant_deployment(config, tenant.tenant);
        let horizon = pipeline_config.horizon;
        let mut pipeline = TenantPipeline::new(&scenario, &pipeline_config);
        for _ in 0..horizon {
            black_box(pipeline.step()); // the admission pilot
        }
        let t = Instant::now();
        let mut done = 0;
        for frame in 0..frames_due {
            if done == tenant.processed {
                break;
            }
            if frame % keep_every == 0 {
                if pipeline.next_frame().is_multiple_of(horizon) {
                    bare.key_frames += 1;
                } else {
                    bare.regular_frames += 1;
                }
                black_box(pipeline.step());
                done += 1;
            } else {
                pipeline.skip();
            }
        }
        let (result, _) = pipeline.finish();
        bare.ns += ns_since(t);
        bare.takeovers += result.stats.takeovers as u64;
        bare.probes += result.stats.probes as u64;
    }
    bare
}

/// One pass over the first `best.len()` steps of `spec`, keeping each
/// step's fastest time so far in `best`.
pub fn step_prefix(spec: &EpisodeSpec, best: &mut [u64]) {
    let mut live = Live::build(spec);
    for (k, slot) in best.iter_mut().enumerate() {
        let t = Instant::now();
        black_box(live.step(k));
        *slot = (*slot).min(ns_since(t));
    }
}
