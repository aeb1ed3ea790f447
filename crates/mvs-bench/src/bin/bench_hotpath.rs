//! Perf-trajectory artifact: the data-oriented (SoA) vision kernels
//! against their retained scalar references, written to
//! `results/BENCH_hotpath.json`.
//!
//! The workload is the per-frame steady state of an S2-style two-camera
//! deployment (Xavier + Nano). One kernel battery — a displacement lookup
//! per track, cluster×predicted pairwise IoU, new-region detection, and the
//! per-camera batched latency model — runs once through the scalar
//! references ([`ScalarFlowField`], [`find_new_regions_into`],
//! [`SizeCounts`]) and once through the SoA kernels the hot path ships
//! ([`FlowField`]/`FlowSoA`, [`BBoxSoA::iou_matrix_into`],
//! [`NewRegionFinder`], [`SizeCountsBatch`]). Both arms query flow fields
//! prebuilt outside the clock: field *construction* is RNG-bound detector
//! simulation whose cost is identical in either layout (the gaussian draw
//! order is pinned by the determinism contract), so timing it would only
//! dilute the layout comparison toward 1x. The reported `soa_speedup` is
//! the scalar/SoA frame-time ratio over the kernel battery.
//!
//! A verification pass runs first and asserts the arms produce identical
//! clusters, displacement bits, IoU matrices, fresh regions, and latency
//! bits on every frame; only then are they timed.
//!
//! The program's own frame loop is not measured here: tier-1
//! `steady_state_allocs` gates its allocations and `bench-e2e/` times it
//! (`allocs_per_step`, the per-layer ledger).
//!
//! `--check` compares a fresh run against the checked-in
//! `results/BENCH_hotpath.json` (left as it is) and exits nonzero if the
//! SoA kernel speedup fell below its absolute 1.3x floor or more than 15%
//! below the checked-in ratio. Comparing ratios rather than absolute times
//! keeps the check portable across CI machines. Without `--check` the run
//! rewrites that file.
//!
//! Run with `cargo run --release -p mvs-bench --bin bench_hotpath`.

use mvs_bench::{results_dir, write_json, SEED};
use mvs_geometry::{BBox, BBoxSoA, FrameDims, Point2, SizeClass};
use mvs_metrics::TextTable;
use mvs_vision::{
    find_new_regions_into, DeviceKind, FlowField, GroundTruthObject, LatencyProfile,
    NewRegionFinder, ScalarFlowField, SizeCounts, SizeCountsBatch, Track, TrackId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Cameras in the deployment (S2: one Xavier, one Nano).
const M: usize = 2;
/// Ground-truth objects each camera sees (vision-stage workload; dense
/// enough that the pairwise kernels dominate the vision stages).
const VIEW_OBJECTS: usize = 64;
/// Frames run before the timer starts (fills scratch high-water marks).
const WARMUP_FRAMES: usize = 200;
/// Frames in the measured steady-state window.
const MEASURED_FRAMES: usize = 2000;
/// Timed repetitions per arm; the reported time is the minimum (the
/// standard noise-robust estimator — scheduler interference only ever
/// adds time). Arms are interleaved so drift hits both equally.
const REPS: usize = 5;
/// Optical-flow estimation noise (matches the pipeline's default scale).
const NOISE_PX: f64 = 1.5;

/// Pre-generated deterministic workload shared by both arms.
struct Workload {
    /// `[frame][camera]` ground-truth views (frame 0's previous view is
    /// empty, as at a horizon start).
    views: Vec<Vec<Vec<GroundTruthObject>>>,
    /// `[frame][camera]` current track lists.
    tracks: Vec<Vec<Vec<Track>>>,
}

impl Workload {
    fn generate(frames: usize) -> Workload {
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        let frame = FrameDims::REGULAR;

        // Per camera, a fixed population of objects drifting horizontally
        // with wraparound. Tracks mirror the views one frame behind (as
        // the tracker would predict them).
        let mut views = Vec::with_capacity(frames);
        let mut tracks = Vec::with_capacity(frames);
        // `(id, x0, y0, side, vx)` per object.
        type ObjectSpec = (u64, f64, f64, f64, f64);
        let spec: Vec<Vec<ObjectSpec>> = (0..M)
            .map(|cam| {
                (0..VIEW_OBJECTS)
                    .map(|k| {
                        let id = (cam * 1000 + k) as u64;
                        let x0 = rng.gen_range(0.0..frame.width as f64 - 140.0);
                        let y0 = rng.gen_range(0.0..frame.height as f64 - 140.0);
                        let side = rng.gen_range(40.0..130.0);
                        let vx = rng.gen_range(-4.0..4.0);
                        (id, x0, y0, side, vx)
                    })
                    .collect()
            })
            .collect();
        let view_at = |cam: usize, f: usize| -> Vec<GroundTruthObject> {
            spec[cam]
                .iter()
                .map(|&(id, x0, y0, side, vx)| {
                    let span = frame.width as f64 - side;
                    let x = (x0 + vx * f as f64).rem_euclid(span);
                    GroundTruthObject {
                        id,
                        bbox: BBox::new(x, y0, x + side, y0 + side)
                            .expect("positive extent by construction"),
                    }
                })
                .collect()
        };
        for f in 0..frames {
            views.push((0..M).map(|cam| view_at(cam, f)).collect::<Vec<_>>());
            tracks.push(
                (0..M)
                    .map(|cam| {
                        view_at(cam, f.saturating_sub(1))
                            .into_iter()
                            .map(|o| Track {
                                id: TrackId(o.id),
                                bbox: o.bbox,
                                size: SizeClass::quantize(o.bbox.width(), o.bbox.height()),
                                age: 1,
                                misses: 0,
                                last_truth: Some(o.id),
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>(),
            );
        }

        Workload { views, tracks }
    }

    fn prev_view(&self, f: usize, cam: usize) -> &[GroundTruthObject] {
        if f == 0 {
            &[]
        } else {
            &self.views[f - 1][cam]
        }
    }
}
/// Flow fields prebuilt for the two arms, `[frame][camera]`, in both
/// layouts. Construction consumes the RNG identically for both (asserted
/// at build time), so the timed arms are pure layout comparisons.
struct KernelFields {
    scalar: Vec<Vec<ScalarFlowField>>,
    soa: Vec<Vec<FlowField>>,
}

impl KernelFields {
    fn build(w: &Workload, frames: usize) -> KernelFields {
        let mut scalar_rng = ChaCha8Rng::seed_from_u64(SEED ^ 0x50a);
        let mut soa_rng = scalar_rng.clone();
        let mut scalar = Vec::with_capacity(frames);
        let mut soa = Vec::with_capacity(frames);
        for f in 0..frames {
            scalar.push(
                (0..M)
                    .map(|cam| {
                        ScalarFlowField::estimate(
                            w.prev_view(f, cam),
                            &w.views[f][cam],
                            NOISE_PX,
                            &mut scalar_rng,
                        )
                    })
                    .collect::<Vec<_>>(),
            );
            soa.push(
                (0..M)
                    .map(|cam| {
                        FlowField::estimate(
                            w.prev_view(f, cam),
                            &w.views[f][cam],
                            NOISE_PX,
                            &mut soa_rng,
                        )
                    })
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(
            scalar_rng.gen::<u64>(),
            soa_rng.gen::<u64>(),
            "field construction consumed the RNG differently"
        );
        KernelFields { scalar, soa }
    }
}

/// Scratch for the scalar (AoS) kernel arm: the retained reference
/// implementations with reusable buffers.
#[derive(Default)]
struct ScalarKernelScratch {
    predicted: Vec<BBox>,
    iou: Vec<f64>,
    fresh: Vec<BBox>,
    counts: SizeCounts,
}

/// Scratch for the SoA kernel arm: the column-major kernels the hot path
/// ships.
#[derive(Default)]
struct SoaKernelScratch {
    predicted: Vec<BBox>,
    centers: Vec<Point2>,
    best_area: Vec<f64>,
    best: Vec<u32>,
    displacements: Vec<Point2>,
    cluster_cols: BBoxSoA,
    predicted_cols: BBoxSoA,
    iou: Vec<f64>,
    finder: NewRegionFinder,
    fresh: Vec<BBox>,
    batch: SizeCountsBatch,
}

/// One frame of the scalar kernel battery: a displacement lookup per
/// track, the cluster×predicted IoU matrix via [`BBox::iou`] pairs, AoS
/// new-region detection, and the per-camera [`SizeCounts`] latency model.
/// Every result is folded into `acc` bit by bit so the SoA arm can be
/// checked for bitwise identity.
fn scalar_kernel_frame(
    w: &Workload,
    fields: &KernelFields,
    f: usize,
    profiles: &[LatencyProfile],
    s: &mut ScalarKernelScratch,
    acc: &mut u64,
) {
    // Range loop kept deliberately: the constant `M` trip count is what
    // lets the per-camera body unroll; iterator-chain variants cost ~10%
    // on the timed kernels.
    #[allow(clippy::needless_range_loop)]
    for cam in 0..M {
        let flow = &fields.scalar[f][cam];
        let profile = &profiles[cam];
        for t in &w.tracks[f][cam] {
            let v = flow.displacement_at(t.bbox.center()).displacement;
            *acc = acc.rotate_left(9) ^ v.x.to_bits() ^ v.y.to_bits().rotate_left(17);
        }
        s.predicted.clear();
        s.predicted.extend(w.tracks[f][cam].iter().map(|t| t.bbox));
        s.iou.clear();
        for c in flow.moving_clusters() {
            for p in &s.predicted {
                s.iou.push(c.iou(p));
            }
        }
        // Order-independent xor over the matrix, mixed into the running
        // fold once: a reduction both arms compute identically that stays
        // out of the kernels' way (it vectorizes).
        let mut matrix_bits: u64 = 0;
        for &v in &s.iou {
            matrix_bits ^= v.to_bits();
        }
        *acc = acc.rotate_left(1) ^ matrix_bits;
        find_new_regions_into(flow.moving_clusters(), &s.predicted, 0.5, &mut s.fresh);
        *acc = acc.rotate_left(5) ^ s.fresh.len() as u64;
        s.counts.clear();
        for t in &w.tracks[f][cam] {
            s.counts.add(t.size);
        }
        *acc = acc.rotate_left(11) ^ s.counts.latency_ms(profile).to_bits();
    }
}

/// One frame of the SoA kernel battery: identical inputs, identical fold
/// order, but through `FlowSoA`'s column scan,
/// [`BBoxSoA::iou_matrix_into`], [`NewRegionFinder`], and one
/// [`SizeCountsBatch`] covering every camera.
fn soa_kernel_frame(
    w: &Workload,
    fields: &KernelFields,
    f: usize,
    profiles: &[LatencyProfile],
    s: &mut SoaKernelScratch,
    acc: &mut u64,
) {
    s.batch.reset(M);
    // Same constant-trip-count range loop as the scalar arm (see there).
    #[allow(clippy::needless_range_loop)]
    for cam in 0..M {
        let flow = &fields.soa[f][cam];
        let profile = &profiles[cam];
        // Batched track prediction: one column sweep answers every
        // track's displacement query.
        s.centers.clear();
        s.centers
            .extend(w.tracks[f][cam].iter().map(|t| t.bbox.center()));
        flow.soa().displacements_at_into(
            &s.centers,
            &mut s.best_area,
            &mut s.best,
            &mut s.displacements,
        );
        for v in &s.displacements {
            *acc = acc.rotate_left(9) ^ v.x.to_bits() ^ v.y.to_bits().rotate_left(17);
        }
        s.predicted.clear();
        s.predicted.extend(w.tracks[f][cam].iter().map(|t| t.bbox));
        s.cluster_cols.fill_from_boxes(flow.moving_clusters());
        s.predicted_cols.fill_from_boxes(&s.predicted);
        s.cluster_cols
            .iou_matrix_into(&s.predicted_cols, &mut s.iou);
        let mut matrix_bits: u64 = 0;
        for &v in &s.iou {
            matrix_bits ^= v.to_bits();
        }
        *acc = acc.rotate_left(1) ^ matrix_bits;
        s.finder
            .find_into(flow.moving_clusters(), &s.predicted, 0.5, &mut s.fresh);
        *acc = acc.rotate_left(5) ^ s.fresh.len() as u64;
        for t in &w.tracks[f][cam] {
            s.batch.add(cam, t.size);
        }
        *acc = acc.rotate_left(11) ^ s.batch.latency_row_ms(cam, profile).to_bits();
    }
}

/// Runs both kernel arms frame-by-frame and asserts bitwise-identical
/// outputs before any timing happens. The per-frame structural asserts
/// (clusters, IoU bits, fresh regions) cover the last camera's buffers;
/// the checksum compare covers every camera, displacement, and latency.
fn verify_kernels(w: &Workload, fields: &KernelFields, frames: usize, profiles: &[LatencyProfile]) {
    let mut scalar = ScalarKernelScratch::default();
    let mut soa = SoaKernelScratch::default();
    for f in 0..frames {
        for cam in 0..M {
            assert_eq!(
                fields.scalar[f][cam].moving_clusters(),
                fields.soa[f][cam].moving_clusters(),
                "frame {f} cam {cam}: moving clusters diverge"
            );
        }
        let mut scalar_acc: u64 = 0;
        let mut soa_acc: u64 = 0;
        scalar_kernel_frame(w, fields, f, profiles, &mut scalar, &mut scalar_acc);
        soa_kernel_frame(w, fields, f, profiles, &mut soa, &mut soa_acc);
        let scalar_iou: Vec<u64> = scalar.iou.iter().map(|v| v.to_bits()).collect();
        let soa_iou: Vec<u64> = soa.iou.iter().map(|v| v.to_bits()).collect();
        assert_eq!(scalar_iou, soa_iou, "frame {f}: IoU matrix bits diverge");
        assert_eq!(scalar.fresh, soa.fresh, "frame {f}: fresh regions diverge");
        assert_eq!(
            scalar_acc, soa_acc,
            "frame {f}: kernel checksums (displacement/latency bits) diverge"
        );
    }
}

/// One arm's steady-state frame time and the checksum of what it computed.
struct ArmResult {
    ms_per_frame: f64,
    checksum: u64,
}

/// Timed run of one kernel arm: warm-up frames fill the scratch, then the
/// measured window is clocked and folded into a checksum.
fn run_kernel_arm<S: Default>(
    w: &Workload,
    fields: &KernelFields,
    profiles: &[LatencyProfile],
    frame_fn: impl Fn(&Workload, &KernelFields, usize, &[LatencyProfile], &mut S, &mut u64),
) -> ArmResult {
    let mut scratch = S::default();
    let mut acc: u64 = 0;
    for f in 0..WARMUP_FRAMES {
        frame_fn(w, fields, f, profiles, &mut scratch, &mut acc);
    }
    acc = 0;
    let start = Instant::now();
    for f in WARMUP_FRAMES..WARMUP_FRAMES + MEASURED_FRAMES {
        frame_fn(w, fields, f, profiles, &mut scratch, &mut acc);
    }
    let elapsed = start.elapsed();
    ArmResult {
        ms_per_frame: elapsed.as_secs_f64() * 1e3 / MEASURED_FRAMES as f64,
        checksum: acc,
    }
}

#[derive(Serialize, Deserialize)]
struct Report {
    cameras: usize,
    view_objects: usize,
    warmup_frames: usize,
    measured_frames: usize,
    /// Steady-state per-frame time of the scalar (AoS) kernel battery.
    scalar_kernel_ms_per_frame: f64,
    /// Same battery through the data-oriented (SoA) kernels.
    soa_kernel_ms_per_frame: f64,
    /// Scalar kernel time over SoA kernel time (higher is better).
    soa_speedup: f64,
}

/// `--check` tolerance: fail when the speedup ratio falls more than this
/// factor below the checked-in one (a machine-portable "frame time
/// regressed by >15%" signal).
const CHECK_TOLERANCE: f64 = 1.15;

/// Absolute floor on the SoA kernel speedup: the data-oriented rewrite
/// must stay at least this much faster than the scalar references on the
/// check machine, independent of the checked-in ratio.
const SOA_SPEEDUP_FLOOR: f64 = 1.3;

fn check_against(report: &Report, baseline_path: &std::path::Path) -> Result<(), String> {
    let shown = baseline_path.display();
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {shown}: {e}"))?;
    let baseline: Report =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {shown}: {e}"))?;
    if report.soa_speedup < SOA_SPEEDUP_FLOOR {
        return Err(format!(
            "SoA kernel regression: speedup {:.2}x fell below the {SOA_SPEEDUP_FLOOR}x floor",
            report.soa_speedup
        ));
    }
    if report.soa_speedup < baseline.soa_speedup / CHECK_TOLERANCE {
        return Err(format!(
            "SoA kernel regression: speedup {:.2}x fell below baseline {:.2}x / {}",
            report.soa_speedup, baseline.soa_speedup, CHECK_TOLERANCE
        ));
    }
    Ok(())
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");

    let frames = WARMUP_FRAMES + MEASURED_FRAMES;
    eprintln!("generating workload ({frames} frames)...");
    let w = Workload::generate(frames);
    let profiles = [
        LatencyProfile::for_device(DeviceKind::Xavier),
        LatencyProfile::for_device(DeviceKind::Nano),
    ];
    eprintln!("prebuilding flow fields...");
    let fields = KernelFields::build(&w, frames);
    eprintln!("verifying scalar and SoA kernel arms agree bitwise...");
    verify_kernels(&w, &fields, frames, &profiles);
    eprintln!("timing {REPS} interleaved repetitions per arm...");
    let mut scalar =
        run_kernel_arm::<ScalarKernelScratch>(&w, &fields, &profiles, scalar_kernel_frame);
    let mut soa = run_kernel_arm::<SoaKernelScratch>(&w, &fields, &profiles, soa_kernel_frame);
    assert_eq!(
        scalar.checksum, soa.checksum,
        "timed kernel arms diverged after verification"
    );
    for _ in 1..REPS {
        let sc = run_kernel_arm::<ScalarKernelScratch>(&w, &fields, &profiles, scalar_kernel_frame);
        let so = run_kernel_arm::<SoaKernelScratch>(&w, &fields, &profiles, soa_kernel_frame);
        scalar.ms_per_frame = scalar.ms_per_frame.min(sc.ms_per_frame);
        soa.ms_per_frame = soa.ms_per_frame.min(so.ms_per_frame);
    }

    let report = Report {
        cameras: M,
        view_objects: VIEW_OBJECTS,
        warmup_frames: WARMUP_FRAMES,
        measured_frames: MEASURED_FRAMES,
        scalar_kernel_ms_per_frame: scalar.ms_per_frame,
        soa_kernel_ms_per_frame: soa.ms_per_frame,
        soa_speedup: scalar.ms_per_frame / soa.ms_per_frame,
    };

    let mut kernels = TextTable::new(vec!["metric", "scalar", "soa"]);
    kernels.row(vec![
        "kernel ms/frame".to_string(),
        format!("{:.4}", report.scalar_kernel_ms_per_frame),
        format!("{:.4}", report.soa_kernel_ms_per_frame),
    ]);
    println!("{kernels}");
    println!("soa kernel speedup: {:.2}x", report.soa_speedup);

    if check {
        let baseline_path = results_dir().join("BENCH_hotpath.json");
        match check_against(&report, &baseline_path) {
            Ok(()) => println!("regression check vs {}: OK", baseline_path.display()),
            Err(msg) => {
                eprintln!("regression check vs {}: {msg}", baseline_path.display());
                std::process::exit(1);
            }
        }
    } else {
        let path = write_json("BENCH_hotpath", &report);
        println!("wrote {}", path.display());
    }
}
