//! Chaos benchmark: the `mvs serve` event loop swept over seeded fault
//! schedules, written to `results/BENCH_chaos.json`.
//!
//! Each mix runs [`run_serve`] under a different failure regime —
//! coordinator crashes restored from checkpoints, per-tenant pipeline
//! poison with quarantine and re-admission, compute-pool degradation
//! forcing mid-run admission re-evaluation, and a storm combining all of
//! them with the camera-level fault model. After every run the bin
//! machine-checks the serve invariants that must survive any fault
//! schedule:
//!
//! * frame conservation — `captured == processed + queue_dropped +
//!   policy_skipped + replayed`, per tenant and in aggregate;
//! * bounded lanes — no ingest lane ever exceeds depth 1;
//! * no stuck tenant — every non-rejected tenant that captured frames
//!   either processed some or ended quarantined;
//! * sane recovery accounting — availability in [0, 1], MTTR and the
//!   post-recovery p99 finite whenever a restart happened.
//!
//! Every number is *modeled*: the event loop runs on a virtual clock and
//! the chaos schedule is drawn from its own seeded stream, so the whole
//! report is a deterministic function of the configs and bitwise
//! reproducible on any host; `scripts/regen-results.sh --check` holds the
//! checked-in file to what this bin writes.
//!
//! Run with `cargo run --release -p mvs-bench --bin bench_chaos`.

use mvs_bench::{write_json, SEED};
use mvs_metrics::TextTable;
use mvs_sim::{run_serve, FaultModel, PoolDegrade, ServeConfig, ServeFaultModel, ServeReport};
use serde::Serialize;

/// One fault regime of the sweep.
struct Mix {
    name: &'static str,
    config: ServeConfig,
}

/// Base serving workload shared by every regime: 6 tenants × 6 cameras
/// at 10 fps with the pool sized so the ladder is exercised but most of
/// the fleet is admitted — faults, not overload, drive the story.
fn base() -> ServeConfig {
    ServeConfig {
        tenants: 6,
        cameras_per_tenant: 6,
        fps: 10.0,
        duration_s: 15.0,
        capacity_cores: 12.0,
        seed: SEED,
        train_s: 12.0,
        ..ServeConfig::default()
    }
}

/// The storm: coordinator crashes, pipeline poison, pool degradation,
/// and the camera-level fault model all at once. The headline mix.
fn storm() -> ServeConfig {
    ServeConfig {
        faults: FaultModel {
            keyframe_loss: 0.05,
            dropout_per_horizon: 0.05,
            rejoin_per_horizon: 0.3,
            ..FaultModel::none()
        },
        chaos: ServeFaultModel {
            seed: SEED,
            crash_at_us: vec![4_000_000, 9_500_000],
            poison_per_frame: 0.01,
            quarantine_us: 2_000_000,
            degrades: vec![
                PoolDegrade {
                    at_us: 6_000_000,
                    capacity_factor: 0.6,
                    service_inflation: 1.3,
                },
                PoolDegrade {
                    at_us: 12_000_000,
                    capacity_factor: 1.0,
                    service_inflation: 1.0,
                },
            ],
            ..ServeFaultModel::none()
        },
        snapshot_every_horizons: 1,
        ..base()
    }
}

fn mixes() -> Vec<Mix> {
    vec![
        Mix {
            name: "crash-recover",
            config: ServeConfig {
                chaos: ServeFaultModel {
                    seed: SEED,
                    crash_at_us: vec![5_000_000, 10_000_000],
                    ..ServeFaultModel::none()
                },
                snapshot_every_horizons: 1,
                ..base()
            },
        },
        Mix {
            name: "poison-quarantine",
            config: ServeConfig {
                chaos: ServeFaultModel {
                    seed: SEED,
                    poison_per_frame: 0.005,
                    quarantine_us: 2_000_000,
                    ..ServeFaultModel::none()
                },
                ..base()
            },
        },
        Mix {
            name: "pool-degrade",
            config: ServeConfig {
                chaos: ServeFaultModel {
                    seed: SEED,
                    degrades: vec![
                        PoolDegrade {
                            at_us: 5_000_000,
                            capacity_factor: 0.5,
                            service_inflation: 1.5,
                        },
                        PoolDegrade {
                            at_us: 10_000_000,
                            capacity_factor: 1.0,
                            service_inflation: 1.0,
                        },
                    ],
                    ..ServeFaultModel::none()
                },
                ..base()
            },
        },
        Mix {
            name: "chaos-storm",
            config: storm(),
        },
    ]
}

#[derive(Serialize)]
struct MixRow {
    name: String,
    tenants: usize,
    cameras_per_tenant: usize,
    capacity_cores: f64,
    restarts: u64,
    quarantines: u64,
    readmissions: u64,
    poisoned_steps: u64,
    replayed: u64,
    snapshots_taken: u64,
    transitions: usize,
    mttr_ms: f64,
    availability: f64,
    post_recovery_p99_ms: f64,
    captured: u64,
    processed: u64,
    drop_rate: f64,
    e2e_p99_ms: f64,
    core_utilization: f64,
}

#[derive(Serialize)]
struct Report {
    seed: u64,
    /// Storm-mix post-recovery end-to-end p99.
    headline_post_recovery_p99_ms: f64,
    /// Storm-mix mean time to recover.
    headline_mttr_ms: f64,
    /// Storm-mix availability.
    headline_availability: f64,
    mixes: Vec<MixRow>,
}

/// Machine-check the invariants that must hold under *any* fault
/// schedule. Panics (failing the bench and the CI step) on violation.
fn assert_invariants(name: &str, report: &ServeReport) {
    let mut captured = 0u64;
    for t in &report.tenants {
        assert!(
            t.max_lane_depth <= 1,
            "{name}/tenant {}: lane depth {} > 1",
            t.tenant,
            t.max_lane_depth
        );
        assert_eq!(
            t.captured,
            t.processed + t.queue_dropped + t.policy_skipped + t.replayed,
            "{name}/tenant {}: frame conservation violated",
            t.tenant
        );
        captured += t.captured;
    }
    assert_eq!(
        report.captured, captured,
        "{name}: aggregate capture count disagrees with tenants"
    );
    assert_eq!(
        report.captured,
        report.processed + report.queue_dropped + report.policy_skipped + report.replayed,
        "{name}: aggregate frame conservation violated"
    );
    assert!(
        (0.0..=1.0).contains(&report.availability),
        "{name}: availability {} outside [0, 1]",
        report.availability
    );
    if report.recovery.restarts > 0 {
        assert!(
            report.recovery.mttr_us().is_finite() && report.recovery.mttr_us() > 0.0,
            "{name}: restarts happened but MTTR is {}",
            report.recovery.mttr_us()
        );
        assert!(
            report.post_recovery_e2e_ms.p99.is_finite(),
            "{name}: post-recovery p99 not finite after a restart"
        );
        assert!(report.availability < 1.0, "{name}: outage left no trace");
    }
    // No stuck tenant: anyone who captured frames and was not rejected
    // outright either processed work or sits in a terminal quarantine.
    for t in &report.tenants {
        let rejected = format!("{:?}", t.decision).starts_with("Rejected");
        let quarantined = format!("{:?}", t.decision).starts_with("Quarantined");
        if t.captured > 0 && !rejected && !quarantined {
            assert!(
                t.processed > 0,
                "{name}/tenant {}: captured {} frames, processed none, not quarantined",
                t.tenant,
                t.captured
            );
        }
    }
}

fn row(name: &str, report: &ServeReport) -> MixRow {
    MixRow {
        name: name.to_string(),
        tenants: report.config.tenants,
        cameras_per_tenant: report.config.cameras_per_tenant,
        capacity_cores: report.config.capacity_cores,
        restarts: report.recovery.restarts,
        quarantines: report.recovery.quarantines,
        readmissions: report.recovery.readmissions,
        poisoned_steps: report.recovery.poisoned_steps,
        replayed: report.replayed,
        snapshots_taken: report.recovery.snapshots_taken,
        transitions: report.transitions.len(),
        mttr_ms: report.recovery.mttr_us() / 1e3,
        availability: report.availability,
        post_recovery_p99_ms: report.post_recovery_e2e_ms.p99,
        captured: report.captured,
        processed: report.processed,
        drop_rate: report.drop_rate,
        e2e_p99_ms: report.e2e_ms.p99,
        core_utilization: report.core_utilization,
    }
}

fn main() {
    let mut rows = Vec::new();
    let mut table = TextTable::new(vec![
        "mix",
        "restarts",
        "quar/readm",
        "replayed",
        "mttr (ms)",
        "avail",
        "post-rec p99",
        "e2e p99 (ms)",
    ]);
    for mix in mixes() {
        let report = run_serve(&mix.config);
        assert_invariants(mix.name, &report);
        let r = row(mix.name, &report);
        table.row(vec![
            r.name.clone(),
            format!("{}", r.restarts),
            format!("{}/{}", r.quarantines, r.readmissions),
            format!("{}", r.replayed),
            format!("{:.1}", r.mttr_ms),
            format!("{:.4}", r.availability),
            format!("{:.1}", r.post_recovery_p99_ms),
            format!("{:.1}", r.e2e_p99_ms),
        ]);
        rows.push(r);
    }

    let headline = rows.last().expect("sweep has mixes");
    assert!(
        headline.restarts > 0,
        "storm mix must exercise crash recovery"
    );
    let report = Report {
        seed: SEED,
        headline_post_recovery_p99_ms: headline.post_recovery_p99_ms,
        headline_mttr_ms: headline.mttr_ms,
        headline_availability: headline.availability,
        mixes: rows,
    };

    println!("Serve-layer chaos sweep (virtual clock, deterministic)\n");
    println!("{table}");
    println!(
        "headline: storm post-recovery p99 {:.1} ms, MTTR {:.1} ms, availability {:.4}",
        report.headline_post_recovery_p99_ms, report.headline_mttr_ms, report.headline_availability
    );

    let path = write_json("BENCH_chaos", &report);
    println!("\nwrote {}", path.display());
}
