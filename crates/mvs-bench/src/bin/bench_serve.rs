//! Multi-tenant serving benchmark: the `mvs serve` event loop swept over
//! tenant mixes on the city generator, written to
//! `results/BENCH_serve.json`.
//!
//! Each mix runs [`run_serve`]: N independently seeded city tenants
//! multiplexed onto one provisioned compute pool through depth-1
//! latest-frame-wins ingest lanes, with the admission ladder (shed
//! redundancy → frame thinning → reject) squeezing the aggregate modeled
//! load under the capacity budget. Per mix the bin reports admission
//! decisions, the end-to-end p99 latency (capture → completion, queueing
//! included), the combined drop rate (backpressure + policy thinning),
//! and pool utilization.
//!
//! Every number here is *modeled* — the event loop runs on a virtual
//! clock and is a deterministic function of the config — so the results
//! are bitwise reproducible on any host, and `scripts/regen-results.sh
//! --check` holds the checked-in file to what this bin writes.
//!
//! The flagship mix is the ISSUE 7 acceptance workload: 16 tenants × 8
//! cameras at 10 fps under the fault model (key-frame loss and camera
//! dropout), which must complete with zero panics and bounded lanes.
//!
//! The flagship shape (4 and 16 tenants) also runs for real at 1 and 8
//! threads and the two reports must be equal — the serve layer's parallel
//! phases may never show in a report. Wall-clock serve throughput is
//! measured by `bench-e2e/` (`serve-steady`, `serve-chaos`), not here.
//!
//! Run with `cargo run --release -p mvs-bench --bin bench_serve`.

use mvs_bench::{write_json, SEED};
use mvs_metrics::TextTable;
use mvs_sim::{run_serve, FaultModel, ServeConfig, ServeReport};
use serde::Serialize;

/// One serving mix of the sweep.
struct Mix {
    name: &'static str,
    config: ServeConfig,
}

/// The flagship acceptance workload: 16 tenants × 8 cameras × 10 fps
/// under faults. `capacity_cores` is sized so the ladder has to work —
/// roughly half the fleet fits untouched and the rest is degraded.
fn flagship() -> ServeConfig {
    ServeConfig {
        tenants: 16,
        cameras_per_tenant: 8,
        fps: 10.0,
        duration_s: 12.0,
        capacity_cores: 24.0,
        seed: SEED,
        train_s: 15.0,
        faults: FaultModel {
            keyframe_loss: 0.1,
            dropout_per_horizon: 0.05,
            rejoin_per_horizon: 0.3,
            ..FaultModel::none()
        },
        ..ServeConfig::default()
    }
}

fn mixes() -> Vec<Mix> {
    vec![
        Mix {
            name: "light",
            config: ServeConfig {
                tenants: 4,
                cameras_per_tenant: 4,
                duration_s: 10.0,
                capacity_cores: 12.0,
                train_s: 15.0,
                seed: SEED,
                ..ServeConfig::default()
            },
        },
        Mix {
            name: "loaded",
            config: ServeConfig {
                tenants: 8,
                cameras_per_tenant: 8,
                duration_s: 10.0,
                capacity_cores: 16.0,
                train_s: 15.0,
                seed: SEED,
                ..ServeConfig::default()
            },
        },
        Mix {
            name: "flagship-faulted",
            config: flagship(),
        },
    ]
}

#[derive(Serialize)]
struct MixRow {
    name: String,
    tenants: usize,
    cameras_per_tenant: usize,
    fps: f64,
    capacity_cores: f64,
    admitted: usize,
    shed_redundancy: usize,
    degraded: usize,
    rejected: usize,
    admitted_load_cores: f64,
    captured: u64,
    processed: u64,
    queue_dropped: u64,
    policy_skipped: u64,
    drop_rate: f64,
    e2e_p50_ms: f64,
    e2e_p99_ms: f64,
    core_utilization: f64,
    max_lane_depth: usize,
}

#[derive(Serialize)]
struct Report {
    seed: u64,
    /// Flagship end-to-end p99 latency.
    headline_p99_ms: f64,
    /// Flagship combined drop rate.
    headline_drop_rate: f64,
    mixes: Vec<MixRow>,
}

fn row(name: &str, report: &ServeReport) -> MixRow {
    let max_lane_depth = report
        .tenants
        .iter()
        .map(|t| t.max_lane_depth)
        .max()
        .unwrap_or(0);
    MixRow {
        name: name.to_string(),
        tenants: report.config.tenants,
        cameras_per_tenant: report.config.cameras_per_tenant,
        fps: report.config.fps,
        capacity_cores: report.config.capacity_cores,
        admitted: report.decisions.admitted,
        shed_redundancy: report.decisions.shed_redundancy,
        degraded: report.decisions.degraded,
        rejected: report.decisions.rejected,
        admitted_load_cores: report.admitted_load_cores,
        captured: report.captured,
        processed: report.processed,
        queue_dropped: report.queue_dropped,
        policy_skipped: report.policy_skipped,
        drop_rate: report.drop_rate,
        e2e_p50_ms: report.e2e_ms.p50,
        e2e_p99_ms: report.e2e_ms.p99,
        core_utilization: report.core_utilization,
        max_lane_depth,
    }
}

/// Runs the flagship shape for real at 1 and 8 threads and asserts the
/// two reports are equal (modulo the embedded thread count).
fn assert_thread_invariant_reports() {
    for tenants in [4usize, 16] {
        // The flagship shape, scaled: capacity tracks the tenant count so
        // the ladder stresses admission identically per row.
        let config = ServeConfig {
            tenants,
            capacity_cores: 24.0 * tenants as f64 / 16.0,
            threads: 1,
            ..flagship()
        };
        let reference = run_serve(&config);
        let mut parallel = run_serve(&ServeConfig {
            threads: 8,
            ..config.clone()
        });
        parallel.config.threads = config.threads;
        assert_eq!(
            reference, parallel,
            "{tenants}-tenant serve diverged between 1 and 8 threads"
        );
    }
}

fn main() {
    let mut rows = Vec::new();
    let mut table = TextTable::new(vec![
        "mix",
        "tenants×cams",
        "capacity",
        "admit/shed/deg/rej",
        "drop rate",
        "e2e p99 (ms)",
        "util",
    ]);
    for mix in mixes() {
        let report = run_serve(&mix.config);
        for t in &report.tenants {
            assert!(t.max_lane_depth <= 1, "lane depth must stay bounded");
        }
        let r = row(mix.name, &report);
        table.row(vec![
            r.name.clone(),
            format!("{}×{}", r.tenants, r.cameras_per_tenant),
            format!("{:.0}", r.capacity_cores),
            format!(
                "{}/{}/{}/{}",
                r.admitted, r.shed_redundancy, r.degraded, r.rejected
            ),
            format!("{:.1}%", r.drop_rate * 100.0),
            format!("{:.1}", r.e2e_p99_ms),
            format!("{:.0}%", r.core_utilization * 100.0),
        ]);
        rows.push(r);
    }

    assert_thread_invariant_reports();

    let headline = rows.last().expect("sweep has mixes");
    let report = Report {
        seed: SEED,
        headline_p99_ms: headline.e2e_p99_ms,
        headline_drop_rate: headline.drop_rate,
        mixes: rows,
    };

    println!("Multi-tenant serving sweep (virtual clock, deterministic)\n");
    println!("{table}");
    println!(
        "headline: flagship p99 {:.1} ms, drop rate {:.1}%",
        report.headline_p99_ms,
        report.headline_drop_rate * 100.0
    );

    let path = write_json("BENCH_serve", &report);
    println!("\nwrote {}", path.display());
}
