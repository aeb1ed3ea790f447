//! Determinism suite for the persistent executor (ISSUE 10).
//!
//! Every per-frame and per-solve fan-out in the workspace now dispatches
//! onto `mvs_exec::pool()` instead of spawning scoped threads. The pool is
//! required to be *semantically invisible*: lane count controls where work
//! runs, never what it computes. These tests pin that contract bitwise —
//! latency series are compared through `f64::to_bits`, not float equality,
//! so `-0.0` vs `0.0` or NaN drift cannot hide behind `PartialEq` — at
//! 1/2/4/8 threads across default and faulted runs,
//! plus the serve layer's parallel admission/restore/readmission phases
//! under a full chaos storm.

use mvs_sim::{
    run_pipeline, run_serve, Algorithm, FaultModel, PipelineConfig, PipelineResult, PoolDegrade,
    Scenario, ScenarioKind, ServeConfig, ServeFaultModel, ServeLoop, ServeReport,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Short S2 run: small enough for debug tier-1, long enough to cross a
/// key-frame boundary so the central solve and distributed stages both run.
fn base_config() -> PipelineConfig {
    PipelineConfig {
        train_s: 30.0,
        eval_s: 3.0,
        seed: 2022,
        measured_overheads: false,
        ..PipelineConfig::paper_default(Algorithm::Balb)
    }
}

/// Asserts two results are bitwise identical: full structural equality
/// plus an explicit `to_bits` sweep over every `f64` series, so the
/// comparison cannot be weakened by float-equality semantics.
fn assert_bitwise_equal(
    name: &str,
    threads: usize,
    reference: &PipelineResult,
    got: &PipelineResult,
) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(reference.latency.samples_ms()),
        bits(got.latency.samples_ms()),
        "{name}: system-latency series diverged at {threads} threads"
    );
    assert_eq!(
        bits(&reference.per_camera_mean_ms),
        bits(&got.per_camera_mean_ms),
        "{name}: per-camera means diverged at {threads} threads"
    );
    for (cam, (r, g)) in reference
        .per_camera_series_ms
        .iter()
        .zip(&got.per_camera_series_ms)
        .enumerate()
    {
        assert_eq!(
            bits(r),
            bits(g),
            "{name}: camera {cam} series diverged at {threads} threads"
        );
    }
    assert_eq!(
        reference.recall.to_bits(),
        got.recall.to_bits(),
        "{name}: recall diverged at {threads} threads"
    );
    assert_eq!(
        reference, got,
        "{name}: result diverged at {threads} threads"
    );
}

/// Runs `config` at every thread count and compares against the
/// single-thread run bitwise.
fn assert_pool_invisible(name: &str, config: &PipelineConfig) {
    let scenario = Scenario::new(ScenarioKind::S2);
    let reference = run_pipeline(
        &scenario,
        &PipelineConfig {
            threads: 1,
            ..config.clone()
        },
    );
    for threads in THREAD_COUNTS {
        let got = run_pipeline(
            &scenario,
            &PipelineConfig {
                threads,
                ..config.clone()
            },
        );
        assert_bitwise_equal(name, threads, &reference, &got);
    }
}

#[test]
fn pool_matches_single_thread_default() {
    assert_pool_invisible("default", &base_config());
}

#[test]
fn pool_matches_single_thread_under_faults() {
    let config = PipelineConfig {
        faults: FaultModel {
            dropout_per_horizon: 0.5,
            rejoin_per_horizon: 0.5,
            keyframe_loss: 0.3,
            ..FaultModel::none()
        },
        ..base_config()
    };
    assert_pool_invisible("faulted", &config);
}

/// A serve chaos storm exercising every parallel serve phase: admission
/// pilots (`new_inner`), crash restore (`restore`), and quarantine
/// readmission (`readmit_due`), all against the dispatch clock.
fn storm_config(threads: usize) -> ServeConfig {
    ServeConfig {
        tenants: 3,
        cameras_per_tenant: 3,
        duration_s: 3.0,
        train_s: 8.0,
        capacity_cores: 6.0,
        threads,
        chaos: ServeFaultModel {
            seed: 11,
            crash_at_us: vec![1_200_000],
            restart_delay_us: 300_000,
            poison_per_frame: 0.05,
            quarantine_us: 800_000,
            degrades: vec![PoolDegrade {
                at_us: 2_000_000,
                capacity_factor: 0.5,
                service_inflation: 1.5,
            }],
        },
        snapshot_every_horizons: 1,
        ..ServeConfig::default()
    }
}

/// Zeroes the one legitimately thread-dependent report field (the embedded
/// config) so the rest can be compared exactly.
fn normalized(report: &ServeReport) -> ServeReport {
    let mut r = report.clone();
    r.config.threads = 0;
    r
}

#[test]
fn serve_chaos_storm_is_thread_invariant() {
    let reference = run_serve(&storm_config(1));
    for threads in THREAD_COUNTS {
        let got = run_serve(&storm_config(threads));
        assert_eq!(
            normalized(&reference),
            normalized(&got),
            "serve chaos storm diverged at {threads} threads"
        );
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (r, g) in reference.tenants.iter().zip(&got.tenants) {
            assert_eq!(
                bits(&[r.e2e_ms.mean, r.e2e_ms.p50, r.e2e_ms.p95, r.e2e_ms.p99]),
                bits(&[g.e2e_ms.mean, g.e2e_ms.p50, g.e2e_ms.p95, g.e2e_ms.p99]),
                "tenant {} latency summary diverged at {threads} threads",
                r.tenant
            );
        }
    }
}

/// Crash → snapshot → recover on the parallel serve loop: a coordinator
/// rebuilt from a checkpoint at 8 threads must continue bitwise exactly
/// like the uninterrupted single-thread loop.
#[test]
fn crash_recover_round_trip_on_parallel_loop() {
    let config = storm_config(8);
    let mut live = ServeLoop::new(&config).expect("valid config");
    live.run_until(1_000_000);
    let snap = live.snapshot();
    let live_report = live.run();

    let recovered = ServeLoop::recover(&config, &snap, 1_000_000).expect("recoverable");
    let recovered_report = recovered.run();
    assert_eq!(
        live_report, recovered_report,
        "recovery diverged from the live continuation"
    );

    // And the whole recovered trajectory matches the single-thread storm.
    let reference = run_serve(&storm_config(1));
    assert_eq!(normalized(&reference), normalized(&recovered_report));
}
