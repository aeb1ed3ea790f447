//! Determinism suite for the pipelined key-frame path.
//!
//! `PipelineConfig::pipelined` overlaps the central BALB solve with the
//! uplink-leg encoding. The overlap is required to be *semantically invisible*: every result,
//! trace, and serve report must be bitwise identical to the sequential
//! path, at any thread count, sharded or monolithic, under
//! faults, and in the middle of a serve-layer chaos storm. These tests
//! pin that contract by direct `PartialEq` comparison of full results
//! (all latency series are `f64`, so equality is bitwise).

use mvs_sim::{
    run_pipeline, run_pipeline_traced, run_serve, Algorithm, FaultModel, PipelineConfig,
    PoolDegrade, Scenario, ScenarioKind, ServeConfig, ServeFaultModel,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Short pure-function run: results are a function of (scenario, config).
fn base_config() -> PipelineConfig {
    PipelineConfig {
        train_s: 30.0,
        eval_s: 3.0,
        seed: 2022,
        measured_overheads: false,
        ..PipelineConfig::paper_default(Algorithm::Balb)
    }
}

/// Asserts the pipelined run equals the sequential one bitwise for every
/// thread count, against a single sequential single-thread reference.
fn assert_pipelining_invisible(name: &str, config: &PipelineConfig) {
    let scenario = Scenario::new(ScenarioKind::S2);
    let reference = run_pipeline(
        &scenario,
        &PipelineConfig {
            threads: 1,
            pipelined: false,
            ..config.clone()
        },
    );
    for threads in THREAD_COUNTS {
        let sequential = run_pipeline(
            &scenario,
            &PipelineConfig {
                threads,
                pipelined: false,
                ..config.clone()
            },
        );
        let pipelined = run_pipeline(
            &scenario,
            &PipelineConfig {
                threads,
                pipelined: true,
                ..config.clone()
            },
        );
        assert_eq!(
            sequential, reference,
            "{name}: sequential drifted at {threads} threads"
        );
        assert_eq!(
            pipelined, reference,
            "{name}: pipelined diverged at {threads} threads"
        );
    }
}

#[test]
fn pipelined_matches_sequential_default() {
    assert_pipelining_invisible("default", &base_config());
}

#[test]
fn pipelined_matches_sequential_sharded() {
    let config = PipelineConfig {
        shard_solver: true,
        ..base_config()
    };
    assert_pipelining_invisible("sharded", &config);
}

#[test]
fn pipelined_matches_sequential_under_faults() {
    let config = PipelineConfig {
        faults: FaultModel {
            dropout_per_horizon: 0.5,
            rejoin_per_horizon: 0.5,
            keyframe_loss: 0.3,
            ..FaultModel::none()
        },
        ..base_config()
    };
    assert_pipelining_invisible("faulty", &config);
}

#[test]
fn pipelined_traced_matches_untraced_and_sequential_trace() {
    let scenario = Scenario::new(ScenarioKind::S2);
    let sequential = PipelineConfig {
        threads: 4,
        ..base_config()
    };
    let pipelined = PipelineConfig {
        pipelined: true,
        ..sequential.clone()
    };
    let untraced = run_pipeline(&scenario, &pipelined);
    let (traced, pipe_trace) = run_pipeline_traced(&scenario, &pipelined);
    assert_eq!(traced, untraced, "tracing perturbed the pipelined run");
    let (_, seq_trace) = run_pipeline_traced(&scenario, &sequential);
    assert_eq!(
        pipe_trace.golden_text(),
        seq_trace.golden_text(),
        "pipelining changed the recorded trace"
    );
}

/// Serve-layer chaos storm (crash + poison + pool degrade) with the
/// pipelined solve on: the report must match the sequential storm bitwise
/// (modulo the config it embeds) at every thread count.
#[test]
fn serve_chaos_storm_is_pipelining_invariant() {
    let storm = |threads, pipelined| ServeConfig {
        tenants: 2,
        cameras_per_tenant: 3,
        duration_s: 3.0,
        train_s: 8.0,
        capacity_cores: 6.0,
        threads,
        pipelined,
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
    };
    let base = run_serve(&storm(1, false));
    for threads in [1, 2, 8] {
        let other = run_serve(&storm(threads, true));
        let mut normalized = other.clone();
        normalized.config.threads = 1;
        normalized.config.pipelined = false;
        assert_eq!(
            base, normalized,
            "pipelined chaos storm diverged at {threads} threads"
        );
    }
}
