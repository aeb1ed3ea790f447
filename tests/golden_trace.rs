//! Golden-trace regression suite for the span recorder.
//!
//! Each scenario runs the pipeline in pure-function mode
//! (`measured_overheads = false`), renders the trace in the compact golden
//! format, and compares it byte-for-byte against the file checked into
//! `tests/golden/`. The render is repeated at 1, 2, 4, and 8 worker
//! threads inside each test, so any thread-count dependence fails here
//! before it reaches CI's `MVS_THREADS` matrix.
//!
//! To regenerate after an intentional pipeline or format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! then review the diff like any other code change.

use multiview_scheduler::sim::{
    run_pipeline_traced, Algorithm, FaultModel, PipelineConfig, Scenario, ScenarioKind,
};
use std::path::PathBuf;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{name}.golden"))
}

/// Short run in pure-function mode: the whole trace is a function of
/// (scenario, config), so the golden file is stable across machines.
fn base_config() -> PipelineConfig {
    PipelineConfig {
        train_s: 30.0,
        eval_s: 3.0,
        seed: 2022,
        measured_overheads: false,
        ..PipelineConfig::paper_default(Algorithm::Balb)
    }
}

fn check_golden(name: &str, scenario: &Scenario, config: &PipelineConfig) {
    let rendered: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let cfg = PipelineConfig {
                threads,
                ..config.clone()
            };
            run_pipeline_traced(scenario, &cfg).1.golden_text()
        })
        .collect();
    for (r, threads) in rendered.iter().zip(THREAD_COUNTS).skip(1) {
        assert_eq!(&rendered[0], r, "{name}: at {threads} threads");
    }

    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered[0]).expect("golden file is writable");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered[0],
        expected,
        "{name}: trace drifted from {}; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff",
        path.display()
    );
}

#[test]
fn golden_fault_free_s2_balb() {
    check_golden(
        "s2_balb_fault_free",
        &Scenario::new(ScenarioKind::S2),
        &base_config(),
    );
}

#[test]
fn golden_camera_dropout_s2_balb() {
    let config = PipelineConfig {
        faults: FaultModel {
            dropout_per_horizon: 0.5,
            rejoin_per_horizon: 0.5,
            ..FaultModel::none()
        },
        ..base_config()
    };
    check_golden("s2_balb_dropout", &Scenario::new(ScenarioKind::S2), &config);
}

#[test]
fn golden_keyframe_loss_s2_balb() {
    let config = PipelineConfig {
        faults: FaultModel {
            keyframe_loss: 0.4,
            ..FaultModel::none()
        },
        ..base_config()
    };
    check_golden(
        "s2_balb_keyframe_loss",
        &Scenario::new(ScenarioKind::S2),
        &config,
    );
}
