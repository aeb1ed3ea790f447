//! Fault-injection integration tests: the pipeline must survive camera
//! dropouts and key-frame message loss, degrade gracefully (recall falls,
//! nothing panics), and stay bitwise deterministic at any thread count.

use mvs_sim::{run_pipeline, Algorithm, FaultModel, PipelineConfig, Scenario, ScenarioKind};

fn faulty_config(algorithm: Algorithm) -> PipelineConfig {
    PipelineConfig {
        train_s: 30.0,
        eval_s: 30.0,
        measured_overheads: false,
        faults: FaultModel {
            dropout_per_horizon: 0.15,
            rejoin_per_horizon: 0.5,
            keyframe_loss: 0.10,
            ..FaultModel::none()
        },
        ..PipelineConfig::paper_default(algorithm)
    }
}

#[test]
fn faulty_run_completes_without_panicking() {
    // The acceptance scenario: camera dropout plus 10% key-frame loss on
    // the busiest deployment, full BALB.
    let sc = Scenario::new(ScenarioKind::S3);
    let r = run_pipeline(&sc, &faulty_config(Algorithm::Balb));
    assert_eq!(r.frames, 300);
    assert!(r.recall > 0.0, "faults must degrade recall, not zero it");
    assert!(r.latency.samples_ms().iter().all(|l| l.is_finite()));
    assert!(
        r.degradation.any(),
        "these fault rates always fire within 30 horizons"
    );
    assert!(r.degradation.dropouts > 0, "no dropout in 30 horizons");
    assert!(
        r.degradation.lost_messages() > 0,
        "no message loss at 10% per attempt"
    );
    assert_eq!(r.degradation.rejected_samples, 0);
}

#[test]
fn faulty_runs_are_bitwise_deterministic_at_any_thread_count() {
    let sc = Scenario::new(ScenarioKind::S3);
    for algorithm in [Algorithm::Balb, Algorithm::BalbCen] {
        let runs: Vec<_> = [1usize, 2, 7]
            .iter()
            .map(|&threads| {
                let cfg = PipelineConfig {
                    threads,
                    ..faulty_config(algorithm)
                };
                run_pipeline(&sc, &cfg)
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{algorithm}: 1 vs 2 threads");
        assert_eq!(runs[0], runs[2], "{algorithm}: 1 vs 7 threads");
    }
}

#[test]
fn inactive_fault_model_is_bitwise_identical_to_the_default() {
    // FaultModel::none() must take the exact same code path as a build
    // without fault injection: same RNG draws, same schedule, same result.
    let sc = Scenario::new(ScenarioKind::S2);
    let mut plain = PipelineConfig {
        train_s: 30.0,
        eval_s: 20.0,
        measured_overheads: false,
        ..PipelineConfig::paper_default(Algorithm::Balb)
    };
    plain.faults = FaultModel::none();
    let baseline = run_pipeline(&sc, &plain);
    // An explicit zero-rate model with a different retry setup is equally
    // inactive.
    let mut zeroed = plain;
    zeroed.faults = FaultModel {
        max_retries: 9,
        retry_timeout_ms: 1000.0,
        ..FaultModel::none()
    };
    assert_eq!(baseline, run_pipeline(&sc, &zeroed));
    assert!(!baseline.degradation.any());
}

#[test]
fn faults_degrade_recall_but_do_not_collapse_it() {
    let sc = Scenario::new(ScenarioKind::S3);
    let clean = run_pipeline(
        &sc,
        &PipelineConfig {
            faults: FaultModel::none(),
            ..faulty_config(Algorithm::Balb)
        },
    );
    let faulty = run_pipeline(&sc, &faulty_config(Algorithm::Balb));
    assert!(
        faulty.recall <= clean.recall + 0.02,
        "faults should not improve recall: {} vs clean {}",
        faulty.recall,
        clean.recall
    );
    assert!(
        faulty.recall > 0.3 * clean.recall,
        "graceful degradation, not collapse: {} vs clean {}",
        faulty.recall,
        clean.recall
    );
}

#[test]
fn pure_message_loss_desyncs_cameras_without_killing_them() {
    let sc = Scenario::new(ScenarioKind::S2);
    let cfg = PipelineConfig {
        train_s: 30.0,
        eval_s: 30.0,
        measured_overheads: false,
        faults: FaultModel {
            keyframe_loss: 0.45,
            max_retries: 0, // every loss is final: desyncs are frequent
            ..FaultModel::none()
        },
        ..PipelineConfig::paper_default(Algorithm::Balb)
    };
    let r = run_pipeline(&sc, &cfg);
    assert_eq!(r.degradation.dropouts, 0);
    assert_eq!(r.degradation.degraded_frames, 0);
    assert!(
        r.degradation.desynced_horizons > 0,
        "45% loss with no retries must desync some horizons"
    );
    assert!(r.degradation.lost_messages() > 0);
    assert!(r.recall > 0.0);
}

#[test]
fn retries_recover_sync_where_no_retries_fail() {
    // Same loss rate: a generous retry budget should recover most round
    // trips that a zero-retry run loses for the horizon.
    let sc = Scenario::new(ScenarioKind::S2);
    let base = PipelineConfig {
        train_s: 30.0,
        eval_s: 30.0,
        measured_overheads: false,
        ..PipelineConfig::paper_default(Algorithm::Balb)
    };
    let run_with = |max_retries: u32| {
        let cfg = PipelineConfig {
            faults: FaultModel {
                keyframe_loss: 0.3,
                max_retries,
                ..FaultModel::none()
            },
            ..base.clone()
        };
        run_pipeline(&sc, &cfg)
    };
    let fragile = run_with(0);
    let robust = run_with(4);
    assert!(
        robust.degradation.desynced_horizons < fragile.degradation.desynced_horizons,
        "retries should cut desyncs: {} vs {}",
        robust.degradation.desynced_horizons,
        fragile.degradation.desynced_horizons
    );
    assert!(robust.degradation.retransmits > 0);
}

#[test]
fn dropouts_cost_coverage_on_every_algorithm() {
    // The degradation layer is algorithm-agnostic: dead cameras lose
    // frames for the baselines too, and none of them panic.
    let sc = Scenario::new(ScenarioKind::S2);
    for algorithm in [
        Algorithm::Full,
        Algorithm::BalbInd,
        Algorithm::BalbCen,
        Algorithm::Balb,
        Algorithm::StaticPartition,
    ] {
        let cfg = PipelineConfig {
            train_s: 30.0,
            eval_s: 30.0,
            measured_overheads: false,
            faults: FaultModel {
                dropout_per_horizon: 0.3,
                rejoin_per_horizon: 0.4,
                ..FaultModel::none()
            },
            ..PipelineConfig::paper_default(algorithm)
        };
        let r = run_pipeline(&sc, &cfg);
        assert!(r.degradation.dropouts > 0, "{algorithm}: no dropouts");
        assert!(
            r.degradation.degraded_frames > 0,
            "{algorithm}: no degraded frames"
        );
        assert!(r.recall > 0.0, "{algorithm}: recall collapsed");
    }
}

#[test]
fn total_keyframe_loss_coasts_every_horizon_instead_of_panicking() {
    // Regression: with 100% key-frame loss every camera desyncs in every
    // horizon, so the central stage never has a synced sub-fleet to solve
    // on. A long-running service must degrade (the whole fleet coasts on
    // stale masks and running tracks, counted per horizon) — this used to
    // be guarded by a single `.expect("at least one synced camera")` deep
    // in the key-frame path.
    let sc = Scenario::new(ScenarioKind::S2);
    for algorithm in [Algorithm::Balb, Algorithm::BalbCen] {
        let cfg = PipelineConfig {
            train_s: 30.0,
            eval_s: 30.0,
            measured_overheads: false,
            faults: FaultModel {
                keyframe_loss: 1.0,
                max_retries: 1,
                ..FaultModel::none()
            },
            ..PipelineConfig::paper_default(algorithm)
        };
        let r = run_pipeline(&sc, &cfg);
        let key_frames = r.stats.key_frames as u64;
        assert!(key_frames > 0, "{algorithm}: no key frames ran");
        assert_eq!(
            r.degradation.coasted_horizons, key_frames,
            "{algorithm}: every horizon must coast when nobody syncs"
        );
        assert_eq!(
            r.degradation.desynced_horizons,
            key_frames * sc.num_cameras() as u64,
            "{algorithm}: every camera desyncs every horizon"
        );
        // Never scheduled ⇒ nothing tracked ⇒ recall collapses — but the
        // run completes with finite latencies and exact bookkeeping.
        assert!(r.latency.samples_ms().iter().all(|l| l.is_finite()));
        assert_eq!(r.degradation.rejected_samples, 0);
        assert_eq!(r.frames, 300);
    }
}

#[test]
fn total_keyframe_loss_is_deterministic_across_thread_counts() {
    let sc = Scenario::new(ScenarioKind::S2);
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let cfg = PipelineConfig {
                train_s: 30.0,
                eval_s: 30.0,
                measured_overheads: false,
                threads,
                faults: FaultModel {
                    keyframe_loss: 1.0,
                    max_retries: 1,
                    ..FaultModel::none()
                },
                ..PipelineConfig::paper_default(Algorithm::Balb)
            };
            run_pipeline(&sc, &cfg)
        })
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads");
    assert_eq!(runs[0], runs[2], "1 vs 4 threads");
}
