//! Crash-recovery and chaos tests for the serving layer (ISSUE 8):
//! checkpoint/restore round trips, snapshot neutrality, quarantine and
//! re-admission, pool degradation, and machine-checked invariants under
//! randomized fault schedules.
//!
//! Configs are deliberately tiny (2 tenants × 3 cameras, a few seconds)
//! so the suite stays fast in debug tier-1 runs.

use mvs_sim::{
    run_serve, PoolDegrade, ServeConfig, ServeConfigError, ServeFaultModel, ServeLoop, ServeReport,
    TransitionReason,
};
use proptest::prelude::*;

/// Small chaos-friendly serving mix.
fn small_config() -> ServeConfig {
    ServeConfig {
        tenants: 2,
        cameras_per_tenant: 3,
        duration_s: 3.0,
        train_s: 8.0,
        capacity_cores: 6.0,
        ..ServeConfig::default()
    }
}

/// Frame conservation and lane bounds — the invariants that must hold
/// under *any* fault schedule.
fn assert_conserved(report: &ServeReport) {
    for t in &report.tenants {
        assert_eq!(
            t.captured,
            t.processed + t.queue_dropped + t.policy_skipped + t.replayed,
            "tenant {}: frames leaked",
            t.tenant
        );
        assert!(t.max_lane_depth <= 1, "tenant {}: lane grew", t.tenant);
    }
    assert_eq!(
        report.captured,
        report.processed + report.queue_dropped + report.policy_skipped + report.replayed
    );
    assert!((0.0..=1.0).contains(&report.availability));
}

#[test]
fn crash_recovery_round_trip_satisfies_invariants() {
    let config = ServeConfig {
        chaos: ServeFaultModel {
            crash_at_us: vec![1_500_000],
            restart_delay_us: 400_000,
            ..ServeFaultModel::none()
        },
        snapshot_every_horizons: 1,
        ..small_config()
    };
    let report = run_serve(&config);
    assert_conserved(&report);
    assert_eq!(report.recovery.restarts, 1);
    assert_eq!(report.recovery.outage_us, 400_000);
    assert!(
        report.replayed > 0,
        "a crash mid-run must lose frames to replay"
    );
    assert!(report.recovery.snapshots_taken > 0);
    assert!(report.recovery.mttr_us().is_finite());
    assert!(report.availability < 1.0, "outage must dent availability");
    assert!(report.processed > 0, "the service must come back");
    assert!(report.e2e_ms.p99.is_finite());
    assert!(
        report.post_recovery_e2e_ms.count > 0,
        "frames served after the restart must be tracked"
    );
    assert!(report.post_recovery_e2e_ms.p99.is_finite());
}

/// Acceptance criterion: a fault-free run with snapshotting enabled is
/// bitwise identical to one without — checkpoints must never perturb
/// scheduling.
#[test]
fn snapshotting_never_changes_results() {
    let plain = run_serve(&small_config());
    let snapshotted = run_serve(&ServeConfig {
        snapshot_every_horizons: 1,
        ..small_config()
    });
    assert!(snapshotted.recovery.snapshots_taken > 0);
    let mut normalized = snapshotted;
    normalized.config.snapshot_every_horizons = 0;
    normalized.recovery.snapshots_taken = plain.recovery.snapshots_taken;
    assert_eq!(plain, normalized, "snapshotting perturbed the run");
}

/// Acceptance criterion: `run_until` → `snapshot` → `recover` resumes
/// bitwise exactly — the continuation of the original loop and the
/// recovered loop produce identical reports.
#[test]
fn snapshot_recover_resumes_bitwise_exactly() {
    let config = small_config();
    let mut live = ServeLoop::new(&config).expect("valid config");
    live.run_until(1_200_000);
    let resume_at = live.now_us();
    let snapshot = live.snapshot();
    assert_eq!(snapshot.taken_at_us(), resume_at);
    let continued = live.run();
    let recovered = ServeLoop::recover(&config, &snapshot, resume_at)
        .expect("snapshot matches config")
        .run();
    assert_eq!(
        continued, recovered,
        "recovery from a checkpoint diverged from the live continuation"
    );
}

#[test]
fn chaos_is_deterministic_across_thread_counts() {
    let storm = |threads| ServeConfig {
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
        ..small_config()
    };
    let base = run_serve(&storm(1));
    assert_conserved(&base);
    for threads in [2, 4] {
        let other = run_serve(&storm(threads));
        let mut normalized = other.clone();
        normalized.config.threads = 1;
        assert_eq!(base, normalized, "chaos run diverged at {threads} threads");
    }
}

#[test]
fn poison_quarantines_and_readmits_through_the_ladder() {
    let config = ServeConfig {
        duration_s: 4.0,
        chaos: ServeFaultModel {
            poison_per_frame: 1.0,
            quarantine_us: 1_000_000,
            ..ServeFaultModel::none()
        },
        ..small_config()
    };
    let report = run_serve(&config);
    assert_conserved(&report);
    assert!(report.recovery.poisoned_steps > 0, "poison never fired");
    assert!(report.recovery.quarantines >= config.tenants as u64);
    assert!(
        report.recovery.readmissions > 0,
        "expired quarantines must re-enter the ladder"
    );
    assert_eq!(
        report.processed, 0,
        "with certain poison every dispatch must die before completing"
    );
    let reasons: Vec<TransitionReason> = report.transitions.iter().map(|t| t.reason).collect();
    assert!(reasons.contains(&TransitionReason::Quarantine));
    assert!(reasons.contains(&TransitionReason::Readmission));
    // The panics were isolated: the loop finished and reported, and the
    // sibling tenants' accounting is intact (checked by assert_conserved).
    assert_eq!(report.decisions.quarantined, config.tenants);
}

#[test]
fn pool_degrade_forces_admission_reevaluation() {
    let config = ServeConfig {
        capacity_cores: 8.0,
        chaos: ServeFaultModel {
            degrades: vec![PoolDegrade {
                at_us: 1_500_000,
                capacity_factor: 0.15,
                service_inflation: 1.0,
            }],
            ..ServeFaultModel::none()
        },
        ..small_config()
    };
    let report = run_serve(&config);
    assert_conserved(&report);
    let degrade_transitions: Vec<_> = report
        .transitions
        .iter()
        .filter(|t| t.reason == TransitionReason::PoolDegrade)
        .collect();
    assert!(
        !degrade_transitions.is_empty(),
        "an 85% capacity drop must demote someone"
    );
    for t in &degrade_transitions {
        assert_eq!(t.at_us, 1_500_000, "re-evaluation must happen at the event");
        assert_ne!(t.from, t.to, "recorded transition did not change the rung");
    }
}

#[test]
fn serve_loop_surfaces_typed_errors() {
    // Crash schedule without checkpoints cannot recover.
    let err = ServeLoop::new(&ServeConfig {
        chaos: ServeFaultModel {
            crash_at_us: vec![1_000_000],
            ..ServeFaultModel::none()
        },
        snapshot_every_horizons: 0,
        ..small_config()
    })
    .err()
    .expect("crash without snapshots must be rejected");
    assert_eq!(err, ServeConfigError::CrashWithoutSnapshots);

    let err = ServeLoop::new(&ServeConfig {
        fps: 0.0,
        ..small_config()
    })
    .err()
    .expect("zero fps must be rejected");
    assert!(matches!(err, ServeConfigError::BadFps { .. }));

    // A snapshot from a differently shaped deployment is rejected.
    let mut live = ServeLoop::new(&small_config()).expect("valid config");
    live.run_until(500_000);
    let snapshot = live.snapshot();
    let bigger = ServeConfig {
        tenants: 3,
        ..small_config()
    };
    let err = ServeLoop::recover(&bigger, &snapshot, 500_000)
        .err()
        .expect("mismatched snapshot must be rejected");
    assert_eq!(
        err,
        ServeConfigError::SnapshotMismatch {
            expected: 3,
            got: 2
        }
    );
    // Same tenant count, other fleet: the recipes were recorded on
    // 3-camera tenants and must not be replayed onto 4-camera ones.
    let wider = ServeConfig {
        cameras_per_tenant: 4,
        ..small_config()
    };
    let err = ServeLoop::recover(&wider, &snapshot, 500_000)
        .err()
        .expect("a snapshot of another fleet must be rejected");
    assert_eq!(
        err,
        ServeConfigError::SnapshotCameraMismatch {
            expected: 4,
            got: 3
        }
    );

    // A snapshot is outside input: whatever a deserialized one says, a
    // restore answers with a typed error naming the tenant — it never
    // replays a history no run produces, spins on a count, or panics.
    let config = ServeConfig {
        snapshot_every_horizons: 1,
        ..small_config()
    };
    let mut live = ServeLoop::new(&config).expect("valid config");
    live.run_until(900_000);
    let json = serde_json::to_string(&live.snapshot()).expect("snapshots serialize");
    let recover = |json: &str| {
        let snapshot = serde_json::from_str(json).expect("tampered snapshots still parse");
        ServeLoop::recover(&config, &snapshot, 900_000).map(|_| ())
    };
    assert_eq!(recover(&json), Ok(()), "the untouched snapshot restores");
    // (what to rewrite, into what, in which tenant's state — `None`: the loop's)
    let no_recipe = {
        let start = json.find("\"recipe\":{").expect("tenant 0 has a recipe");
        let end = start + json[start..].find('}').expect("recipe object closes");
        (&json[start..=end], "\"recipe\":null")
    };
    let cases = [
        (
            "\"processed\":[",
            "\"processed\":[18446744073709551615,",
            Some(0),
        ),
        ("\"processed\":[", "\"processed\":[0,0,", Some(0)),
        ("\"base\":0", "\"base\":7", Some(0)),
        ("\"keep_every\":1", "\"keep_every\":0", Some(0)),
        ("\"keep_every\":1", "\"keep_every\":5", Some(0)),
        ("\"next_capture\":9", "\"next_capture\":31", Some(0)),
        (
            "\"decision\":\"Admitted\"",
            "\"decision\":\"Quarantined\"",
            Some(0),
        ),
        (no_recipe.0, no_recipe.1, Some(0)),
        (
            "\"chaos_draws\":0",
            "\"chaos_draws\":18446744073709551615",
            None,
        ),
    ];
    for (from, to, tenant) in cases {
        assert!(json.contains(from), "{from} is not in {json}");
        let err = recover(&json.replacen(from, to, 1)).expect_err(to);
        assert!(
            matches!(err, ServeConfigError::SnapshotCorrupt { tenant: t, .. } if t == tenant),
            "{from} -> {to}: {err}"
        );
        let named = tenant.map_or("corrupt: ".into(), |t| format!("tenant {t}: "));
        assert!(err.to_string().contains(&named), "{err}");
    }
    // The same rewrite in the second tenant's state names the second tenant.
    let unthinned = "\"keep_every\":1";
    let at = json.rfind(unthinned).expect("tenant 1 is unthinned");
    let (before, after) = (&json[..at], &json[at + unthinned.len()..]);
    let second = format!("{before}\"keep_every\":0{after}");
    assert_eq!(
        recover(&second),
        Err(ServeConfigError::SnapshotCorrupt {
            tenant: Some(1),
            reason: "keep_every is outside 1..=max_keep_every"
        })
    );
    // A cadence the configuration does not have would never advance.
    let snapshot = serde_json::from_str(&json).expect("parses");
    let err = ServeLoop::recover(&small_config(), &snapshot, 900_000)
        .err()
        .expect("no snapshot period to step the pending cadence by");
    assert!(matches!(
        err,
        ServeConfigError::SnapshotCorrupt { tenant: None, .. }
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Whatever the crash point, chaos seed, and poison rate, the serve
    // loop conserves every captured frame, keeps lanes bounded, and
    // reports a sane availability.
    #[test]
    fn conservation_holds_under_random_chaos(
        crash_s in 0.5f64..2.5,
        seed in any::<u64>(),
        poison in 0.0f64..0.05,
    ) {
        let config = ServeConfig {
            chaos: ServeFaultModel {
                seed,
                crash_at_us: vec![(crash_s * 1e6).round() as u64],
                restart_delay_us: 300_000,
                poison_per_frame: poison,
                quarantine_us: 700_000,
                ..ServeFaultModel::none()
            },
            snapshot_every_horizons: 1,
            ..small_config()
        };
        let report = run_serve(&config);
        assert_conserved(&report);
        prop_assert_eq!(report.recovery.restarts, 1);
        prop_assert!(report.replayed > 0);
        prop_assert!(report.availability < 1.0);
    }
}
