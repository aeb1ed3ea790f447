//! Sharing a [`Deployment`] is invisible (ISSUE 19).
//!
//! A deployment is what a pipeline run reads and never writes — trained
//! models, masks, the post-warm-up world and RNG position. Any number of
//! runs may start from one, and each must be bit for bit the run a freshly
//! built deployment gives: the pipelines here share one `Arc<Deployment>`,
//! run one after the other and side by side, reconfigure themselves
//! mid-run, and are held to a `TenantPipeline::new` driven through the same
//! calls. The serve case holds the loop that keeps a tenant's deployment
//! across crash and quarantine to one that rebuilds every deployment cold.

use mvs_sim::{
    run_serve, Algorithm, CityConfig, Deployment, FaultModel, PipelineConfig, PipelineResult,
    Scenario, ScenarioKind, ServeConfig, ServeFaultModel, ServeLoop, TenantPipeline,
};
use std::sync::Arc;

/// One pipeline under test and the bits of every step cost it returned.
struct Driven {
    pipeline: TenantPipeline,
    costs: Vec<u64>,
}

impl Driven {
    fn new(mut pipeline: TenantPipeline, traced: bool) -> Driven {
        if traced {
            pipeline.enable_tracing();
        }
        Driven {
            pipeline,
            costs: Vec::new(),
        }
    }

    /// Capture frames `frames` of the test's call sequence: every seventh
    /// frame from the fourth is dropped (key frames among them), and
    /// redundancy is shed at the second key frame.
    fn drive(&mut self, frames: std::ops::Range<usize>, horizon: usize) {
        for frame in frames {
            if frame == horizon {
                self.pipeline.set_redundancy(1);
            }
            if frame % 7 == 3 {
                self.pipeline.skip();
            } else {
                self.costs.push(self.pipeline.step().to_bits());
            }
        }
    }

    fn finish(self) -> (Vec<u64>, PipelineResult, Option<String>) {
        let (result, trace) = self.pipeline.finish();
        (self.costs, result, trace.map(|t| t.golden_text()))
    }
}

fn quick(algorithm: Algorithm) -> PipelineConfig {
    PipelineConfig {
        train_s: 20.0,
        measured_overheads: false,
        ..PipelineConfig::paper_default(algorithm)
    }
}

#[test]
fn pipelines_sharing_a_deployment_equal_fresh_ones() {
    let s2 = || Scenario::new(ScenarioKind::S2);
    let cases = [
        (
            "S1/BALB",
            Scenario::new(ScenarioKind::S1),
            PipelineConfig {
                redundancy: 2,
                ..quick(Algorithm::Balb)
            },
        ),
        (
            "faulted city",
            Scenario::city(&CityConfig {
                cameras: 8,
                seed: 5,
                intensity: 1.5,
            }),
            PipelineConfig {
                redundancy: 2,
                seed: 23,
                faults: FaultModel {
                    keyframe_loss: 0.1,
                    dropout_per_horizon: 0.05,
                    rejoin_per_horizon: 0.5,
                    ..FaultModel::none()
                },
                ..quick(Algorithm::Balb)
            },
        ),
        ("SP", s2(), quick(Algorithm::StaticPartition)),
        ("SP-Oracle", s2(), quick(Algorithm::StaticPartitionOracle)),
        ("Full", s2(), quick(Algorithm::Full)),
    ];
    for (name, scenario, base) in &cases {
        let horizon = base.horizon;
        let mut across_threads = Vec::new();
        for (threads, traced) in [(1, false), (1, true), (2, false), (2, true)] {
            let config = PipelineConfig {
                threads,
                ..base.clone()
            };
            let mut fresh = Driven::new(TenantPipeline::new(scenario, &config), traced);
            fresh.drive(0..4 * horizon, horizon);
            let fresh = fresh.finish();
            assert_eq!(fresh.2.is_some(), traced);

            let deployment = Arc::new(Deployment::build(scenario, &config));
            let mut first = Driven::new(TenantPipeline::start(Arc::clone(&deployment)), traced);
            first.drive(0..3 * horizon, horizon);
            // The second run starts from a deployment whose first run is
            // three horizons in, shed and still live; the two then advance
            // side by side.
            let mut second = Driven::new(TenantPipeline::start(Arc::clone(&deployment)), traced);
            second.drive(0..2 * horizon, horizon);
            first.drive(3 * horizon..4 * horizon, horizon);
            second.drive(2 * horizon..4 * horizon, horizon);
            let at = format!("{name}, {threads} threads, traced {traced}");
            assert!(first.finish() == fresh, "{at}: first run drifted");
            assert!(second.finish() == fresh, "{at}: second run drifted");
            // And a third, started after both are gone.
            let mut third = Driven::new(TenantPipeline::start(deployment), traced);
            third.drive(0..4 * horizon, horizon);
            assert!(third.finish() == fresh, "{at}: third run drifted");
            across_threads.push((fresh.0, fresh.1));
        }
        assert!(
            across_threads.windows(2).all(|w| w[0] == w[1]),
            "{name}: result depends on threads or tracing"
        );
    }
}

/// chaos.rs's small mix under one crash and enough poison that a tenant is
/// quarantined and re-admitted inside the run.
fn stormy(threads: usize, crash_at_us: Vec<u64>) -> ServeConfig {
    ServeConfig {
        tenants: 2,
        cameras_per_tenant: 3,
        duration_s: 3.0,
        train_s: 8.0,
        capacity_cores: 6.0,
        threads,
        chaos: ServeFaultModel {
            seed: 11,
            crash_at_us,
            restart_delay_us: 300_000,
            poison_per_frame: 0.05,
            quarantine_us: 800_000,
            ..ServeFaultModel::none()
        },
        snapshot_every_horizons: 1,
        ..ServeConfig::default()
    }
}

#[test]
fn serve_keeping_deployments_equals_serve_rebuilding_them() {
    const CRASH_US: u64 = 1_200_000;
    // The in-run crash restores every tenant from the deployment it kept,
    // and a re-admission starts from the one the quarantine left behind.
    let kept = run_serve(&stormy(1, vec![CRASH_US]));
    assert_eq!(kept.recovery.restarts, 1);
    assert!(kept.recovery.quarantines > 0 && kept.recovery.readmissions > 0);
    assert!(kept.processed > 0 && kept.replayed > 0);
    for threads in [2, 4] {
        let mut other = run_serve(&stormy(threads, vec![CRASH_US]));
        other.config.threads = 1;
        assert_eq!(kept, other, "diverged at {threads} threads");
    }

    // The same crash driven from outside: stop at the checkpoint the crash
    // falls back to (one horizon = 1 s in), and recover it into a new loop,
    // which trains every deployment afresh. Everything a tenant reports
    // must agree; the loop-level recovery counters are the in-run crash's
    // own.
    let config = stormy(1, Vec::new());
    let mut live = ServeLoop::new(&config).expect("valid config");
    live.run_until(1_000_000);
    let snapshot = live.snapshot();
    assert_eq!(snapshot.taken_at_us(), 1_000_000);
    drop(live);
    let resume_at = CRASH_US + config.chaos.restart_delay_us;
    let rebuilt = ServeLoop::recover(&config, &snapshot, resume_at)
        .expect("snapshot matches config")
        .run();
    assert_eq!(kept.tenants, rebuilt.tenants);
    assert_eq!(kept.transitions, rebuilt.transitions);
    assert_eq!(kept.replayed, rebuilt.replayed);
}
