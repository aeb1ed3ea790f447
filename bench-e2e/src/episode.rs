//! Drives one episode through the program: timed construction, `N` timed
//! steps, one timed closing slot — then checks and digests what came back.

use crate::alloc;
use crate::digest::Fnv;
use crate::envelope::EpisodeTimes;
use crate::workload::EpisodeSpec;
use mvs_sim::{
    run_serve_traced, AdmissionDecision, PipelineResult, ServeLoop, ServeReport, TenantPipeline,
};
use mvs_trace::Trace;
use std::time::Instant;

/// Nanoseconds since `start`, saturating.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What an episode returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Run(Box<PipelineResult>),
    Serve(Box<ServeReport>),
}

/// A built episode, advanced one capture period at a time.
pub enum Live {
    Run(Box<TenantPipeline>),
    Serve {
        serve: Box<ServeLoop>,
        interval_us: u64,
    },
}

impl Live {
    /// Construction: scenario generation plus `TenantPipeline::new`, or
    /// `ServeLoop::new` (which pilots every tenant through admission).
    pub fn build(spec: &EpisodeSpec) -> Live {
        match spec {
            EpisodeSpec::Run {
                scenario, config, ..
            } => Live::Run(Box::new(TenantPipeline::new(&scenario.build(), config))),
            EpisodeSpec::Serve { config, .. } => Live::Serve {
                serve: Box::new(
                    ServeLoop::new(config).expect("workload serve configs validate (unit-tested)"),
                ),
                interval_us: (1e6 / config.fps).round() as u64,
            },
        }
    }

    /// Step `k`: one `TenantPipeline::step()`, or the serve loop advanced to
    /// the end of capture period `k`. Returns the modeled service time of a
    /// pipeline step (a serve slice returns nothing: 0).
    pub fn step(&mut self, k: usize) -> f64 {
        match self {
            Live::Run(pipeline) => pipeline.step(),
            Live::Serve { serve, interval_us } => {
                serve.run_until((k as u64 + 1) * *interval_us);
                0.0
            }
        }
    }

    /// The closing slot: `finish()` / `run()`.
    pub fn finish(self) -> (Outcome, Vec<Trace>) {
        match self {
            Live::Run(pipeline) => {
                let (result, trace) = pipeline.finish();
                (Outcome::Run(Box::new(result)), trace.into_iter().collect())
            }
            Live::Serve { serve, .. } => (Outcome::Serve(Box::new(serve.run())), Vec::new()),
        }
    }
}

/// One episode of one pass.
#[derive(Debug)]
pub struct EpisodeRun {
    pub times: EpisodeTimes,
    /// Allocation events between the first and the last step.
    pub step_allocs: u64,
    pub outcome: Outcome,
    /// Steps whose returned service time was not a finite number.
    pub bad_steps: u64,
    /// The program's own traces, one per pipeline, when tracing was on.
    pub traces: Vec<Trace>,
}

/// Steps `live` to the end, timing every slot; `setup_started` is when its
/// construction began.
fn drive(mut live: Live, setup_started: Instant, steps: usize) -> EpisodeRun {
    let setup_ns = ns_since(setup_started);
    let mut slot_ns = Vec::with_capacity(steps + 1);
    let mut bad_steps = 0;
    let allocs_before = alloc::events();
    for k in 0..steps {
        let t = Instant::now();
        let service_ms = live.step(k);
        slot_ns.push(ns_since(t));
        bad_steps += u64::from(!service_ms.is_finite());
    }
    let step_allocs = alloc::events() - allocs_before;
    let t = Instant::now();
    let (outcome, traces) = live.finish();
    slot_ns.push(ns_since(t));
    EpisodeRun {
        times: EpisodeTimes { setup_ns, slot_ns },
        step_allocs,
        outcome,
        bad_steps,
        traces,
    }
}

/// Runs `spec` untraced, timing every slot.
///
/// # Panics
///
/// Propagates any panic of the program; the caller counts it as a failure.
pub fn run_episode(spec: &EpisodeSpec) -> EpisodeRun {
    let t = Instant::now();
    drive(Live::build(spec), t, spec.steps())
}

/// Runs `spec` with the program's own `enable_tracing()` on. A run is timed
/// slot by slot like an untraced one. `ServeLoop` has no public tracing
/// switch, so a serve episode goes through `run_serve_traced` in one piece:
/// one slot holding the whole wall time, construction included.
pub fn run_episode_traced(spec: &EpisodeSpec) -> EpisodeRun {
    let t = Instant::now();
    match spec {
        EpisodeSpec::Run { steps, .. } => {
            let mut live = Live::build(spec);
            if let Live::Run(pipeline) = &mut live {
                pipeline.enable_tracing();
            }
            drive(live, t, *steps)
        }
        EpisodeSpec::Serve { config, .. } => {
            let (report, traces) = run_serve_traced(config);
            EpisodeRun {
                times: EpisodeTimes {
                    setup_ns: 0,
                    slot_ns: vec![ns_since(t)],
                },
                step_allocs: 0,
                outcome: Outcome::Serve(Box::new(report)),
                bad_steps: 0,
                traces,
            }
        }
    }
}

/// The virtual-clock numbers of one episode, plus the work it completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Virtuals {
    /// Mean modeled frame latency, ms (serve: capture → completion).
    pub latency_ms: f64,
    pub recall: f64,
    /// Processed ÷ frames due.
    pub served_share: f64,
    /// Cameras × processed frames.
    pub camera_frames: u64,
}

impl Outcome {
    /// Bit-exact witness of everything the episode computed.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        match self {
            Outcome::Run(r) => {
                for &ms in r.latency.samples_ms() {
                    h.f64(ms);
                }
                h.f64(r.recall).f64(r.mean_latency_ms);
                let s = r.stats;
                for v in [s.key_frames, s.takeovers, s.probes, s.skipped_frames] {
                    h.u64(v as u64);
                }
            }
            Outcome::Serve(report) => {
                // `threads` is the one config field that may differ between
                // runs that must agree.
                let mut report = report.clone();
                report.config.threads = 0;
                let text = serde_json::to_string(&*report).expect("reports serialize");
                h.bytes(text.as_bytes());
            }
        }
        h.finish()
    }

    /// Broken invariants, one line each; empty when the episode is sound.
    pub fn violations(&self, spec: &EpisodeSpec) -> Vec<String> {
        let mut out = Vec::new();
        let unit = |name: &str, v: f64, out: &mut Vec<String>| {
            if !(0.0..=1.0).contains(&v) {
                out.push(format!("{name} {v} is outside [0, 1]"));
            }
        };
        match self {
            Outcome::Run(r) => {
                if r.frames != spec.steps() {
                    out.push(format!(
                        "processed {} frames, expected {}",
                        r.frames,
                        spec.steps()
                    ));
                }
                unit("recall", r.recall, &mut out);
                if !r.mean_latency_ms.is_finite() {
                    out.push(format!("mean latency {} is not finite", r.mean_latency_ms));
                }
            }
            Outcome::Serve(r) => {
                let conserved = |what: &str, c: u64, p: u64, q: u64, s: u64, rp: u64| {
                    (c != p + q + s + rp).then(|| {
                        format!(
                            "{what}: captured {c} != processed {p} + queue_dropped {q} \
                             + policy_skipped {s} + replayed {rp}"
                        )
                    })
                };
                out.extend(conserved(
                    "fleet",
                    r.captured,
                    r.processed,
                    r.queue_dropped,
                    r.policy_skipped,
                    r.replayed,
                ));
                for t in &r.tenants {
                    out.extend(conserved(
                        &format!("tenant {}", t.tenant),
                        t.captured,
                        t.processed,
                        t.queue_dropped,
                        t.policy_skipped,
                        t.replayed,
                    ));
                    unit(&format!("tenant {} recall", t.tenant), t.recall, &mut out);
                }
                if !r.e2e_ms.mean.is_finite() {
                    out.push(format!("mean e2e latency {} is not finite", r.e2e_ms.mean));
                }
            }
        }
        out
    }

    pub fn virtuals(&self, spec: &EpisodeSpec) -> Virtuals {
        match (self, spec) {
            (Outcome::Run(r), EpisodeSpec::Run { .. }) => Virtuals {
                latency_ms: r.mean_latency_ms,
                recall: r.recall,
                served_share: r.frames as f64 / spec.steps() as f64,
                camera_frames: (r.per_camera_mean_ms.len() * r.frames) as u64,
            },
            (Outcome::Serve(r), EpisodeSpec::Serve { config, .. }) => {
                // Rejected and quarantined tenants report recall 0 by
                // construction (no pipeline to ask); they are already
                // charged through the served share.
                let serving: Vec<f64> = r
                    .tenants
                    .iter()
                    .filter(|t| {
                        !matches!(
                            t.decision,
                            AdmissionDecision::Rejected | AdmissionDecision::Quarantined
                        )
                    })
                    .map(|t| t.recall)
                    .collect();
                let due = config.tenants as f64 * (config.duration_s * config.fps).round();
                Virtuals {
                    latency_ms: r.e2e_ms.mean,
                    recall: serving.iter().sum::<f64>() / serving.len().max(1) as f64,
                    served_share: r.processed as f64 / due,
                    camera_frames: config.cameras_per_tenant as u64 * r.processed,
                }
            }
            _ => unreachable!("an outcome always comes from its own spec"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    /// `s1-balb` cut to 50 steps, to keep the test quick.
    fn short_s1(seed: u64, e: usize) -> EpisodeSpec {
        match Workload::S1Balb.specs(seed).swap_remove(e) {
            EpisodeSpec::Run {
                scenario, config, ..
            } => EpisodeSpec::Run {
                scenario,
                config,
                steps: 50,
            },
            EpisodeSpec::Serve { .. } => unreachable!(),
        }
    }

    #[test]
    fn digest_is_stable_across_episodes_and_follows_the_seed() {
        let spec = short_s1(11, 0);
        let a = run_episode(&spec);
        let b = run_episode(&spec);
        assert_eq!(a.times.slot_ns.len(), 51);
        assert_eq!(a.bad_steps, 0);
        assert_eq!(a.outcome.violations(&spec), Vec::<String>::new());
        assert_eq!(a.outcome.digest(), b.outcome.digest());
        assert_eq!(a.outcome, b.outcome);
        // The program's own tracing must not change a bit either.
        let traced = run_episode_traced(&spec);
        assert_eq!(traced.outcome.digest(), a.outcome.digest());
        assert_eq!(traced.traces.len(), 1);
        assert!(!traced.traces[0].is_empty());

        let other = run_episode(&short_s1(12, 0));
        assert_ne!(a.outcome.digest(), other.outcome.digest());
        let sibling = run_episode(&short_s1(11, 1));
        assert_ne!(a.outcome.digest(), sibling.outcome.digest());

        let v = a.outcome.virtuals(&spec);
        assert_eq!(v.camera_frames, 5 * 50);
        assert_eq!(v.served_share, 1.0);
        assert!(v.latency_ms > 0.0 && v.recall > 0.0);
    }

    #[test]
    fn a_short_run_breaks_the_frame_count_invariant() {
        let spec = short_s1(3, 0);
        let mut run = run_episode(&spec);
        let Outcome::Run(result) = &mut run.outcome else {
            unreachable!()
        };
        result.frames -= 1;
        let broken = run.outcome.violations(&spec);
        assert_eq!(broken.len(), 1, "{broken:?}");
        assert!(broken[0].contains("expected 50"));
    }

    fn tiny_serve() -> EpisodeSpec {
        let EpisodeSpec::Serve { mut config, .. } = Workload::ServeChaos.specs(2).swap_remove(0)
        else {
            unreachable!()
        };
        config.tenants = 3;
        config.cameras_per_tenant = 2;
        config.duration_s = 3.0;
        config.capacity_cores = 3.0;
        config.chaos.crash_at_us = vec![1_500_000];
        config.chaos.degrades.clear();
        EpisodeSpec::Serve { config, steps: 30 }
    }

    #[test]
    fn conservation_check_rejects_a_doctored_serve_report() {
        let spec = tiny_serve();
        let run = run_episode(&spec);
        assert_eq!(run.times.slot_ns.len(), 31);
        assert_eq!(run.bad_steps, 0);
        assert_eq!(run.outcome.violations(&spec), Vec::<String>::new());
        let Outcome::Serve(report) = &run.outcome else {
            unreachable!()
        };
        assert!(report.recovery.restarts >= 1, "the crash must have fired");

        let mut doctored = report.clone();
        doctored.processed += 1;
        let broken = Outcome::Serve(doctored).violations(&spec);
        assert_eq!(broken.len(), 1, "{broken:?}");
        assert!(broken[0].starts_with("fleet: captured"));

        let mut doctored = report.clone();
        doctored.tenants[1].replayed += 2;
        doctored.tenants[2].recall = 1.5;
        let broken = Outcome::Serve(doctored).violations(&spec);
        assert_eq!(broken.len(), 2, "{broken:?}");
        assert!(broken[0].starts_with("tenant 1: captured"));
        assert!(broken[1].contains("outside [0, 1]"));
    }

    #[test]
    fn serve_digest_ignores_threads_only() {
        let spec = tiny_serve();
        let run = run_episode(&spec);
        let Outcome::Serve(report) = &run.outcome else {
            unreachable!()
        };
        let mut other_threads = report.clone();
        other_threads.config.threads = 2;
        assert_eq!(Outcome::Serve(other_threads).digest(), run.outcome.digest());
        let mut moved = report.clone();
        moved.tenants[0].e2e_ms.mean = f64::from_bits(moved.tenants[0].e2e_ms.mean.to_bits() + 1);
        assert_ne!(Outcome::Serve(moved).digest(), run.outcome.digest());
        // The traced entry point reports the same bits.
        let traced = run_episode_traced(&spec);
        assert_eq!(traced.outcome.digest(), run.outcome.digest());
        assert_eq!(traced.traces.len(), 3);
    }
}
