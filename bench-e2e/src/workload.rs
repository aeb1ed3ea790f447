//! The four workloads: what each one configures, and how `--seed` becomes
//! the seeds of its episodes. Nothing but the configs built here reaches
//! the program under test.

use mvs_sim::{
    Algorithm, CityConfig, FaultModel, PipelineConfig, PoolDegrade, Scenario, ScenarioKind,
    ServeConfig, ServeFaultModel,
};

/// Seeds handed out per `--seed`: episode `e` of a run gets
/// `seed * SEED_STRIDE + e * seeds_per_episode`, so two different `--seed`
/// values never share an episode or tenant seed.
pub const SEED_STRIDE: u64 = 1024;

/// Every config is generated for one worker thread: the benchmark's numbers
/// are defined in one process on one thread.
const THREADS: usize = 1;

/// Capture rate of every workload's cameras (the presets' and the city
/// generator's own rate; a unit test holds them to it).
const FPS: f64 = 10.0;

/// Tenants of both serve workloads. `ServeConfig` seeds tenant `t` with
/// `seed + t`, so serve episodes are spaced this far apart.
const SERVE_TENANTS: usize = 16;
const SERVE_CAMERAS: usize = 8;
const SERVE_DURATION_S: f64 = 30.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    S1Balb,
    City128,
    ServeSteady,
    ServeChaos,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::S1Balb,
        Workload::City128,
        Workload::ServeSteady,
        Workload::ServeChaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::S1Balb => "s1-balb",
            Workload::City128 => "city128",
            Workload::ServeSteady => "serve-steady",
            Workload::ServeChaos => "serve-chaos",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent episodes per run (`E`). Every one of them runs once, in
    /// the first pass, and feeds the exact metrics (virtual numbers and
    /// allocation counts), whose seed-to-seed spread only an ensemble brings
    /// down and which need no repetition (see README for the sizing).
    pub fn episodes(self) -> usize {
        match self {
            Workload::S1Balb => 96,
            Workload::City128 => 24,
            Workload::ServeSteady => 16,
            Workload::ServeChaos => 12,
        }
    }

    /// How many of those episodes (the first ones) every later pass
    /// repeats, and so carry the host-time envelope. Host times follow the
    /// episode's seed by 15-25 %, so this wants to be large; the envelope
    /// wants many passes, so it wants to be small.
    pub fn timed_episodes(self) -> usize {
        match self {
            Workload::S1Balb => 24,
            Workload::City128 => 3,
            Workload::ServeSteady => 4,
            Workload::ServeChaos => 2,
        }
    }

    /// Steps per episode (`N`): capture periods the deployment advances.
    pub fn steps(self) -> usize {
        match self {
            Workload::S1Balb => 125,
            Workload::City128 => 60,
            Workload::ServeSteady | Workload::ServeChaos => {
                (SERVE_DURATION_S * FPS).round() as usize
            }
        }
    }

    fn seeds_per_episode(self) -> u64 {
        match self {
            Workload::S1Balb | Workload::City128 => 1,
            Workload::ServeSteady | Workload::ServeChaos => SERVE_TENANTS as u64,
        }
    }

    /// Seed of episode `e`. Injective over `(seed, e)` because
    /// `episodes() * seeds_per_episode() <= SEED_STRIDE`.
    pub fn episode_seed(self, seed: u64, e: usize) -> u64 {
        seed * SEED_STRIDE + e as u64 * self.seeds_per_episode()
    }

    /// The generated inputs of one run.
    pub fn specs(self, seed: u64) -> Vec<EpisodeSpec> {
        (0..self.episodes())
            .map(|e| self.spec(self.episode_seed(seed, e)))
            .collect()
    }

    fn spec(self, seed: u64) -> EpisodeSpec {
        let steps = self.steps();
        match self {
            Workload::S1Balb => EpisodeSpec::Run {
                scenario: ScenarioSpec::Preset(ScenarioKind::S1),
                config: pipeline_config(seed),
                steps,
            },
            Workload::City128 => EpisodeSpec::Run {
                // The layout is part of the workload; only traffic,
                // detection and flow noise follow the seed.
                scenario: ScenarioSpec::City(CityConfig {
                    cameras: 128,
                    seed: 2022,
                    intensity: 1.0,
                }),
                config: PipelineConfig {
                    train_s: 20.0,
                    shard_solver: true,
                    ..pipeline_config(seed)
                },
                steps,
            },
            Workload::ServeSteady => EpisodeSpec::Serve {
                config: serve_steady(seed),
                steps,
            },
            Workload::ServeChaos => {
                let us = |s: f64| (s * 1e6).round() as u64;
                let d = SERVE_DURATION_S;
                EpisodeSpec::Serve {
                    config: ServeConfig {
                        snapshot_every_horizons: 1,
                        chaos: ServeFaultModel {
                            seed,
                            crash_at_us: vec![us(d * 0.25), us(d * 0.5), us(d * 0.75)],
                            restart_delay_us: 500_000,
                            poison_per_frame: 0.01,
                            quarantine_us: 2_000_000,
                            degrades: vec![
                                PoolDegrade {
                                    at_us: us(d * 0.375),
                                    capacity_factor: 0.6,
                                    service_inflation: 1.2,
                                },
                                PoolDegrade {
                                    at_us: us(d * 0.625),
                                    capacity_factor: 1.0,
                                    service_inflation: 1.0,
                                },
                            ],
                        },
                        ..serve_steady(seed)
                    },
                    steps,
                }
            }
        }
    }
}

/// The paper's operating point (T = 10, k = 3, 90 s of training) with the
/// scheduler charged as zero, so every virtual number is a pure function of
/// the config.
fn pipeline_config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        seed,
        threads: THREADS,
        measured_overheads: false,
        ..PipelineConfig::paper_default(Algorithm::Balb)
    }
}

/// `bench_serve`'s flagship mix, stretched to half a virtual minute.
fn serve_steady(seed: u64) -> ServeConfig {
    ServeConfig {
        tenants: SERVE_TENANTS,
        cameras_per_tenant: SERVE_CAMERAS,
        fps: FPS,
        duration_s: SERVE_DURATION_S,
        capacity_cores: 24.0,
        seed,
        threads: THREADS,
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

#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioSpec {
    Preset(ScenarioKind),
    City(CityConfig),
}

impl ScenarioSpec {
    pub fn build(&self) -> Scenario {
        match self {
            ScenarioSpec::Preset(kind) => Scenario::new(*kind),
            ScenarioSpec::City(city) => Scenario::city(city),
        }
    }
}

/// Everything one episode hands to the program.
#[derive(Debug, Clone, PartialEq)]
pub enum EpisodeSpec {
    /// `mvs run`: one deployment stepped frame by frame.
    Run {
        scenario: ScenarioSpec,
        config: PipelineConfig,
        steps: usize,
    },
    /// `mvs serve`: the multi-tenant loop advanced one capture period at a time.
    Serve { config: ServeConfig, steps: usize },
}

impl EpisodeSpec {
    pub fn steps(&self) -> usize {
        match self {
            EpisodeSpec::Run { steps, .. } | EpisodeSpec::Serve { steps, .. } => *steps,
        }
    }

    /// The same episode generated for `threads` workers: the two-thread
    /// probe's input. Thread count never changes what an episode computes.
    pub fn with_threads(&self, threads: usize) -> EpisodeSpec {
        let mut spec = self.clone();
        match &mut spec {
            EpisodeSpec::Run { config, .. } => config.threads = threads,
            EpisodeSpec::Serve { config, .. } => config.threads = threads,
        }
        spec
    }

    /// The deployment the layer probes replay for a run; for a serve mix,
    /// tenant `t` (built exactly as `ServeLoop::new` builds it).
    pub fn probe_deployment(&self, t: usize) -> (Scenario, PipelineConfig) {
        match self {
            EpisodeSpec::Run {
                scenario, config, ..
            } => (scenario.build(), config.clone()),
            EpisodeSpec::Serve { config, .. } => tenant_deployment(config, t),
        }
    }
}

/// Tenant `t` of a serve mix as a stand-alone deployment, mirroring
/// `ServeLoop::new`.
pub fn tenant_deployment(config: &ServeConfig, t: usize) -> (Scenario, PipelineConfig) {
    let seed = config.seed + t as u64;
    let mut scenario = Scenario::city(&CityConfig {
        cameras: config.cameras_per_tenant,
        seed,
        intensity: config.intensity,
    });
    scenario.fps = config.fps;
    let pipeline = PipelineConfig {
        train_s: config.train_s,
        seed,
        threads: config.threads,
        redundancy: config.redundancy,
        measured_overheads: false,
        faults: config.faults,
        shard_solver: config.shard_solver,
        pipelined: config.pipelined,
        ..PipelineConfig::paper_default(Algorithm::Balb)
    };
    (scenario, pipeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("S1-BALB"), None);
    }

    #[test]
    fn every_seed_the_program_sees_is_unique() {
        for w in Workload::ALL {
            assert!(w.episodes() as u64 * w.seeds_per_episode() <= SEED_STRIDE);
            assert!((1..=w.episodes()).contains(&w.timed_episodes()));
            let mut seen = BTreeSet::new();
            for seed in [0u64, 1, 2, 41, 42] {
                for e in 0..w.episodes() {
                    let base = w.episode_seed(seed, e);
                    for offset in 0..w.seeds_per_episode() {
                        assert!(seen.insert(base + offset), "{w:?} seed {seed} episode {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn equal_seeds_give_identical_configs_and_different_seeds_differ() {
        for w in Workload::ALL {
            let a = w.specs(7);
            assert_eq!(a, w.specs(7));
            assert_eq!(
                format!("{a:?}").into_bytes(),
                format!("{:?}", w.specs(7)).into_bytes()
            );
            let b = w.specs(8);
            assert_eq!(a.len(), w.episodes());
            for (x, y) in a.iter().zip(&b) {
                assert_ne!(x, y, "{w:?}");
            }
            for pair in a.windows(2) {
                assert_ne!(pair[0], pair[1], "{w:?}: episodes must differ");
            }
        }
    }

    #[test]
    fn the_seed_reaches_only_the_seed_fields() {
        let seedless = |spec: &EpisodeSpec| match spec.clone() {
            EpisodeSpec::Run {
                scenario,
                mut config,
                steps,
            } => {
                config.seed = 0;
                format!("{scenario:?} {config:?} {steps}")
            }
            EpisodeSpec::Serve { mut config, steps } => {
                config.seed = 0;
                config.chaos.seed = 0;
                format!("{config:?} {steps}")
            }
        };
        for w in Workload::ALL {
            let a = w.specs(3);
            let b = w.specs(4);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(seedless(x), seedless(y), "{w:?}");
            }
        }
    }

    #[test]
    fn every_deployment_captures_at_the_stated_rate_on_one_thread() {
        for w in Workload::ALL {
            let spec = w.specs(1).swap_remove(0);
            let (scenario, config) = spec.probe_deployment(0);
            assert_eq!(scenario.fps, FPS, "{w:?}");
            assert_eq!(config.threads, 1, "{w:?}");
            let (_, two) = spec.with_threads(2).probe_deployment(0);
            assert_eq!(two.threads, 2, "{w:?}");
            assert_eq!(PipelineConfig { threads: 1, ..two }, config, "{w:?}");
        }
    }

    #[test]
    fn serve_configs_validate() {
        for w in [Workload::ServeSteady, Workload::ServeChaos] {
            for spec in w.specs(5) {
                let EpisodeSpec::Serve { config, steps } = spec else {
                    panic!("serve workload");
                };
                assert_eq!(config.validate(), Ok(()));
                assert_eq!(steps as f64, config.duration_s * config.fps);
            }
        }
    }
}
