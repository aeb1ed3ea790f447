//! `mvs` — command-line front end for the multi-view scheduling pipeline.
//!
//! ```text
//! mvs run <scenario> <algorithm> [options]   run one pipeline configuration
//! mvs compare <scenario> [options]           run every algorithm side by side
//! mvs workload <scenario>                    per-camera workload series (Fig. 2)
//! mvs serve [serve options]                  multi-tenant serving event loop
//! ```
//!
//! Scenarios: the paper presets `s1`, `s2`, `s3`, plus `city` — a
//! procedural city-scale fleet sized by `--cameras`/`--intensity`.
//! Algorithms: `full`, `balb`, `balb-ind`, `balb-cen`, `sp`, `sp-oracle`.
//! Options: `--horizon N`, `--train-s S`, `--eval-s S`, `--seed N`,
//! `--redundancy N`, `--no-batching`, `--threads N`, `--trace DIR`,
//! `--cameras N`, `--intensity X`, `--shard-solver`, `--pipelined`.

use multiview_scheduler::metrics::{sparkline_fit, TextTable};
use multiview_scheduler::sim::{
    run_pipeline, run_pipeline_traced, run_serve, run_serve_traced, AdmissionDecision, Algorithm,
    CityConfig, PipelineConfig, Scenario, ScenarioKind, ServeReport,
};
use multiview_scheduler::trace::Trace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::process::ExitCode;

mod cli {
    //! Hand-rolled argument parsing (kept dependency-free and testable).
    //!
    //! Options are validated against the command and scenario they are
    //! given with: a flag that exists but does not apply (`--intensity` on
    //! the fixed-geometry `s1` preset, any option after `workload`) is an
    //! error, not a silent no-op — a typo'd invocation should fail loudly
    //! rather than measure something other than what was asked.

    use multiview_scheduler::sim::{
        Algorithm, CityConfig, FaultModel, PoolDegrade, ScenarioKind, ServeConfig,
    };

    /// A parsed invocation.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Command {
        /// Run one algorithm on one scenario.
        Run {
            /// Scenario under test.
            scenario: ScenarioKind,
            /// Algorithm under test.
            algorithm: Algorithm,
            /// Common tuning options.
            options: Options,
        },
        /// Run every algorithm on one scenario.
        Compare {
            /// Scenario under test.
            scenario: ScenarioKind,
            /// Common tuning options.
            options: Options,
        },
        /// Print the per-camera workload series.
        Workload {
            /// Scenario under test.
            scenario: ScenarioKind,
        },
        /// Run the multi-tenant serving event loop.
        Serve {
            /// Full serving configuration.
            config: ServeConfig,
            /// When set, write per-tenant trace exports into this
            /// directory.
            trace_dir: Option<String>,
        },
        /// Print usage.
        Help,
    }

    /// Tunables shared by `run` and `compare`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Options {
        pub horizon: usize,
        pub train_s: f64,
        pub eval_s: f64,
        pub seed: u64,
        pub redundancy: usize,
        pub disable_batching: bool,
        pub threads: usize,
        /// When set, record per-stage spans and write the trace exports
        /// (Chrome JSON, Prometheus text, golden text) into this directory.
        pub trace_dir: Option<String>,
        /// Fleet size of the `city` scenario (ignored by the paper
        /// presets, whose camera counts are fixed).
        pub cameras: usize,
        /// Traffic intensity multiplier of the `city` scenario.
        pub intensity: f64,
        /// Solve key frames shard-by-shard over the camera overlap graph
        /// instead of in one pass (identical schedules; compute-only
        /// knob).
        pub shard_solver: bool,
        /// Overlap the central solve with uplink-leg encoding on key
        /// frames (identical results; wall-clock-only knob).
        pub pipelined: bool,
    }

    impl Default for Options {
        fn default() -> Self {
            Options {
                horizon: 10,
                train_s: 60.0,
                eval_s: 60.0,
                seed: 17,
                redundancy: 1,
                disable_batching: false,
                threads: 0,
                trace_dir: None,
                cameras: CityConfig::default().cameras,
                intensity: 1.0,
                shard_solver: false,
                pipelined: false,
            }
        }
    }

    /// Parses `args` (without the program name).
    pub fn parse(args: &[String]) -> Result<Command, String> {
        let mut it = args.iter();
        let Some(cmd) = it.next() else {
            return Ok(Command::Help);
        };
        match cmd.as_str() {
            "-h" | "--help" | "help" => Ok(Command::Help),
            "run" => {
                let scenario = parse_scenario(it.next())?;
                let algorithm = parse_algorithm(it.next())?;
                let options = parse_options(scenario, it.as_slice())?;
                Ok(Command::Run {
                    scenario,
                    algorithm,
                    options,
                })
            }
            "compare" => {
                let scenario = parse_scenario(it.next())?;
                let options = parse_options(scenario, it.as_slice())?;
                Ok(Command::Compare { scenario, options })
            }
            "workload" => {
                let scenario = parse_scenario(it.next())?;
                if let Some(extra) = it.next() {
                    return Err(format!("`workload` takes no options, got `{extra}`"));
                }
                Ok(Command::Workload { scenario })
            }
            "serve" => {
                let (config, trace_dir) = parse_serve_options(it.as_slice())?;
                Ok(Command::Serve { config, trace_dir })
            }
            other => Err(format!("unknown command `{other}`; try --help")),
        }
    }

    fn parse_scenario(arg: Option<&String>) -> Result<ScenarioKind, String> {
        match arg.map(String::as_str) {
            Some("s1") | Some("S1") => Ok(ScenarioKind::S1),
            Some("s2") | Some("S2") => Ok(ScenarioKind::S2),
            Some("s3") | Some("S3") => Ok(ScenarioKind::S3),
            Some("city") => Ok(ScenarioKind::City),
            Some(other) => Err(format!(
                "unknown scenario `{other}` (expected s1|s2|s3|city)"
            )),
            None => Err("missing scenario (expected s1|s2|s3|city)".to_string()),
        }
    }

    fn parse_algorithm(arg: Option<&String>) -> Result<Algorithm, String> {
        match arg.map(String::as_str) {
            Some("full") => Ok(Algorithm::Full),
            Some("balb") => Ok(Algorithm::Balb),
            Some("balb-ind") => Ok(Algorithm::BalbInd),
            Some("balb-cen") => Ok(Algorithm::BalbCen),
            Some("sp") => Ok(Algorithm::StaticPartition),
            Some("sp-oracle") => Ok(Algorithm::StaticPartitionOracle),
            Some(other) => Err(format!(
                "unknown algorithm `{other}` (expected full|balb|balb-ind|balb-cen|sp|sp-oracle)"
            )),
            None => Err("missing algorithm".to_string()),
        }
    }

    /// A duration, rate or scale the run divides by or loops up to: zero,
    /// negative, infinite and NaN values are refused where they are typed.
    fn positive(name: &str, v: f64) -> Result<f64, String> {
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(format!("{name} must be positive and finite"))
        }
    }

    fn parse_options(scenario: ScenarioKind, rest: &[String]) -> Result<Options, String> {
        let mut options = Options::default();
        // Flags that only make sense for the procedural city scenario —
        // the paper presets have fixed geometry and traffic, so accepting
        // these silently would run something other than what was asked.
        let city_only = |flag: &str| {
            if scenario == ScenarioKind::City {
                Ok(())
            } else {
                Err(format!(
                    "{flag} only applies to the `city` scenario, not `{scenario:?}`"
                ))
            }
        };
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--horizon" => {
                    options.horizon = value("--horizon")?
                        .parse()
                        .map_err(|e| format!("--horizon: {e}"))?;
                    if options.horizon == 0 {
                        return Err("--horizon must be positive".to_string());
                    }
                }
                "--train-s" => {
                    let v = value("--train-s")?
                        .parse()
                        .map_err(|e| format!("--train-s: {e}"))?;
                    options.train_s = positive("--train-s", v)?;
                }
                "--eval-s" => {
                    let v = value("--eval-s")?
                        .parse()
                        .map_err(|e| format!("--eval-s: {e}"))?;
                    options.eval_s = positive("--eval-s", v)?;
                }
                "--seed" => {
                    options.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--redundancy" => {
                    options.redundancy = value("--redundancy")?
                        .parse()
                        .map_err(|e| format!("--redundancy: {e}"))?;
                    if options.redundancy == 0 {
                        return Err("--redundancy must be positive".to_string());
                    }
                }
                "--no-batching" => options.disable_batching = true,
                "--shard-solver" => options.shard_solver = true,
                "--pipelined" => options.pipelined = true,
                "--trace" => options.trace_dir = Some(value("--trace")?),
                "--cameras" => {
                    city_only("--cameras")?;
                    options.cameras = value("--cameras")?
                        .parse()
                        .map_err(|e| format!("--cameras: {e}"))?;
                    if options.cameras == 0 {
                        return Err("--cameras must be positive".to_string());
                    }
                }
                "--intensity" => {
                    city_only("--intensity")?;
                    let v = value("--intensity")?
                        .parse()
                        .map_err(|e| format!("--intensity: {e}"))?;
                    options.intensity = positive("--intensity", v)?;
                }
                "--threads" => {
                    options.threads = value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?;
                }
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(options)
    }

    /// Parses `mvs serve` options into a [`ServeConfig`] plus an optional
    /// trace directory. Serving has its own flag set — pipeline-tuning
    /// flags like `--horizon` or `--eval-s` are rejected here just like
    /// serve flags are rejected on `run`.
    fn parse_serve_options(rest: &[String]) -> Result<(ServeConfig, Option<String>), String> {
        let mut config = ServeConfig::default();
        let mut trace_dir = None;
        let mut loss = 0.0f64;
        let mut dropout = 0.0f64;
        let mut snapshot_every: Option<u64> = None;
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            fn probability(name: &str, v: f64) -> Result<f64, String> {
                if (0.0..=1.0).contains(&v) {
                    Ok(v)
                } else {
                    Err(format!("{name} must be a probability in [0, 1]"))
                }
            }
            match flag.as_str() {
                "--tenants" => {
                    config.tenants = value("--tenants")?
                        .parse()
                        .map_err(|e| format!("--tenants: {e}"))?;
                    if config.tenants == 0 {
                        return Err("--tenants must be positive".to_string());
                    }
                }
                "--cameras" => {
                    config.cameras_per_tenant = value("--cameras")?
                        .parse()
                        .map_err(|e| format!("--cameras: {e}"))?;
                    if config.cameras_per_tenant == 0 {
                        return Err("--cameras must be positive".to_string());
                    }
                }
                "--fps" => {
                    let v = value("--fps")?.parse().map_err(|e| format!("--fps: {e}"))?;
                    config.fps = positive("--fps", v)?;
                }
                "--duration-s" => {
                    let v = value("--duration-s")?
                        .parse()
                        .map_err(|e| format!("--duration-s: {e}"))?;
                    config.duration_s = positive("--duration-s", v)?;
                }
                "--capacity" => {
                    let v = value("--capacity")?
                        .parse()
                        .map_err(|e| format!("--capacity: {e}"))?;
                    config.capacity_cores = positive("--capacity", v)?;
                }
                "--seed" => {
                    config.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--threads" => {
                    config.threads = value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?;
                }
                "--redundancy" => {
                    config.redundancy = value("--redundancy")?
                        .parse()
                        .map_err(|e| format!("--redundancy: {e}"))?;
                    if config.redundancy == 0 {
                        return Err("--redundancy must be positive".to_string());
                    }
                }
                "--intensity" => {
                    let v = value("--intensity")?
                        .parse()
                        .map_err(|e| format!("--intensity: {e}"))?;
                    config.intensity = positive("--intensity", v)?;
                }
                "--train-s" => {
                    let v = value("--train-s")?
                        .parse()
                        .map_err(|e| format!("--train-s: {e}"))?;
                    config.train_s = positive("--train-s", v)?;
                }
                "--loss" => {
                    let v = value("--loss")?
                        .parse()
                        .map_err(|e| format!("--loss: {e}"))?;
                    loss = probability("--loss", v)?;
                }
                "--dropout" => {
                    let v = value("--dropout")?
                        .parse()
                        .map_err(|e| format!("--dropout: {e}"))?;
                    dropout = probability("--dropout", v)?;
                }
                "--max-keep-every" => {
                    config.max_keep_every = value("--max-keep-every")?
                        .parse()
                        .map_err(|e| format!("--max-keep-every: {e}"))?;
                    if config.max_keep_every == 0 {
                        return Err("--max-keep-every must be positive".to_string());
                    }
                }
                "--shard-solver" => config.shard_solver = true,
                "--pipelined" => config.pipelined = true,
                "--trace" => trace_dir = Some(value("--trace")?),
                "--chaos-seed" => {
                    config.chaos.seed = value("--chaos-seed")?
                        .parse()
                        .map_err(|e| format!("--chaos-seed: {e}"))?;
                }
                "--crash-at" => {
                    for part in value("--crash-at")?.split(',') {
                        let v: f64 = part
                            .parse()
                            .map_err(|e| format!("--crash-at `{part}`: {e}"))?;
                        if !v.is_finite() || v < 0.0 {
                            return Err("--crash-at times must be non-negative seconds".into());
                        }
                        config.chaos.crash_at_us.push((v * 1e6).round() as u64);
                    }
                }
                "--restart-delay-s" => {
                    let v = value("--restart-delay-s")?
                        .parse()
                        .map_err(|e| format!("--restart-delay-s: {e}"))?;
                    config.chaos.restart_delay_us =
                        (positive("--restart-delay-s", v)? * 1e6).round() as u64;
                }
                "--poison" => {
                    let v = value("--poison")?
                        .parse()
                        .map_err(|e| format!("--poison: {e}"))?;
                    config.chaos.poison_per_frame = probability("--poison", v)?;
                }
                "--quarantine-s" => {
                    let v = value("--quarantine-s")?
                        .parse()
                        .map_err(|e| format!("--quarantine-s: {e}"))?;
                    config.chaos.quarantine_us =
                        (positive("--quarantine-s", v)? * 1e6).round() as u64;
                }
                "--degrade" => {
                    let spec = value("--degrade")?;
                    let parts: Vec<&str> = spec.split(':').collect();
                    if parts.len() < 2 || parts.len() > 3 {
                        return Err(format!(
                            "--degrade expects AT_S:CAPACITY_FACTOR[:SERVICE_INFLATION], \
                             got `{spec}`"
                        ));
                    }
                    let at_s: f64 = parts[0]
                        .parse()
                        .map_err(|e| format!("--degrade at `{}`: {e}", parts[0]))?;
                    if !at_s.is_finite() || at_s < 0.0 {
                        return Err("--degrade time must be non-negative seconds".into());
                    }
                    let factor: f64 = parts[1]
                        .parse()
                        .map_err(|e| format!("--degrade factor `{}`: {e}", parts[1]))?;
                    let inflation: f64 = match parts.get(2) {
                        Some(p) => p
                            .parse()
                            .map_err(|e| format!("--degrade inflation `{p}`: {e}"))?,
                        None => 1.0,
                    };
                    config.chaos.degrades.push(PoolDegrade {
                        at_us: (at_s * 1e6).round() as u64,
                        capacity_factor: factor,
                        service_inflation: inflation,
                    });
                }
                "--snapshot-every" => {
                    snapshot_every = Some(
                        value("--snapshot-every")?
                            .parse()
                            .map_err(|e| format!("--snapshot-every: {e}"))?,
                    );
                }
                other => return Err(format!("unknown serve option `{other}`")),
            }
        }
        if loss > 0.0 || dropout > 0.0 {
            config.faults = FaultModel {
                keyframe_loss: loss,
                dropout_per_horizon: dropout,
                rejoin_per_horizon: if dropout > 0.0 { 0.3 } else { 0.0 },
                ..FaultModel::none()
            };
        }
        // Crashes need checkpoints to recover from: default to a
        // one-horizon cadence when crashes are scheduled and the user
        // did not pick one explicitly.
        config.snapshot_every_horizons =
            snapshot_every.unwrap_or(u64::from(!config.chaos.crash_at_us.is_empty()));
        // Cross-field consistency comes from the typed validator, so a
        // nonsensical mix fails here with its message instead of
        // panicking mid-run.
        config
            .validate()
            .map_err(|e| format!("invalid serve configuration: {e}"))?;
        Ok((config, trace_dir))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn args(s: &str) -> Vec<String> {
            s.split_whitespace().map(String::from).collect()
        }

        #[test]
        fn parses_run_with_defaults() {
            let c = parse(&args("run s1 balb")).unwrap();
            assert_eq!(
                c,
                Command::Run {
                    scenario: ScenarioKind::S1,
                    algorithm: Algorithm::Balb,
                    options: Options::default(),
                }
            );
        }

        #[test]
        fn parses_all_algorithms() {
            for (name, alg) in [
                ("full", Algorithm::Full),
                ("balb", Algorithm::Balb),
                ("balb-ind", Algorithm::BalbInd),
                ("balb-cen", Algorithm::BalbCen),
                ("sp", Algorithm::StaticPartition),
                ("sp-oracle", Algorithm::StaticPartitionOracle),
            ] {
                match parse(&args(&format!("run s2 {name}"))).unwrap() {
                    Command::Run { algorithm, .. } => assert_eq!(algorithm, alg),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }

        #[test]
        fn parses_options() {
            let c = parse(&args(
                "run s3 balb --horizon 20 --seed 5 --redundancy 2 --no-batching --threads 4",
            ))
            .unwrap();
            match c {
                Command::Run { options, .. } => {
                    assert_eq!(options.horizon, 20);
                    assert_eq!(options.seed, 5);
                    assert_eq!(options.redundancy, 2);
                    assert!(options.disable_batching);
                    assert_eq!(options.threads, 4);
                    assert_eq!(options.trace_dir, None);
                }
                other => panic!("unexpected {other:?}"),
            }
        }

        #[test]
        fn parses_trace_flag() {
            match parse(&args("run s2 balb --trace results/trace")).unwrap() {
                Command::Run { options, .. } => {
                    assert_eq!(options.trace_dir.as_deref(), Some("results/trace"));
                }
                other => panic!("unexpected {other:?}"),
            }
        }

        #[test]
        fn parses_city_scenario_with_knobs() {
            let c = parse(&args(
                "run city balb --cameras 256 --intensity 2.5 --seed 7 --shard-solver",
            ))
            .unwrap();
            match c {
                Command::Run {
                    scenario, options, ..
                } => {
                    assert_eq!(scenario, ScenarioKind::City);
                    assert_eq!(options.cameras, 256);
                    assert_eq!(options.intensity, 2.5);
                    assert_eq!(options.seed, 7);
                    assert!(options.shard_solver);
                }
                other => panic!("unexpected {other:?}"),
            }
        }

        #[test]
        fn city_knob_defaults_match_city_config() {
            match parse(&args("run city balb-cen")).unwrap() {
                Command::Run { options, .. } => {
                    assert_eq!(options.cameras, CityConfig::default().cameras);
                    assert_eq!(options.intensity, 1.0);
                    assert!(!options.shard_solver);
                }
                other => panic!("unexpected {other:?}"),
            }
        }

        #[test]
        fn rejects_bad_input() {
            assert!(parse(&args("run s9 balb")).is_err());
            assert!(parse(&args("run s1 warp")).is_err());
            assert!(parse(&args("run s1 balb --horizon 0")).is_err());
            assert!(parse(&args("run s1 balb --horizon")).is_err());
            assert!(parse(&args("frobnicate")).is_err());
            assert!(parse(&args("run s1 balb --redundancy 0")).is_err());
            assert!(parse(&args("run s1 balb --trace")).is_err());
            assert!(parse(&args("run city balb --cameras 0")).is_err());
            assert!(parse(&args("run city balb --intensity 0")).is_err());
            assert!(parse(&args("run city balb --intensity nan")).is_err());
            // Durations become frame counts: `inf` used to run forever and
            // the rest printed a report over no samples.
            for flag in ["--train-s", "--eval-s"] {
                for bad in ["inf", "nan", "0", "-1"] {
                    let err = parse(&args(&format!("run s1 balb {flag} {bad}"))).unwrap_err();
                    assert!(err.contains(flag), "{flag} {bad}: {err}");
                    assert!(parse(&args(&format!("compare s1 {flag} {bad}"))).is_err());
                }
            }
        }

        #[test]
        fn rejects_city_flags_on_fixed_presets() {
            // Satellite of ISSUE 7: these used to parse silently and run
            // something other than what was asked.
            assert!(parse(&args("run s1 balb --intensity 2.0")).is_err());
            assert!(parse(&args("run s2 balb --cameras 64")).is_err());
            assert!(parse(&args("compare s3 --intensity 0.5")).is_err());
            // …but they are fine on the scenario they belong to.
            assert!(parse(&args("run city balb --intensity 2.0 --cameras 64")).is_ok());
        }

        #[test]
        fn workload_rejects_trailing_options() {
            assert!(parse(&args("workload s1 --seed 3")).is_err());
            assert!(parse(&args("workload s1")).is_ok());
        }

        #[test]
        fn parses_serve_defaults() {
            match parse(&args("serve")).unwrap() {
                Command::Serve { config, trace_dir } => {
                    assert_eq!(config, ServeConfig::default());
                    assert_eq!(trace_dir, None);
                }
                other => panic!("unexpected {other:?}"),
            }
        }

        #[test]
        fn parses_serve_flags() {
            let c = parse(&args(
                "serve --tenants 16 --cameras 8 --fps 10 --duration-s 12 --capacity 8 \
                 --seed 3 --threads 2 --loss 0.2 --dropout 0.1 --redundancy 2 \
                 --max-keep-every 3 --shard-solver --trace out/serve",
            ))
            .unwrap();
            match c {
                Command::Serve { config, trace_dir } => {
                    assert_eq!(config.tenants, 16);
                    assert_eq!(config.cameras_per_tenant, 8);
                    assert_eq!(config.fps, 10.0);
                    assert_eq!(config.duration_s, 12.0);
                    assert_eq!(config.capacity_cores, 8.0);
                    assert_eq!(config.seed, 3);
                    assert_eq!(config.threads, 2);
                    assert_eq!(config.redundancy, 2);
                    assert_eq!(config.max_keep_every, 3);
                    assert!(config.shard_solver);
                    assert_eq!(config.faults.keyframe_loss, 0.2);
                    assert_eq!(config.faults.dropout_per_horizon, 0.1);
                    assert!(config.faults.rejoin_per_horizon > 0.0);
                    assert_eq!(trace_dir.as_deref(), Some("out/serve"));
                }
                other => panic!("unexpected {other:?}"),
            }
        }

        #[test]
        fn parses_serve_chaos_flags() {
            let c = parse(&args(
                "serve --chaos-seed 7 --crash-at 2.5,4 --restart-delay-s 0.25 \
                 --poison 0.01 --quarantine-s 3 --degrade 6:0.5:1.5 --degrade 9:1",
            ))
            .unwrap();
            match c {
                Command::Serve { config, .. } => {
                    assert_eq!(config.chaos.seed, 7);
                    assert_eq!(config.chaos.crash_at_us, vec![2_500_000, 4_000_000]);
                    assert_eq!(config.chaos.restart_delay_us, 250_000);
                    assert_eq!(config.chaos.poison_per_frame, 0.01);
                    assert_eq!(config.chaos.quarantine_us, 3_000_000);
                    assert_eq!(config.chaos.degrades.len(), 2);
                    assert_eq!(config.chaos.degrades[0].at_us, 6_000_000);
                    assert_eq!(config.chaos.degrades[0].capacity_factor, 0.5);
                    assert_eq!(config.chaos.degrades[0].service_inflation, 1.5);
                    assert_eq!(config.chaos.degrades[1].at_us, 9_000_000);
                    assert_eq!(config.chaos.degrades[1].capacity_factor, 1.0);
                    assert_eq!(config.chaos.degrades[1].service_inflation, 1.0);
                    // --crash-at implies snapshotting.
                    assert_eq!(config.snapshot_every_horizons, 1);
                }
                other => panic!("unexpected {other:?}"),
            }
            // Without crashes snapshotting stays off unless asked for.
            match parse(&args("serve --poison 0.01")).unwrap() {
                Command::Serve { config, .. } => {
                    assert_eq!(config.snapshot_every_horizons, 0);
                }
                other => panic!("unexpected {other:?}"),
            }
            match parse(&args("serve --snapshot-every 2")).unwrap() {
                Command::Serve { config, .. } => {
                    assert_eq!(config.snapshot_every_horizons, 2);
                }
                other => panic!("unexpected {other:?}"),
            }
        }

        #[test]
        fn serve_rejects_bad_chaos_values() {
            assert!(parse(&args("serve --poison 1.5")).is_err());
            assert!(parse(&args("serve --poison nan")).is_err());
            assert!(parse(&args("serve --crash-at -1")).is_err());
            assert!(parse(&args("serve --crash-at 4,2")).is_err());
            assert!(parse(&args("serve --restart-delay-s 0")).is_err());
            assert!(parse(&args("serve --quarantine-s 0")).is_err());
            assert!(parse(&args("serve --degrade 5")).is_err());
            assert!(parse(&args("serve --degrade 5:0")).is_err());
            assert!(parse(&args("serve --degrade 5:0.5:0")).is_err());
            assert!(parse(&args("serve --degrade 5:0.5:1:2")).is_err());
            // Crashing without snapshots cannot recover; surfaced as a
            // typed error instead of a mid-run panic.
            let err = parse(&args("serve --crash-at 5 --snapshot-every 0")).unwrap_err();
            assert!(err.contains("snapshot"), "unexpected message: {err}");
        }

        #[test]
        fn serve_rejects_pipeline_flags_and_bad_values() {
            // Pipeline-tuning flags do not apply to `serve`.
            assert!(parse(&args("serve --horizon 20")).is_err());
            assert!(parse(&args("serve --eval-s 30")).is_err());
            assert!(parse(&args("serve --no-batching")).is_err());
            // Value validation.
            assert!(parse(&args("serve --tenants 0")).is_err());
            assert!(parse(&args("serve --fps 0")).is_err());
            assert!(parse(&args("serve --fps nan")).is_err());
            assert!(parse(&args("serve --loss 1.5")).is_err());
            assert!(parse(&args("serve --dropout -0.1")).is_err());
            assert!(parse(&args("serve --capacity")).is_err());
            assert!(parse(&args("serve --max-keep-every 0")).is_err());
        }

        #[test]
        fn serve_rejects_bad_thread_values() {
            // The pool width must be a plain count: reject garbage,
            // negatives, and a dangling flag rather than serving a config
            // the user did not ask for.
            assert!(parse(&args("serve --threads abc")).is_err());
            assert!(parse(&args("serve --threads -1")).is_err());
            assert!(parse(&args("serve --threads 2.5")).is_err());
            assert!(parse(&args("serve --threads")).is_err());
            // 0 is the documented "auto" sentinel, resolved via
            // MVS_THREADS or the machine at serve time.
            match parse(&args("serve --threads 0")).unwrap() {
                Command::Serve { config, .. } => assert_eq!(config.threads, 0),
                other => panic!("unexpected {other:?}"),
            }
            match parse(&args("serve --threads 8")).unwrap() {
                Command::Serve { config, .. } => assert_eq!(config.threads, 8),
                other => panic!("unexpected {other:?}"),
            }
        }

        #[test]
        fn empty_and_help() {
            assert_eq!(parse(&[]).unwrap(), Command::Help);
            assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
            assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        }

        #[test]
        fn compare_and_workload() {
            assert!(matches!(
                parse(&args("compare s2")).unwrap(),
                Command::Compare { .. }
            ));
            assert!(matches!(
                parse(&args("workload s3")).unwrap(),
                Command::Workload {
                    scenario: ScenarioKind::S3
                }
            ));
        }
    }
}

const USAGE: &str = "\
mvs — multi-view scheduling of onboard live video analytics (ICDCS 2022)

USAGE:
    mvs run <scenario> <algorithm> [options]   run one pipeline configuration
    mvs compare <scenario> [options]           run every algorithm side by side
    mvs workload <scenario>                    per-camera workload series (Fig. 2)
    mvs serve [serve options]                  multi-tenant serving event loop

SCENARIOS:
    s1 s2 s3    the paper's deployment presets
    city        procedural city-scale fleet (size it with --cameras,
                load it with --intensity; generated from --seed)

ALGORITHMS:
    full        full-frame inspection on every frame
    balb        the paper's complete scheduler
    balb-ind    per-camera BALB without coordination
    balb-cen    central stage only
    sp          static spatial partitioning baseline
    sp-oracle   SP with oracle world geometry (ablation)

OPTIONS:
    --horizon N       scheduling horizon in frames   (default 10)
    --train-s S       association training seconds   (default 60)
    --eval-s S        evaluated seconds              (default 60)
    --seed N          RNG seed                       (default 17)
    --redundancy N    owners per object              (default 1)
    --no-batching     force GPU batch limits to one
    --threads N       camera worker threads; 0 = auto (default 0):
                      MVS_THREADS env, else available CPU parallelism.
                      Results are identical at any thread count.
    --trace DIR       record per-stage spans (sim-clock, deterministic) and
                      write DIR/trace.chrome.json (chrome://tracing),
                      DIR/stages.prom (Prometheus text), DIR/trace.golden.txt
                      (golden format), plus a per-stage latency table.
    --cameras N       city fleet size                (default 128; city only)
    --intensity X     city traffic multiplier        (default 1.0; city only)
    --shard-solver    solve key frames shard-by-shard over the camera
                      overlap graph instead of in one pass (identical
                      schedules; compute-only knob)
    --pipelined       overlap the central solve with uplink-leg encoding
                      on key frames (identical results; wall-clock-only
                      knob)

Options only apply where they make sense: city knobs are rejected on the
fixed presets, serve flags are rejected on `run`, and vice versa.

SERVE OPTIONS:
    --tenants N        tenant deployments               (default 4)
    --cameras N        cameras per tenant               (default 8)
    --fps X            capture rate per tenant          (default 10)
    --duration-s S     served seconds of virtual time   (default 30)
    --capacity X       provisioned compute, in cores    (default 4);
                       admission degrades tenants (shed redundancy, then
                       process every d-th frame, then reject) until the
                       aggregate modeled load fits
    --seed N           base seed; tenant t uses seed+t  (default 2022)
    --threads N        persistent-pool lanes for tenant-parallel phases
                       (admission pilots, restores, readmissions) and each
                       tenant's camera workers; 0 = auto (MVS_THREADS env,
                       else the machine). Reports identical at any value.
    --redundancy N     requested owners per object      (default 1)
    --intensity X      city traffic multiplier          (default 1.0)
    --train-s S        association training seconds     (default 20)
    --loss P           key-frame message loss probability per attempt
    --dropout P        camera dropout probability per horizon
    --max-keep-every N deepest frame-thinning rung      (default 4)
    --shard-solver     sharded central solver
    --pipelined        overlap each tenant's central solve with uplink
                       encoding (identical reports)
    --trace DIR        write per-tenant labeled Prometheus text and Chrome
                       traces into DIR/

SERVE CHAOS OPTIONS (all virtual-time, seeded, deterministic):
    --chaos-seed N     seed of the serve-level chaos stream (default 0)
    --crash-at S[,S…]  crash the coordinator at these virtual seconds; it
                       restores the latest snapshot after the restart
                       delay and counts the gap as replayed frames
    --restart-delay-s S  outage length per crash     (default 0.5)
    --poison P         per-dispatch probability that a tenant's pipeline
                       step panics; the panic is caught and the tenant
                       quarantined, then re-admitted through the ladder
    --quarantine-s S   quarantine window             (default 5)
    --degrade AT:CAP[:INFL]  at AT seconds scale pool capacity by CAP and
                       service times by INFL (repeatable; admission is
                       re-evaluated at each event)
    --snapshot-every N checkpoint every N scheduling horizons (0 = off;
                       defaults to 1 when --crash-at is given). Snapshots
                       never change results.
";

/// Prints the per-stage latency table and writes the three trace exports.
fn report_trace(trace: &Trace, dir: &str) -> std::io::Result<()> {
    let stats = trace.stage_stats();
    let total_ms = trace.total_modeled_ms().max(f64::MIN_POSITIVE);
    let mut table = TextTable::new(vec![
        "stage",
        "spans",
        "items",
        "p50 (ms)",
        "p99 (ms)",
        "total (ms)",
        "share",
    ]);
    for (stage, s) in &stats {
        table.row(vec![
            stage.name().to_string(),
            s.summary.count.to_string(),
            s.items.to_string(),
            format!("{:.2}", s.summary.p50),
            format!("{:.2}", s.summary.p99),
            format!("{:.1}", s.total_ms),
            format!("{:.1}%", 100.0 * s.total_ms / total_ms),
        ]);
    }
    println!(
        "\nper-stage modeled latency ({} spans)\n\n{table}",
        trace.len()
    );
    std::fs::create_dir_all(dir)?;
    let path = std::path::Path::new(dir);
    std::fs::write(path.join("trace.chrome.json"), trace.chrome_trace_json())?;
    std::fs::write(path.join("stages.prom"), trace.prometheus_text())?;
    std::fs::write(path.join("trace.golden.txt"), trace.golden_text())?;
    println!("trace exports written to {dir}/");
    Ok(())
}

/// Prints the per-tenant admission and latency table for a serving run.
fn report_serve(report: &ServeReport) {
    print!("{}", serve_report_text(report));
}

/// Renders the serving report as text — kept separate from the printing
/// wrapper so regression tests can hold the format.
fn serve_report_text(report: &ServeReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let mut table = TextTable::new(vec![
        "tenant",
        "decision",
        "load (cores)",
        "captured",
        "processed",
        "q-dropped",
        "p-skipped",
        "e2e p99 (ms)",
        "recall",
    ]);
    for t in &report.tenants {
        let decision = match t.decision {
            AdmissionDecision::Admitted => "admitted".to_string(),
            AdmissionDecision::ShedRedundancy => "shed-redundancy".to_string(),
            AdmissionDecision::Degraded { keep_every } => format!("keep-1-in-{keep_every}"),
            AdmissionDecision::Rejected => "REJECTED".to_string(),
            AdmissionDecision::Quarantined => "QUARANTINED".to_string(),
        };
        table.row(vec![
            t.tenant.to_string(),
            decision,
            format!("{:.2}", t.pilot_load_cores),
            t.captured.to_string(),
            t.processed.to_string(),
            t.queue_dropped.to_string(),
            t.policy_skipped.to_string(),
            format!("{:.1}", t.e2e_ms.p99),
            format!("{:.3}", t.recall),
        ]);
    }
    writeln!(
        out,
        "\nper-tenant admission and serving outcomes\n\n{table}"
    )
    .unwrap();
    writeln!(
        out,
        "aggregate: load {:.2}/{:.2} cores, {} captured, {} processed, drop rate {:.1}%, \
         e2e p99 {:.1} ms, core utilization {:.1}%",
        report.admitted_load_cores,
        report.config.capacity_cores,
        report.captured,
        report.processed,
        report.drop_rate * 100.0,
        report.e2e_ms.p99,
        report.core_utilization * 100.0
    )
    .unwrap();
    // Poisoned (non-finite) samples are excluded from every latency
    // summary rather than silently shifting the percentiles; say so
    // whenever that happened.
    let rejected_e2e = report.e2e_ms.rejected;
    let rejected_service: usize = report.tenants.iter().map(|t| t.service_ms.rejected).sum();
    if rejected_e2e + rejected_service > 0 {
        writeln!(
            out,
            "rejected latency samples: {rejected_e2e} e2e, {rejected_service} service \
             (non-finite; excluded from the latency summaries)"
        )
        .unwrap();
    }
    if report.recovery.any() {
        let r = &report.recovery;
        writeln!(
            out,
            "recovery: {} restart(s) (mttr {:.1} ms, availability {:.2}%), \
             {} replayed frames, {} quarantine(s), {} readmission(s), {} snapshot(s)",
            r.restarts,
            r.mttr_us() / 1e3,
            report.availability * 100.0,
            r.replayed_frames,
            r.quarantines,
            r.readmissions,
            r.snapshots_taken
        )
        .unwrap();
        if r.restarts > 0 {
            writeln!(
                out,
                "post-recovery e2e p99: {:.1} ms",
                report.post_recovery_e2e_ms.p99
            )
            .unwrap();
        }
    }
    if !report.transitions.is_empty() {
        writeln!(
            out,
            "admission transitions: {} (last at {:.1} s)",
            report.transitions.len(),
            report
                .transitions
                .last()
                .map_or(0.0, |t| t.at_us as f64 / 1e6)
        )
        .unwrap();
    }
    out
}

/// Writes one labeled Prometheus snapshot and one Chrome trace per tenant.
fn write_serve_traces(traces: &[Trace], dir: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = std::path::Path::new(dir);
    let mut prom = String::new();
    for (t, trace) in traces.iter().enumerate() {
        prom.push_str(&trace.prometheus_text_labeled(&[("tenant", &t.to_string())]));
        std::fs::write(
            path.join(format!("tenant-{t}.chrome.json")),
            trace.chrome_trace_json(),
        )?;
    }
    std::fs::write(path.join("tenants.prom"), prom)?;
    println!("serve trace exports written to {dir}/");
    Ok(())
}

fn config_from(algorithm: Algorithm, options: &cli::Options) -> PipelineConfig {
    PipelineConfig {
        horizon: options.horizon,
        train_s: options.train_s,
        eval_s: options.eval_s,
        seed: options.seed,
        redundancy: options.redundancy,
        disable_batching: options.disable_batching,
        threads: options.threads,
        shard_solver: options.shard_solver,
        pipelined: options.pipelined,
        ..PipelineConfig::paper_default(algorithm)
    }
}

/// Builds the scenario, honoring the city knobs for `city` (the paper
/// presets have fixed geometry and ignore them).
fn scenario_from(kind: ScenarioKind, options: &cli::Options) -> Scenario {
    match kind {
        ScenarioKind::City => Scenario::city(&CityConfig {
            cameras: options.cameras,
            seed: options.seed,
            intensity: options.intensity,
        }),
        _ => Scenario::new(kind),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match command {
        cli::Command::Help => print!("{USAGE}"),
        cli::Command::Run {
            scenario,
            algorithm,
            options,
        } => {
            let sc = scenario_from(scenario, &options);
            println!(
                "running {algorithm} on {scenario} ({} cameras)…",
                sc.num_cameras()
            );
            let config = config_from(algorithm, &options);
            let (result, trace) = match &options.trace_dir {
                Some(_) => {
                    let (r, t) = run_pipeline_traced(&sc, &config);
                    (r, Some(t))
                }
                None => (run_pipeline(&sc, &config), None),
            };
            println!("  frames evaluated : {}", result.frames);
            println!("  object recall    : {:.3}", result.recall);
            println!("  mean latency     : {:.1} ms", result.mean_latency_ms);
            println!(
                "  per-camera mean  : {:?}",
                result
                    .per_camera_mean_ms
                    .iter()
                    .map(|v| (v * 10.0).round() / 10.0)
                    .collect::<Vec<_>>()
            );
            println!(
                "  per-frame series : {}",
                sparkline_fit(result.latency.samples_ms(), 60)
            );
            let oh = result.overhead_mean;
            println!(
                "  overheads        : central {:.2} ms, tracking {:.2} ms, distributed {:.3} ms, batching {:.2} ms",
                oh.central_ms, oh.tracking_ms, oh.distributed_ms, oh.batching_ms
            );
            if let (Some(dir), Some(trace)) = (&options.trace_dir, &trace) {
                if let Err(e) = report_trace(trace, dir) {
                    eprintln!("error: writing trace exports to {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        cli::Command::Compare { scenario, options } => {
            let sc = scenario_from(scenario, &options);
            let mut table = TextTable::new(vec!["algorithm", "recall", "latency (ms)", "speedup"]);
            let mut full = None;
            for algorithm in [
                Algorithm::Full,
                Algorithm::BalbInd,
                Algorithm::BalbCen,
                Algorithm::Balb,
                Algorithm::StaticPartition,
            ] {
                let result = run_pipeline(&sc, &config_from(algorithm, &options));
                let base = *full.get_or_insert(result.mean_latency_ms);
                table.row(vec![
                    algorithm.to_string(),
                    format!("{:.3}", result.recall),
                    format!("{:.1}", result.mean_latency_ms),
                    format!("{:.2}x", base / result.mean_latency_ms),
                ]);
            }
            println!("{scenario} comparison\n\n{table}");
        }
        cli::Command::Serve { config, trace_dir } => {
            println!(
                "serving {} tenants × {} cameras at {} fps on {} cores for {} s…",
                config.tenants,
                config.cameras_per_tenant,
                config.fps,
                config.capacity_cores,
                config.duration_s
            );
            let (report, traces) = match &trace_dir {
                Some(_) => {
                    let (r, t) = run_serve_traced(&config);
                    (r, Some(t))
                }
                None => (run_serve(&config), None),
            };
            report_serve(&report);
            if let (Some(dir), Some(traces)) = (&trace_dir, &traces) {
                if let Err(e) = write_serve_traces(traces, dir) {
                    eprintln!("error: writing serve traces to {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        cli::Command::Workload { scenario } => {
            let sc = Scenario::new(scenario);
            let mut rng = ChaCha8Rng::seed_from_u64(17);
            let series = sc.workload_series(120.0, 2.0, &mut rng);
            println!("{scenario} objects/frame per camera (120 s, sampled every 2 s)\n");
            for (i, s) in series.iter().enumerate() {
                let as_f: Vec<f64> = s.iter().map(|&v| v as f64).collect();
                println!("  c{i} ({}) {}", sc.devices[i], sparkline_fit(&as_f, 60));
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod serve_report_tests {
    use super::*;
    use multiview_scheduler::sim::ServeConfig;

    fn tiny_report() -> ServeReport {
        run_serve(&ServeConfig {
            tenants: 1,
            cameras_per_tenant: 2,
            duration_s: 1.0,
            train_s: 5.0,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn clean_report_has_no_rejected_line() {
        let report = tiny_report();
        assert_eq!(report.e2e_ms.rejected, 0);
        let text = serve_report_text(&report);
        assert!(text.contains("per-tenant admission and serving outcomes"));
        assert!(text.contains("aggregate: load"));
        assert!(
            !text.contains("rejected latency samples"),
            "clean run must not warn about rejected samples:\n{text}"
        );
    }

    #[test]
    fn rejected_samples_are_surfaced_with_counts() {
        let mut report = tiny_report();
        report.e2e_ms.rejected = 3;
        report.tenants[0].service_ms.rejected = 2;
        let text = serve_report_text(&report);
        assert!(
            text.contains("rejected latency samples: 3 e2e, 2 service"),
            "rejected counts missing from report text:\n{text}"
        );
    }
}
