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
//! Options: `mvs --help` lists them; it is rendered from the same option
//! tables ([`cli`]) the parser runs on, so this comment does not repeat them.

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
    //! Every flag is one row of a per-command option table — its name and
    //! value placeholder, how the value is checked and stored, its help text
    //! — and both the parser and `mvs --help` are driven from those rows, so
    //! a flag cannot be accepted without being documented, or the reverse.
    //!
    //! A flag that exists but does not apply where it is typed
    //! (`--intensity` on the fixed-geometry `s1` preset, `--trace` on
    //! `compare`, any option after `workload`) is an error, not a silent
    //! no-op — a typo'd invocation should fail loudly rather than measure
    //! something other than what was asked.

    use multiview_scheduler::sim::{
        Algorithm, CityConfig, FaultModel, PoolDegrade, ScenarioKind, ServeConfig, ServeConfigError,
    };
    use std::fmt::Write;
    use std::str::FromStr;

    /// A parsed invocation.
    #[derive(Debug, Clone, PartialEq)]
    pub(super) enum Command {
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
    pub(super) struct Options {
        pub horizon: usize,
        pub train_s: f64,
        pub eval_s: f64,
        pub seed: u64,
        pub redundancy: usize,
        pub disable_batching: bool,
        pub threads: usize,
        /// When set (`run` only), record per-stage spans and write the
        /// trace exports (Chrome JSON, Prometheus text, golden text) into
        /// this directory.
        pub trace_dir: Option<String>,
        /// Fleet size of the `city` scenario (ignored by the paper
        /// presets, whose camera counts are fixed).
        pub cameras: usize,
        /// Traffic intensity multiplier of the `city` scenario.
        pub intensity: f64,
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
            }
        }
    }

    /// One flag as typed: its name (for messages) and the value after it
    /// (empty for a switch). The methods are the value kinds — each parses,
    /// range-checks and names the flag in its error.
    struct Arg<'a> {
        flag: &'a str,
        value: &'a str,
    }

    impl Arg<'_> {
        /// One `:`- or `,`-separated `part` of the value.
        fn part<T: FromStr<Err: std::fmt::Display>>(&self, part: &str) -> Result<T, String> {
            part.parse()
                .map_err(|e| format!("{} `{part}`: {e}", self.flag))
        }

        /// Any value of the target type.
        fn number<T: FromStr<Err: std::fmt::Display>>(&self) -> Result<T, String> {
            self.part(self.value)
        }

        /// A count the run divides by or loops over: at least one.
        fn count<T: FromStr<Err: std::fmt::Display> + Default + PartialEq>(
            &self,
        ) -> Result<T, String> {
            let n = self.number()?;
            if n == T::default() {
                return Err(format!("{} must be positive", self.flag));
            }
            Ok(n)
        }

        /// A duration, rate or scale the run divides by or loops up to:
        /// zero, negative, infinite and NaN values are refused where they
        /// are typed.
        fn positive(&self) -> Result<f64, String> {
            let v: f64 = self.number()?;
            if v.is_finite() && v > 0.0 {
                Ok(v)
            } else {
                Err(format!("{} must be positive and finite", self.flag))
            }
        }

        fn probability(&self) -> Result<f64, String> {
            let v: f64 = self.number()?;
            if (0.0..=1.0).contains(&v) {
                Ok(v)
            } else {
                Err(format!("{} must be a probability in [0, 1]", self.flag))
            }
        }

        /// A positive number of seconds, as virtual microseconds.
        fn seconds_us(&self) -> Result<u64, String> {
            Ok((self.positive()? * 1e6).round() as u64)
        }

        fn text(&self) -> Result<String, String> {
            Ok(self.value.to_string())
        }

        /// A switch takes no value: naming it turns it on.
        fn switch(&self) -> Result<bool, String> {
            Ok(true)
        }

        /// One `part` of the value as a non-negative instant in seconds,
        /// in virtual microseconds.
        fn instant_us(&self, part: &str, what: &str) -> Result<u64, String> {
            let v: f64 = self.part(part)?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{} {what} must be non-negative seconds", self.flag));
            }
            Ok((v * 1e6).round() as u64)
        }

        /// `AT_S:CAPACITY_FACTOR[:SERVICE_INFLATION]`; the factors are
        /// range-checked by `ServeConfig::validate`.
        fn degrade(&self) -> Result<PoolDegrade, String> {
            let parts: Vec<&str> = self.value.split(':').collect();
            if parts.len() < 2 || parts.len() > 3 {
                return Err(format!(
                    "--degrade expects AT_S:CAPACITY_FACTOR[:SERVICE_INFLATION], got `{}`",
                    self.value
                ));
            }
            Ok(PoolDegrade {
                at_us: self.instant_us(parts[0], "time")?,
                capacity_factor: self.part(parts[1])?,
                service_inflation: parts.get(2).map_or(Ok(1.0), |p| self.part(p))?,
            })
        }
    }

    /// One row of an option table, for a command whose parse target is `T`.
    struct Opt<T> {
        /// The flag as the help shows it: its name and, unless it is a
        /// switch, the placeholder of the value it takes.
        spec: &'static str,
        /// Help text; continuation lines are separated by `\n`.
        help: &'static str,
        /// Checks the typed value and stores it.
        set: fn(&mut T, Arg<'_>) -> Result<(), String>,
    }

    impl<T> Opt<T> {
        fn flag(&self) -> &'static str {
            self.spec.split(' ').next().unwrap_or(self.spec)
        }

        fn takes_value(&self) -> bool {
            self.spec.contains(' ')
        }
    }

    /// Applies `rest` to `target` through `tables`. A flag none of them
    /// lists is refused by name, whatever other command may accept it.
    fn parse_flags<T>(
        command: &str,
        tables: &[&[Opt<T>]],
        target: &mut T,
        rest: &[String],
    ) -> Result<(), String> {
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let opt = tables
                .iter()
                .flat_map(|table| table.iter())
                .find(|opt| opt.flag() == flag)
                .ok_or_else(|| format!("unknown option `{flag}` for `mvs {command}`"))?;
            let value = match opt.takes_value() {
                true => it
                    .next()
                    .ok_or_else(|| format!("{flag} requires a value"))?,
                false => "",
            };
            (opt.set)(target, Arg { flag, value })?;
        }
        Ok(())
    }

    /// Appends one help section rendered from `table`.
    fn render_section<T>(out: &mut String, title: &str, table: &[Opt<T>]) {
        writeln!(out, "\n{title}:").unwrap();
        for opt in table {
            let mut head = opt.spec;
            for line in opt.help.lines() {
                writeln!(out, "    {head:<18} {line}").unwrap();
                head = "";
            }
        }
    }

    /// Parse target of `run` and `compare`: the options plus the scenario
    /// they are checked against.
    struct PipelineArgs {
        scenario: ScenarioKind,
        options: Options,
    }

    impl PipelineArgs {
        /// Flags that only make sense for the procedural city scenario —
        /// the paper presets have fixed geometry and traffic, so accepting
        /// these silently would run something other than what was asked.
        fn city_only<'a>(&self, arg: Arg<'a>) -> Result<Arg<'a>, String> {
            if self.scenario == ScenarioKind::City {
                Ok(arg)
            } else {
                Err(format!(
                    "{} only applies to the `city` scenario, not `{:?}`",
                    arg.flag, self.scenario
                ))
            }
        }
    }

    const PIPELINE_OPTIONS: &[Opt<PipelineArgs>] = &[
        Opt {
            spec: "--horizon N",
            help: "scheduling horizon in frames   (default 10)",
            set: |t, a| a.count().map(|v| t.options.horizon = v),
        },
        Opt {
            spec: "--train-s S",
            help: "association training seconds   (default 60)",
            set: |t, a| a.positive().map(|v| t.options.train_s = v),
        },
        Opt {
            spec: "--eval-s S",
            help: "evaluated seconds, at least one frame (default 60)",
            set: |t, a| a.positive().map(|v| t.options.eval_s = v),
        },
        Opt {
            spec: "--seed N",
            help: "RNG seed                       (default 17)",
            set: |t, a| a.number().map(|v| t.options.seed = v),
        },
        Opt {
            spec: "--redundancy N",
            help: "owners per object              (default 1)",
            set: |t, a| a.count().map(|v| t.options.redundancy = v),
        },
        Opt {
            spec: "--no-batching",
            help: "force GPU batch limits to one",
            set: |t, a| a.switch().map(|v| t.options.disable_batching = v),
        },
        Opt {
            spec: "--threads N",
            help: "camera worker threads; 0 = auto (default 0):\n\
                   MVS_THREADS env, else available CPU parallelism.\n\
                   Results are identical at any thread count.",
            set: |t, a| a.number().map(|v| t.options.threads = v),
        },
        Opt {
            spec: "--cameras N",
            help: "city fleet size                (default 128; city only)",
            set: |t, a| t.city_only(a)?.count().map(|v| t.options.cameras = v),
        },
        Opt {
            spec: "--intensity X",
            help: "city traffic multiplier        (default 1.0; city only)",
            set: |t, a| t.city_only(a)?.positive().map(|v| t.options.intensity = v),
        },
    ];

    const RUN_OPTIONS: &[Opt<PipelineArgs>] = &[Opt {
        spec: "--trace DIR",
        help: "record per-stage spans (sim-clock, deterministic) and\n\
               write DIR/trace.chrome.json (chrome://tracing),\n\
               DIR/stages.prom (Prometheus text), DIR/trace.golden.txt\n\
               (golden format), plus a per-stage latency table.",
        set: |t, a| a.text().map(|v| t.options.trace_dir = Some(v)),
    }];

    /// Parse target of `serve`: the configuration plus the flags that only
    /// become configuration once all of them are known.
    struct ServeArgs {
        config: ServeConfig,
        trace_dir: Option<String>,
        loss: f64,
        dropout: f64,
        snapshot_every: Option<u64>,
    }

    const SERVE_OPTIONS: &[Opt<ServeArgs>] = &[
        Opt {
            spec: "--tenants N",
            help: "tenant deployments               (default 4)",
            set: |t, a| a.count().map(|v| t.config.tenants = v),
        },
        Opt {
            spec: "--cameras N",
            help: "cameras per tenant               (default 8)",
            set: |t, a| a.count().map(|v| t.config.cameras_per_tenant = v),
        },
        Opt {
            spec: "--fps X",
            help: "capture rate per tenant          (default 10)",
            set: |t, a| a.positive().map(|v| t.config.fps = v),
        },
        Opt {
            spec: "--duration-s S",
            help: "served seconds of virtual time, at least one frame\n\
                   (default 30)",
            set: |t, a| a.positive().map(|v| t.config.duration_s = v),
        },
        Opt {
            spec: "--capacity X",
            help: "provisioned compute, in cores    (default 4);\n\
                   admission degrades tenants (shed redundancy, then\n\
                   process every d-th frame, then reject) until the\n\
                   aggregate modeled load fits",
            set: |t, a| a.positive().map(|v| t.config.capacity_cores = v),
        },
        Opt {
            spec: "--seed N",
            help: "base seed; tenant t uses seed+t  (default 2022)",
            set: |t, a| a.number().map(|v| t.config.seed = v),
        },
        Opt {
            spec: "--threads N",
            help: "persistent-pool lanes for tenant-parallel phases\n\
                   (admission pilots, restores, readmissions) and each\n\
                   tenant's camera workers; 0 = auto (MVS_THREADS env,\n\
                   else the machine). Reports identical at any value.",
            set: |t, a| a.number().map(|v| t.config.threads = v),
        },
        Opt {
            spec: "--redundancy N",
            help: "requested owners per object      (default 1)",
            set: |t, a| a.count().map(|v| t.config.redundancy = v),
        },
        Opt {
            spec: "--intensity X",
            help: "city traffic multiplier          (default 1.0)",
            set: |t, a| a.positive().map(|v| t.config.intensity = v),
        },
        Opt {
            spec: "--train-s S",
            help: "association training seconds     (default 20)",
            set: |t, a| a.positive().map(|v| t.config.train_s = v),
        },
        Opt {
            spec: "--loss P",
            help: "key-frame message loss probability per attempt",
            set: |t, a| a.probability().map(|v| t.loss = v),
        },
        Opt {
            spec: "--dropout P",
            help: "camera dropout probability per horizon",
            set: |t, a| a.probability().map(|v| t.dropout = v),
        },
        Opt {
            spec: "--max-keep-every N",
            help: "deepest frame-thinning rung      (default 4)",
            set: |t, a| a.count().map(|v| t.config.max_keep_every = v),
        },
        Opt {
            spec: "--trace DIR",
            help: "write per-tenant labeled Prometheus text and Chrome\n\
                   traces into DIR/",
            set: |t, a| a.text().map(|v| t.trace_dir = Some(v)),
        },
    ];

    const SERVE_CHAOS_OPTIONS: &[Opt<ServeArgs>] = &[
        Opt {
            spec: "--chaos-seed N",
            help: "seed of the serve-level chaos stream (default 0)",
            set: |t, a| a.number().map(|v| t.config.chaos.seed = v),
        },
        Opt {
            spec: "--crash-at S[,S…]",
            help: "crash the coordinator at these virtual seconds; it\n\
                   restores the latest snapshot after the restart\n\
                   delay and counts the gap as replayed frames",
            set: |t, a| {
                for part in a.value.split(',') {
                    let at_us = a.instant_us(part, "times")?;
                    t.config.chaos.crash_at_us.push(at_us);
                }
                Ok(())
            },
        },
        Opt {
            spec: "--restart-delay-s S",
            help: "outage length per crash     (default 0.5)",
            set: |t, a| a.seconds_us().map(|v| t.config.chaos.restart_delay_us = v),
        },
        Opt {
            spec: "--poison P",
            help: "per-dispatch probability that a tenant's pipeline\n\
                   step panics; the panic is caught and the tenant\n\
                   quarantined, then re-admitted through the ladder",
            set: |t, a| a.probability().map(|v| t.config.chaos.poison_per_frame = v),
        },
        Opt {
            spec: "--quarantine-s S",
            help: "quarantine window             (default 5)",
            set: |t, a| a.seconds_us().map(|v| t.config.chaos.quarantine_us = v),
        },
        Opt {
            spec: "--degrade AT:CAP[:INFL]",
            help: "at AT seconds scale pool capacity by CAP and\n\
                   service times by INFL (repeatable; admission is\n\
                   re-evaluated at each event)",
            set: |t, a| a.degrade().map(|d| t.config.chaos.degrades.push(d)),
        },
        Opt {
            spec: "--snapshot-every N",
            help: "checkpoint every N scheduling horizons (0 = off;\n\
                   defaults to 1 when --crash-at is given). Snapshots\n\
                   never change results.",
            set: |t, a| a.number().map(|v| t.snapshot_every = Some(v)),
        },
    ];

    /// Refuses a window that rounds to zero frames: the run would report
    /// success over no samples.
    pub(super) fn at_least_one_frame(flag: &str, seconds: f64, fps: f64) -> Result<(), String> {
        if (seconds * fps).round() >= 1.0 {
            Ok(())
        } else {
            Err(format!(
                "{flag} {seconds} is shorter than one frame (the frame period is {} s at {fps} fps)",
                1.0 / fps
            ))
        }
    }

    /// `MVS_THREADS` is what `--threads 0` resolves to, so a set value is
    /// input of the same kind: refused here, by name, rather than by the
    /// pool's panic (or, worse, ignored).
    pub(super) fn threads_env() -> Result<(), String> {
        let flag = "MVS_THREADS";
        match std::env::var(flag) {
            Ok(value) => {
                let value = value.trim();
                Arg { flag, value }.count::<usize>().map(drop)
            }
            Err(std::env::VarError::NotPresent) => Ok(()),
            Err(e) => Err(format!("{flag}: {e}")),
        }
    }

    /// Parses `args` (without the program name).
    pub(super) fn parse(args: &[String]) -> Result<Command, String> {
        let mut it = args.iter();
        let Some(cmd) = it.next() else {
            return Ok(Command::Help);
        };
        match cmd.as_str() {
            "-h" | "--help" | "help" => Ok(Command::Help),
            "run" => {
                let scenario = parse_scenario(it.next())?;
                let algorithm = parse_algorithm(it.next())?;
                let tables = [PIPELINE_OPTIONS, RUN_OPTIONS];
                let options = parse_options("run", &tables, scenario, it.as_slice())?;
                Ok(Command::Run {
                    scenario,
                    algorithm,
                    options,
                })
            }
            "compare" => {
                let scenario = parse_scenario(it.next())?;
                let tables = [PIPELINE_OPTIONS];
                let options = parse_options("compare", &tables, scenario, it.as_slice())?;
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

    fn parse_options(
        command: &str,
        tables: &[&[Opt<PipelineArgs>]],
        scenario: ScenarioKind,
        rest: &[String],
    ) -> Result<Options, String> {
        let mut args = PipelineArgs {
            scenario,
            options: Options::default(),
        };
        parse_flags(command, tables, &mut args, rest)?;
        Ok(args.options)
    }

    /// Parses `mvs serve` options into a [`ServeConfig`] plus an optional
    /// trace directory. Serving has its own tables — pipeline-tuning flags
    /// like `--horizon` or `--eval-s` are rejected here just like serve
    /// flags are rejected on `run`.
    fn parse_serve_options(rest: &[String]) -> Result<(ServeConfig, Option<String>), String> {
        let mut args = ServeArgs {
            config: ServeConfig::default(),
            trace_dir: None,
            loss: 0.0,
            dropout: 0.0,
            snapshot_every: None,
        };
        let tables = [SERVE_OPTIONS, SERVE_CHAOS_OPTIONS];
        parse_flags("serve", &tables, &mut args, rest)?;
        let mut config = args.config;
        if args.loss > 0.0 || args.dropout > 0.0 {
            config.faults = FaultModel {
                keyframe_loss: args.loss,
                dropout_per_horizon: args.dropout,
                rejoin_per_horizon: if args.dropout > 0.0 { 0.3 } else { 0.0 },
                ..FaultModel::none()
            };
        }
        // Crashes need checkpoints to recover from: default to a
        // one-horizon cadence when crashes are scheduled and the user
        // did not pick one explicitly.
        config.snapshot_every_horizons = args
            .snapshot_every
            .unwrap_or(u64::from(!config.chaos.crash_at_us.is_empty()));
        at_least_one_frame("--duration-s", config.duration_s, config.fps)?;
        // Cross-field consistency comes from the typed validator, so a
        // nonsensical mix fails here with its message instead of
        // panicking mid-run.
        config.validate().map_err(|e| match e {
            ServeConfigError::BadFps { .. } => format!("--fps: {e}"),
            _ => format!("invalid serve configuration: {e}"),
        })?;
        Ok((config, args.trace_dir))
    }

    /// The `--help` text: the fixed preamble, then one section per table.
    pub(super) fn usage() -> String {
        let mut out = String::from(USAGE_HEAD);
        render_section(&mut out, "OPTIONS (run, compare)", PIPELINE_OPTIONS);
        render_section(&mut out, "OPTIONS (run only)", RUN_OPTIONS);
        out.push_str(
            "\nOptions only apply where they make sense: city knobs are rejected on the\n\
             fixed presets, serve flags are rejected on `run`, and vice versa.\n",
        );
        render_section(&mut out, "SERVE OPTIONS", SERVE_OPTIONS);
        render_section(
            &mut out,
            "SERVE CHAOS OPTIONS (all virtual-time, seeded, deterministic)",
            SERVE_CHAOS_OPTIONS,
        );
        out
    }

    const USAGE_HEAD: &str = "\
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
";

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
                "run city balb --cameras 256 --intensity 2.5 --seed 7",
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
            // `compare` writes no trace: it used to accept the flag and
            // ignore it.
            let err = parse(&args("compare s1 --trace d")).unwrap_err();
            assert!(err.contains("--trace"), "{err}");
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
                 --max-keep-every 3 --trace out/serve",
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
            // A 0 µs capture interval: every frame at one virtual instant.
            let err = parse(&args("serve --fps 3000000 --duration-s 1")).unwrap_err();
            assert!(err.contains("--fps") && err.contains("1 µs"), "{err}");
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
        fn every_table_flag_parses_and_is_documented() {
            // One row per flag drives both the parser and the help, so
            // neither can name a flag the other does not: every row is
            // accepted by its command (with one of a few sample values) and
            // listed under it, and the help names no flag without a row.
            fn walk<T>(command: &str, tables: &[&[Opt<T>]]) -> Vec<&'static str> {
                let usage = usage();
                let mut flags = Vec::new();
                for opt in tables.iter().flat_map(|t| t.iter()) {
                    let accepted = ["", "2", "0.5", "2:0.5"].iter().any(|v| {
                        v.is_empty() != opt.takes_value()
                            && parse(&args(&format!("{command} {} {v}", opt.flag()))).is_ok()
                    });
                    assert!(accepted, "`{command} {}` is never accepted", opt.flag());
                    let listed = format!("\n    {} ", opt.spec);
                    assert!(usage.contains(&listed), "{listed} not in --help");
                    flags.push(opt.flag());
                }
                flags
            }
            let mut flags = walk("run city balb", &[PIPELINE_OPTIONS, RUN_OPTIONS]);
            flags.extend(walk("compare city", &[PIPELINE_OPTIONS]));
            flags.extend(walk("serve", &[SERVE_OPTIONS, SERVE_CHAOS_OPTIONS]));
            for word in usage().split(|c: char| !(c.is_alphanumeric() || c == '-')) {
                if word.starts_with("--") && word != "--help" {
                    assert!(flags.contains(&word), "--help names unparsed `{word}`");
                }
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
    match cli::threads_env()
        .and_then(|()| cli::parse(&args))
        .and_then(execute)
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn execute(command: cli::Command) -> Result<(), String> {
    match command {
        cli::Command::Help => print!("{}", cli::usage()),
        cli::Command::Run {
            scenario,
            algorithm,
            options,
        } => {
            let sc = scenario_from(scenario, &options);
            cli::at_least_one_frame("--eval-s", options.eval_s, sc.fps)?;
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
                report_trace(trace, dir)
                    .map_err(|e| format!("writing trace exports to {dir}: {e}"))?;
            }
        }
        cli::Command::Compare { scenario, options } => {
            let sc = scenario_from(scenario, &options);
            cli::at_least_one_frame("--eval-s", options.eval_s, sc.fps)?;
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
                write_serve_traces(traces, dir)
                    .map_err(|e| format!("writing serve traces to {dir}: {e}"))?;
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
    Ok(())
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
