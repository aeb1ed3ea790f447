//! `bench-e2e`: a steady end-to-end benchmark of `mvs run` and `mvs serve`
//! with a per-layer ledger. See README.md for the design; in short:
//!
//! * one invocation = one workload, one `--seed`, one `--seconds` budget;
//! * a run is an ensemble of independently seeded episodes, replayed pass
//!   after pass on one thread; host times come from the per-slot minimum
//!   across passes (the quiet-host envelope), never from a single pass;
//! * host numbers (wall, allocations, RSS) and virtual numbers (modeled
//!   latency, recall, served share) are kept apart — the virtual ones are
//!   a pure function of workload and seed;
//! * every layer is measured from outside, through its public functions.

pub mod alloc;
pub mod args;
pub mod digest;
pub mod envelope;
pub mod episode;
pub mod layers;
pub mod probes;
pub mod replay;
pub mod report;
pub mod spans;
mod traced;
pub mod workload;

use args::Args;
use envelope::{median, quartiles, Envelope};
use episode::{run_episode, EpisodeRun};
use report::{Metrics, END_TO_END, PER_LAYER};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workload::EpisodeSpec;

/// Facts about the machine and build, printed with every result.
#[derive(Debug, Clone)]
pub struct Host {
    pub cpus: usize,
    pub rustc: String,
    pub git_rev: String,
}

impl Host {
    /// `run.sh` passes the compiler and revision through the environment.
    pub fn detect() -> Host {
        let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
        Host {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env("BENCH_E2E_RUSTC"),
            git_rev: env("BENCH_E2E_GIT_REV"),
        }
    }
}

/// Passes every run makes even when the budget is already spent.
const MIN_PASSES: usize = 3;
/// Left at the end of an untraced run for reporting.
const REPORT_RESERVE: Duration = Duration::from_millis(150);

/// Slots attempted and failed, with one line per failure.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    pub(crate) fn fail(&mut self, slots: u64, note: String) {
        self.failed += slots;
        self.notes.push(note);
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Everything the untraced passes produced.
pub(crate) struct Measured {
    /// Fastest slots of the timed episodes (the first `envelope.episodes().len()`).
    pub(crate) envelope: Envelope,
    /// The first pass, which ran every episode: their outcomes.
    pub(crate) first: Vec<EpisodeRun>,
    pub(crate) digests: Vec<u64>,
    /// Allocation events in every episode's stepped window. For the timed
    /// episodes, the fewest any pass made: that leaves out once-per-process
    /// lazy initialisation, which lands in episode 0 of the first pass.
    step_allocs: Vec<u64>,
}

/// One pass: every episode built afresh and stepped to the end. `None`
/// when an episode panicked (already tallied).
fn run_pass(specs: &[EpisodeSpec], tally: &mut Tally) -> Option<Vec<EpisodeRun>> {
    let mut pass = Vec::with_capacity(specs.len());
    for (e, spec) in specs.iter().enumerate() {
        let slots = spec.steps() as u64 + 1;
        tally.attempted += slots;
        match catch_unwind(AssertUnwindSafe(|| run_episode(spec))) {
            Ok(run) => {
                if run.bad_steps > 0 {
                    let note = format!(
                        "episode {e}: {} steps returned a non-finite time",
                        run.bad_steps
                    );
                    tally.fail(run.bad_steps, note);
                }
                for broken in run.outcome.violations(spec) {
                    tally.fail(1, format!("episode {e}: {broken}"));
                }
                pass.push(run);
            }
            Err(payload) => {
                let note = format!("episode {e} panicked: {}", panic_text(payload.as_ref()));
                tally.fail(slots, note);
                return None;
            }
        }
    }
    Some(pass)
}

/// The first pass runs every episode; later passes repeat the first `timed`
/// of them until `deadline` (measured from `started`): a new pass starts only
/// if the longest so far still fits, with a minimum of [`MIN_PASSES`].
fn measure(
    specs: &[EpisodeSpec],
    timed: usize,
    started: Instant,
    deadline: Duration,
    tally: &mut Tally,
) -> Option<Measured> {
    let first = run_pass(specs, tally)?;
    let digests: Vec<u64> = first.iter().map(|r| r.outcome.digest()).collect();
    let mut envelope = Envelope::new(first[..timed].iter().map(|r| r.times.clone()).collect());
    let mut step_allocs: Vec<u64> = first.iter().map(|r| r.step_allocs).collect();
    // What the first pass spent on the timed episodes alone.
    let mut longest = Duration::from_nanos(envelope.longest_pass_ns());
    while envelope.passes() < MIN_PASSES || started.elapsed() + longest <= deadline {
        let t = Instant::now();
        let pass = run_pass(&specs[..timed], tally)?;
        longest = longest.max(t.elapsed());
        for (e, (run, &want)) in pass.iter().zip(&digests).enumerate() {
            if run.outcome.digest() != want {
                let note = format!(
                    "episode {e}: digest changed between passes 1 and {}",
                    envelope.passes() + 1
                );
                tally.fail(1, note);
            }
            step_allocs[e] = step_allocs[e].min(run.step_allocs);
        }
        let times: Vec<_> = pass.into_iter().map(|r| r.times).collect();
        envelope.absorb(&times);
    }
    Some(Measured {
        envelope,
        first,
        digests,
        step_allocs,
    })
}

pub(crate) fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len().max(1) as f64;
    values.sum::<f64>() / n
}

/// The exact numbers of a run, each averaged over every episode.
pub(crate) struct Exact {
    pub(crate) latency_ms: f64,
    recall: f64,
    served_share: f64,
    allocs_per_step: f64,
}

pub(crate) fn exact(specs: &[EpisodeSpec], m: &Measured) -> Exact {
    let virtuals: Vec<_> = m
        .first
        .iter()
        .zip(specs)
        .map(|(run, spec)| run.outcome.virtuals(spec))
        .collect();
    let steps: usize = specs.iter().map(EpisodeSpec::steps).sum();
    Exact {
        latency_ms: mean(virtuals.iter().map(|v| v.latency_ms)),
        recall: mean(virtuals.iter().map(|v| v.recall)),
        served_share: mean(virtuals.iter().map(|v| v.served_share)),
        allocs_per_step: m.step_allocs.iter().sum::<u64>() as f64 / steps as f64,
    }
}

/// Host throughput: Σ timed episodes (cameras × processed frames) ÷ Σ
/// envelope slots.
pub(crate) fn camera_frames_per_s(specs: &[EpisodeSpec], m: &Measured) -> f64 {
    let timed = m.envelope.episodes().len();
    let frames: u64 = m.first[..timed]
        .iter()
        .zip(specs)
        .map(|(run, spec)| run.outcome.virtuals(spec).camera_frames)
        .sum();
    frames as f64 / (m.envelope.slots_ns() as f64 / 1e9)
}

fn end_to_end(specs: &[EpisodeSpec], m: &Measured) -> Metrics {
    let exact = exact(specs, m);
    let mut out = Metrics::new(&END_TO_END);
    out.set("setup_s", m.envelope.setup_ns() as f64 / 1e9);
    out.set("allocs_per_step", exact.allocs_per_step);
    out.set("peak_rss_mb", report::peak_rss_mb().unwrap_or(f64::NAN));
    out.set("sim_recall", exact.recall);
    out.set("sim_served_share", exact.served_share);
    out
}

fn print_audit(args: &Args, host: &Host, specs: &[EpisodeSpec], m: &Measured) {
    let (env, digests) = (&m.envelope, &m.digests);
    println!(
        "bench-e2e {} seed {} trace {} | one thread | {} episodes x {} steps, the first {} timed",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        specs.len(),
        args.workload.steps(),
        env.episodes().len(),
    );
    println!(
        "host: cpus {} | {} | profile {} | git {}",
        host.cpus,
        host.rustc,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        host.git_rev
    );
    let mut walls = env.pass_wall_ns().to_vec();
    let in_order: Vec<String> = walls
        .iter()
        .map(|&ns| format!("{:.3}", ns as f64 / 1e9))
        .collect();
    walls.sort_unstable();
    let (q1, q2, q3) = quartiles(&walls);
    println!(
        "estimator: {} passes, wall s [{}]; quartiles {:.3} / {:.3} / {:.3}; envelope {:.3} \
         (setup {:.3}); median pass / envelope {:.3}",
        env.passes(),
        in_order.join(" "),
        q1 / 1e9,
        q2 / 1e9,
        q3 / 1e9,
        env.wall_ns() as f64 / 1e9,
        env.setup_ns() as f64 / 1e9,
        env.pass_spread(),
    );
    let steps = env.steps_sorted(|_| true);
    println!(
        "envelope steps: {} samples, min {} ns, max {} ns",
        steps.len(),
        steps[0],
        steps[steps.len() - 1]
    );
    // The headline numbers that cannot be held to an end-to-end bound on
    // this host (README, Steadiness), in the metric-row format: per-layer
    // metrics (`--trace 1` reports them), shown with every run.
    println!("headline per-layer metrics (no bound):");
    for (name, value, unit) in [
        (
            "host.camera_frames_per_s",
            camera_frames_per_s(specs, m),
            "1/s",
        ),
        ("host.step_ns_p50", median(&steps), "ns"),
        ("sim.latency_ms", exact(specs, m).latency_ms, "sim_ms"),
    ] {
        println!("  {name:<36} {value:>18.6} {unit}");
    }
    let hex: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    println!("digests: {}", hex.join(" "));
}

pub(crate) fn print_metrics(title: &str, metrics: &Metrics) {
    println!("{title}:");
    for (name, unit, value) in metrics.rows() {
        println!("  {name:<36} {value:>18.6} {unit}");
    }
}

/// Runs one invocation and prints the report, ending with the result line.
/// Returns whether every check passed.
pub fn run(args: &Args, host: &Host) -> bool {
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let timed = args.workload.timed_episodes();
    let mut specs = args.workload.specs(args.seed);
    let mut tally = Tally::default();
    // A traced run measures host times only, which only the timed episodes
    // carry; its untraced envelope gets the first two thirds.
    let deadline = if args.trace {
        specs.truncate(timed);
        budget * 2 / 3
    } else {
        budget.saturating_sub(REPORT_RESERVE)
    };
    let table: &'static [(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let Some(measured) = measure(&specs, timed, started, deadline, &mut tally) else {
        for note in &tally.notes {
            println!("FAILED: {note}");
        }
        let line = report::result_line(false, tally.attempted, tally.failed, &Metrics::new(table));
        println!("{line}");
        return false;
    };
    print_audit(args, host, &specs, &measured);
    let e2e = end_to_end(&specs, &measured);
    print_metrics(
        if args.trace {
            "end to end (over the timed episodes alone; --trace 0 runs the whole ensemble)"
        } else {
            "end to end"
        },
        &e2e,
    );
    let metrics = if args.trace {
        let layers = traced::per_layer(args, host, &specs, &measured, started, &mut tally);
        print_metrics("per layer", &layers);
        layers
    } else {
        e2e
    };
    for problem in metrics.problems() {
        tally.fail(1, problem);
    }
    for note in &tally.notes {
        println!("FAILED: {note}");
    }
    let correct = tally.failed == 0;
    println!(
        "checks: {} slots attempted, {} failed; wall {:.1} s of {} s",
        tally.attempted,
        tally.failed,
        started.elapsed().as_secs_f64(),
        args.seconds
    );
    println!(
        "{}",
        report::result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    correct
}
