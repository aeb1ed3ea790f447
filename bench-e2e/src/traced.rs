//! The traced third of a `--trace 1` run: per-layer metrics, the ledger and
//! the span file.
//!
//! This host drifts between fast and slow phases that last longer than any
//! one probe, so a probe timed now cannot be divided by an envelope timed
//! twenty seconds ago. Everything that is compared is therefore measured in
//! interleaved **rounds** — untraced episode 0 (the round-local reference),
//! episode 0 with the program's tracing on, the layer replay, the bare
//! pipelines of a serve mix, a two-thread prefix — and, part by part, the
//! fastest round counts. Ratios use the round-local reference, never the
//! run's envelope.

use crate::args::Args;
use crate::envelope::{median, percentile, tail_percentile, Envelope};
use crate::episode::{run_episode, run_episode_traced, Outcome};
use crate::probes::{self, Bare};
use crate::replay::{span, Replay, ReplayCounts};
use crate::report::{Metrics, PER_LAYER, SERVE_LAYER};
use crate::spans::{SelfTime, Span, SpanLog};
use crate::workload::EpisodeSpec;
use crate::{camera_frames_per_s, exact, mean, print_metrics, Host, Measured, Tally};
use mvs_sim::{PipelineStats, ServeReport};
use mvs_trace::{Stage, Trace};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Steps the layer replay advances, at most; fixed so its counts are exact.
const REPLAY_STEPS: usize = 200;
/// Steps the two-thread probe advances, at most.
const TWO_THREAD_STEPS: usize = 150;
/// Rounds: at least two, then more while one more (as long as the longest
/// so far) still fits in `--seconds`, up to the maximum.
const MIN_ROUNDS: usize = 2;
const MAX_ROUNDS: usize = 12;
/// Left after the rounds for the micro-probes, the checkpoint probe and the
/// report.
const AFTER_ROUNDS_RESERVE: Duration = Duration::from_millis(1200);

/// What the interleaved rounds leave behind: per part, the fastest round.
struct Rounds {
    count: usize,
    /// Untraced episode 0, timed in the same rounds as everything below.
    reference: Envelope,
    /// Episode 0 with `enable_tracing()` on.
    traced: Envelope,
    traces: Vec<Trace>,
    /// Replay spans; span by span, the fastest round's duration.
    log: SpanLog,
    /// The replayed deployments: the run's own, or every served tenant.
    replays: Vec<Replay>,
    /// Fastest time of each of the first steps at two threads (≥ 2 cpus).
    two_threads: Option<Vec<u64>>,
    /// Serve mixes only.
    bare: Option<Bare>,
    /// Wall seconds spent per part, for the budget audit.
    spent: [(&'static str, f64); 5],
}

fn absorb(envelope: &mut Option<Envelope>, times: crate::envelope::EpisodeTimes) {
    match envelope {
        Some(env) => env.absorb(&[times]),
        None => *envelope = Some(Envelope::new(vec![times])),
    }
}

fn rounds(
    args: &Args,
    host: &Host,
    spec0: &EpisodeSpec,
    m: &Measured,
    run_started: Instant,
    tally: &mut Tally,
) -> Rounds {
    let steps0 = spec0.steps();
    // A run replays its one deployment; a serve mix every tenant it served.
    let tenants: Vec<usize> = match &m.first[0].outcome {
        Outcome::Run(_) => vec![0],
        Outcome::Serve(report) => report
            .tenants
            .iter()
            .filter(|t| t.processed > 0)
            .map(|t| t.tenant)
            .collect(),
    };
    let replay_steps = steps0.min(REPLAY_STEPS);
    // Episode 0 again, generated for two threads.
    let two_spec = (host.cpus >= 2).then(|| spec0.with_threads(2));
    let mut two_best = vec![u64::MAX; steps0.min(TWO_THREAD_STEPS)];

    let mut reference = None;
    let mut traced = None;
    let mut traces = Vec::new();
    let mut first_replay: Option<(SpanLog, Vec<Replay>)> = None;
    let mut bare: Option<Bare> = None;
    let mut spent = [
        ("reference", 0.0),
        ("traced", 0.0),
        ("replay", 0.0),
        ("bare", 0.0),
        ("two-threads", 0.0),
    ];
    let deadline = Duration::from_secs(args.seconds).saturating_sub(AFTER_ROUNDS_RESERVE);
    let mut longest = Duration::ZERO;
    let mut count = 0;
    while count < MIN_ROUNDS || (count < MAX_ROUNDS && run_started.elapsed() + longest <= deadline)
    {
        let round_started = Instant::now();
        let mut part = Instant::now();
        let mut part_done = |i: usize| {
            spent[i].1 += part.elapsed().as_secs_f64();
            part = Instant::now();
        };

        tally.attempted += 2 * (steps0 as u64 + 1);
        let run = run_episode(spec0);
        if run.outcome.digest() != m.digests[0] {
            tally.fail(1, "episode 0: digest changed in the traced phase".into());
        }
        absorb(&mut reference, run.times);
        part_done(0);

        let run = run_episode_traced(spec0);
        if run.outcome.digest() != m.digests[0] {
            tally.fail(
                1,
                "episode 0: digest changed when tracing was enabled".into(),
            );
        }
        absorb(&mut traced, run.times);
        traces = run.traces;
        part_done(1);

        let mut log = SpanLog::new();
        let replays: Vec<Replay> = tenants
            .iter()
            .map(|&t| {
                let (scenario, config) = spec0.probe_deployment(t);
                let mut replay = Replay::build(t, scenario, config, &mut log);
                for _ in 0..replay_steps {
                    replay.step(&mut log);
                }
                replay
            })
            .collect();
        match first_replay.as_mut() {
            Some((fastest, first)) => {
                let counts = |r: &[Replay]| r.iter().map(|r| r.counts).collect::<Vec<_>>();
                assert_eq!(
                    counts(&replays),
                    counts(first),
                    "the replay is deterministic"
                );
                fastest.keep_fastest(&log);
            }
            None => first_replay = Some((log, replays)),
        }
        part_done(2);

        if let (EpisodeSpec::Serve { config, .. }, Outcome::Serve(report)) =
            (spec0, &m.first[0].outcome)
        {
            let this = probes::bare_pipelines(config, report);
            bare = Some(match bare {
                Some(best) if best.ns <= this.ns => best,
                _ => this,
            });
        }
        part_done(3);

        if let Some(spec) = &two_spec {
            tally.attempted += two_best.len() as u64;
            probes::step_prefix(spec, &mut two_best);
        }
        part_done(4);

        longest = longest.max(round_started.elapsed());
        count += 1;
    }
    let (log, replays) = first_replay.expect("MIN_ROUNDS > 0");
    Rounds {
        count,
        reference: reference.expect("MIN_ROUNDS > 0"),
        traced: traced.expect("MIN_ROUNDS > 0"),
        traces,
        log,
        replays,
        two_threads: two_spec.map(|_| two_best),
        bare,
        spent,
    }
}

impl Rounds {
    /// Work counts summed over the replayed deployments.
    fn counts(&self) -> ReplayCounts {
        let mut total = ReplayCounts::default();
        for replay in &self.replays {
            total += replay.counts;
        }
        total
    }

    fn horizon(&self) -> usize {
        self.replays[0].horizon()
    }
}

/// Layer rows of the ledger for one frame kind: `(span name, counted)`.
/// Uncounted rows are measured and shown, but are not on this workload's
/// path (the two solve variants its pipeline does not take).
fn ledger_rows(key: bool, sharded: bool) -> Vec<(&'static str, bool)> {
    let mut rows = vec![
        (span::WORLD_STEP, true),
        (span::OBSERVE, true),
        (span::FLOW, true),
    ];
    if key {
        rows.extend([
            (span::DETECT, true),
            (span::ASSOCIATE, true),
            (span::PROBLEM_BUILD, true),
            (span::SOLVE_WARM, !sharded),
            (span::SOLVE_SHARDED, sharded),
            (span::SOLVE_COLD, false),
            (span::MASK_REBUILD, true),
        ]);
    } else {
        rows.extend([
            (span::TRACK, true),
            (span::TAKEOVER_SCAN, true),
            (span::SLICE, true),
            (span::NEW_REGION, true),
            (span::BATCH, true),
            (span::DETECT_REGION, true),
        ]);
    }
    rows
}

/// Mean self time of `name` per step, over `steps` steps.
fn per_step(table: &BTreeMap<&'static str, SelfTime>, name: &str, steps: u64) -> f64 {
    table.get(name).map_or(0.0, |s| s.self_ns as f64) / steps.max(1) as f64
}

/// Metrics that come out of the replay's spans and counts.
fn replay_metrics(out: &mut Metrics, r: &Rounds) {
    let c = r.counts();
    let horizon = r.horizon();
    let regular_steps = c.steps - c.key_steps;
    let is_key = |s: &Span| (s.step as usize).is_multiple_of(horizon);
    let key = r.log.self_by_name(is_key);
    let regular = r.log.self_by_name(|s| !is_key(s));
    let all = r.log.self_by_name(|_| true);
    for (metric, table, name, steps) in [
        ("sim.world.step_ns", &all, span::WORLD_STEP, c.steps),
        ("sim.world.observe_ns", &all, span::OBSERVE, c.steps),
        ("vision.flow_ns", &all, span::FLOW, c.steps),
        ("vision.detect_ns", &key, span::DETECT, c.key_steps),
        ("assoc.associate_ns", &key, span::ASSOCIATE, c.key_steps),
        (
            "core.problem_build_ns",
            &key,
            span::PROBLEM_BUILD,
            c.key_steps,
        ),
        ("core.solve_cold_ns", &key, span::SOLVE_COLD, c.key_steps),
        ("core.solve_warm_ns", &key, span::SOLVE_WARM, c.key_steps),
        (
            "core.solve_sharded_ns",
            &key,
            span::SOLVE_SHARDED,
            c.key_steps,
        ),
        (
            "sim.masks.rebuild_ns",
            &key,
            span::MASK_REBUILD,
            c.key_steps,
        ),
        (
            "vision.detect_region_ns",
            &regular,
            span::DETECT_REGION,
            regular_steps,
        ),
        ("vision.track_ns", &regular, span::TRACK, regular_steps),
        ("vision.slice_ns", &regular, span::SLICE, regular_steps),
        (
            "vision.new_region_ns",
            &regular,
            span::NEW_REGION,
            regular_steps,
        ),
        ("vision.batch_ns", &regular, span::BATCH, regular_steps),
        (
            "core.takeover_scan_ns",
            &regular,
            span::TAKEOVER_SCAN,
            regular_steps,
        ),
    ] {
        out.set(metric, per_step(table, name, steps));
    }
    for (metric, name) in [
        ("sim.masks.precompute_s", span::MASK_PRECOMPUTE),
        ("sim.correspond.collect_s", span::COLLECT),
        ("sim.correspond.train_s", span::TRAIN),
    ] {
        out.set(metric, per_step(&all, name, 1) / 1e9);
    }
    let per_key = |n: u64| n as f64 / c.key_steps as f64;
    out.set("sim.world.objects", c.world_objects as f64 / c.steps as f64);
    let models: usize = r
        .replays
        .iter()
        .map(|replay| replay.trained.engine.num_models())
        .sum();
    out.set("assoc.pair_models", models as f64 / r.replays.len() as f64);
    out.set("assoc.globals", per_key(c.globals));
    out.set("core.objects_per_solve", per_key(c.globals));
    out.set("core.shards", per_key(c.shards));
}

/// Serve-layer counters read off the finished reports of every episode.
fn serve_report_metrics(out: &mut Metrics, reports: &[&ServeReport]) {
    let sum = |f: &dyn Fn(&ServeReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let avg = |f: &dyn Fn(&ServeReport) -> f64| mean(reports.iter().map(|r| f(r)));
    out.set("sim.serve.admitted", sum(&|r| r.decisions.admitted as u64));
    out.set(
        "sim.serve.degraded",
        sum(&|r| (r.decisions.degraded + r.decisions.shed_redundancy) as u64),
    );
    out.set("sim.serve.rejected", sum(&|r| r.decisions.rejected as u64));
    out.set("sim.serve.queue_dropped", sum(&|r| r.queue_dropped));
    out.set("sim.serve.policy_skipped", sum(&|r| r.policy_skipped));
    out.set("sim.serve.replayed", sum(&|r| r.replayed));
    out.set(
        "sim.serve.transitions",
        sum(&|r| r.transitions.len() as u64),
    );
    out.set("sim.serve.restarts", sum(&|r| r.recovery.restarts));
    out.set("sim.serve.quarantines", sum(&|r| r.recovery.quarantines));
    out.set("sim.serve.mttr_ms", avg(&|r| r.recovery.mttr_us() / 1e3));
    out.set("sim.serve.e2e_p99_ms", avg(&|r| r.e2e_ms.p99));
    out.set(
        "sim.serve.post_recovery_p99_ms",
        avg(&|r| r.post_recovery_e2e_ms.p99),
    );
    out.set("sim.serve.availability", avg(&|r| r.availability));
}

/// Prints the ledger and returns the unattributed share: what is left of
/// the reference episode's stepped wall after Σ layer self time × frames.
/// `frames` are the pipeline frames on episode 0's path, `(key, regular)`.
fn print_ledger(r: &Rounds, sharded: bool, frames: (u64, u64)) -> f64 {
    let c = r.counts();
    let horizon = r.horizon();
    let is_key = |s: &Span| (s.step as usize).is_multiple_of(horizon);
    let slots = &r.reference.episodes()[0].slot_ns;
    let steps = &slots[..slots.len() - 1];
    let stepped_ns: u64 = steps.iter().sum();
    println!(
        "ledger (episode 0; layer self time in ns per pipeline frame of the kind; fastest of {} \
         rounds; {} deployments x {} replayed steps):",
        r.count,
        r.replays.len(),
        c.steps / r.replays.len() as u64,
    );
    let mut attributed_ns = 0.0;
    for (key, kind_steps, kind_frames) in [
        (true, c.key_steps, frames.0),
        (false, c.steps - c.key_steps, frames.1),
    ] {
        let kind = if key { "key" } else { "regular" };
        let table = r.log.self_by_name(|s| is_key(s) == key);
        let mut sum = 0.0;
        println!("  {kind} frame:");
        for (name, counted) in ledger_rows(key, sharded) {
            let ns = per_step(&table, name, kind_steps);
            if counted {
                sum += ns;
            }
            println!(
                "    {name:<28} {ns:>12.0} ns{}",
                if counted { "" } else { "   (not on this path)" }
            );
        }
        let root = if key {
            span::KEY_STEP
        } else {
            span::REGULAR_STEP
        };
        println!(
            "    {:<28} {:>12.0} ns   replay glue, not a layer",
            "(harness self time)",
            per_step(&table, root, kind_steps)
        );
        // A run step is exactly one pipeline frame, so the kinds compare
        // one to one. A serve step is a slice of many tenants' frames of
        // both kinds; only the totals below compare.
        let versus = if frames.0 + frames.1 == steps.len() as u64 {
            let of_kind: Vec<f64> = steps
                .iter()
                .enumerate()
                .filter(|(k, _)| k.is_multiple_of(horizon) == key)
                .map(|(_, &ns)| ns as f64)
                .collect();
            format!(
                "   vs {:.0} ns, the reference's mean {kind} step",
                mean(of_kind.iter().copied())
            )
        } else {
            String::new()
        };
        println!("    {:<28} {sum:>12.0} ns{versus}", "sum of layers");
        attributed_ns += sum * kind_frames as f64;
    }
    let unattributed = 1.0 - attributed_ns / stepped_ns as f64;
    println!(
        "  frames on the path: {} key + {} regular ({:.2} per step); attributed {:.3} s of \
         {:.3} s stepped => unattributed share {unattributed:.3}",
        frames.0,
        frames.1,
        (frames.0 + frames.1) as f64 / steps.len() as f64,
        attributed_ns / 1e9,
        stepped_ns as f64 / 1e9,
    );
    unattributed
}

/// The replay is a rebuild of the program's private frame loop. Where it
/// covered a whole episode (the run workloads: fault-free, at most
/// [`REPLAY_STEPS`] frames), unequal takeover or probe counts mean the ledger
/// is measuring another algorithm than the program runs.
fn replay_drift(c: &ReplayCounts, frames: usize, stats: &PipelineStats) -> Option<String> {
    let whole = c.steps == frames as u64;
    let same = (c.takeovers, c.probes) == (stats.takeovers as u64, stats.probes as u64);
    (whole && !same).then(|| {
        format!(
            "the layer replay no longer follows the pipeline's frame loop: takeovers {} \
             (pipeline {}), probes {} (pipeline {})",
            c.takeovers, stats.takeovers, c.probes, stats.probes
        )
    })
}

/// Runs the traced phase and returns the per-layer metrics.
pub(crate) fn per_layer(
    args: &Args,
    host: &Host,
    specs: &[EpisodeSpec],
    m: &Measured,
    run_started: Instant,
    tally: &mut Tally,
) -> Metrics {
    let env = &m.envelope;
    let spec0 = &specs[0];
    let steps0 = spec0.steps();
    let mut out = Metrics::new(&PER_LAYER);

    let mut r = rounds(args, host, spec0, m, run_started, tally);
    let reference0 = r.reference.episodes()[0].clone();
    let reference_steps = &reference0.slot_ns[..steps0];
    let reference_slots_ns: u64 = reference0.slot_ns.iter().sum();

    // The program's own tracing: exact item counts, and what it costs.
    let base_ns = r.reference.wall_ns() as f64;
    out.set(
        "trace.overhead_share",
        (r.traced.wall_ns() as f64 - base_ns) / base_ns,
    );
    let spans: usize = r.traces.iter().map(Trace::len).sum();
    out.set("trace.spans_per_step", spans as f64 / steps0 as f64);
    for (metric, stage) in [
        ("vision.track.items", Stage::Track),
        ("vision.slice.items", Stage::Slice),
        ("vision.batch.items", Stage::Batch),
    ] {
        let items: u64 = r
            .traces
            .iter()
            .filter_map(|t| t.stage_stats().get(&stage).map(|s| s.items))
            .sum();
        out.set(metric, items as f64 / steps0 as f64);
    }
    r.traces.clear();

    replay_metrics(&mut out, &r);
    let sharded = matches!(spec0, EpisodeSpec::Run { config, .. } if config.shard_solver);
    let horizon = r.horizon();

    // Micro-probes on the boxes the replay recorded (fastest of five rounds
    // each, back to back — they compare with nothing).
    let micro = probes::micro(&r.replays[0], host.cpus, &mut r.log);
    out.set("geometry.iou_ns_per_pair", micro.iou_ns_per_pair);
    out.set("geometry.cover_ns_per_pair", micro.cover_ns_per_pair);
    out.set("ml.knn_query_ns", micro.knn_query_ns);
    out.set("ml.knn_train_samples", micro.knn_train_samples as f64);
    out.set("exec.dispatch_ns", micro.dispatch_ns);
    out.set("sim.serve.lane_op_ns", micro.lane_op_ns);

    // The run's envelope (every timed episode) split by step kind.
    let key_steps = env.steps_sorted(|k| k.is_multiple_of(horizon));
    let all_steps = env.steps_sorted(|_| true);
    out.set("sim.runtime.key_step_ns_p50", median(&key_steps));
    out.set(
        "sim.runtime.regular_step_ns_p50",
        median(&env.steps_sorted(|k| !k.is_multiple_of(horizon))),
    );
    out.set(
        "sim.runtime.key_time_share",
        key_steps.iter().sum::<u64>() as f64 / all_steps.iter().sum::<u64>() as f64,
    );
    let (tail_label, tail_q) =
        tail_percentile(all_steps.len()).expect("every workload has a hundred step samples");
    out.set("sim.runtime.step_ns_tail", percentile(&all_steps, tail_q));
    out.set(
        "sim.runtime.finish_ns",
        env.finish_ns() as f64 / env.episodes().len() as f64,
    );

    // The headline host times and the modeled latency: they cannot be held
    // to an end-to-end bound (see README, Steadiness), so they are reported
    // here.
    out.set("host.camera_frames_per_s", camera_frames_per_s(specs, m));
    out.set("host.step_ns_p50", median(&all_steps));
    out.set("sim.latency_ms", exact(specs, m).latency_ms);

    // The pipelines' own counters, and on a serve mix the serve layer's.
    let frames = match (spec0, r.bare) {
        (EpisodeSpec::Serve { config, .. }, Some(bare)) => {
            let mut serve = Metrics::new(&SERVE_LAYER);
            let checkpoint = probes::checkpoint(config, &mut r.log);
            serve.set("sim.serve.snapshot_ns", checkpoint.snapshot_ns);
            serve.set("sim.serve.snapshot_bytes", checkpoint.snapshot_bytes as f64);
            serve.set("sim.serve.recover_s", checkpoint.recover_s);
            serve.set(
                "sim.serve.bookkeeping_share",
                1.0 - bare.ns as f64 / reference_slots_ns as f64,
            );
            let reports: Vec<&ServeReport> = m
                .first
                .iter()
                .filter_map(|run| match &run.outcome {
                    Outcome::Serve(report) => Some(&**report),
                    Outcome::Run(_) => None,
                })
                .collect();
            serve_report_metrics(&mut serve, &reports);
            print_metrics(
                "serve layer (this workload only, not in the result line)",
                &serve,
            );
            out.set("sim.runtime.takeovers", bare.takeovers as f64);
            out.set("sim.runtime.probes", bare.probes as f64);
            (bare.key_frames, bare.regular_frames)
        }
        _ => {
            let stats = |f: &dyn Fn(&PipelineStats) -> usize| -> f64 {
                m.first
                    .iter()
                    .filter_map(|run| match &run.outcome {
                        Outcome::Run(result) => Some(f(&result.stats)),
                        Outcome::Serve(_) => None,
                    })
                    .sum::<usize>() as f64
            };
            out.set("sim.runtime.takeovers", stats(&|s| s.takeovers));
            out.set("sim.runtime.probes", stats(&|s| s.probes));
            let key = steps0.div_ceil(horizon) as u64;
            (key, steps0 as u64 - key)
        }
    };
    out.set("host.passes", env.passes() as f64);
    out.set("host.pass_spread", env.pass_spread());

    let unattributed = print_ledger(&r, sharded, frames);
    let c = r.counts();
    println!(
        "  core.warm_solve_ratio {:.3} ({} of {} replayed key-frame solves took the warm path)",
        c.warm_solves as f64 / c.key_steps as f64,
        c.warm_solves,
        c.key_steps
    );
    // Two threads against one, over the same steps of the same rounds.
    match &r.two_threads {
        Some(two) => {
            let one: u64 = reference_steps[..two.len()].iter().sum();
            println!(
                "  exec.threads2_step_ratio {:.3} (the first {} steps of episode 0 at two threads / at one)",
                two.iter().sum::<u64>() as f64 / one as f64,
                two.len()
            );
        }
        None => println!("  exec.threads2_step_ratio not measured: one processor"),
    }
    if let Outcome::Run(result) = &m.first[0].outcome {
        // Equal counts mean the replay took the pipeline's own decisions.
        println!(
            "  replay fidelity over {} of episode 0's {} frames: takeovers {} (pipeline {}), \
             probes {} (pipeline {})",
            c.steps,
            result.frames,
            c.takeovers,
            result.stats.takeovers,
            c.probes,
            result.stats.probes,
        );
        if let Some(drift) = replay_drift(&c, result.frames, &result.stats) {
            tally.fail(1, drift);
        }
    }
    out.set("sim.runtime.unattributed_share", unattributed);
    println!(
        "  step tail: {tail_label} over {} envelope samples; dispatch probe at {} lanes",
        all_steps.len(),
        micro.dispatch_lanes
    );
    let spent: Vec<String> = r
        .spent
        .iter()
        .map(|(name, s)| format!("{name} {s:.2}"))
        .collect();
    println!("  {} rounds, wall s: {}", r.count, spent.join(", "));

    // Spans are kept in memory until here; write them out now.
    let dir = std::path::Path::new("bench-e2e/out");
    let path = dir.join(format!("{}.spans.json", args.workload.name()));
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, r.log.chrome_trace_json()))
    {
        Ok(()) => println!(
            "spans: {} written to {}",
            r.log.spans().len(),
            path.display()
        ),
        Err(e) => tally.fail(1, format!("cannot write {}: {e}", path.display())),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_whole_episode_replay_must_reproduce_the_pipelines_counts() {
        let stats = PipelineStats {
            takeovers: 4,
            probes: 13,
            ..PipelineStats::default()
        };
        let counts = |steps, takeovers, probes| ReplayCounts {
            steps,
            takeovers,
            probes,
            ..ReplayCounts::default()
        };
        assert_eq!(replay_drift(&counts(125, 4, 13), 125, &stats), None);
        let drift = replay_drift(&counts(125, 4, 12), 125, &stats).expect("probes differ");
        assert!(drift.contains("probes 12 (pipeline 13)"), "{drift}");
        assert!(replay_drift(&counts(125, 5, 13), 125, &stats).is_some());
        // A replay of a prefix cannot be compared with whole-episode counts.
        assert_eq!(replay_drift(&counts(200, 1, 2), 300, &stats), None);
    }
}
