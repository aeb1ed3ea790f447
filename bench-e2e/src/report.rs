//! Metric names and units (the same list `BENCHMARK.json` declares — a unit
//! test holds the two together) and the result line the driver reads.

use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("allocs_per_step", "count"),
    ("peak_rss_mb", "MB"),
    ("sim_recall", "ratio"),
    ("sim_served_share", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`. The prefix is the module.
/// Every workload measures every one of them, and none can read 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("sim.world.step_ns", "ns"),
    ("sim.world.observe_ns", "ns"),
    ("sim.world.objects", "count"),
    ("vision.detect_ns", "ns"),
    ("vision.detect_region_ns", "ns"),
    ("vision.flow_ns", "ns"),
    ("vision.track_ns", "ns"),
    ("vision.slice_ns", "ns"),
    ("vision.new_region_ns", "ns"),
    ("vision.batch_ns", "ns"),
    ("vision.track.items", "count"),
    ("vision.slice.items", "count"),
    ("vision.batch.items", "count"),
    ("geometry.iou_ns_per_pair", "ns"),
    ("geometry.cover_ns_per_pair", "ns"),
    ("ml.knn_query_ns", "ns"),
    ("ml.knn_train_samples", "count"),
    ("assoc.associate_ns", "ns"),
    ("assoc.pair_models", "count"),
    ("assoc.globals", "count"),
    ("core.problem_build_ns", "ns"),
    ("core.solve_cold_ns", "ns"),
    ("core.solve_warm_ns", "ns"),
    ("core.solve_sharded_ns", "ns"),
    ("core.objects_per_solve", "count"),
    ("core.shards", "count"),
    ("core.takeover_scan_ns", "ns"),
    ("sim.masks.rebuild_ns", "ns"),
    ("sim.masks.precompute_s", "s"),
    ("sim.correspond.collect_s", "s"),
    ("sim.correspond.train_s", "s"),
    ("sim.runtime.key_step_ns_p50", "ns"),
    ("sim.runtime.regular_step_ns_p50", "ns"),
    ("sim.runtime.key_time_share", "ratio"),
    ("sim.runtime.step_ns_tail", "ns"),
    ("sim.runtime.finish_ns", "ns"),
    ("sim.runtime.takeovers", "count"),
    ("sim.runtime.probes", "count"),
    ("sim.runtime.unattributed_share", "ratio"),
    ("sim.latency_ms", "sim_ms"),
    ("exec.dispatch_ns", "ns"),
    ("sim.serve.lane_op_ns", "ns"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans_per_step", "count"),
    ("host.camera_frames_per_s", "1/s"),
    ("host.step_ns_p50", "ns"),
    ("host.passes", "count"),
    ("host.pass_spread", "ratio"),
];

/// Serve-layer metrics: measured and printed on the two serve workloads
/// only, so they are not in `BENCHMARK.json` and not in the result line
/// (every declared metric has to be measured on every workload). The crash,
/// replay and quarantine counters are 0 on `serve-steady` by construction.
pub const SERVE_LAYER: [(&str, &str); 17] = [
    ("sim.serve.snapshot_ns", "ns"),
    ("sim.serve.snapshot_bytes", "bytes"),
    ("sim.serve.recover_s", "s"),
    ("sim.serve.bookkeeping_share", "ratio"),
    ("sim.serve.admitted", "count"),
    ("sim.serve.degraded", "count"),
    ("sim.serve.rejected", "count"),
    ("sim.serve.queue_dropped", "count"),
    ("sim.serve.policy_skipped", "count"),
    ("sim.serve.replayed", "count"),
    ("sim.serve.transitions", "count"),
    ("sim.serve.restarts", "count"),
    ("sim.serve.quarantines", "count"),
    ("sim.serve.mttr_ms", "sim_ms"),
    ("sim.serve.e2e_p99_ms", "sim_ms"),
    ("sim.serve.post_recovery_p99_ms", "sim_ms"),
    ("sim.serve.availability", "ratio"),
];

/// Values for one of the tables above, filled by name.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            table,
            values: vec![None; table.len()],
        }
    }

    /// # Panics
    ///
    /// Panics on a name the table does not declare, or one set twice: both
    /// are bugs in the harness, not conditions of a run.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(self.values[i].is_none(), "metric {name} set twice");
        self.values[i] = Some(value);
    }

    /// Declared metrics without a finite, non-zero value — each one makes
    /// the run incorrect rather than silently absent. No declared metric can
    /// read 0 when it was really measured, and a 0 would leave every later
    /// relative comparison undefined.
    pub fn problems(&self) -> Vec<String> {
        self.table
            .iter()
            .zip(&self.values)
            .filter_map(|((name, _), v)| match v {
                None => Some(format!("metric {name} was never measured")),
                Some(v) if !v.is_finite() || *v == 0.0 => Some(format!("metric {name} is {v}")),
                Some(_) => None,
            })
            .collect()
    }

    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), v)| (name, unit, v.unwrap_or(0.0)))
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit, value)) in self.rows().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { value } else { 0.0 };
            // `{}` prints the shortest decimal that round-trips, never an
            // exponent, so the value is valid JSON with all its digits.
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// The one-line JSON object the driver parses from the last line of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    )
}

/// Peak resident set of this process (`VmHWM`), MB; `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_wellformed() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER).chain(&SERVE_LAYER) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(text.matches(&needle).count(), 1, "{needle}");
        }
        let workloads = crate::workload::Workload::ALL;
        for w in workloads {
            let needle = format!("\"name\": \"{}\", \"why\": ", w.name());
            assert_eq!(text.matches(&needle).count(), 1, "{needle}");
        }
        assert_eq!(
            text.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + workloads.len()
        );
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let mut m = Metrics::new(&END_TO_END);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.5 + i as f64);
        }
        assert_eq!(m.problems(), Vec::<String>::new());
        let line = result_line(true, 42, 0, &m);
        assert!(!line.contains('\n'));
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 42, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"sim_served_share\": {\"value\": 5.5, \"unit\": \"ratio\"}"));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        // `attempted` is at least 1 even when nothing ran.
        assert!(result_line(false, 0, 0, &m).contains("\"attempted\": 1,"));
    }

    #[test]
    fn unmeasured_nonfinite_and_zero_metrics_are_reported() {
        let mut m = Metrics::new(&END_TO_END);
        m.set("setup_s", f64::NAN);
        m.set("allocs_per_step", 0.0);
        let problems = m.problems();
        assert_eq!(problems.len(), END_TO_END.len());
        assert!(problems[0].contains("setup_s is NaN"));
        assert!(problems[1].contains("allocs_per_step is 0"));
        assert!(problems[2].contains("never measured"));
        assert!(m.json().contains("\"setup_s\": {\"value\": 0,"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn setting_an_undeclared_metric_is_a_bug() {
        Metrics::new(&END_TO_END).set("latency", 1.0);
    }

    #[test]
    fn small_and_large_values_print_without_exponent() {
        let mut m = Metrics::new(&END_TO_END);
        m.set("setup_s", 1.25e-7);
        m.set("allocs_per_step", 3.0e15);
        let json = m.json();
        assert!(json.contains("\"value\": 0.000000125,"), "{json}");
        assert!(json.contains("\"value\": 3000000000000000,"), "{json}");
    }
}
