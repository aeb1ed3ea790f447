//! Completed traces: per-stage aggregation and the three export formats.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mvs_metrics::{Running, Summary};
use serde::{Deserialize, Serialize};

use crate::span::{SpanRecord, Stage};

/// A completed trace: the deterministic span stream of one pipeline run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    frame_interval_us: u64,
    records: Vec<SpanRecord>,
}

/// Crate-internal constructor used by `TraceRecorder::finish`.
pub(crate) fn trace_from_parts(frame_interval_us: u64, records: Vec<SpanRecord>) -> Trace {
    Trace {
        frame_interval_us,
        records,
    }
}

/// Aggregated statistics for one stage across a whole trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageStats {
    /// Running mean/variance over span durations (milliseconds).
    pub running: Running,
    /// Percentile summary over span durations (milliseconds).
    pub summary: Summary,
    /// Sum of span durations in milliseconds.
    pub total_ms: f64,
    /// Sum of span item counts.
    pub items: u64,
}

impl Trace {
    /// The raw span stream, in deterministic drain order.
    #[must_use]
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Number of spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no spans were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Sum of modeled span durations across all stages, in milliseconds.
    #[must_use]
    pub fn total_modeled_ms(&self) -> f64 {
        self.records.iter().map(|r| r.dur_us as f64 / 1_000.0).sum()
    }

    /// Per-stage aggregation over the whole trace. Stages that never
    /// recorded a span are absent from the map.
    #[must_use]
    pub fn stage_stats(&self) -> BTreeMap<Stage, StageStats> {
        let mut samples: BTreeMap<Stage, (Vec<f64>, u64)> = BTreeMap::new();
        for r in &self.records {
            let entry = samples.entry(r.stage).or_default();
            entry.0.push(r.dur_us as f64 / 1_000.0);
            entry.1 += u64::from(r.items);
        }
        samples
            .into_iter()
            .map(|(stage, (durs, items))| {
                let mut running = Running::new();
                running.extend(durs.iter().copied());
                let stats = StageStats {
                    running,
                    summary: Summary::of(&durs),
                    total_ms: durs.iter().sum(),
                    items,
                };
                (stage, stats)
            })
            .collect()
    }

    /// Prometheus text-format snapshot: a `summary` metric with p50/p99
    /// quantiles per stage, plus item and span counters.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        self.prometheus_text_labeled(&[])
    }

    /// Like [`Trace::prometheus_text`], but with extra constant labels
    /// prepended to every series — the multi-tenant serving path tags each
    /// tenant's trace with `[("tenant", "3")]` so one scrape distinguishes
    /// tenants. With no labels the output is byte-identical to
    /// [`Trace::prometheus_text`].
    ///
    /// # Panics
    ///
    /// Panics if a label name or value contains `"` or `\` — callers pass
    /// fixed names and formatted integers, so escaping is a bug upstream,
    /// not a condition to silently paper over.
    #[must_use]
    pub fn prometheus_text_labeled(&self, labels: &[(&str, &str)]) -> String {
        let mut prefix = String::new();
        for (name, value) in labels {
            assert!(
                !name.contains(['"', '\\']) && !value.contains(['"', '\\']),
                "prometheus labels must not need escaping: {name}={value}"
            );
            let _ = write!(prefix, "{name}=\"{value}\",");
        }
        let stats = self.stage_stats();
        let mut out = String::new();
        out.push_str(
            "# HELP mvs_stage_duration_ms Modeled span duration by pipeline stage.\n\
             # TYPE mvs_stage_duration_ms summary\n",
        );
        for (stage, s) in &stats {
            let name = stage.name();
            let _ = writeln!(
                out,
                "mvs_stage_duration_ms{{{prefix}stage=\"{name}\",quantile=\"0.5\"}} {}",
                fmt_f64(s.summary.p50)
            );
            let _ = writeln!(
                out,
                "mvs_stage_duration_ms{{{prefix}stage=\"{name}\",quantile=\"0.99\"}} {}",
                fmt_f64(s.summary.p99)
            );
            let _ = writeln!(
                out,
                "mvs_stage_duration_ms_sum{{{prefix}stage=\"{name}\"}} {}",
                fmt_f64(s.total_ms)
            );
            let _ = writeln!(
                out,
                "mvs_stage_duration_ms_count{{{prefix}stage=\"{name}\"}} {}",
                s.summary.count
            );
        }
        out.push_str(
            "# HELP mvs_stage_items_total Stage-specific item count (detections, batches, ...).\n\
             # TYPE mvs_stage_items_total counter\n",
        );
        for (stage, s) in &stats {
            let _ = writeln!(
                out,
                "mvs_stage_items_total{{{prefix}stage=\"{}\"}} {}",
                stage.name(),
                s.items
            );
        }
        out
    }

    /// Chrome `trace_event` JSON (the array-of-events form with complete
    /// `"ph":"X"` events). Load in `chrome://tracing` or Perfetto; lanes map
    /// to thread ids, so camera timelines stack under one process.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        // Hand-formatted: every field is an integer or a static name, so no
        // JSON library is needed and output bytes are deterministic.
        let mut out = String::from("{\"traceEvents\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"mvs\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"frame\":{},\"items\":{}}}}}",
                r.stage.name(),
                r.start_us,
                r.dur_us,
                r.lane,
                r.frame,
                r.items
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Compact golden-trace format: a header line followed by one
    /// whitespace-separated line per span. All fields are integers, so the
    /// output is bitwise stable and diffs line-by-line in code review.
    #[must_use]
    pub fn golden_text(&self) -> String {
        let mut out = format!(
            "# mvs-trace golden v1 interval_us={} spans={}\n\
             # frame lane stage start_us dur_us items\n",
            self.frame_interval_us,
            self.records.len()
        );
        for r in &self.records {
            let _ = writeln!(
                out,
                "{} {} {} {} {} {}",
                r.frame,
                r.lane,
                r.stage.name(),
                r.start_us,
                r.dur_us,
                r.items
            );
        }
        out
    }
}

/// Formats a duration value the same way on every platform: plain `{}`
/// Display, which for f64 is shortest-roundtrip and locale-independent.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceRecorder;

    fn sample_trace() -> Trace {
        let mut rec = TraceRecorder::new(10.0);
        let mut cam = TraceRecorder::camera_buf(0);
        for frame in 0..2usize {
            let start = rec.begin_frame(frame);
            cam.begin_frame(frame as u32, start);
            rec.coordinator().span(Stage::Central, 0.0, 3);
            cam.span(Stage::Detect, 20.0 + frame as f64, 2);
            rec.end_frame([&mut cam]);
        }
        rec.finish()
    }

    #[test]
    fn stage_stats_aggregates_durations_and_items() {
        let trace = sample_trace();
        let stats = trace.stage_stats();
        let detect = &stats[&Stage::Detect];
        assert_eq!(detect.summary.count, 2);
        assert_eq!(detect.items, 4);
        assert!((detect.total_ms - 41.0).abs() < 1e-9);
        assert!((detect.running.mean() - 20.5).abs() < 1e-9);
        assert_eq!(stats[&Stage::Central].summary.p99, 0.0);
        assert!((trace.total_modeled_ms() - 41.0).abs() < 1e-9);
    }

    #[test]
    fn golden_text_is_line_per_span() {
        let trace = sample_trace();
        let text = trace.golden_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + trace.len());
        assert!(lines[0].starts_with("# mvs-trace golden v1 interval_us=100000 spans=4"));
        assert_eq!(lines[2], "0 0 central 0 0 3");
        assert_eq!(lines[3], "0 1 detect 0 20000 2");
        assert_eq!(lines[5], "1 1 detect 100000 21000 2");
    }

    #[test]
    fn prometheus_text_contains_quantiles_and_counters() {
        let text = sample_trace().prometheus_text();
        assert!(text.contains("mvs_stage_duration_ms{stage=\"detect\",quantile=\"0.99\"} 21"));
        assert!(text.contains("mvs_stage_duration_ms_count{stage=\"central\"} 2"));
        assert!(text.contains("mvs_stage_items_total{stage=\"detect\"} 4"));
    }

    #[test]
    fn labeled_prometheus_prepends_labels_to_every_series() {
        let trace = sample_trace();
        let text = trace.prometheus_text_labeled(&[("tenant", "3")]);
        assert!(text
            .contains("mvs_stage_duration_ms{tenant=\"3\",stage=\"detect\",quantile=\"0.99\"} 21"));
        assert!(text.contains("mvs_stage_items_total{tenant=\"3\",stage=\"detect\"} 4"));
        // Every series carries the label: stripping it recovers the
        // unlabeled export byte for byte.
        assert_eq!(text.replace("tenant=\"3\",", ""), trace.prometheus_text());
    }

    #[test]
    #[should_panic(expected = "escaping")]
    fn labeled_prometheus_rejects_quotes_in_values() {
        let _ = sample_trace().prometheus_text_labeled(&[("tenant", "a\"b")]);
    }

    #[test]
    fn chrome_json_is_balanced_and_complete() {
        let trace = sample_trace();
        let json = trace.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), trace.len());
        assert_eq!(json.matches("\"ts\":100000").count(), 2); // frame 1 spans
                                                              // Brace/bracket balance — no names contain braces, so counting works.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let rec = TraceRecorder::new(30.0);
        let trace = rec.finish();
        assert!(trace.is_empty());
        assert_eq!(trace.stage_stats().len(), 0);
        assert!(trace.golden_text().contains("spans=0"));
        assert!(trace.chrome_trace_json().contains("traceEvents"));
    }
}
