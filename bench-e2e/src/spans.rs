//! In-memory spans recorded by the harness around its calls into each
//! layer (spans *inside* the program are a later change). Kept in memory
//! while measuring and written out as a Chrome `trace_event` file when the
//! run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Metric-style layer name (`vision.flow`, `core.solve_cold`, …).
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, the one that caused this one.
    pub parent: Option<usize>,
    pub episode: u32,
    pub step: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub calls: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    /// Duration the self-time arithmetic uses for each span: its own, or a
    /// faster repeat folded in by [`SpanLog::keep_fastest`].
    dur_ns: Vec<u64>,
    open: Vec<usize>,
    episode: u32,
    step: u32,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            dur_ns: Vec::new(),
            open: Vec::new(),
            episode: 0,
            step: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        crate::episode::ns_since(self.origin)
    }

    /// Labels the spans recorded from here on.
    pub fn at(&mut self, episode: usize, step: usize) {
        self.episode = episode as u32;
        self.step = step as u32;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            episode: self.episode,
            step: self.step,
        });
        self.dur_ns.push(0);
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
        self.dur_ns[id] = self.spans[id].dur_ns();
    }

    /// Records `f` as one leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Folds in a repeat of the same deterministic work: span by span, the
    /// faster duration wins (the envelope estimator, applied to spans). The
    /// raw timestamps, and so the exported trace, stay those of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is not the same sequence of spans.
    pub fn keep_fastest(&mut self, other: &SpanLog) {
        assert_eq!(self.spans.len(), other.spans.len(), "span count changed");
        for (i, (mine, theirs)) in self.spans.iter().zip(&other.spans).enumerate() {
            assert_eq!(
                (mine.name, mine.parent, mine.step),
                (theirs.name, theirs.parent, theirs.step),
                "span {i} changed between repeats"
            );
            self.dur_ns[i] = self.dur_ns[i].min(other.dur_ns[i]);
        }
    }

    /// Self time of every span: its duration minus the part its child
    /// spans cover. Children never overlap each other (one thread, strict
    /// nesting), so that part is the plain sum of their durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own = self.dur_ns.clone();
        for (span, &dur) in self.spans.iter().zip(&self.dur_ns) {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(dur);
            }
        }
        own
    }

    /// Calls and summed self time per name over the spans `keep` selects.
    pub fn self_by_name(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, SelfTime> {
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            if keep(span) {
                let entry = out.entry(span.name).or_default();
                entry.calls += 1;
                entry.self_ns += own;
            }
        }
        out
    }

    /// Chrome `trace_event` JSON (complete events, µs): load it in
    /// `chrome://tracing` or Perfetto. `pid` is the episode; `args` carry
    /// the step and the causing span.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 120);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Span names are identifiers from this crate; nothing to escape.
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":0,\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"step\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.episode,
                s.step,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A log with hand-set timestamps: spans as `(name, start, end, parent)`.
    fn log_of(spans: &[(&'static str, u64, u64, Option<usize>)]) -> SpanLog {
        let mut log = SpanLog::new();
        log.spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span {
                name,
                start_ns,
                end_ns,
                parent,
                episode: 0,
                step: 0,
            })
            .collect();
        log.dur_ns = log.spans.iter().map(Span::dur_ns).collect();
        log
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let log = log_of(&[
            ("step", 0, 100, None),
            ("flow", 10, 30, Some(0)),  // adjacent siblings …
            ("track", 30, 70, Some(0)), // … sharing an edge
            ("iou", 35, 45, Some(2)),   // nested two deep
            ("iou", 50, 65, Some(2)),
            ("step", 100, 140, None),
        ]);
        assert_eq!(log.self_ns(), vec![40, 20, 15, 10, 15, 40]);
        let by_name = log.self_by_name(|_| true);
        assert_eq!(
            by_name["step"],
            SelfTime {
                calls: 2,
                self_ns: 80
            }
        );
        assert_eq!(
            by_name["iou"],
            SelfTime {
                calls: 2,
                self_ns: 25
            }
        );
        assert_eq!(
            by_name["track"],
            SelfTime {
                calls: 1,
                self_ns: 15
            }
        );
        // Self times partition the root spans' wall time exactly.
        let total: u64 = log.self_ns().iter().sum();
        assert_eq!(total, 140);
    }

    #[test]
    fn live_recording_nests_and_labels() {
        let mut log = SpanLog::new();
        log.at(2, 7);
        let outer = log.enter("outer");
        let x = log.time("leaf", || 41 + 1);
        log.time("leaf", || ());
        log.exit(outer);
        log.at(2, 8);
        log.time("solo", || ());
        assert_eq!(x, 42);
        let s = log.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (None, Some(0), Some(0), None)
        );
        assert_eq!((s[1].episode, s[1].step, s[3].step), (2, 7, 8));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[2].start_ns);
        assert!(s[2].end_ns <= s[0].end_ns);
        let own = log.self_ns();
        assert_eq!(own[0], s[0].dur_ns() - s[1].dur_ns() - s[2].dur_ns());
        let only_step_7 = log.self_by_name(|sp| sp.step == 7);
        assert!(!only_step_7.contains_key("solo"));
        assert_eq!(only_step_7["leaf"].calls, 2);
    }

    #[test]
    fn keep_fastest_takes_the_minimum_span_by_span() {
        let mut a = log_of(&[("step", 0, 100, None), ("flow", 10, 50, Some(0))]);
        let b = log_of(&[("step", 0, 90, None), ("flow", 5, 65, Some(0))]);
        a.keep_fastest(&b);
        // step: min(100, 90) = 90; flow: min(40, 60) = 40; self = 90 - 40.
        assert_eq!(a.self_ns(), vec![50, 40]);
        // The exported timestamps are still the first recording's.
        assert_eq!(a.spans()[0].end_ns, 100);
    }

    #[test]
    #[should_panic(expected = "changed between repeats")]
    fn keep_fastest_rejects_a_different_sequence() {
        let mut a = log_of(&[("step", 0, 100, None)]);
        a.keep_fastest(&log_of(&[("flow", 0, 100, None)]));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut log = SpanLog::new();
        let a = log.enter("a");
        let _b = log.enter("b");
        log.exit(a);
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let log = log_of(&[("a.b", 1_000, 3_500, None), ("c", 1_500, 2_000, Some(0))]);
        let json = log.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"name\":\"a.b\",\"ph\":\"X\",\"ts\":1.000,\"dur\":2.500"));
        assert!(json.contains("\"args\":{\"id\":1,\"parent\":0,\"step\":0}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
