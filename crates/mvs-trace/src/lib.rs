//! Structured tracing for the multi-view pipeline.
//!
//! The pipeline's headline metric is *per-frame processing latency*, yet an
//! end-of-run summary cannot say where a frame's budget went: slicing,
//! batching, the central BALB solve, or sync retries after a fault. This
//! crate records that breakdown as **spans** — one per pipeline stage
//! execution, labelled with the frame index, a lane (coordinator or camera),
//! the [`Stage`], and a duration.
//!
//! # Clock model
//!
//! Spans are stamped on a **simulated clock**, not the wall clock. Frame `f`
//! of a scenario running at `fps` frames per second starts at
//! `f * round(1e6 / fps)` microseconds; within a frame, each lane advances a
//! private cursor by the *modeled* duration of every span it records. Spans
//! therefore form a contiguous per-lane timeline whose values depend only on
//! `(scenario, config)` — never on host speed or thread count — which is what
//! makes golden-trace snapshots bitwise reproducible. Stages whose cost the
//! simulator measures on the wall clock (and which would break determinism)
//! are recorded with duration 0: they still witness ordering and item counts.
//!
//! # Determinism contract
//!
//! Each camera writes into its own [`TraceBuf`]; the coordinator drains the
//! buffers in camera-index order once per frame. The resulting record stream
//! is identical for any worker-thread count, so `Trace::golden_text` output
//! can be compared byte-for-byte across runs.
//!
//! # Exports
//!
//! * [`Trace::prometheus_text`] — text-format metrics snapshot
//!   ([`Trace::prometheus_text_labeled`] tags every series with constant
//!   labels, e.g. a serving tenant id),
//! * [`Trace::chrome_trace_json`] — Chrome `trace_event` JSON for
//!   `chrome://tracing` / Perfetto flame graphs,
//! * [`Trace::golden_text`] — compact line format checked into `tests/golden/`.

mod recorder;
mod span;
mod trace;

pub use recorder::{span_into, TraceBuf, TraceRecorder};
pub use span::{SpanRecord, Stage};
pub use trace::{StageStats, Trace};

/// Converts a modeled duration in milliseconds to integer microseconds.
///
/// Rounding to whole microseconds keeps every timestamp an integer, which
/// sidesteps float-formatting differences in the text exports.
#[must_use]
pub(crate) fn ms_to_us(ms: f64) -> u64 {
    debug_assert!(ms >= 0.0, "span durations are non-negative, got {ms}");
    if ms <= 0.0 {
        0
    } else {
        (ms * 1_000.0).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_to_us_rounds_to_whole_microseconds() {
        assert_eq!(ms_to_us(0.0), 0);
        assert_eq!(ms_to_us(1.0), 1_000);
        assert_eq!(ms_to_us(0.0004), 0);
        assert_eq!(ms_to_us(0.0006), 1);
        assert_eq!(ms_to_us(650.0), 650_000);
    }
}
