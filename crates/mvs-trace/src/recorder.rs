//! Per-lane span buffers and the frame-synchronous recorder.

use crate::span::{SpanRecord, Stage, COORDINATOR_LANE};
use crate::trace::Trace;
use crate::{ms_to_us, trace};

/// Append-only span buffer for one lane (coordinator or camera).
///
/// Each lane owns its buffer, so worker threads record without locks; the
/// [`TraceRecorder`] drains the buffers in lane order once per frame, which
/// restores a deterministic global order regardless of thread count.
#[derive(Debug)]
pub struct TraceBuf {
    lane: u32,
    frame: u32,
    cursor_us: u64,
    records: Vec<SpanRecord>,
}

impl TraceBuf {
    /// Creates an empty buffer for `lane`.
    #[must_use]
    pub fn new(lane: u32) -> Self {
        TraceBuf {
            lane,
            frame: 0,
            cursor_us: 0,
            records: Vec::new(),
        }
    }

    /// Resets the lane cursor to the start of `frame` at sim time `start_us`.
    pub fn begin_frame(&mut self, frame: u32, start_us: u64) {
        self.frame = frame;
        self.cursor_us = start_us;
    }

    /// Records a span of `dur_ms` modeled milliseconds at the lane cursor and
    /// advances the cursor past it.
    pub fn span(&mut self, stage: Stage, dur_ms: f64, items: usize) {
        let dur_us = ms_to_us(dur_ms);
        self.records.push(SpanRecord {
            frame: self.frame,
            lane: self.lane,
            stage,
            start_us: self.cursor_us,
            dur_us,
            items: items.min(u32::MAX as usize) as u32,
        });
        self.cursor_us += dur_us;
    }

    /// Number of buffered spans not yet drained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no spans are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    fn drain_into(&mut self, out: &mut Vec<SpanRecord>) {
        out.append(&mut self.records);
    }
}

/// Records a span into an optional buffer.
///
/// This is the hot-path entry used by instrumented library code: with
/// tracing disabled the buffer is `None` and the call reduces to a branch —
/// no allocation, no clock read. `bench_trace` asserts this costs < 1% of
/// pipeline runtime.
#[inline]
pub fn span_into(trace: Option<&mut TraceBuf>, stage: Stage, dur_ms: f64, items: usize) {
    if let Some(buf) = trace {
        buf.span(stage, dur_ms, items);
    }
}

/// Frame-synchronous trace recorder owned by the pipeline coordinator.
///
/// Usage per frame: [`TraceRecorder::begin_frame`], hand each camera its
/// [`TraceBuf`] (created once via [`TraceRecorder::camera_buf`]), record
/// coordinator spans via [`TraceRecorder::coordinator`], then
/// [`TraceRecorder::end_frame`] with the camera buffers in index order.
#[derive(Debug)]
pub struct TraceRecorder {
    frame_interval_us: u64,
    coordinator: TraceBuf,
    records: Vec<SpanRecord>,
}

impl TraceRecorder {
    /// Creates a recorder for a scenario running at `fps` frames per second.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not strictly positive and finite.
    #[must_use]
    pub fn new(fps: f64) -> Self {
        assert!(
            fps.is_finite() && fps > 0.0,
            "fps must be positive, got {fps}"
        );
        TraceRecorder {
            frame_interval_us: (1_000_000.0 / fps).round() as u64,
            coordinator: TraceBuf::new(COORDINATOR_LANE),
            records: Vec::new(),
        }
    }

    /// Creates the span buffer for camera `index` (lane `index + 1`).
    #[must_use]
    pub fn camera_buf(index: usize) -> TraceBuf {
        TraceBuf::new(index as u32 + 1)
    }

    /// Sim-clock start of `frame`, microseconds since run start.
    #[must_use]
    fn frame_start_us(&self, frame: usize) -> u64 {
        frame as u64 * self.frame_interval_us
    }

    /// Starts `frame` on the coordinator lane and returns its sim-clock
    /// start, which callers pass to each camera's [`TraceBuf::begin_frame`].
    pub fn begin_frame(&mut self, frame: usize) -> u64 {
        let start = self.frame_start_us(frame);
        self.coordinator.begin_frame(frame as u32, start);
        start
    }

    /// The coordinator's own span buffer.
    pub fn coordinator(&mut self) -> &mut TraceBuf {
        &mut self.coordinator
    }

    /// Closes the frame: drains the coordinator buffer, then each camera
    /// buffer in the order given. Callers must pass camera buffers in
    /// camera-index order to uphold the determinism contract.
    pub fn end_frame<'a, I>(&mut self, camera_bufs: I)
    where
        I: IntoIterator<Item = &'a mut TraceBuf>,
    {
        self.coordinator.drain_into(&mut self.records);
        for buf in camera_bufs {
            buf.drain_into(&mut self.records);
        }
    }

    /// Consumes the recorder and returns the completed [`Trace`].
    #[must_use]
    pub fn finish(self) -> Trace {
        trace::trace_from_parts(self.frame_interval_us, self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_advances_by_span_duration() {
        let mut buf = TraceBuf::new(3);
        buf.begin_frame(7, 700_000);
        buf.span(Stage::Flow, 9.0, 0);
        buf.span(Stage::Detect, 30.5, 4);
        assert_eq!(buf.len(), 2);
        let mut out = Vec::new();
        buf.drain_into(&mut out);
        assert!(buf.is_empty());
        assert_eq!(
            out,
            vec![
                SpanRecord {
                    frame: 7,
                    lane: 3,
                    stage: Stage::Flow,
                    start_us: 700_000,
                    dur_us: 9_000,
                    items: 0,
                },
                SpanRecord {
                    frame: 7,
                    lane: 3,
                    stage: Stage::Detect,
                    start_us: 709_000,
                    dur_us: 30_500,
                    items: 4,
                },
            ]
        );
    }

    #[test]
    fn span_into_none_is_noop() {
        span_into(None, Stage::Central, 5.0, 1);
    }

    #[test]
    fn recorder_orders_coordinator_before_cameras() {
        let mut rec = TraceRecorder::new(10.0);
        let mut cam0 = TraceRecorder::camera_buf(0);
        let mut cam1 = TraceRecorder::camera_buf(1);

        let start = rec.begin_frame(2);
        assert_eq!(start, 200_000);
        cam0.begin_frame(2, start);
        cam1.begin_frame(2, start);
        // Cameras record "first" in wall time; the drain still puts the
        // coordinator span ahead of them.
        cam1.span(Stage::Track, 1.0, 2);
        cam0.span(Stage::Track, 1.0, 1);
        rec.coordinator().span(Stage::Central, 0.0, 5);
        rec.end_frame([&mut cam0, &mut cam1]);

        let trace = rec.finish();
        let lanes: Vec<u32> = trace.records().iter().map(|r| r.lane).collect();
        assert_eq!(lanes, vec![0, 1, 2]);
        assert!(trace.golden_text().contains("interval_us=100000 "));
    }
}
