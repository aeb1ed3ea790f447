//! The per-camera ingest queue: depth one, latest frame wins. What to do
//! about the frames it drops is `admission`'s business.

use serde::{Deserialize, Serialize};

/// A per-camera ingest queue of depth one with latest-frame-wins
/// replacement.
///
/// Frames are identified by their capture index and must be offered in
/// capture order. At most one frame waits; offering a newer frame while an
/// older one waits drops the older one (counted in
/// [`IngestLane::dropped`]). Consequently the consumed sequence is a
/// strictly increasing subsequence of the offered sequence — the lane can
/// drop frames but never reorder or duplicate them.
///
/// # Examples
///
/// ```
/// use mvs_sim::IngestLane;
///
/// let mut lane = IngestLane::new();
/// lane.offer(0);
/// assert_eq!(lane.offer(1), Some(0)); // frame 0 displaced, dropped
/// assert_eq!(lane.take(), Some(1));
/// assert_eq!(lane.take(), None);
/// assert_eq!(lane.dropped(), 1);
/// assert_eq!(lane.depth(), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestLane {
    /// The waiting frame, if any (the queue's entire capacity).
    pending: Option<u64>,
    /// Highest frame index ever offered.
    newest: Option<u64>,
    /// Frames displaced by a newer arrival before consumption.
    dropped: u64,
    /// Frames handed to the consumer.
    delivered: u64,
}

impl IngestLane {
    /// An empty lane.
    #[must_use]
    pub fn new() -> IngestLane {
        IngestLane::default()
    }

    /// Offers a captured frame to the lane. Returns the older frame it
    /// displaced, if one was still waiting.
    ///
    /// # Panics
    ///
    /// Panics if `frame` does not arrive in strictly increasing capture
    /// order — the transport below this queue preserves order, so an
    /// out-of-order offer is a caller bug, not a runtime condition.
    pub fn offer(&mut self, frame: u64) -> Option<u64> {
        assert!(
            self.newest.is_none_or(|n| frame > n),
            "frames must be offered in capture order"
        );
        self.newest = Some(frame);
        let displaced = self.pending.replace(frame);
        if displaced.is_some() {
            self.dropped += 1;
        }
        displaced
    }

    /// Consumes the waiting frame, if any.
    pub fn take(&mut self) -> Option<u64> {
        let frame = self.pending.take();
        if frame.is_some() {
            self.delivered += 1;
        }
        frame
    }

    /// Discards the waiting frame, if any, counting it as dropped. The
    /// serve layer empties a quarantined tenant's lanes with this so the
    /// abandoned frame is accounted (the lane identity
    /// `offered == delivered + dropped + depth` keeps holding) instead of
    /// lingering as a stale pending entry.
    pub(crate) fn clear_pending(&mut self) {
        if self.pending.take().is_some() {
            self.dropped += 1;
        }
    }

    /// The waiting frame without consuming it.
    #[must_use]
    pub(crate) fn peek(&self) -> Option<u64> {
        self.pending
    }

    /// Current queue depth — structurally at most 1.
    #[must_use]
    pub fn depth(&self) -> usize {
        usize::from(self.pending.is_some())
    }

    /// Frames displaced (dropped) before the consumer took them.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Frames delivered to the consumer.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Frames ever offered. Always equals
    /// `delivered + dropped + depth` — the lane accounts for every frame.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.delivered + self.dropped + self.depth() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_counts_every_frame_exactly_once() {
        let mut lane = IngestLane::new();
        lane.offer(0);
        assert_eq!(lane.take(), Some(0));
        lane.offer(1);
        lane.offer(2); // displaces 1
        lane.offer(3); // displaces 2
        assert_eq!(lane.take(), Some(3));
        lane.offer(10);
        assert_eq!(lane.offered(), 5);
        assert_eq!(lane.delivered(), 2);
        assert_eq!(lane.dropped(), 2);
        assert_eq!(lane.depth(), 1);
    }

    #[test]
    #[should_panic(expected = "capture order")]
    fn lane_rejects_out_of_order_offers() {
        let mut lane = IngestLane::new();
        lane.offer(5);
        lane.offer(5);
    }

    #[test]
    fn lane_take_on_empty_is_none() {
        let mut lane = IngestLane::new();
        assert_eq!(lane.take(), None);
        assert_eq!(lane.offered(), 0);
    }

    #[test]
    fn lane_clear_pending_counts_the_abandoned_frame() {
        let mut lane = IngestLane::new();
        lane.clear_pending(); // empty: no-op
        assert_eq!(lane.offered(), 0);
        lane.offer(0);
        lane.clear_pending();
        assert_eq!(lane.dropped(), 1);
        assert_eq!(lane.depth(), 0);
        assert_eq!(lane.offered(), 1);
        // Order tracking survives the clear.
        lane.offer(1);
        assert_eq!(lane.take(), Some(1));
    }
}
