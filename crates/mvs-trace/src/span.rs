//! Span records: the unit of trace data.

use serde::{Deserialize, Serialize};

/// Lane index reserved for the coordinator (central solve, sync, faults).
/// Camera `i` records on lane `i + 1`.
pub(crate) const COORDINATOR_LANE: u32 = 0;

/// Pipeline stage a span belongs to.
///
/// The discriminant order is the canonical export order; it roughly follows
/// the data path of a frame through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Fault-model bookkeeping on key frames (dropouts, rejoins, lost
    /// key-frame messages). Items = cameras whose state changed.
    Fault,
    /// Central BALB/exact solve on the coordinator. Duration is wall-measured
    /// in the simulator and therefore recorded as 0 to keep traces
    /// deterministic; items = objects in the solved instance.
    Central,
    /// Key-frame synchronization: uplink of camera views plus downlink of the
    /// schedule. Items = cameras that synced this key frame.
    Sync,
    /// Optical-flow estimation on a camera (fixed per-frame base cost).
    Flow,
    /// Tracker advance/associate on a camera. Items = tracked objects
    /// (live tracks plus shadow tracks).
    Track,
    /// Distributed takeover scan over shadow tracks. Duration is
    /// wall-measured in the simulator, so recorded as 0; items = takeovers.
    Distributed,
    /// Region slicing: cropping tracked objects out of the frame.
    /// Items = region tasks produced.
    Slice,
    /// Batch assembly of region crops. Items = batches formed.
    Batch,
    /// DNN inference (full-frame on key frames, batched crops on regular
    /// frames). Items = detections returned or crops processed.
    Detect,
    /// Coordinator crash recovery: rebuilding a tenant pipeline from a
    /// snapshot's replay recipe. Duration is the modeled cost of the
    /// replayed steps; items = frames replayed.
    Recovery,
}

impl Stage {
    /// All stages in canonical export order.
    pub const ALL: [Stage; 10] = [
        Stage::Fault,
        Stage::Central,
        Stage::Sync,
        Stage::Flow,
        Stage::Track,
        Stage::Distributed,
        Stage::Slice,
        Stage::Batch,
        Stage::Detect,
        Stage::Recovery,
    ];

    /// Stable lowercase name used in every text export.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Fault => "fault",
            Stage::Central => "central",
            Stage::Sync => "sync",
            Stage::Flow => "flow",
            Stage::Track => "track",
            Stage::Distributed => "distributed",
            Stage::Slice => "slice",
            Stage::Batch => "batch",
            Stage::Detect => "detect",
            Stage::Recovery => "recovery",
        }
    }
}

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Frame index within the evaluation run.
    pub frame: u32,
    /// 0 for the coordinator (central solve, sync, faults), else `camera + 1`.
    pub lane: u32,
    /// Pipeline stage.
    pub stage: Stage,
    /// Sim-clock start, microseconds since run start.
    pub start_us: u64,
    /// Modeled duration in microseconds (0 for wall-measured stages).
    pub dur_us: u64,
    /// Stage-specific item count (see [`Stage`] docs).
    pub items: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique() {
        for (i, a) in Stage::ALL.iter().enumerate() {
            for b in &Stage::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn stage_order_matches_all() {
        for pair in Stage::ALL.windows(2) {
            assert!(pair[0] < pair[1], "{:?} vs {:?}", pair[0], pair[1]);
        }
    }
}
