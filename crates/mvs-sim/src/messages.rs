//! Camera↔scheduler wire messages.
//!
//! The paper's testbed exchanges object lists and assignments over TCP;
//! these are the typed equivalents. The byte-size accounting used by
//! [`NetworkModel`](crate::NetworkModel) is grounded in each message's
//! compact fixed-width encoding (`encoded_len`), not in the JSON debug
//! form.

use mvs_geometry::{BBox, SizeClass};
use serde::{Deserialize, Serialize};

/// One detected object as a camera reports it at a key frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectRecord {
    /// Camera-local detection index.
    pub detection: u32,
    /// Detected bounding box.
    pub bbox: BBox,
    /// Detector confidence.
    pub confidence: f32,
    /// Quantized crop size the camera would use for this object.
    pub size: SizeClass,
}

impl ObjectRecord {
    /// Bytes of the compact encoding: u32 id + 4×f64 box + f32 confidence
    /// + u8 size class, padded to a word boundary.
    pub const ENCODED_LEN: usize = 4 + 32 + 4 + 1 + 3;
}

/// Key-frame upload: one camera's detected-object list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UploadMessage {
    /// Reporting camera.
    pub camera: u32,
    /// Frame index the detections belong to.
    pub frame: u64,
    /// The detections.
    pub objects: Vec<ObjectRecord>,
}

impl UploadMessage {
    /// Fixed header: camera id, frame index, object count, checksum.
    pub const HEADER_LEN: usize = 4 + 8 + 4 + 8;

    /// Bytes of the compact encoding.
    pub fn encoded_len(&self) -> usize {
        Self::encoded_len_of(self.objects.len())
    }

    /// [`UploadMessage::encoded_len`] of a message reporting `objects`
    /// detections, without building the message.
    pub(crate) fn encoded_len_of(objects: usize) -> usize {
        Self::HEADER_LEN + objects * ObjectRecord::ENCODED_LEN
    }
}

/// Central-scheduler reply: the object→camera assignment for one horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssignmentMessage {
    /// Horizon sequence number.
    pub horizon: u64,
    /// `(global object index, owner cameras)` pairs.
    pub assignments: Vec<(u32, Vec<u32>)>,
    /// Latency-sorted camera priority for the distributed stage.
    pub priority: Vec<u32>,
}

impl AssignmentMessage {
    /// Fixed header: horizon, entry count, priority count, checksum.
    pub const HEADER_LEN: usize = 8 + 4 + 4 + 8;

    /// Bytes of the compact encoding: each entry is a u32 global id, a u8
    /// owner count, and u32 per owner; priority is u32 per camera.
    pub fn encoded_len(&self) -> usize {
        Self::encoded_len_of(
            self.assignments.iter().map(|(_, owners)| owners.len()),
            self.priority.len(),
        )
    }

    /// [`AssignmentMessage::encoded_len`] of a message with one entry per
    /// item of `owner_counts` (that entry's owner count) and
    /// `priority_len` priority cameras, without building the message.
    pub fn encoded_len_of(
        owner_counts: impl IntoIterator<Item = usize>,
        priority_len: usize,
    ) -> usize {
        let entries: usize = owner_counts.into_iter().map(|n| 4 + 1 + 4 * n).sum();
        Self::HEADER_LEN + entries + 4 * priority_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{NetworkModel, BYTES_PER_OBJECT, MESSAGE_HEADER_BYTES};

    fn record(i: u32) -> ObjectRecord {
        ObjectRecord {
            detection: i,
            bbox: BBox::new(10.0, 10.0, 70.0, 60.0).unwrap(),
            confidence: 0.9,
            size: SizeClass::S128,
        }
    }

    #[test]
    fn upload_length_scales_with_objects() {
        let empty = UploadMessage {
            camera: 0,
            frame: 1,
            objects: vec![],
        };
        let five = UploadMessage {
            camera: 0,
            frame: 1,
            objects: (0..5).map(record).collect(),
        };
        assert_eq!(empty.encoded_len(), UploadMessage::HEADER_LEN);
        assert_eq!(
            five.encoded_len() - empty.encoded_len(),
            5 * ObjectRecord::ENCODED_LEN
        );
    }

    #[test]
    fn network_model_constants_match_the_wire_format() {
        // The analytic byte model used for Table II's network accounting
        // must agree with the typed messages within a few percent.
        const _: () = assert!(ObjectRecord::ENCODED_LEN == BYTES_PER_OBJECT + 4);
        const _: () = assert!(UploadMessage::HEADER_LEN <= MESSAGE_HEADER_BYTES);
        let msg = UploadMessage {
            camera: 1,
            frame: 100,
            objects: (0..20).map(record).collect(),
        };
        let analytic = NetworkModel::object_list_bytes(20);
        let actual = msg.encoded_len();
        let ratio = actual as f64 / analytic as f64;
        assert!(
            (0.8..=1.2).contains(&ratio),
            "wire format {actual} vs analytic {analytic}"
        );
    }

    #[test]
    fn assignment_length_counts_redundant_owners() {
        let single = AssignmentMessage {
            horizon: 4,
            assignments: vec![(0, vec![1]), (1, vec![0])],
            priority: vec![0, 1],
        };
        let redundant = AssignmentMessage {
            horizon: 4,
            assignments: vec![(0, vec![1, 0]), (1, vec![0, 1])],
            priority: vec![0, 1],
        };
        assert_eq!(redundant.encoded_len() - single.encoded_len(), 8);
    }

    #[test]
    fn encoded_len_of_matches_the_built_message() {
        let msg = AssignmentMessage {
            horizon: 9,
            assignments: vec![(0, vec![1, 0]), (1, vec![]), (2, vec![3])],
            priority: vec![3, 0, 1],
        };
        assert_eq!(
            AssignmentMessage::encoded_len_of([2, 0, 1], 3),
            msg.encoded_len()
        );
        assert_eq!(
            AssignmentMessage::encoded_len_of([], 0),
            AssignmentMessage::HEADER_LEN
        );
    }

    #[test]
    fn messages_round_trip_through_serde() {
        let msg = UploadMessage {
            camera: 2,
            frame: 77,
            objects: (0..3).map(record).collect(),
        };
        let json = serde_json::to_string(&msg).unwrap();
        let back: UploadMessage = serde_json::from_str(&json).unwrap();
        assert_eq!(msg, back);
        let reply = AssignmentMessage {
            horizon: 7,
            assignments: vec![(0, vec![2])],
            priority: vec![2, 0, 1],
        };
        let json = serde_json::to_string(&reply).unwrap();
        let back: AssignmentMessage = serde_json::from_str(&json).unwrap();
        assert_eq!(reply, back);
    }

    #[test]
    fn upload_time_for_a_busy_frame_is_sub_frame_period() {
        // Even a 50-object scene uploads in well under the 100 ms frame
        // period on the paper's 20 Mbps uplink — communication is not the
        // bottleneck, which is why only DNN time is scheduled.
        let msg = UploadMessage {
            camera: 0,
            frame: 0,
            objects: (0..50).map(record).collect(),
        };
        let net = NetworkModel::default();
        assert!(net.uplink_ms(msg.encoded_len()) < 5.0);
    }
}
