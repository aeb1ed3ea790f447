//! Sizes of the camera↔scheduler wire messages.
//!
//! The paper's testbed exchanges object lists and assignments over TCP.
//! The simulator never builds those messages; it charges their transfer
//! time ([`NetworkModel`](crate::NetworkModel)) from the length of each
//! message's compact fixed-width encoding, which these functions compute.

/// One detected object in an upload: u32 detection index + 4×f64 box + f32
/// confidence + u8 size class, padded to a word boundary.
const OBJECT_RECORD_LEN: usize = 4 + 32 + 4 + 1 + 3;
/// Upload header: camera id, frame index, object count, checksum.
const UPLOAD_HEADER_LEN: usize = 4 + 8 + 4 + 8;
/// Assignment header: horizon, entry count, priority count, checksum.
const ASSIGNMENT_HEADER_LEN: usize = 8 + 4 + 4 + 8;

/// Bytes of a key-frame upload: one camera's list of `objects` detections.
pub(crate) fn upload_len(objects: usize) -> usize {
    UPLOAD_HEADER_LEN + objects * OBJECT_RECORD_LEN
}

/// Bytes of the central scheduler's reply for one horizon: one entry per
/// item of `owner_counts` (a u32 global object index, a u8 owner count and
/// a u32 per owner camera), then the latency-sorted camera priority of the
/// distributed stage, a u32 per camera.
pub(crate) fn assignment_len(
    owner_counts: impl IntoIterator<Item = usize>,
    priority_len: usize,
) -> usize {
    let entries: usize = owner_counts.into_iter().map(|n| 4 + 1 + 4 * n).sum();
    ASSIGNMENT_HEADER_LEN + entries + 4 * priority_len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkModel;

    #[test]
    fn upload_length_scales_with_objects() {
        assert_eq!(upload_len(0), UPLOAD_HEADER_LEN);
        assert_eq!(upload_len(5) - upload_len(0), 5 * OBJECT_RECORD_LEN);
    }

    #[test]
    fn assignment_length_counts_redundant_owners() {
        let single = assignment_len([1, 1], 2);
        let redundant = assignment_len([2, 2], 2);
        assert_eq!(redundant - single, 8);
        assert_eq!(assignment_len([], 0), ASSIGNMENT_HEADER_LEN);
        assert_eq!(
            assignment_len([2, 0, 1], 3),
            ASSIGNMENT_HEADER_LEN + (5 + 8) + 5 + (5 + 4) + 12
        );
    }

    #[test]
    fn upload_time_for_a_busy_frame_is_sub_frame_period() {
        // Even a 50-object scene uploads in well under the 100 ms frame
        // period on the paper's 20 Mbps uplink — communication is not the
        // bottleneck, which is why only DNN time is scheduled.
        let net = NetworkModel::default();
        assert!(net.uplink_ms(upload_len(50)) < 5.0);
    }
}
