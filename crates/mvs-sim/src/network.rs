//! Camera↔scheduler network model.
//!
//! The paper's testbed connects the Jetson boards to the central scheduler
//! over a wired link with 100 Mbps downlink and 20 Mbps uplink. Cameras
//! upload detected-object lists at key frames and receive assignments back
//! (their lengths come from the `messages` module); this module turns a
//! length into a transfer time so the Table II central-stage overhead
//! includes communication.

use serde::{Deserialize, Serialize};

/// A symmetric-latency, asymmetric-bandwidth link model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Camera → scheduler bandwidth, megabits per second.
    pub uplink_mbps: f64,
    /// Scheduler → camera bandwidth, megabits per second.
    pub downlink_mbps: f64,
    /// One-way propagation + processing latency, ms.
    pub one_way_ms: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        // The paper's testbed: 100 Mbps down, 20 Mbps up; wired LAN RTT.
        NetworkModel {
            uplink_mbps: 20.0,
            downlink_mbps: 100.0,
            one_way_ms: 0.5,
        }
    }
}

impl NetworkModel {
    /// Time to upload `bytes` from a camera to the scheduler, ms.
    pub(crate) fn uplink_ms(&self, bytes: usize) -> f64 {
        self.one_way_ms + (bytes as f64 * 8.0) / (self.uplink_mbps * 1e6) * 1e3
    }

    /// Time to push `bytes` from the scheduler to a camera, ms.
    pub(crate) fn downlink_ms(&self, bytes: usize) -> f64 {
        self.one_way_ms + (bytes as f64 * 8.0) / (self.downlink_mbps * 1e6) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uplink_is_slower_than_downlink() {
        let n = NetworkModel::default();
        let bytes = 2_096;
        assert!(n.uplink_ms(bytes) > n.downlink_ms(bytes));
    }

    #[test]
    fn times_scale_with_size() {
        let n = NetworkModel::default();
        assert!(n.uplink_ms(10_000) > n.uplink_ms(100));
        // 20 Mbps = 2.5 MB/s → 25 kB ≈ 10 ms + latency.
        let ms = n.uplink_ms(25_000);
        assert!((ms - (0.5 + 10.0)).abs() < 0.1, "got {ms}");
    }

    #[test]
    fn small_message_still_pays_latency() {
        let n = NetworkModel::default();
        let ms = n.uplink_ms(96);
        assert!(ms > n.one_way_ms);
        assert!(ms < 1.0);
    }
}
