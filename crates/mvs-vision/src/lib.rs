//! Vision substrate for multi-view scheduling.
//!
//! The paper runs YOLOv5 on NVIDIA Jetson boards; this crate replaces that
//! hardware-gated stack with a faithful simulation of the parts the
//! scheduler actually interacts with:
//!
//! * [`LatencyProfile`] — the offline-profiled execution-time tables
//!   (`t_i^full`, `t_i^s`, batch limits `B_i^s`) that the paper feeds into
//!   BALB. Profiles with realistic Jetson Nano / TX2 / Xavier magnitudes
//!   are built in.
//! * [`SizeCounts`] / [`batches_needed`] — greedy same-size batching and
//!   the camera-latency arithmetic of Definition 1.
//! * [`SimulatedDetector`] — a detection-quality model standing in for the
//!   DNN: per-object miss probability (small objects are harder), bounding
//!   box localization jitter, and false positives.
//! * [`FlowTracker`] + [`FlowField`] — optical-flow tracking-by-detection:
//!   flow-predicted search regions, Hungarian association, track lifecycle.
//! * [`slice_regions`] — tracking-based image slicing with size
//!   quantization (Sec. II-B).
//! * [`NewRegionFinder`] — moving-pixel clusters that belong to no
//!   existing track, used to catch newly appearing objects mid-horizon.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batching;
mod detector;
mod latency;
mod new_region;
mod optical_flow;
#[cfg(test)]
mod scalar;
mod slicing;
mod tracker;

pub use batching::{batches_needed, SizeCounts};
pub use detector::{Detection, DetectionModel, GroundTruthObject, SimulatedDetector};
pub use latency::{DeviceKind, LatencyProfile, SizeProfile};
pub use new_region::NewRegionFinder;
pub use optical_flow::{FlowField, FlowVector};
pub use slicing::{slice_regions, slice_regions_into, RegionTask};
pub use tracker::{AssociationOutcome, FlowTracker, Track, TrackId, TrackerConfig};
