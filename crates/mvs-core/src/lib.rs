//! The Multi-View Scheduling (MVS) problem and the Batch-Aware
//! Latency-Balanced (BALB) scheduler — the paper's core contribution.
//!
//! A set of cameras with heterogeneous GPUs and partially overlapping
//! fields of view must track a set of objects. Each object can be tracked
//! by any camera in its *coverage set*; tracking costs a partial-frame DNN
//! inspection whose latency depends on the object's quantized crop size and
//! the camera's device profile, with same-size crops batchable on the GPU.
//! The MVS problem (Definition 3) asks for an object→camera assignment
//! minimizing the *maximum* per-camera latency; it is strongly NP-hard
//! (Claim 1, by reduction from bin packing).
//!
//! This crate provides:
//!
//! * [`MvsProblem`] — the task model (Sec. III-A) plus a random-instance
//!   generator for benchmarks;
//! * [`Assignment`] — feasible assignments (Definition 2) and the camera /
//!   system latency arithmetic (Definition 1);
//! * [`balb_central`] — Algorithm 1, the central-stage scheduler run at
//!   every key frame;
//! * [`BalbSolver`] — the same pass on buffers reused across key frames,
//!   bit-equal to [`balb_central`];
//! * [`OverlapGraph`] — which cameras can co-observe — and, over its
//!   components ([`ShardPlan`]), [`balb_sharded`]: one independent pass per
//!   component, bit-equal to [`balb_central`] (no pipeline calls it; it is
//!   the executable form of that decomposition argument);
//! * [`CameraMask`] / [`DistributedPolicy`] — the distributed stage run at
//!   every regular frame, deciding new-object and takeover responsibility
//!   from synchronized cell masks without cross-camera communication;
//! * [`baselines`] — Full, BALB-Ind, and static partitioning comparators;
//! * [`extensions`] — the paper's Sec. V future-work ideas, implemented:
//!   redundant multi-camera assignment and the total-workload objective;
//! * [`exact`] — a branch-and-bound solver for small instances, used to
//!   measure BALB's approximation quality.
//!
//! # Examples
//!
//! ```
//! use mvs_core::{balb_central, MvsProblem, ProblemConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let problem = MvsProblem::random(&mut rng, 3, 12, &ProblemConfig::default());
//! let schedule = balb_central(&problem);
//! assert!(schedule.assignment.is_feasible(&problem));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod balb;
pub mod baselines;
mod distributed;
pub mod exact;
pub mod extensions;
mod ids;
mod mask;
mod problem;
mod shard;

pub use assignment::Assignment;
pub use balb::{balb_central, BalbSchedule, BalbSolver};
pub use distributed::{scan_takeovers_into, DistributedPolicy, ShadowTrack, ShadowVerdict};
pub use ids::{CameraId, ObjectId};
pub use mask::CameraMask;
pub use problem::{CameraInfo, CameraSubset, MvsProblem, ObjectInfo, ProblemConfig, ProblemError};
pub use shard::{balb_sharded, OverlapGraph, ShardPlan};
