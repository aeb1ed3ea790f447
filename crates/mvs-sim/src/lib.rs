//! Multi-camera world simulator and end-to-end pipeline runtime.
//!
//! Stands in for the paper's physical evaluation setup (the AI City
//! Challenge 2021 videos played on a five-board Jetson testbed) — see
//! DESIGN.md for the substitution argument. The crate provides:
//!
//! * [`World`] / [`Lane`] — vehicles on routes with car-following and
//!   traffic lights (Fig. 2 workload dynamics);
//! * [`CameraModel`] — static cameras with ground-plane pinhole projection
//!   and depth-order occlusion;
//! * [`Scenario`] — the paper's deployments S1/S2/S3 with the Table I
//!   device configurations;
//! * [`CorrespondenceData`] / [`TrainedAssociation`] — the half/half
//!   association-model training protocol;
//! * [`MaskPrecompute`] — distributed-stage masks (the SP baseline's
//!   offline allocation lives beside it);
//! * [`NetworkModel`] — the 20/100 Mbps camera↔scheduler link;
//! * [`FaultModel`] / [`ServeFaultModel`] — seeded camera-dropout and
//!   key-frame message-loss injection with timeout-plus-retry recovery,
//!   plus serve-level chaos (coordinator crashes, pipeline poison, pool
//!   degradation);
//! * [`run_pipeline`] — the full frame-by-frame system (Fig. 5) for every
//!   algorithm in the paper's comparison set.
//!
//! # Examples
//!
//! ```no_run
//! use mvs_sim::{run_pipeline, Algorithm, PipelineConfig, Scenario, ScenarioKind};
//!
//! let scenario = Scenario::new(ScenarioKind::S2);
//! let result = run_pipeline(&scenario, &PipelineConfig::paper_default(Algorithm::Balb));
//! println!("recall {:.3}, latency {:.1} ms", result.recall, result.mean_latency_ms);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod camera;
mod correspond;
mod faults;
mod masks;
mod messages;
mod network;
mod render;
mod response;
mod runtime;
mod scenario;
mod serve;
mod trajectory;
mod worker;
mod world;

pub use camera::CameraModel;
pub use correspond::{CorrespondenceData, PairLabels, TrainedAssociation};
pub use faults::{FaultModel, FaultModelError, PoolDegrade, ServeFaultError, ServeFaultModel};
pub use masks::MaskPrecompute;
pub use mvs_exec::resolve_threads;
pub use network::NetworkModel;
pub use render::render_ascii;
pub use response::{replay_response, QueuePolicy, ResponseStats};
pub use runtime::{
    run_pipeline, run_pipeline_traced, Algorithm, Deployment, OverheadModel, PipelineConfig,
    PipelineResult, PipelineStats, TenantPipeline,
};
pub use scenario::{CityConfig, Scenario, ScenarioKind};
pub use serve::{
    run_serve, run_serve_traced, AdmissionDecision, AdmissionTransition, DecisionCounts,
    IngestLane, ServeConfig, ServeConfigError, ServeLoop, ServeReport, ServeSnapshot, TenantReport,
    TransitionReason,
};
pub use trajectory::{FollowingModel, Route, SpawnConfig, TrafficLight};
pub use world::{Lane, World, WorldObject};
