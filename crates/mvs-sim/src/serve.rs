//! Multi-tenant serving front-end: an event loop multiplexing N tenant
//! deployments onto one scheduler core with latest-frame-wins backpressure
//! and load-shedding admission control.
//!
//! The paper evaluates one deployment per run; a production service runs
//! many deployments ("tenants") against shared compute. This module builds
//! that tier on top of [`TenantPipeline`]:
//!
//! * [`IngestLane`] — a depth-1 per-camera frame queue. A frame arriving
//!   while the core is busy *replaces* the waiting frame (the standard
//!   live-analytics policy: stale frames are worthless — cf.
//!   [`QueuePolicy::DropToLatest`](crate::QueuePolicy) for the
//!   single-camera replay model). Every displacement is counted.
//! * [`ServeLoop`] / [`run_serve`] — a discrete-event loop on a virtual
//!   microsecond clock. The scheduler core is a single server: it serves
//!   one tenant-frame at a time, taking the frame's *modeled* service cost
//!   (slowest camera's DNN latency plus the amortized central-stage
//!   share), so the whole simulation is a deterministic function of its
//!   [`ServeConfig`] at any thread count.
//! * Admission control — before serving, each tenant's steady-state load
//!   is measured over a pilot horizon. When the aggregate exceeds the
//!   configured core budget, the service degrades the tenant along a
//!   ladder: shed redundant assignments first, then process only every
//!   d-th frame, and reject the tenant only when even that cannot fit.
//!   Admission is *re-evaluated* mid-run whenever capacity shifts — a
//!   tenant is quarantined or re-admitted, the pool degrades, a tenant
//!   finishes its capture window, or the coordinator recovers from a
//!   crash — and every decision change is recorded as an
//!   [`AdmissionTransition`].
//! * Crash recovery — with snapshotting enabled
//!   ([`ServeConfig::snapshot_every_horizons`]), the loop checkpoints a
//!   serializable [`ServeSnapshot`] of all per-tenant state on a key-frame
//!   cadence. A coordinator crash (scheduled via
//!   [`ServeFaultModel::crash_at_us`], or driven externally through
//!   [`ServeLoop::recover`]) restores the latest snapshot and replays each
//!   tenant pipeline from its *replay recipe* — the deterministic call
//!   sequence that produced it — so the recovered run satisfies the same
//!   frame-conservation and lane invariants as an uninterrupted one.
//!   Recovery cost and the replayed capture gap are counted in
//!   [`RecoveryCounters`].
//! * Chaos — a seeded [`ServeFaultModel`] additionally poisons individual
//!   pipeline steps (the panic is caught, the tenant quarantined and later
//!   re-admitted through the ladder) and degrades the compute pool
//!   (capacity drops, service inflation) at scheduled virtual times. An
//!   inactive model leaves the run bitwise identical to a chaos-free one.
//!
//! Dropped and policy-skipped frames still advance the tenant's world (real
//! time passed); the pipeline sees them as [`TenantPipeline::skip`] calls,
//! so trackers coast across gaps exactly like they do across lost key-frame
//! round trips.

use std::error::Error;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use mvs_metrics::{DegradationCounters, RecoveryCounters, Summary};
use mvs_trace::{Trace, TraceRecorder};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::faults::{FaultModelError, ServeFaultError, ServeFaultModel};
use crate::runtime::{Algorithm, PipelineConfig, PoisonPanic, TenantPipeline};
use crate::scenario::{CityConfig, Scenario};
use crate::FaultModel;

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
    pub fn clear_pending(&mut self) {
        if self.pending.take().is_some() {
            self.dropped += 1;
        }
    }

    /// The waiting frame without consuming it.
    #[must_use]
    pub fn peek(&self) -> Option<u64> {
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

/// What admission control decided for one tenant, in degradation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionDecision {
    /// Served at its requested configuration.
    Admitted,
    /// Served with redundancy shed to 1 (the cheapest degradation: extra
    /// assignment copies go first, frames are untouched).
    ShedRedundancy,
    /// Served at reduced rate: only every `keep_every`-th captured frame
    /// is offered to the core (redundancy was shed first if it had any).
    Degraded {
        /// Process one frame in this many.
        keep_every: u64,
    },
    /// Not served: even the deepest degradation rung did not fit the
    /// remaining core budget.
    Rejected,
    /// Temporarily not served: the tenant's pipeline panicked and the
    /// tenant sits out a quarantine window before re-admission through
    /// the ladder. Frames captured while quarantined are policy-skipped.
    Quarantined,
}

/// Why an admission decision changed mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransitionReason {
    /// The tenant's pipeline panicked and was isolated.
    Quarantine,
    /// A quarantine window expired and the tenant was re-piloted through
    /// the admission ladder.
    Readmission,
    /// The compute pool degraded (capacity drop or service inflation).
    PoolDegrade,
    /// A tenant captured its last frame, freeing its capacity for the
    /// tenants still running.
    TenantFinished,
    /// The coordinator recovered from a crash and re-evaluated the mix.
    Recovery,
}

/// One mid-run admission change: which tenant moved between rungs, when,
/// and why. The serve report records every transition in event order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionTransition {
    /// Virtual time of the change, µs.
    pub at_us: u64,
    /// Tenant index.
    pub tenant: usize,
    /// Rung before the change.
    pub from: AdmissionDecision,
    /// Rung after the change.
    pub to: AdmissionDecision,
    /// What triggered the re-evaluation.
    pub reason: TransitionReason,
}

/// Configuration of one [`run_serve`] simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Number of tenant deployments.
    pub tenants: usize,
    /// Cameras per tenant (each tenant is an independently seeded city
    /// deployment of this size).
    pub cameras_per_tenant: usize,
    /// Capture rate of every tenant, frames per second.
    pub fps: f64,
    /// Serving time simulated after admission, seconds of virtual time.
    pub duration_s: f64,
    /// Provisioned compute, in cores (1.0 = one core's worth of modeled
    /// milliseconds per millisecond). The serving core processes frames at
    /// this aggregate speed, and admission control degrades tenants until
    /// the aggregate pilot load fits the same budget — so an admitted mix
    /// keeps long-run utilization at or below one.
    pub capacity_cores: f64,
    /// Base seed; tenant `t` runs scenario and pipeline seed `seed + t`.
    pub seed: u64,
    /// Worker threads per pipeline step (0 = automatic). Results are
    /// bitwise identical at any value.
    pub threads: usize,
    /// Requested redundancy degree per tenant.
    pub redundancy: usize,
    /// City traffic intensity multiplier.
    pub intensity: f64,
    /// Association-model training window per tenant, seconds.
    pub train_s: f64,
    /// Fault injection applied to every tenant.
    pub faults: FaultModel,
    /// Deepest frame-dropping rung admission control may assign before
    /// rejecting a tenant (`keep_every` never exceeds this).
    pub max_keep_every: u64,
    /// Solve key frames with `balb_sharded` ([`PipelineConfig::shard_solver`]).
    pub shard_solver: bool,
    /// Overlap each tenant's central solve with uplink-leg encoding on key
    /// frames (see [`PipelineConfig::pipelined`]). Semantically a no-op:
    /// reports are bitwise identical with it on or off.
    #[serde(default)]
    pub pipelined: bool,
    /// Serve-level chaos schedule: coordinator crashes, pipeline poison,
    /// and pool degradation. Inactive by default.
    #[serde(default)]
    pub chaos: ServeFaultModel,
    /// Checkpoint cadence: take a [`ServeSnapshot`] every this many
    /// scheduling horizons of virtual time (0 = snapshotting disabled,
    /// the default). Scheduled crashes require a non-zero cadence.
    /// Snapshotting never changes results: a fault-free run with it
    /// enabled is bitwise identical to one without.
    #[serde(default)]
    pub snapshot_every_horizons: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tenants: 4,
            cameras_per_tenant: 8,
            fps: 10.0,
            duration_s: 30.0,
            capacity_cores: 4.0,
            seed: 2022,
            threads: 0,
            redundancy: 1,
            intensity: 1.0,
            train_s: 20.0,
            faults: FaultModel::none(),
            max_keep_every: 4,
            shard_solver: false,
            pipelined: false,
            chaos: ServeFaultModel::none(),
            snapshot_every_horizons: 0,
        }
    }
}

/// Why a [`ServeConfig`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeConfigError {
    /// `tenants` is zero.
    NoTenants,
    /// `cameras_per_tenant` is zero.
    NoCameras,
    /// `fps` is non-positive or non-finite.
    BadFps {
        /// The rejected value.
        value: f64,
    },
    /// `duration_s` is negative or non-finite.
    BadDuration {
        /// The rejected value.
        value: f64,
    },
    /// `capacity_cores` is non-positive or non-finite.
    BadCapacity {
        /// The rejected value.
        value: f64,
    },
    /// `max_keep_every` is zero (the ladder needs at least rung 1).
    ZeroMaxKeepEvery,
    /// `redundancy` is zero.
    ZeroRedundancy,
    /// The per-tenant fault model is inconsistent.
    Faults(FaultModelError),
    /// The serve-level chaos schedule is inconsistent.
    Chaos(ServeFaultError),
    /// Crashes are scheduled but snapshotting is disabled
    /// (`snapshot_every_horizons == 0`), so there would be nothing to
    /// recover from.
    CrashWithoutSnapshots,
    /// A snapshot passed to [`ServeLoop::recover`] describes a different
    /// tenant count than the configuration.
    SnapshotMismatch {
        /// Tenants in the configuration.
        expected: usize,
        /// Tenants in the snapshot.
        got: usize,
    },
}

impl fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeConfigError::NoTenants => write!(f, "serve needs at least one tenant"),
            ServeConfigError::NoCameras => write!(f, "tenants need at least one camera"),
            ServeConfigError::BadFps { value } => {
                write!(f, "fps must be finite and positive, got {value}")
            }
            ServeConfigError::BadDuration { value } => {
                write!(f, "duration must be finite and non-negative, got {value}")
            }
            ServeConfigError::BadCapacity { value } => {
                write!(f, "capacity must be finite and positive, got {value}")
            }
            ServeConfigError::ZeroMaxKeepEvery => write!(f, "max_keep_every must be >= 1"),
            ServeConfigError::ZeroRedundancy => write!(f, "redundancy must be at least one"),
            ServeConfigError::Faults(e) => write!(f, "fault model: {e}"),
            ServeConfigError::Chaos(e) => write!(f, "chaos schedule: {e}"),
            ServeConfigError::CrashWithoutSnapshots => write!(
                f,
                "crashes are scheduled but snapshotting is disabled \
                 (set snapshot_every_horizons >= 1)"
            ),
            ServeConfigError::SnapshotMismatch { expected, got } => write!(
                f,
                "snapshot describes {got} tenants but the configuration has {expected}"
            ),
        }
    }
}

impl Error for ServeConfigError {}

impl ServeConfig {
    /// Checks the configuration, returning the first violated constraint.
    /// [`run_serve`] panics on the same conditions; the CLI validates
    /// first so a bad flag surfaces as a typed error instead.
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        if self.tenants == 0 {
            return Err(ServeConfigError::NoTenants);
        }
        if self.cameras_per_tenant == 0 {
            return Err(ServeConfigError::NoCameras);
        }
        if !self.fps.is_finite() || self.fps <= 0.0 {
            return Err(ServeConfigError::BadFps { value: self.fps });
        }
        if !self.duration_s.is_finite() || self.duration_s < 0.0 {
            return Err(ServeConfigError::BadDuration {
                value: self.duration_s,
            });
        }
        if !self.capacity_cores.is_finite() || self.capacity_cores <= 0.0 {
            return Err(ServeConfigError::BadCapacity {
                value: self.capacity_cores,
            });
        }
        if self.max_keep_every == 0 {
            return Err(ServeConfigError::ZeroMaxKeepEvery);
        }
        if self.redundancy == 0 {
            return Err(ServeConfigError::ZeroRedundancy);
        }
        self.faults
            .validate(self.cameras_per_tenant)
            .map_err(ServeConfigError::Faults)?;
        self.chaos.validate().map_err(ServeConfigError::Chaos)?;
        if !self.chaos.crash_at_us.is_empty() && self.snapshot_every_horizons == 0 {
            return Err(ServeConfigError::CrashWithoutSnapshots);
        }
        Ok(())
    }
}

/// Per-tenant outcome of a serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant index (also its seed offset).
    pub tenant: usize,
    /// What admission control decided (the rung at the end of the run).
    pub decision: AdmissionDecision,
    /// Steady-state core load measured over the pilot horizon, in cores,
    /// at the *served* configuration (after any shedding).
    pub pilot_load_cores: f64,
    /// Frames captured during the serving phase.
    pub captured: u64,
    /// Frames processed by the core.
    pub processed: u64,
    /// Frames displaced from the ingest lanes by a newer arrival
    /// (per-camera counters agree, so this is the per-camera count).
    pub queue_dropped: u64,
    /// Frames withheld by the admission policy (`keep_every` thinning and
    /// quarantine windows).
    pub policy_skipped: u64,
    /// Frames whose capture instants fell into a crash-recovery gap: the
    /// coordinator was down or replaying, so they were never offered.
    /// Every captured frame lands in exactly one bucket:
    /// `captured == processed + queue_dropped + policy_skipped + replayed`.
    #[serde(default)]
    pub replayed: u64,
    /// Deepest per-camera queue depth ever observed (bounded by 1).
    pub max_lane_depth: usize,
    /// End-to-end latency of processed frames (capture → completion),
    /// including queueing delay. `p99` is the headline tail metric.
    pub e2e_ms: Summary,
    /// Modeled service cost per processed frame.
    pub service_ms: Summary,
    /// Recall over the tenant's processed frames (skipped frames count
    /// their visible objects as missed, so dropping frames costs recall).
    /// Zero for a tenant that ends the run quarantined (its pipeline, and
    /// with it the recall series, was torn down). A re-admitted tenant
    /// reports recall over its rebuilt pipeline only.
    pub recall: f64,
    /// The tenant pipeline's degradation counters (faults + coasting).
    pub degradation: DegradationCounters,
}

/// Aggregate outcome of a [`run_serve`] simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// The configuration that produced this report.
    pub config: ServeConfig,
    /// Per-tenant outcomes, indexed by tenant.
    pub tenants: Vec<TenantReport>,
    /// Aggregate pilot load of the served (non-rejected) tenants, cores,
    /// as of the *last* admission evaluation (mid-run re-evaluations
    /// exclude tenants that already finished capturing).
    pub admitted_load_cores: f64,
    /// Frames captured across all served tenants.
    pub captured: u64,
    /// Frames processed across all served tenants.
    pub processed: u64,
    /// Frames dropped by backpressure across all served tenants.
    pub queue_dropped: u64,
    /// Frames withheld by admission policy across all served tenants.
    pub policy_skipped: u64,
    /// Frames lost to crash-recovery gaps across all served tenants.
    #[serde(default)]
    pub replayed: u64,
    /// `(queue_dropped + policy_skipped) / captured` — the headline drop
    /// rate (0.0 when nothing was captured).
    pub drop_rate: f64,
    /// End-to-end latency pooled over every served tenant.
    pub e2e_ms: Summary,
    /// Fraction of the serving window the core spent busy, of one core.
    pub core_utilization: f64,
    /// Tenants per admission outcome (the rung each ended the run on).
    pub decisions: DecisionCounts,
    /// Crash-recovery and chaos bookkeeping. All-zero for a chaos-free
    /// run without snapshotting.
    #[serde(default)]
    pub recovery: RecoveryCounters,
    /// Every mid-run admission change, in event order. Empty when nothing
    /// perturbed the admitted mix.
    #[serde(default)]
    pub transitions: Vec<AdmissionTransition>,
    /// Fraction of the serving window the coordinator was up:
    /// `1 - outage_us / serving_span`. 1.0 when no crash occurred (and
    /// for zero-length runs).
    #[serde(default)]
    pub availability: f64,
    /// End-to-end latency of frames processed *after* the first recovery,
    /// pooled over tenants — the post-recovery tail. Empty-summary when
    /// no crash occurred.
    #[serde(default)]
    pub post_recovery_e2e_ms: Summary,
}

/// How many tenants landed on each admission rung.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionCounts {
    /// Served as requested.
    pub admitted: usize,
    /// Served with redundancy shed.
    pub shed_redundancy: usize,
    /// Served with frame thinning.
    pub degraded: usize,
    /// Not served.
    pub rejected: usize,
    /// Ended the run inside a quarantine window.
    #[serde(default)]
    pub quarantined: usize,
}

impl DecisionCounts {
    fn count(&mut self, decision: AdmissionDecision) {
        match decision {
            AdmissionDecision::Admitted => self.admitted += 1,
            AdmissionDecision::ShedRedundancy => self.shed_redundancy += 1,
            AdmissionDecision::Degraded { .. } => self.degraded += 1,
            AdmissionDecision::Rejected => self.rejected += 1,
            AdmissionDecision::Quarantined => self.quarantined += 1,
        }
    }
}

/// The deterministic call sequence that produced a tenant pipeline: how
/// admission configured it and which serving frames it processed. A
/// [`TenantPipeline`] is a pure function of (scenario, config, pilot /
/// shed / step / skip sequence), so this recipe — not raw pipeline
/// state — is what a snapshot stores, and recovery *replays* it to
/// rebuild bitwise-identical pipeline state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PipelineRecipe {
    /// Whether admission shed redundancy after the first pilot.
    shed: bool,
    /// Serving-frame index the pipeline's capture clock is anchored at
    /// (0 for tenants built at admission; the re-admission frame for a
    /// pipeline rebuilt after quarantine).
    base: u64,
    /// Serving-frame indices processed by the core, in order.
    processed: Vec<u64>,
}

/// One tenant's checkpointed state inside a [`ServeSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TenantSnapshot {
    decision: AdmissionDecision,
    load_cores: f64,
    base_load_cores: f64,
    keep_every: u64,
    /// `None` for a quarantined tenant (its pipeline is gone).
    recipe: Option<PipelineRecipe>,
    lanes: Vec<IngestLane>,
    next_capture: u64,
    pending_since_us: u64,
    max_lane_depth: usize,
    policy_skipped: u64,
    replayed: u64,
    quarantined_until_us: Option<u64>,
    ever_served: bool,
    finished_noted: bool,
    e2e_ms: Vec<f64>,
    service_ms: Vec<f64>,
}

/// A serializable checkpoint of the whole serve loop: clock, accounting,
/// chaos-stream position, and per-tenant replay recipes. Produced by
/// [`ServeLoop::snapshot`] (and automatically on the
/// [`ServeConfig::snapshot_every_horizons`] cadence); consumed by
/// [`ServeLoop::recover`]. Restoring a snapshot and running to completion
/// yields bitwise the same report as the run that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSnapshot {
    taken_at_us: u64,
    busy_until_us: Option<u64>,
    core_busy_us: u64,
    admitted_load_cores: f64,
    capacity_factor: f64,
    service_inflation: f64,
    degrade_idx: usize,
    chaos_draws: u64,
    next_snapshot_us: Option<u64>,
    recovery: RecoveryCounters,
    transitions: Vec<AdmissionTransition>,
    post_recovery_e2e: Vec<f64>,
    tenants: Vec<TenantSnapshot>,
}

impl ServeSnapshot {
    /// Virtual time the snapshot was taken, µs.
    #[must_use]
    pub fn taken_at_us(&self) -> u64 {
        self.taken_at_us
    }
}

/// One tenant's live state inside the event loop.
struct Tenant {
    /// The tenant's deployment parameters (kept for pipeline rebuilds).
    city: CityConfig,
    pipe_config: PipelineConfig,
    /// `None` while quarantined (the panicked pipeline is torn down).
    pipeline: Option<TenantPipeline>,
    /// Replay recipe of the live pipeline (`None` while quarantined).
    recipe: Option<PipelineRecipe>,
    lanes: Vec<IngestLane>,
    decision: AdmissionDecision,
    /// Pilot-measured load at the served configuration, cores.
    load_cores: f64,
    /// Pilot-measured load before frame thinning (the ladder's rung-2
    /// input; re-evaluation re-fits from this).
    base_load_cores: f64,
    /// Process one captured frame in this many (1 = all).
    keep_every: u64,
    /// Pipeline capture index where the serving phase started (pilot
    /// frames live below it).
    serve_start: usize,
    /// Next serving-phase frame index to capture (0-based).
    next_capture: u64,
    /// Capture timestamp of the waiting frame, µs (valid while the lanes
    /// are non-empty).
    pending_since_us: u64,
    /// Virtual-time offset of this tenant's capture clock, µs.
    phase_us: u64,
    max_lane_depth: usize,
    policy_skipped: u64,
    /// Frames lost to crash-recovery gaps.
    replayed: u64,
    /// Quarantine expiry, when quarantined.
    quarantined_until_us: Option<u64>,
    /// Whether the tenant was ever served (drives captured-frame
    /// reporting; a never-admitted tenant reports zero captures).
    ever_served: bool,
    /// Whether the capture-window-finished transition already fired.
    finished_noted: bool,
    e2e_ms: Vec<f64>,
    service_ms: Vec<f64>,
}

impl Tenant {
    fn pending(&self) -> Option<u64> {
        self.lanes.first().and_then(IngestLane::peek)
    }

    /// Brings the pipeline's capture clock up to serving frame `frame`
    /// (exclusive), skipping everything in between (lane drops, policy
    /// thinning, and recovery gaps alike). No-op while quarantined.
    fn reconcile_skips(&mut self, frame: u64) {
        let Some(pipeline) = self.pipeline.as_mut() else {
            return;
        };
        let base = self.recipe.as_ref().map_or(0, |r| r.base);
        let target = frame.saturating_sub(base) as usize;
        while (pipeline.next_frame() - self.serve_start) < target {
            pipeline.skip();
        }
    }

    /// Captures this tenant's checkpointable state.
    fn snapshot(&self) -> TenantSnapshot {
        TenantSnapshot {
            decision: self.decision,
            load_cores: self.load_cores,
            base_load_cores: self.base_load_cores,
            keep_every: self.keep_every,
            recipe: self.recipe.clone(),
            lanes: self.lanes.clone(),
            next_capture: self.next_capture,
            pending_since_us: self.pending_since_us,
            max_lane_depth: self.max_lane_depth,
            policy_skipped: self.policy_skipped,
            replayed: self.replayed,
            quarantined_until_us: self.quarantined_until_us,
            ever_served: self.ever_served,
            finished_noted: self.finished_noted,
            e2e_ms: self.e2e_ms.clone(),
            service_ms: self.service_ms.clone(),
        }
    }

    /// Restores checkpointed state, rebuilding the pipeline by replaying
    /// its recipe (pilot, optional shed, then the exact skip/step
    /// sequence). Returns the number of frames replayed.
    fn restore(&mut self, ts: &TenantSnapshot, fps: f64, traced: bool) -> usize {
        self.decision = ts.decision;
        self.load_cores = ts.load_cores;
        self.base_load_cores = ts.base_load_cores;
        self.keep_every = ts.keep_every;
        self.recipe = ts.recipe.clone();
        self.lanes = ts.lanes.clone();
        self.next_capture = ts.next_capture;
        self.pending_since_us = ts.pending_since_us;
        self.max_lane_depth = ts.max_lane_depth;
        self.policy_skipped = ts.policy_skipped;
        self.replayed = ts.replayed;
        self.quarantined_until_us = ts.quarantined_until_us;
        self.ever_served = ts.ever_served;
        self.finished_noted = ts.finished_noted;
        self.e2e_ms = ts.e2e_ms.clone();
        self.service_ms = ts.service_ms.clone();
        self.pipeline = None;
        let Some(recipe) = self.recipe.clone() else {
            return 0;
        };
        let mut scenario = Scenario::city(&self.city);
        scenario.fps = fps;
        let mut pipeline = TenantPipeline::new(&scenario, &self.pipe_config);
        if traced {
            pipeline.enable_tracing();
        }
        // Re-run the pilot exactly as admission did, so the rebuilt
        // pipeline's RNG and world state line up with the original's.
        let _ = pilot_load(&mut pipeline, self.pipe_config.horizon, fps);
        if recipe.shed {
            pipeline.set_redundancy(1);
            let _ = pilot_load(&mut pipeline, self.pipe_config.horizon, fps);
        }
        self.serve_start = pipeline.next_frame();
        let mut replay_ms = 0.0;
        for &frame in &recipe.processed {
            let target = frame.saturating_sub(recipe.base) as usize;
            while (pipeline.next_frame() - self.serve_start) < target {
                pipeline.skip();
            }
            let cost = pipeline.step();
            if cost.is_finite() {
                replay_ms += cost;
            }
        }
        pipeline.note_recovery(replay_ms, recipe.processed.len());
        self.pipeline = Some(pipeline);
        recipe.processed.len()
    }
}

/// Measures one tenant's steady-state core load over a pilot horizon:
/// steps `horizon` frames back to back and averages the modeled service
/// cost. Returns (load in cores, mean service ms).
fn pilot_load(pipeline: &mut TenantPipeline, horizon: usize, fps: f64) -> (f64, f64) {
    let mut total_ms = 0.0;
    for _ in 0..horizon {
        let cost = pipeline.step();
        if cost.is_finite() {
            total_ms += cost;
        }
    }
    let mean_ms = total_ms / horizon.max(1) as f64;
    (mean_ms * fps / 1e3, mean_ms)
}

/// What one pass down the admission ladder produced.
struct LadderOutcome {
    decision: AdmissionDecision,
    keep_every: u64,
    /// Load at the served configuration (post-thinning), cores.
    load_cores: f64,
    /// Load before thinning (post-shedding), cores.
    base_load_cores: f64,
    shed: bool,
}

/// Walks one tenant down the admission ladder against `budget` spare
/// cores: admit, shed redundancy, thin frames, reject. `inflation`
/// scales the pilot load to the pool's current straggler factor (1.0
/// when healthy, which leaves the arithmetic bitwise identical to an
/// inflation-free build).
///
/// Takes the tenant's unconditional first pilot precomputed
/// (`first_load`): that pilot is budget-independent, so admission runs it
/// for many tenants in parallel and walks the (budget-accumulating)
/// ladder serially afterwards — bitwise the same arithmetic in the same
/// order as a fully serial admission. Any shed-triggered re-pilot is
/// budget-dependent and happens here, inside the serial walk.
#[allow(clippy::too_many_arguments)]
fn run_ladder_from_pilot(
    pipeline: &mut TenantPipeline,
    first_load: f64,
    horizon: usize,
    fps: f64,
    budget: f64,
    requested_redundancy: usize,
    max_keep_every: u64,
    inflation: f64,
) -> LadderOutcome {
    let mut load = first_load;
    let mut decision = AdmissionDecision::Admitted;
    let mut keep_every = 1u64;
    let mut shed = false;
    if load * inflation > budget && requested_redundancy > 1 && pipeline.redundancy() > 1 {
        // Rung 1: shed redundancy — extra assignment copies cost
        // compute without adding coverage of new objects.
        pipeline.set_redundancy(1);
        let repiloted = pilot_load(pipeline, horizon, fps);
        load = repiloted.0;
        decision = AdmissionDecision::ShedRedundancy;
        shed = true;
    }
    let base_load_cores = load;
    if load * inflation > budget {
        // Rung 2: thin frames — process one captured frame in d.
        let fits = (2..=max_keep_every).find(|&d| load * inflation / d as f64 <= budget);
        match fits {
            Some(d) => {
                decision = AdmissionDecision::Degraded { keep_every: d };
                keep_every = d;
                load /= d as f64;
            }
            None => decision = AdmissionDecision::Rejected,
        }
    }
    LadderOutcome {
        decision,
        keep_every,
        load_cores: load,
        base_load_cores,
        shed,
    }
}

/// Installs a process-wide panic hook that suppresses the default
/// "thread panicked" banner for [`PoisonPanic`] payloads only — those are
/// injected, caught, and accounted by the serve loop, so the banner would
/// be noise. Every other panic still reaches the previous hook.
fn install_poison_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<PoisonPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Runs the multi-tenant serving simulation. Deterministic for a fixed
/// config at any [`ServeConfig::threads`] value.
///
/// # Panics
///
/// Panics on nonsensical configuration — every condition
/// [`ServeConfig::validate`] rejects. Build a [`ServeLoop`] directly to
/// get the typed error instead.
pub fn run_serve(config: &ServeConfig) -> ServeReport {
    ServeLoop::new_inner(config, false)
        .unwrap_or_else(|e| panic!("invalid serve configuration: {e}"))
        .run()
}

/// Like [`run_serve`], but with structured tracing enabled on every
/// tenant pipeline. Returns one [`Trace`] per tenant (rejected tenants
/// trace their pilot horizon only; a tenant quarantined at the end of the
/// run yields an empty trace, its history having died with its
/// pipeline), in tenant order, so the caller can export each with its
/// tenant label (see [`Trace::prometheus_text_labeled`]).
///
/// # Panics
///
/// Same conditions as [`run_serve`].
pub fn run_serve_traced(config: &ServeConfig) -> (ServeReport, Vec<Trace>) {
    let served = ServeLoop::new_inner(config, true)
        .unwrap_or_else(|e| panic!("invalid serve configuration: {e}"));
    let (report, traces) = served.finish();
    (report, traces.expect("tracing was enabled"))
}

/// The multi-tenant serving event loop, steppable and checkpointable.
///
/// [`run_serve`] wraps the whole lifecycle; drive a `ServeLoop` directly
/// to pause mid-run ([`ServeLoop::run_until`]), checkpoint
/// ([`ServeLoop::snapshot`]), or resume a crashed coordinator from a
/// checkpoint ([`ServeLoop::recover`]). All time is virtual microseconds;
/// nothing here reads a wall clock, so every trajectory is a
/// deterministic function of the configuration.
pub struct ServeLoop {
    config: ServeConfig,
    traced: bool,
    /// Resolved pool lanes for tenant-parallel phases (admission pilots,
    /// restore, readmission rebuilds). Never snapshotted: recovery
    /// re-derives it from the config, so a checkpoint taken at one thread
    /// count restores identically at any other.
    threads: usize,
    interval_us: u64,
    frames_per_tenant: u64,
    /// Checkpoint period, µs (0 = snapshotting disabled).
    snapshot_period_us: u64,
    tenants: Vec<Tenant>,
    now_us: u64,
    busy_until_us: Option<u64>,
    core_busy_us: u64,
    admitted_load: f64,
    /// Pool health: provisioned capacity is scaled by this factor.
    capacity_factor: f64,
    /// Pool health: every modeled service time is scaled by this factor.
    service_inflation: f64,
    /// Serve-level chaos stream (dedicated stream, disjoint from the
    /// world, camera, and pipeline-fault streams).
    chaos_rng: ChaCha8Rng,
    /// Draws taken from `chaos_rng` so far (snapshots store this so
    /// recovery can re-wind the stream to the same position).
    chaos_draws: u64,
    /// Next unfired entry in `config.chaos.crash_at_us`.
    crash_idx: usize,
    /// Next unapplied entry in `config.chaos.degrades`.
    degrade_idx: usize,
    /// Next checkpoint instant, when snapshotting is enabled.
    next_snapshot_us: Option<u64>,
    /// The latest checkpoint (what a crash restores).
    last_snapshot: Option<ServeSnapshot>,
    recovery: RecoveryCounters,
    transitions: Vec<AdmissionTransition>,
    /// Crash instant of an in-progress recovery: set when a crash fires,
    /// cleared (into `recovery.recovery_us`) at the first post-recovery
    /// dispatch.
    recovering_since_us: Option<u64>,
    post_recovery_e2e: Vec<f64>,
}

impl ServeLoop {
    /// Builds the loop: validates the configuration, constructs and
    /// pilots every tenant, places each on the admission ladder, and —
    /// when snapshotting is enabled — takes the initial (time-zero)
    /// checkpoint.
    pub fn new(config: &ServeConfig) -> Result<ServeLoop, ServeConfigError> {
        ServeLoop::new_inner(config, false)
    }

    fn new_inner(config: &ServeConfig, traced: bool) -> Result<ServeLoop, ServeConfigError> {
        config.validate()?;
        let interval_us = (1e6 / config.fps).round() as u64;
        let frames_per_tenant = (config.duration_s * config.fps).round() as u64;

        // ---- Admission: build and pilot every tenant across the pool
        // (deployment construction and the unconditional first pilot are
        // budget-independent), then walk each down the ladder serially in
        // tenant order — the budget accumulates, and any shed-triggered
        // re-pilot happens inside that serial walk. Same arithmetic in the
        // same order as a fully serial admission, at any thread count.
        let threads = mvs_exec::resolve_threads(config.threads);
        let specs: Vec<(CityConfig, PipelineConfig)> = (0..config.tenants)
            .map(|t| {
                let city = CityConfig {
                    cameras: config.cameras_per_tenant,
                    seed: config.seed + t as u64,
                    intensity: config.intensity,
                };
                let pipe_config = PipelineConfig {
                    train_s: config.train_s,
                    seed: config.seed + t as u64,
                    threads: config.threads,
                    redundancy: config.redundancy,
                    measured_overheads: false,
                    faults: config.faults,
                    shard_solver: config.shard_solver,
                    pipelined: config.pipelined,
                    ..PipelineConfig::paper_default(Algorithm::Balb)
                };
                (city, pipe_config)
            })
            .collect();
        let horizon = specs.last().map_or(1, |(_, pc)| pc.horizon);
        let piloted: Vec<(TenantPipeline, f64)> =
            mvs_exec::pool().par_map(&specs, threads, |(city, pipe_config)| {
                let mut scenario = Scenario::city(city);
                scenario.fps = config.fps;
                let mut pipeline = TenantPipeline::new(&scenario, pipe_config);
                if traced {
                    pipeline.enable_tracing();
                }
                let (first_load, _) = pilot_load(&mut pipeline, pipe_config.horizon, config.fps);
                (pipeline, first_load)
            });

        let mut tenants: Vec<Tenant> = Vec::with_capacity(config.tenants);
        let mut admitted_load = 0.0f64;
        for (t, ((city, pipe_config), (mut pipeline, first_load))) in
            specs.into_iter().zip(piloted).enumerate()
        {
            let budget = config.capacity_cores - admitted_load;
            let outcome = run_ladder_from_pilot(
                &mut pipeline,
                first_load,
                pipe_config.horizon,
                config.fps,
                budget,
                config.redundancy,
                config.max_keep_every,
                1.0,
            );
            if outcome.decision != AdmissionDecision::Rejected {
                admitted_load += outcome.load_cores;
            }

            let serve_start = pipeline.next_frame();
            tenants.push(Tenant {
                city,
                pipe_config,
                pipeline: Some(pipeline),
                recipe: Some(PipelineRecipe {
                    shed: outcome.shed,
                    base: 0,
                    processed: Vec::new(),
                }),
                lanes: vec![IngestLane::new(); config.cameras_per_tenant],
                decision: outcome.decision,
                load_cores: outcome.load_cores,
                base_load_cores: outcome.base_load_cores,
                keep_every: outcome.keep_every,
                serve_start,
                next_capture: 0,
                pending_since_us: 0,
                // Stagger tenants across the capture interval so arrivals
                // do not all land on the same instant.
                phase_us: interval_us * t as u64 / config.tenants as u64,
                max_lane_depth: 0,
                policy_skipped: 0,
                replayed: 0,
                quarantined_until_us: None,
                ever_served: outcome.decision != AdmissionDecision::Rejected,
                finished_noted: false,
                e2e_ms: Vec::new(),
                service_ms: Vec::new(),
            });
        }

        let snapshot_period_us = if config.snapshot_every_horizons > 0 {
            (horizon as u64 * interval_us * config.snapshot_every_horizons).max(1)
        } else {
            0
        };
        let mut chaos_rng = ChaCha8Rng::seed_from_u64(config.chaos.seed);
        // Dedicated serve-chaos stream: disjoint from the world stream
        // (0), every camera stream (i + 1), and the pipeline-fault
        // stream (u64::MAX).
        chaos_rng.set_stream(u64::MAX - 1);
        let mut served = ServeLoop {
            config: config.clone(),
            traced,
            threads,
            interval_us,
            frames_per_tenant,
            snapshot_period_us,
            tenants,
            now_us: 0,
            busy_until_us: None,
            core_busy_us: 0,
            admitted_load,
            capacity_factor: 1.0,
            service_inflation: 1.0,
            chaos_rng,
            chaos_draws: 0,
            crash_idx: 0,
            degrade_idx: 0,
            next_snapshot_us: None,
            last_snapshot: None,
            recovery: RecoveryCounters::default(),
            transitions: Vec::new(),
            recovering_since_us: None,
            post_recovery_e2e: Vec::new(),
        };
        if snapshot_period_us > 0 {
            // The time-zero baseline (not counted in `snapshots_taken`:
            // that counter tracks cadence checkpoints during serving).
            served.next_snapshot_us = Some(snapshot_period_us);
            served.last_snapshot = Some(served.snapshot());
        }
        Ok(served)
    }

    /// Rebuilds a crashed coordinator from a checkpoint: validates the
    /// configuration against the snapshot, reconstructs every tenant
    /// pipeline by replaying its recipe, and positions the clock at
    /// `resume_at_us` (clamped to no earlier than the snapshot itself).
    /// Frames whose capture instants fall between the snapshot and the
    /// resume point are counted as replay loss, exactly as an in-run
    /// crash would count them.
    ///
    /// This is pure state reconstruction — it does *not* increment
    /// [`RecoveryCounters::restarts`] (scheduled in-run crashes do);
    /// resuming from the snapshot a run just took yields bitwise the
    /// run's own continuation.
    ///
    /// # Errors
    ///
    /// Everything [`ServeConfig::validate`] rejects, plus
    /// [`ServeConfigError::SnapshotMismatch`] when the snapshot's tenant
    /// count differs from the configuration's.
    pub fn recover(
        config: &ServeConfig,
        snapshot: &ServeSnapshot,
        resume_at_us: u64,
    ) -> Result<ServeLoop, ServeConfigError> {
        config.validate()?;
        if snapshot.tenants.len() != config.tenants {
            return Err(ServeConfigError::SnapshotMismatch {
                expected: config.tenants,
                got: snapshot.tenants.len(),
            });
        }
        let interval_us = (1e6 / config.fps).round() as u64;
        let frames_per_tenant = (config.duration_s * config.fps).round() as u64;
        // Skeleton tenants: deployment parameters only. `restore`
        // overwrites all live state and rebuilds the pipelines, so no
        // pilot runs here.
        let mut tenants: Vec<Tenant> = Vec::with_capacity(config.tenants);
        let mut horizon = 1usize;
        for t in 0..config.tenants {
            let city = CityConfig {
                cameras: config.cameras_per_tenant,
                seed: config.seed + t as u64,
                intensity: config.intensity,
            };
            let pipe_config = PipelineConfig {
                train_s: config.train_s,
                seed: config.seed + t as u64,
                threads: config.threads,
                redundancy: config.redundancy,
                measured_overheads: false,
                faults: config.faults,
                shard_solver: config.shard_solver,
                pipelined: config.pipelined,
                ..PipelineConfig::paper_default(Algorithm::Balb)
            };
            horizon = pipe_config.horizon;
            tenants.push(Tenant {
                city,
                pipe_config,
                pipeline: None,
                recipe: None,
                lanes: Vec::new(),
                decision: AdmissionDecision::Rejected,
                load_cores: 0.0,
                base_load_cores: 0.0,
                keep_every: 1,
                serve_start: 0,
                next_capture: 0,
                pending_since_us: 0,
                phase_us: interval_us * t as u64 / config.tenants as u64,
                max_lane_depth: 0,
                policy_skipped: 0,
                replayed: 0,
                quarantined_until_us: None,
                ever_served: false,
                finished_noted: false,
                e2e_ms: Vec::new(),
                service_ms: Vec::new(),
            });
        }
        let snapshot_period_us = if config.snapshot_every_horizons > 0 {
            (horizon as u64 * interval_us * config.snapshot_every_horizons).max(1)
        } else {
            0
        };
        let chaos_rng = ChaCha8Rng::seed_from_u64(config.chaos.seed);
        let mut served = ServeLoop {
            config: config.clone(),
            traced: false,
            threads: mvs_exec::resolve_threads(config.threads),
            interval_us,
            frames_per_tenant,
            snapshot_period_us,
            tenants,
            now_us: 0,
            busy_until_us: None,
            core_busy_us: 0,
            admitted_load: 0.0,
            capacity_factor: 1.0,
            service_inflation: 1.0,
            chaos_rng,
            chaos_draws: 0,
            crash_idx: 0,
            degrade_idx: 0,
            next_snapshot_us: None,
            last_snapshot: None,
            recovery: RecoveryCounters::default(),
            transitions: Vec::new(),
            recovering_since_us: None,
            post_recovery_e2e: Vec::new(),
        };
        let resume = resume_at_us.max(snapshot.taken_at_us);
        served.restore(snapshot, resume);
        served.last_snapshot = Some(snapshot.clone());
        Ok(served)
    }

    /// The loop's virtual clock, µs since the start of serving.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Checkpoints the loop's full live state. Cheap relative to a run:
    /// pipelines are captured as replay recipes, not world state.
    #[must_use]
    pub fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            taken_at_us: self.now_us,
            busy_until_us: self.busy_until_us,
            core_busy_us: self.core_busy_us,
            admitted_load_cores: self.admitted_load,
            capacity_factor: self.capacity_factor,
            service_inflation: self.service_inflation,
            degrade_idx: self.degrade_idx,
            chaos_draws: self.chaos_draws,
            next_snapshot_us: self.next_snapshot_us,
            recovery: self.recovery,
            transitions: self.transitions.clone(),
            post_recovery_e2e: self.post_recovery_e2e.clone(),
            tenants: self.tenants.iter().map(Tenant::snapshot).collect(),
        }
    }

    /// Advances the loop until the virtual clock reaches `until_us` (or
    /// the run drains early). The loop stops exactly at `until_us` unless
    /// a crash outage straddles it, in which case it stops at the
    /// post-outage resume point.
    pub fn run_until(&mut self, until_us: u64) {
        self.advance(Some(until_us));
    }

    /// Runs to completion and assembles the report.
    #[must_use]
    pub fn run(self) -> ServeReport {
        self.finish().0
    }

    fn finish(mut self) -> (ServeReport, Option<Vec<Trace>>) {
        self.advance(None);
        self.into_report()
    }

    /// The event loop: each iteration handles everything due at `now`
    /// (chaos first, then bookkeeping, arrivals, at most one dispatch)
    /// and then advances the clock to the next event. Stop points only
    /// ever *pause* the loop at instants where nothing would have been
    /// dispatched anyway — arrivals land exactly at capture instants and
    /// the core drains before the clock moves — so extra stops (snapshot
    /// cadence, `until`) never change results.
    fn advance(&mut self, until: Option<u64>) {
        loop {
            if until.is_some_and(|u| self.now_us >= u) {
                return;
            }
            // Coordinator crash due: lose everything since the last
            // checkpoint and restore.
            if let Some(&crash_at) = self.config.chaos.crash_at_us.get(self.crash_idx) {
                if crash_at <= self.now_us {
                    self.crash(crash_at);
                    continue;
                }
            }
            // Pool degradation due: apply the latest scheduled factors
            // wholesale, then re-fit the admitted mix to the new pool.
            let mut degraded = false;
            while self.degrade_idx < self.config.chaos.degrades.len()
                && self.config.chaos.degrades[self.degrade_idx].at_us <= self.now_us
            {
                let d = self.config.chaos.degrades[self.degrade_idx];
                self.capacity_factor = d.capacity_factor;
                self.service_inflation = d.service_inflation;
                self.degrade_idx += 1;
                degraded = true;
            }
            if degraded {
                self.reevaluate(TransitionReason::PoolDegrade);
            }
            self.readmit_due();
            self.take_due_snapshot();
            if self.deliver_arrivals() {
                self.reevaluate(TransitionReason::TenantFinished);
            }
            if self.try_dispatch() {
                continue;
            }
            if !self.advance_clock(until) {
                return; // drained: no arrivals, core idle
            }
        }
    }

    /// Delivers every arrival due by `now`, in tenant order. Returns
    /// whether a tenant just captured its last frame while another
    /// non-rejected tenant is still capturing (the trigger for the
    /// finished-tenant admission re-evaluation).
    fn deliver_arrivals(&mut self) -> bool {
        let mut newly_finished = false;
        for tenant in self.tenants.iter_mut() {
            if tenant.decision == AdmissionDecision::Rejected {
                continue;
            }
            while tenant.next_capture < self.frames_per_tenant {
                let frame = tenant.next_capture;
                let capture_us = tenant.phase_us + frame * self.interval_us;
                if capture_us > self.now_us {
                    break;
                }
                tenant.next_capture += 1;
                if tenant.next_capture == self.frames_per_tenant && !tenant.finished_noted {
                    tenant.finished_noted = true;
                    newly_finished = true;
                }
                if tenant.decision == AdmissionDecision::Quarantined {
                    tenant.policy_skipped += 1;
                    continue;
                }
                if !frame.is_multiple_of(tenant.keep_every) {
                    tenant.policy_skipped += 1;
                    continue;
                }
                for lane in tenant.lanes.iter_mut() {
                    lane.offer(frame);
                }
                tenant.pending_since_us = capture_us;
                let depth = tenant
                    .lanes
                    .iter()
                    .map(IngestLane::depth)
                    .max()
                    .unwrap_or(0);
                tenant.max_lane_depth = tenant.max_lane_depth.max(depth);
            }
        }
        newly_finished
            && self.tenants.iter().any(|t| {
                t.decision != AdmissionDecision::Rejected && t.next_capture < self.frames_per_tenant
            })
    }

    /// Serves at most one waiting frame (FIFO over waiting frames: the
    /// tenant whose pending frame has waited longest, ties to the lowest
    /// tenant id). Returns whether anything happened.
    fn try_dispatch(&mut self) -> bool {
        if self.busy_until_us.is_some_and(|b| b > self.now_us) {
            return false;
        }
        let next = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.pending().is_some())
            .min_by_key(|(id, t)| (t.pending_since_us, *id))
            .map(|(id, _)| id);
        let Some(id) = next else {
            return false;
        };
        // Chaos: decide poison *before* touching the frame, so the
        // poisoned frame stays pending and is accounted as a lane drop
        // when the quarantine clears the lanes.
        if self.config.chaos.poison_per_frame > 0.0 {
            self.chaos_draws += 1;
            if self.chaos_rng.gen::<f64>() < self.config.chaos.poison_per_frame {
                self.poison(id);
                return true;
            }
        }
        let tenant = &mut self.tenants[id];
        let frame = tenant.lanes[0].take().expect("pending frame");
        for lane in tenant.lanes.iter_mut().skip(1) {
            let same = lane.take();
            debug_assert_eq!(same, Some(frame), "lanes advance in lockstep");
        }
        tenant.reconcile_skips(frame);
        let pipeline = tenant
            .pipeline
            .as_mut()
            .expect("a tenant with pending frames has a live pipeline");
        let raw_ms = pipeline.step();
        if let Some(recipe) = tenant.recipe.as_mut() {
            recipe.processed.push(frame);
        }
        // `* 1.0` and `/ (x * 1.0)` are bitwise identities, so a healthy
        // pool leaves these exactly as an inflation-free build computes
        // them.
        let service_ms = raw_ms * self.service_inflation;
        // The provisioned pool serves `capacity_cores * capacity_factor`
        // modeled milliseconds per wall millisecond.
        let service_us = if service_ms.is_finite() && service_ms >= 0.0 {
            (service_ms * 1e3 / (self.config.capacity_cores * self.capacity_factor)).round() as u64
        } else {
            // A poisoned overhead model must not wedge the loop; the
            // pipeline already counted the sample as rejected.
            0
        };
        let done_us = self.now_us + service_us;
        self.busy_until_us = Some(done_us);
        self.core_busy_us += service_us;
        tenant.service_ms.push(service_ms);
        let e2e = (done_us - tenant.pending_since_us) as f64 / 1e3;
        tenant.e2e_ms.push(e2e);
        if let Some(crashed_at) = self.recovering_since_us.take() {
            // First dispatch after a crash: recovery is complete.
            self.recovery.recovery_us += self.now_us.saturating_sub(crashed_at);
        }
        if self.recovery.restarts > 0 {
            self.post_recovery_e2e.push(e2e);
        }
        true
    }

    /// Poisons tenant `id`'s next pipeline step and drives it: the step
    /// panics, the panic is caught and verified to be the injected
    /// [`PoisonPanic`], and the tenant is quarantined. Any *other* panic
    /// payload is resumed — chaos isolation must not mask real bugs.
    fn poison(&mut self, id: usize) {
        install_poison_hook();
        let tenant = &mut self.tenants[id];
        let pipeline = tenant
            .pipeline
            .as_mut()
            .expect("a tenant with pending frames has a live pipeline");
        pipeline.poison_next_step();
        match panic::catch_unwind(AssertUnwindSafe(|| pipeline.step())) {
            Ok(_) => unreachable!("an armed pipeline step must panic"),
            Err(payload) => {
                if payload.downcast_ref::<PoisonPanic>().is_none() {
                    panic::resume_unwind(payload);
                }
            }
        }
        self.recovery.poisoned_steps += 1;
        self.quarantine(id);
    }

    /// Isolates tenant `id` after a pipeline panic: tears the pipeline
    /// down, drops its waiting frame (counted as a lane drop), marks the
    /// tenant [`AdmissionDecision::Quarantined`] until the chaos model's
    /// quarantine window expires, and re-fits the remaining mix to the
    /// freed capacity.
    fn quarantine(&mut self, id: usize) {
        let until = self.now_us + self.config.chaos.quarantine_us;
        let tenant = &mut self.tenants[id];
        let from = tenant.decision;
        tenant.pipeline = None;
        tenant.recipe = None;
        for lane in tenant.lanes.iter_mut() {
            lane.clear_pending();
        }
        tenant.decision = AdmissionDecision::Quarantined;
        tenant.quarantined_until_us = Some(until);
        tenant.load_cores = 0.0;
        self.recovery.quarantines += 1;
        self.transitions.push(AdmissionTransition {
            at_us: self.now_us,
            tenant: id,
            from,
            to: AdmissionDecision::Quarantined,
            reason: TransitionReason::Quarantine,
        });
        self.reevaluate(TransitionReason::Quarantine);
    }

    /// Re-admits every tenant whose quarantine window has expired. The
    /// fresh-deployment rebuilds and their budget-independent first pilots
    /// fan out across the pool; the ladder walks stay serial in id order
    /// (each readmission's load shrinks the next one's budget), so the
    /// outcome is bitwise the per-id serial sequence.
    fn readmit_due(&mut self) {
        let due: Vec<usize> = (0..self.tenants.len())
            .filter(|&id| {
                self.tenants[id]
                    .quarantined_until_us
                    .is_some_and(|q| q <= self.now_us)
            })
            .collect();
        if due.is_empty() {
            return;
        }
        let fps = self.config.fps;
        let traced = self.traced;
        let tenants = &self.tenants;
        let rebuilt: Vec<(TenantPipeline, f64)> =
            mvs_exec::pool().par_map(&due, self.threads, |&id| {
                let tenant = &tenants[id];
                let mut scenario = Scenario::city(&tenant.city);
                scenario.fps = fps;
                let mut pipeline = TenantPipeline::new(&scenario, &tenant.pipe_config);
                if traced {
                    pipeline.enable_tracing();
                }
                let (first_load, _) = pilot_load(&mut pipeline, tenant.pipe_config.horizon, fps);
                (pipeline, first_load)
            });
        for (&id, (pipeline, first_load)) in due.iter().zip(rebuilt) {
            self.readmit(id, pipeline, first_load);
        }
    }

    /// Re-admits tenant `id` after quarantine, given its freshly rebuilt
    /// pipeline (the tenant redeploys — its world restarts from scratch)
    /// with the first pilot already taken: walks it down the admission
    /// ladder against the current spare capacity.
    fn readmit(&mut self, id: usize, mut pipeline: TenantPipeline, first_load: f64) {
        self.recovery.readmissions += 1;
        let budget = self.config.capacity_cores * self.capacity_factor - self.admitted_load;
        let inflation = self.service_inflation;
        let tenant = &mut self.tenants[id];
        tenant.quarantined_until_us = None;
        let outcome = run_ladder_from_pilot(
            &mut pipeline,
            first_load,
            tenant.pipe_config.horizon,
            self.config.fps,
            budget,
            self.config.redundancy,
            self.config.max_keep_every,
            inflation,
        );
        tenant.serve_start = pipeline.next_frame();
        tenant.recipe = Some(PipelineRecipe {
            shed: outcome.shed,
            base: tenant.next_capture,
            processed: Vec::new(),
        });
        tenant.pipeline = Some(pipeline);
        tenant.decision = outcome.decision;
        tenant.keep_every = outcome.keep_every;
        tenant.base_load_cores = outcome.base_load_cores;
        tenant.load_cores = outcome.load_cores;
        if outcome.decision != AdmissionDecision::Rejected {
            tenant.ever_served = true;
            self.admitted_load += outcome.load_cores;
        }
        self.transitions.push(AdmissionTransition {
            at_us: self.now_us,
            tenant: id,
            from: AdmissionDecision::Quarantined,
            to: outcome.decision,
            reason: TransitionReason::Readmission,
        });
        self.reevaluate(TransitionReason::Readmission);
    }

    /// Takes the cadence checkpoint when one is due.
    fn take_due_snapshot(&mut self) {
        let Some(next) = self.next_snapshot_us else {
            return;
        };
        if next > self.now_us {
            return;
        }
        let mut n = next;
        while n <= self.now_us {
            n += self.snapshot_period_us;
        }
        self.next_snapshot_us = Some(n);
        self.recovery.snapshots_taken += 1;
        self.last_snapshot = Some(self.snapshot());
    }

    /// A scheduled coordinator crash at `at_us`: everything since the
    /// last checkpoint is lost; after the restart delay the loop resumes
    /// from that checkpoint, the capture gap counted as replay loss. The
    /// moment it resumes it re-checkpoints, so a back-to-back crash never
    /// replays the same gap twice and the recovery counters are durable.
    fn crash(&mut self, at_us: u64) {
        let snap = self
            .last_snapshot
            .clone()
            .expect("scheduled crashes require snapshotting (validated)");
        let resume = at_us + self.config.chaos.restart_delay_us;
        let staleness = resume.saturating_sub(snap.taken_at_us);
        self.restore(&snap, resume);
        self.recovery.restarts += 1;
        self.recovery.outage_us += resume - at_us;
        self.recovery.staleness_at_resume_us = self.recovery.staleness_at_resume_us.max(staleness);
        self.recovering_since_us = Some(at_us);
        if self.snapshot_period_us > 0 {
            self.recovery.snapshots_taken += 1;
            self.last_snapshot = Some(self.snapshot());
        }
    }

    /// Restores the loop to `snap`, positioned at `resume_at_us`: rewinds
    /// the chaos stream, rebuilds every tenant pipeline from its replay
    /// recipe, fast-forwards each tenant's capture clock over the
    /// snapshot→resume gap (counting those frames as replay loss), and
    /// re-fits the admitted mix. Scheduled chaos between the snapshot and
    /// the resume point re-fires naturally on the next loop iteration.
    fn restore(&mut self, snap: &ServeSnapshot, resume_at_us: u64) {
        self.now_us = resume_at_us;
        self.busy_until_us = snap.busy_until_us;
        self.core_busy_us = snap.core_busy_us;
        self.admitted_load = snap.admitted_load_cores;
        self.capacity_factor = snap.capacity_factor;
        self.service_inflation = snap.service_inflation;
        self.degrade_idx = snap.degrade_idx;
        self.recovery = snap.recovery;
        self.transitions = snap.transitions.clone();
        self.post_recovery_e2e = snap.post_recovery_e2e.clone();
        // Crashes strictly before the resume point are spent: the one
        // that triggered this restore, and any that the outage swallowed.
        // (Validation guarantees a positive restart delay, so the
        // triggering crash always satisfies `c < resume`.)
        self.crash_idx = self
            .config
            .chaos
            .crash_at_us
            .iter()
            .filter(|&&c| c < resume_at_us)
            .count();
        self.chaos_rng = ChaCha8Rng::seed_from_u64(self.config.chaos.seed);
        self.chaos_rng.set_stream(u64::MAX - 1);
        for _ in 0..snap.chaos_draws {
            let _: f64 = self.chaos_rng.gen();
        }
        self.chaos_draws = snap.chaos_draws;
        self.next_snapshot_us = snap.next_snapshot_us;
        if let Some(next) = self.next_snapshot_us.as_mut() {
            // Strict `<`: a cadence point exactly at the resume instant
            // still fires, matching an uninterrupted run.
            while *next < resume_at_us {
                *next += self.snapshot_period_us;
            }
        }
        // Tenant restores are independent (each replays its own private
        // recipe against its own RNG streams), so they fan out across the
        // pool; the shared-clock fast-forward below stays serial.
        let fps = self.config.fps;
        let traced = self.traced;
        let mut pairs: Vec<(&mut Tenant, &TenantSnapshot)> =
            self.tenants.iter_mut().zip(&snap.tenants).collect();
        mvs_exec::pool().par_for_each_mut(&mut pairs, self.threads, |(tenant, ts)| {
            tenant.restore(ts, fps, traced);
        });
        let mut replayed_total = 0u64;
        for tenant in self.tenants.iter_mut() {
            if tenant.decision == AdmissionDecision::Rejected {
                continue;
            }
            while tenant.next_capture < self.frames_per_tenant {
                let capture_us = tenant.phase_us + tenant.next_capture * self.interval_us;
                if capture_us >= resume_at_us {
                    break;
                }
                tenant.next_capture += 1;
                tenant.replayed += 1;
                replayed_total += 1;
            }
            if tenant.next_capture >= self.frames_per_tenant {
                tenant.finished_noted = true;
            }
        }
        self.recovery.replayed_frames += replayed_total;
        self.recovering_since_us = None;
        self.reevaluate(TransitionReason::Recovery);
    }

    /// Re-fits the admitted mix to the current pool. Walks tenants in id
    /// order giving each the capacity not *currently* held by the tenants
    /// after it (a suffix reserve), so un-thinning one tenant can only
    /// claim genuinely spare capacity, never a later tenant's share.
    /// Tenants that finished capturing contribute zero load (their share
    /// is the freed capacity); quarantined tenants are skipped; rejected
    /// tenants are re-admitted when they now fit (except on the
    /// finished-tenant trigger, where freed capacity only un-thins the
    /// mix — a finished window is no reason to start serving a tenant
    /// that was turned away at the start of it). When the pool *shrinks*
    /// under a live tenant, its rung is clamped at the deepest thinning
    /// instead of evicting it mid-run, so the mix may transiently exceed
    /// a degraded budget.
    fn reevaluate(&mut self, reason: TransitionReason) {
        let budget = self.config.capacity_cores * self.capacity_factor;
        let inflation = self.service_inflation;
        let allow_readmit = reason != TransitionReason::TenantFinished;
        let n = self.tenants.len();
        let active: Vec<f64> = self
            .tenants
            .iter()
            .map(|t| {
                if t.decision == AdmissionDecision::Rejected
                    || t.decision == AdmissionDecision::Quarantined
                    || t.next_capture >= self.frames_per_tenant
                {
                    0.0
                } else {
                    t.load_cores * inflation
                }
            })
            .collect();
        let mut reserved_after = vec![0.0f64; n + 1];
        for i in (0..n).rev() {
            reserved_after[i] = reserved_after[i + 1] + active[i];
        }
        let mut used_eff = 0.0f64; // inflated load of tenants settled so far
        let mut used_raw = 0.0f64; // un-inflated (reported) load of the same
        for id in 0..n {
            let finished = self.tenants[id].next_capture >= self.frames_per_tenant;
            let from = self.tenants[id].decision;
            if from == AdmissionDecision::Quarantined {
                continue;
            }
            let was_rejected = from == AdmissionDecision::Rejected;
            if was_rejected && (!allow_readmit || self.tenants[id].recipe.is_none() || finished) {
                continue;
            }
            if !was_rejected && finished {
                continue;
            }
            let headroom = budget - used_eff - reserved_after[id + 1];
            let base = self.tenants[id].base_load_cores;
            let shed = self.tenants[id].recipe.as_ref().is_some_and(|r| r.shed);
            let fit = (1..=self.config.max_keep_every)
                .find(|&d| base * inflation / d as f64 <= headroom + 1e-12);
            let (to, keep, load) = match fit {
                Some(d) => {
                    let decision = if d > 1 {
                        AdmissionDecision::Degraded { keep_every: d }
                    } else if shed {
                        AdmissionDecision::ShedRedundancy
                    } else {
                        AdmissionDecision::Admitted
                    };
                    (decision, d, base / d as f64)
                }
                None if was_rejected => continue, // still does not fit
                None => {
                    // Pool shrank under a live tenant: clamp, don't evict.
                    let d = self.config.max_keep_every;
                    let decision = if d > 1 {
                        AdmissionDecision::Degraded { keep_every: d }
                    } else {
                        from
                    };
                    (decision, d, base / d as f64)
                }
            };
            let tenant = &mut self.tenants[id];
            if was_rejected {
                // Re-admission: the frames it sat out were withheld by
                // policy; fast-forward its capture clock over them.
                while tenant.next_capture < self.frames_per_tenant
                    && tenant.phase_us + tenant.next_capture * self.interval_us < self.now_us
                {
                    tenant.next_capture += 1;
                    tenant.policy_skipped += 1;
                }
                if tenant.next_capture >= self.frames_per_tenant {
                    tenant.finished_noted = true;
                }
                tenant.ever_served = true;
            }
            tenant.decision = to;
            tenant.keep_every = keep;
            tenant.load_cores = load;
            used_eff += load * inflation;
            used_raw += load;
            if to != from {
                self.transitions.push(AdmissionTransition {
                    at_us: self.now_us,
                    tenant: id,
                    from,
                    to,
                    reason,
                });
            }
        }
        self.admitted_load = used_raw;
    }

    /// Advances the clock to the next event: the earliest pending arrival
    /// or the in-flight completion, pulled earlier by any chaos or
    /// bookkeeping stop point strictly ahead of `now`. Returns `false`
    /// when the run has drained (no arrivals left, core idle) — stop
    /// points alone never keep a drained run alive.
    fn advance_clock(&mut self, until: Option<u64>) -> bool {
        let next_arrival = self
            .tenants
            .iter()
            .filter(|t| t.decision != AdmissionDecision::Rejected)
            .filter(|t| t.next_capture < self.frames_per_tenant)
            .map(|t| t.phase_us + t.next_capture * self.interval_us)
            .min();
        let next_completion = self.busy_until_us.filter(|&b| b > self.now_us);
        let mut next = match (next_arrival, next_completion) {
            (Some(a), Some(c)) => a.min(c),
            (Some(a), None) => a,
            (None, Some(c)) => c,
            (None, None) => return false,
        };
        // Stop points can only pull the stop earlier — the loop body
        // re-derives what is due from the clock, so pausing at an extra
        // instant never creates or reorders dispatches.
        if let Some(&c) = self.config.chaos.crash_at_us.get(self.crash_idx) {
            if c > self.now_us {
                next = next.min(c);
            }
        }
        if let Some(d) = self.config.chaos.degrades.get(self.degrade_idx) {
            if d.at_us > self.now_us {
                next = next.min(d.at_us);
            }
        }
        if let Some(s) = self.next_snapshot_us {
            if s > self.now_us {
                next = next.min(s);
            }
        }
        if let Some(q) = self
            .tenants
            .iter()
            .filter_map(|t| t.quarantined_until_us)
            .min()
        {
            if q > self.now_us {
                next = next.min(q);
            }
        }
        if let Some(u) = until {
            if u > self.now_us {
                next = next.min(u);
            }
        }
        self.now_us = next;
        true
    }

    /// Assembles the final report (and per-tenant traces when tracing).
    ///
    /// Per-tenant finalization — trailing-skip reconciliation, pipeline
    /// teardown ([`TenantPipeline::finish`] walks every camera series),
    /// and latency summaries — is independent across tenants, so it fans
    /// out on the persistent pool; only the cross-tenant folds (decision
    /// counts, fleet totals, the pooled latency distribution) run
    /// serially afterwards, in tenant-id order, exactly as a
    /// single-thread pass would.
    #[allow(clippy::too_many_lines)]
    fn into_report(self) -> (ServeReport, Option<Vec<Trace>>) {
        let config = self.config;
        let traced = self.traced;
        let fps = config.fps;
        let mut tenants = self.tenants;
        let finals: Vec<(TenantReport, bool, Vec<f64>, Option<Trace>)> = mvs_exec::pool()
            .par_map_mut(&mut tenants, self.threads, |tenant| {
                let served = tenant.ever_served;
                let captured = if served { tenant.next_capture } else { 0 };
                // Account for trailing frames never consumed by the core.
                tenant.reconcile_skips(captured);
                let queue_dropped = tenant.lanes.first().map_or(0, IngestLane::dropped);
                let processed = tenant.lanes.first().map_or(0, IngestLane::delivered);
                let (recall, degradation, trace) = match tenant.pipeline.take() {
                    Some(pipeline) => {
                        let (result, trace) = pipeline.finish();
                        (result.recall, result.degradation, trace)
                    }
                    // Quarantined at the end of the run: the pipeline (and
                    // its recall/trace history) died with the panic.
                    None => (
                        0.0,
                        DegradationCounters::default(),
                        traced.then(|| TraceRecorder::new(fps).finish()),
                    ),
                };
                let e2e_ms = std::mem::take(&mut tenant.e2e_ms);
                let service_ms = std::mem::take(&mut tenant.service_ms);
                let report = TenantReport {
                    tenant: 0, // assigned in the ordered merge below
                    decision: tenant.decision,
                    pilot_load_cores: tenant.load_cores,
                    captured,
                    processed,
                    queue_dropped,
                    policy_skipped: tenant.policy_skipped,
                    replayed: tenant.replayed,
                    max_lane_depth: tenant.max_lane_depth,
                    e2e_ms: Summary::of_lenient(&e2e_ms),
                    service_ms: Summary::of_lenient(&service_ms),
                    recall,
                    degradation,
                };
                (report, served, e2e_ms, trace)
            });
        drop(tenants);
        let mut reports = Vec::with_capacity(config.tenants);
        let mut traces = traced.then(Vec::new);
        let mut pooled_e2e: Vec<f64> = Vec::new();
        let mut decisions = DecisionCounts::default();
        let mut captured_total = 0u64;
        let mut processed_total = 0u64;
        let mut dropped_total = 0u64;
        let mut skipped_total = 0u64;
        let mut replayed_total = 0u64;
        let serving_span_us = self.frames_per_tenant * self.interval_us;
        for (mut report, served, e2e_ms, trace) in finals {
            decisions.count(report.decision);
            if let (Some(ts), Some(tr)) = (traces.as_mut(), trace) {
                ts.push(tr);
            }
            if served {
                captured_total += report.captured;
                processed_total += report.processed;
                dropped_total += report.queue_dropped;
                skipped_total += report.policy_skipped;
                replayed_total += report.replayed;
                pooled_e2e.extend_from_slice(&e2e_ms);
            }
            report.tenant = reports.len();
            reports.push(report);
        }
        let availability = if serving_span_us > 0 {
            (1.0 - self.recovery.outage_us as f64 / serving_span_us as f64).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let report = ServeReport {
            config,
            tenants: reports,
            admitted_load_cores: self.admitted_load,
            captured: captured_total,
            processed: processed_total,
            queue_dropped: dropped_total,
            policy_skipped: skipped_total,
            replayed: replayed_total,
            drop_rate: if captured_total > 0 {
                (dropped_total + skipped_total) as f64 / captured_total as f64
            } else {
                0.0
            },
            e2e_ms: Summary::of_lenient(&pooled_e2e),
            core_utilization: if serving_span_us > 0 {
                self.core_busy_us as f64 / serving_span_us as f64
            } else {
                0.0
            },
            decisions,
            recovery: self.recovery,
            transitions: self.transitions,
            availability,
            post_recovery_e2e_ms: Summary::of_lenient(&self.post_recovery_e2e),
        };
        (report, traces)
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

    #[test]
    fn decision_counts_cover_every_rung() {
        let mut c = DecisionCounts::default();
        c.count(AdmissionDecision::Admitted);
        c.count(AdmissionDecision::ShedRedundancy);
        c.count(AdmissionDecision::Degraded { keep_every: 2 });
        c.count(AdmissionDecision::Rejected);
        c.count(AdmissionDecision::Quarantined);
        assert_eq!(c.admitted, 1);
        assert_eq!(c.shed_redundancy, 1);
        assert_eq!(c.degraded, 1);
        assert_eq!(c.rejected, 1);
        assert_eq!(c.quarantined, 1);
    }

    #[test]
    fn config_validation_rejects_each_bad_field() {
        let good = ServeConfig::default();
        assert_eq!(good.validate(), Ok(()));
        assert_eq!(
            ServeConfig {
                tenants: 0,
                ..good.clone()
            }
            .validate(),
            Err(ServeConfigError::NoTenants)
        );
        assert_eq!(
            ServeConfig {
                cameras_per_tenant: 0,
                ..good.clone()
            }
            .validate(),
            Err(ServeConfigError::NoCameras)
        );
        assert_eq!(
            ServeConfig {
                fps: 0.0,
                ..good.clone()
            }
            .validate(),
            Err(ServeConfigError::BadFps { value: 0.0 })
        );
        assert_eq!(
            ServeConfig {
                duration_s: -1.0,
                ..good.clone()
            }
            .validate(),
            Err(ServeConfigError::BadDuration { value: -1.0 })
        );
        assert!(matches!(
            ServeConfig {
                capacity_cores: f64::NAN,
                ..good.clone()
            }
            .validate(),
            Err(ServeConfigError::BadCapacity { .. })
        ));
        assert_eq!(
            ServeConfig {
                max_keep_every: 0,
                ..good.clone()
            }
            .validate(),
            Err(ServeConfigError::ZeroMaxKeepEvery)
        );
        assert_eq!(
            ServeConfig {
                redundancy: 0,
                ..good.clone()
            }
            .validate(),
            Err(ServeConfigError::ZeroRedundancy)
        );
        let bad_faults = ServeConfig {
            faults: FaultModel {
                dropout_per_horizon: 2.0,
                ..FaultModel::none()
            },
            ..good.clone()
        };
        assert!(matches!(
            bad_faults.validate(),
            Err(ServeConfigError::Faults(_))
        ));
        let bad_chaos = ServeConfig {
            chaos: ServeFaultModel {
                poison_per_frame: 7.0,
                ..ServeFaultModel::none()
            },
            ..good
        };
        assert!(matches!(
            bad_chaos.validate(),
            Err(ServeConfigError::Chaos(_))
        ));
        let crash_no_snap = ServeConfig {
            chaos: ServeFaultModel {
                crash_at_us: vec![1_000_000],
                ..ServeFaultModel::none()
            },
            ..good
        };
        assert_eq!(
            crash_no_snap.validate(),
            Err(ServeConfigError::CrashWithoutSnapshots)
        );
    }

    #[test]
    fn underloaded_service_admits_and_keeps_up() {
        // One 4-camera tenant models ~1.8 cores of load; a 4-core budget
        // admits it untouched and mostly keeps up in real time.
        let config = ServeConfig {
            tenants: 1,
            cameras_per_tenant: 4,
            duration_s: 6.0,
            train_s: 10.0,
            capacity_cores: 4.0,
            ..ServeConfig::default()
        };
        let report = run_serve(&config);
        assert_eq!(report.decisions.admitted, 1);
        assert_eq!(report.captured, 60);
        assert!(report.processed > 0);
        assert!(report.tenants[0].max_lane_depth <= 1);
        assert_eq!(
            report.processed + report.queue_dropped,
            report.captured,
            "every captured frame is processed or dropped"
        );
        assert!(
            report.drop_rate < 0.2,
            "an admitted tenant should mostly keep up, dropped {:.0}%",
            report.drop_rate * 100.0
        );
        assert!(report.core_utilization <= 1.0 + 1e-9);
        assert!(report.e2e_ms.p99.is_finite());
        // A chaos-free run reports no recovery activity and full uptime.
        assert!(!report.recovery.any());
        assert!(report.transitions.is_empty());
        assert_eq!(report.availability, 1.0);
        assert_eq!(report.replayed, 0);
    }

    #[test]
    fn overloaded_service_sheds_load_instead_of_queueing() {
        // A deliberately tiny budget: admission degrades or rejects the
        // later tenants, and whatever is served keeps bounded queues.
        let config = ServeConfig {
            tenants: 3,
            cameras_per_tenant: 4,
            duration_s: 4.0,
            train_s: 10.0,
            capacity_cores: 0.02,
            ..ServeConfig::default()
        };
        let report = run_serve(&config);
        assert!(
            report.decisions.degraded + report.decisions.rejected > 0,
            "a 2% core cannot admit three tenants untouched"
        );
        assert!(report.admitted_load_cores <= config.capacity_cores + 1e-9);
        for t in &report.tenants {
            assert!(
                t.max_lane_depth <= 1,
                "tenant {}: queue unbounded",
                t.tenant
            );
        }
    }

    #[test]
    fn shed_redundancy_rung_fires_before_frame_thinning() {
        // With redundancy 2 requested and a budget that only fits the
        // shed configuration, the ladder must stop at ShedRedundancy.
        let base = ServeConfig {
            tenants: 1,
            cameras_per_tenant: 4,
            duration_s: 2.0,
            train_s: 10.0,
            redundancy: 2,
            capacity_cores: 8.0,
            ..ServeConfig::default()
        };
        let full = run_serve(&base);
        let redundant_load = full.tenants[0].pilot_load_cores;
        assert_eq!(full.tenants[0].decision, AdmissionDecision::Admitted);

        // Now squeeze: below the redundant load, above the shed load.
        let shed = run_serve(&ServeConfig {
            capacity_cores: redundant_load * 0.95,
            ..base
        });
        match shed.tenants[0].decision {
            AdmissionDecision::ShedRedundancy | AdmissionDecision::Degraded { .. } => {}
            other => panic!("expected a degraded rung, got {other:?}"),
        }
    }
}
