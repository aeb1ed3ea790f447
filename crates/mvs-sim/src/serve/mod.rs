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
//!
//! The code is split along the seams a production service would replace
//! independently: `lane` is the queue, `admission` the backpressure
//! policy, `recovery` checkpoint/restore and fault isolation, `report`
//! the outcome; this file holds the configuration, the data model and the
//! event loop that ties them together.

use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use mvs_metrics::RecoveryCounters;
use mvs_trace::Trace;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::faults::{FaultModelError, ServeFaultError, ServeFaultModel};
use crate::runtime::{Algorithm, Deployment, PipelineConfig, TenantPipeline};
use crate::scenario::CityConfig;
use crate::FaultModel;

mod admission;
mod lane;
mod recovery;
mod report;

pub use admission::{AdmissionDecision, AdmissionTransition, TransitionReason};
pub use lane::IngestLane;
pub use recovery::ServeSnapshot;
pub use report::{DecisionCounts, ServeReport, TenantReport};

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
    /// Inert: nothing reads it and the tenants' pipelines never see it; still
    /// a field for the reason [`PipelineConfig::shard_solver`] gives, and
    /// removed with it.
    #[doc(hidden)]
    #[serde(default)]
    pub shard_solver: bool,
    /// Inert: nothing reads it and the tenants' pipelines never see it; still
    /// a field for the reason [`PipelineConfig::pipelined`] gives, and removed
    /// with it.
    #[doc(hidden)]
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
    /// `fps` is non-positive, non-finite, or so high that the capture
    /// interval rounds below the virtual clock's 1 µs resolution.
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
    /// A snapshot passed to [`ServeLoop::recover`] was taken on tenants
    /// with a different camera count than the configuration's, so its
    /// replay recipes describe pipelines this fleet never ran.
    SnapshotCameraMismatch {
        /// Cameras per tenant in the configuration.
        expected: usize,
        /// Cameras of the first snapshot tenant that disagrees.
        got: usize,
    },
    /// A snapshot passed to [`ServeLoop::recover`] holds state no run of
    /// this configuration checkpoints; restoring it would spin or rebuild
    /// a history that never happened.
    SnapshotCorrupt {
        /// The first tenant whose state is inconsistent; `None` when it is
        /// the loop's own.
        tenant: Option<usize>,
        /// Which constraint it violates.
        reason: &'static str,
    },
}

impl fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeConfigError::NoTenants => write!(f, "serve needs at least one tenant"),
            ServeConfigError::NoCameras => write!(f, "tenants need at least one camera"),
            ServeConfigError::BadFps { value } => {
                write!(
                    f,
                    "fps must be finite, positive and at most 2e6 (the capture clock \
                     has 1 µs resolution), got {value}"
                )
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
            ServeConfigError::SnapshotCameraMismatch { expected, got } => write!(
                f,
                "snapshot describes a tenant with {got} cameras but the configuration \
                 has {expected} per tenant"
            ),
            ServeConfigError::SnapshotCorrupt {
                tenant: Some(tenant),
                reason,
            } => write!(f, "snapshot is corrupt at tenant {tenant}: {reason}"),
            ServeConfigError::SnapshotCorrupt {
                tenant: None,
                reason,
            } => write!(f, "snapshot is corrupt: {reason}"),
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
        if !self.fps.is_finite() || self.fps <= 0.0 || self.capture_interval_us() == 0 {
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

    /// The capture period on the virtual µs clock. Zero would put every
    /// frame of the run at one instant, so [`validate`](Self::validate)
    /// rejects the rates that round to it.
    fn capture_interval_us(&self) -> u64 {
        (1e6 / self.fps).round() as u64
    }

    /// Tenant `t`'s deployment: an independently seeded city of
    /// `cameras_per_tenant` cameras and the BALB pipeline serving it.
    fn tenant_spec(&self, t: usize) -> (CityConfig, PipelineConfig) {
        let seed = self.seed + t as u64;
        let city = CityConfig {
            cameras: self.cameras_per_tenant,
            seed,
            intensity: self.intensity,
        };
        let pipe_config = PipelineConfig {
            train_s: self.train_s,
            seed,
            threads: self.threads,
            redundancy: self.redundancy,
            measured_overheads: false,
            faults: self.faults,
            ..PipelineConfig::paper_default(Algorithm::Balb)
        };
        (city, pipe_config)
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

/// Everything about one tenant that a checkpoint stores: what is in this
/// struct is checkpointed, what is not is rebuilt from it (or re-derived
/// from the [`ServeConfig`]) on restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TenantState {
    decision: AdmissionDecision,
    /// Pilot-measured load at the served configuration, cores.
    load_cores: f64,
    /// Pilot-measured load before frame thinning (the ladder's rung-2
    /// input; re-evaluation re-fits from this).
    base_load_cores: f64,
    /// Process one captured frame in this many (1 = all).
    keep_every: u64,
    /// Replay recipe of the live pipeline; `None` while quarantined (the
    /// panicked pipeline is torn down).
    recipe: Option<PipelineRecipe>,
    lanes: Vec<IngestLane>,
    /// Next serving-phase frame index to capture (0-based).
    next_capture: u64,
    /// Capture timestamp of the waiting frame, µs (valid while the lanes
    /// are non-empty).
    pending_since_us: u64,
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

/// One tenant inside the event loop: its deployment (a function of the
/// [`ServeConfig`]), its checkpointed [`TenantState`], and the pipeline
/// rebuilt from the two.
struct Tenant {
    city: CityConfig,
    pipe_config: PipelineConfig,
    /// The tenant's trained models, masks and warmed world: built from
    /// `city` and `pipe_config` by the first [`Tenant::deploy`] and kept for
    /// the life of the loop — across quarantine, crash and pipeline
    /// teardown, none of which can change what it holds. Like the two
    /// fields it is built from, never checkpointed.
    deployment: OnceLock<Arc<Deployment>>,
    /// Virtual-time offset of this tenant's capture clock, µs.
    phase_us: u64,
    state: TenantState,
    /// `None` exactly when `state.recipe` is.
    pipeline: Option<TenantPipeline>,
    /// Pipeline capture index where the serving phase started (pilot
    /// frames live below it).
    serve_start: usize,
}

/// Skips `pipeline`'s capture clock forward until it stands `target`
/// frames past `serve_start`.
fn skip_until(pipeline: &mut TenantPipeline, serve_start: usize, target: u64) {
    while (pipeline.next_frame() - serve_start) < target as usize {
        pipeline.skip();
    }
}

impl Tenant {
    fn pending(&self) -> Option<u64> {
        self.state.lanes.first().and_then(IngestLane::peek)
    }

    /// Brings the pipeline's capture clock up to serving frame `frame`
    /// (exclusive), skipping everything in between (lane drops, policy
    /// thinning, and recovery gaps alike). No-op while quarantined.
    fn reconcile_skips(&mut self, frame: u64) {
        if let Some(pipeline) = self.pipeline.as_mut() {
            let base = self.state.recipe.as_ref().map_or(0, |r| r.base);
            skip_until(pipeline, self.serve_start, frame.saturating_sub(base));
        }
    }

    /// Capture instant of serving frame `frame`, µs.
    fn capture_us(&self, frame: u64, interval_us: u64) -> u64 {
        self.phase_us + frame * interval_us
    }

    /// Advances the capture clock over every frame of the `frames`-long
    /// window captured strictly before `before_us` and returns their
    /// indices; what becomes of them (offered, policy-skipped, replay
    /// loss) is the caller's business. Notes the window finished when the
    /// clock reaches its end.
    fn captures_before(&mut self, before_us: u64, interval_us: u64, frames: u64) -> Range<u64> {
        let first = self.state.next_capture;
        let mut next = first;
        while next < frames && self.capture_us(next, interval_us) < before_us {
            next += 1;
        }
        self.state.next_capture = next;
        if next >= frames {
            self.state.finished_noted = true;
        }
        first..next
    }
}

/// Everything about the loop itself that a checkpoint stores (the
/// tenants' share is [`TenantState`]): a [`ServeSnapshot`] is a clone of
/// this plus every tenant's state, and a restore assigns it back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LoopState {
    /// The virtual clock, µs since the start of serving (in a snapshot:
    /// when it was taken).
    now_us: u64,
    busy_until_us: Option<u64>,
    core_busy_us: u64,
    admitted_load_cores: f64,
    /// Pool health: provisioned capacity is scaled by this factor.
    capacity_factor: f64,
    /// Pool health: every modeled service time is scaled by this factor.
    service_inflation: f64,
    /// Next unapplied entry in `config.chaos.degrades`.
    degrade_idx: usize,
    /// Draws taken from the chaos stream so far (recovery re-winds the
    /// stream to this position).
    chaos_draws: u64,
    /// Next checkpoint instant, when snapshotting is enabled.
    next_snapshot_us: Option<u64>,
    recovery: RecoveryCounters,
    transitions: Vec<AdmissionTransition>,
    post_recovery_e2e: Vec<f64>,
}

/// The serve-level chaos stream: dedicated, disjoint from the world
/// stream (0), every camera stream (i + 1), and the pipeline-fault stream
/// (u64::MAX).
fn chaos_stream(seed: u64) -> ChaCha8Rng {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    rng.set_stream(u64::MAX - 1);
    rng
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
    state: LoopState,
    chaos_rng: ChaCha8Rng,
    /// Next unfired entry in `config.chaos.crash_at_us`.
    crash_idx: usize,
    /// The latest checkpoint (what a crash restores).
    last_snapshot: Option<ServeSnapshot>,
    /// Crash instant of an in-progress recovery: set when a crash fires,
    /// cleared (into `recovery.recovery_us`) at the first post-recovery
    /// dispatch.
    recovering_since_us: Option<u64>,
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
        let mut served = ServeLoop::skeleton(config, traced)?;
        let everyone: Vec<usize> = (0..config.tenants).collect();
        for (id, (pipeline, first_load)) in served.deploy(&everyone).into_iter().enumerate() {
            served.place(id, pipeline, first_load);
        }
        if served.snapshot_period_us > 0 {
            // The time-zero baseline (not counted in `snapshots_taken`:
            // that counter tracks cadence checkpoints during serving).
            served.state.next_snapshot_us = Some(served.snapshot_period_us);
            served.last_snapshot = Some(served.snapshot());
        }
        Ok(served)
    }

    /// The loop before any tenant is deployed: a validated configuration,
    /// everything derived from it, and idle state. [`ServeLoop::new`]
    /// admits tenants into it; [`ServeLoop::recover`] restores a snapshot
    /// over it.
    fn skeleton(config: &ServeConfig, traced: bool) -> Result<ServeLoop, ServeConfigError> {
        config.validate()?;
        let interval_us = config.capture_interval_us();
        let tenants: Vec<Tenant> = (0..config.tenants)
            .map(|t| {
                let (city, pipe_config) = config.tenant_spec(t);
                Tenant {
                    city,
                    pipe_config,
                    deployment: OnceLock::new(),
                    // Stagger tenants across the capture interval so
                    // arrivals do not all land on the same instant.
                    phase_us: interval_us * t as u64 / config.tenants as u64,
                    state: TenantState {
                        decision: AdmissionDecision::Rejected,
                        load_cores: 0.0,
                        base_load_cores: 0.0,
                        keep_every: 1,
                        recipe: None,
                        lanes: vec![IngestLane::new(); config.cameras_per_tenant],
                        next_capture: 0,
                        pending_since_us: 0,
                        max_lane_depth: 0,
                        policy_skipped: 0,
                        replayed: 0,
                        quarantined_until_us: None,
                        ever_served: false,
                        finished_noted: false,
                        e2e_ms: Vec::new(),
                        service_ms: Vec::new(),
                    },
                    pipeline: None,
                    serve_start: 0,
                }
            })
            .collect();
        let horizon = tenants.last().map_or(1, |t| t.pipe_config.horizon);
        Ok(ServeLoop {
            config: config.clone(),
            traced,
            threads: mvs_exec::resolve_threads(config.threads),
            interval_us,
            frames_per_tenant: (config.duration_s * config.fps).round() as u64,
            snapshot_period_us: if config.snapshot_every_horizons > 0 {
                (horizon as u64 * interval_us * config.snapshot_every_horizons).max(1)
            } else {
                0
            },
            tenants,
            state: LoopState {
                now_us: 0,
                busy_until_us: None,
                core_busy_us: 0,
                admitted_load_cores: 0.0,
                capacity_factor: 1.0,
                service_inflation: 1.0,
                degrade_idx: 0,
                chaos_draws: 0,
                next_snapshot_us: None,
                recovery: RecoveryCounters::default(),
                transitions: Vec::new(),
                post_recovery_e2e: Vec::new(),
            },
            chaos_rng: chaos_stream(config.chaos.seed),
            crash_idx: 0,
            last_snapshot: None,
            recovering_since_us: None,
        })
    }

    /// The loop's virtual clock, µs since the start of serving.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.state.now_us
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
            let now_us = self.state.now_us;
            if until.is_some_and(|u| now_us >= u) {
                return;
            }
            // Coordinator crash due: lose everything since the last
            // checkpoint and restore.
            if let Some(&crash_at) = self.config.chaos.crash_at_us.get(self.crash_idx) {
                if crash_at <= now_us {
                    self.crash(crash_at);
                    continue;
                }
            }
            // Pool degradation due: apply the latest scheduled factors
            // wholesale, then re-fit the admitted mix to the new pool.
            let mut degraded = false;
            while let Some(d) = self.config.chaos.degrades.get(self.state.degrade_idx) {
                if d.at_us > now_us {
                    break;
                }
                self.state.capacity_factor = d.capacity_factor;
                self.state.service_inflation = d.service_inflation;
                self.state.degrade_idx += 1;
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
        let (now_us, interval_us, frames) =
            (self.state.now_us, self.interval_us, self.frames_per_tenant);
        let mut newly_finished = false;
        for tenant in self.tenants.iter_mut() {
            if tenant.state.decision == AdmissionDecision::Rejected {
                continue;
            }
            let was_noted = tenant.state.finished_noted;
            // Due by `now` inclusive, i.e. captured before the next µs.
            for frame in tenant.captures_before(now_us + 1, interval_us, frames) {
                let capture_us = tenant.capture_us(frame, interval_us);
                let state = &mut tenant.state;
                if state.decision == AdmissionDecision::Quarantined
                    || !frame.is_multiple_of(state.keep_every)
                {
                    state.policy_skipped += 1;
                    continue;
                }
                let mut depth = 0;
                for lane in state.lanes.iter_mut() {
                    lane.offer(frame);
                    depth = depth.max(lane.depth());
                }
                state.pending_since_us = capture_us;
                state.max_lane_depth = state.max_lane_depth.max(depth);
            }
            newly_finished |= !was_noted && tenant.state.finished_noted;
        }
        newly_finished
            && self.tenants.iter().any(|t| {
                t.state.decision != AdmissionDecision::Rejected && t.state.next_capture < frames
            })
    }

    /// Serves at most one waiting frame (FIFO over waiting frames: the
    /// tenant whose pending frame has waited longest, ties to the lowest
    /// tenant id). Returns whether anything happened.
    fn try_dispatch(&mut self) -> bool {
        let now_us = self.state.now_us;
        if self.state.busy_until_us.is_some_and(|b| b > now_us) {
            return false;
        }
        let next = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.pending().is_some())
            .min_by_key(|(id, t)| (t.state.pending_since_us, *id))
            .map(|(id, _)| id);
        let Some(id) = next else {
            return false;
        };
        // Chaos: decide poison *before* touching the frame, so the
        // poisoned frame stays pending and is accounted as a lane drop
        // when the quarantine clears the lanes.
        if self.config.chaos.poison_per_frame > 0.0 {
            self.state.chaos_draws += 1;
            if self.chaos_rng.gen::<f64>() < self.config.chaos.poison_per_frame {
                self.poison(id);
                return true;
            }
        }
        let tenant = &mut self.tenants[id];
        let frame = tenant.state.lanes[0].take().expect("pending frame");
        for lane in tenant.state.lanes.iter_mut().skip(1) {
            let same = lane.take();
            debug_assert_eq!(same, Some(frame), "lanes advance in lockstep");
        }
        tenant.reconcile_skips(frame);
        let pipeline = tenant
            .pipeline
            .as_mut()
            .expect("a tenant with pending frames has a live pipeline");
        let raw_ms = pipeline.step();
        if let Some(recipe) = tenant.state.recipe.as_mut() {
            recipe.processed.push(frame);
        }
        // `* 1.0` and `/ (x * 1.0)` are bitwise identities, so a healthy
        // pool leaves these exactly as an inflation-free build computes
        // them.
        let service_ms = raw_ms * self.state.service_inflation;
        // The provisioned pool serves `capacity_cores * capacity_factor`
        // modeled milliseconds per wall millisecond.
        let service_us = if service_ms.is_finite() && service_ms >= 0.0 {
            (service_ms * 1e3 / (self.config.capacity_cores * self.state.capacity_factor)).round()
                as u64
        } else {
            // A poisoned overhead model must not wedge the loop; the
            // pipeline already counted the sample as rejected.
            0
        };
        let done_us = now_us + service_us;
        self.state.busy_until_us = Some(done_us);
        self.state.core_busy_us += service_us;
        tenant.state.service_ms.push(service_ms);
        let e2e = (done_us - tenant.state.pending_since_us) as f64 / 1e3;
        tenant.state.e2e_ms.push(e2e);
        if let Some(crashed_at) = self.recovering_since_us.take() {
            // First dispatch after a crash: recovery is complete.
            self.state.recovery.recovery_us += now_us.saturating_sub(crashed_at);
        }
        if self.state.recovery.restarts > 0 {
            self.state.post_recovery_e2e.push(e2e);
        }
        true
    }

    /// Advances the clock to the next event: the earliest pending arrival
    /// or the in-flight completion, pulled earlier by any chaos or
    /// bookkeeping stop point strictly ahead of `now`. Returns `false`
    /// when the run has drained (no arrivals left, core idle) — stop
    /// points alone never keep a drained run alive.
    fn advance_clock(&mut self, until: Option<u64>) -> bool {
        let now_us = self.state.now_us;
        let next_arrival = self
            .tenants
            .iter()
            .filter(|t| t.state.decision != AdmissionDecision::Rejected)
            .filter(|t| t.state.next_capture < self.frames_per_tenant)
            .map(|t| t.capture_us(t.state.next_capture, self.interval_us))
            .min();
        let next_completion = self.state.busy_until_us.filter(|&b| b > now_us);
        let Some(next_event) = next_arrival.into_iter().chain(next_completion).min() else {
            return false;
        };
        // Stop points can only pull the stop earlier — the loop body
        // re-derives what is due from the clock, so pausing at an extra
        // instant never creates or reorders dispatches.
        let chaos = &self.config.chaos;
        let stop_points = [
            chaos.crash_at_us.get(self.crash_idx).copied(),
            chaos.degrades.get(self.state.degrade_idx).map(|d| d.at_us),
            self.state.next_snapshot_us,
            self.tenants
                .iter()
                .filter_map(|t| t.state.quarantined_until_us)
                .min(),
            until,
        ];
        self.state.now_us = stop_points
            .into_iter()
            .flatten()
            .filter(|&stop| stop > now_us)
            .fold(next_event, u64::min);
        true
    }
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

#[cfg(test)]
mod tests {
    use super::*;

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
        // 1e6 / 3e6 rounds to a 0 µs capture interval.
        assert_eq!(
            ServeConfig {
                fps: 3e6,
                ..good.clone()
            }
            .validate(),
            Err(ServeConfigError::BadFps { value: 3e6 })
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
    fn tenants_keep_their_deployment_through_crash_and_quarantine() {
        let config = ServeConfig {
            tenants: 2,
            cameras_per_tenant: 3,
            duration_s: 3.0,
            train_s: 8.0,
            capacity_cores: 6.0,
            chaos: ServeFaultModel {
                seed: 11,
                crash_at_us: vec![1_200_000],
                restart_delay_us: 300_000,
                poison_per_frame: 0.05,
                quarantine_us: 800_000,
                ..ServeFaultModel::none()
            },
            snapshot_every_horizons: 1,
            ..ServeConfig::default()
        };
        let deployments = |served: &ServeLoop| -> Vec<*const Deployment> {
            (served.tenants.iter())
                .map(|t| Arc::as_ptr(t.deployment.get().expect("deployed at admission")))
                .collect()
        };
        let mut served = ServeLoop::new(&config).expect("valid config");
        let built = deployments(&served);
        served.run_until(2_900_000);
        let recovery = served.state.recovery;
        assert!(
            recovery.restarts == 1 && recovery.readmissions > 0,
            "{recovery:?}"
        );
        assert_eq!(deployments(&served), built, "a tenant was redeployed cold");
        // One handle is the tenant's, the other its live pipeline's: no
        // torn-down pipeline keeps one, nothing else took one.
        for tenant in &served.tenants {
            let handles = Arc::strong_count(tenant.deployment.get().expect("deployed"));
            assert_eq!(handles, 1 + usize::from(tenant.pipeline.is_some()));
        }
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
