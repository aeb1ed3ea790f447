//! Fault injection: camera dropouts and key-frame message loss.
//!
//! The paper's testbed assumes five healthy boards on a wired LAN. Real
//! deployments lose cameras (power, thermal throttling, reboots) and lose
//! key-frame sync messages (congestion, interference). This module models
//! both so the pipeline's graceful-degradation behaviour can be exercised
//! and measured:
//!
//! * [`FaultModel`] — the seeded fault configuration: per-horizon camera
//!   dropout/rejoin probabilities and a per-attempt key-frame message loss
//!   rate with timeout-plus-retry recovery.
//! * [`FaultState`] — the runtime schedule. All fault randomness lives on
//!   a dedicated ChaCha stream of the run seed, drawn on the coordinator
//!   thread at key frames in camera-index order, so fault schedules are
//!   bitwise deterministic at any thread count and never perturb the world
//!   or per-camera streams.
//!
//! An inactive model ([`FaultModel::none`], the default) draws nothing and
//! leaves every camera permanently alive, so fault-free runs are bitwise
//! identical to runs of a build without this module.
//!
//! The serving layer adds its own fault domains on top —
//! [`ServeFaultModel`] schedules coordinator crashes, per-tenant pipeline
//! poison, and compute-pool degradation for `mvs serve` chaos runs. Both
//! models validate their parameters up front ([`FaultModel::validate`],
//! [`ServeFaultModel::validate`]) so the CLI can reject a nonsensical
//! configuration with a typed error instead of panicking mid-run.

use std::error::Error;
use std::fmt;

use mvs_metrics::DegradationCounters;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Seeded fault configuration for a pipeline run.
///
/// Dropout and rejoin are evaluated once per camera per key frame, so the
/// alive set is constant within a scheduling horizon (a camera cannot die
/// mid-horizon — the failure becomes visible at the next sync point, which
/// is when the scheduler would notice a missing upload anyway).
///
/// Message loss applies independently to every key-frame uplink and
/// downlink transmission attempt. A lost attempt costs
/// [`FaultModel::retry_timeout_ms`] before the retransmission fires; after
/// [`FaultModel::max_retries`] retransmissions the scheduler gives up on
/// the camera for this horizon and it runs desynchronized on stale state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Probability an alive camera drops out, per camera per key frame.
    pub dropout_per_horizon: f64,
    /// Probability a dead camera comes back, per camera per key frame.
    pub rejoin_per_horizon: f64,
    /// Probability one key-frame message transmission attempt is lost
    /// (applied per attempt, to uplink and downlink independently).
    pub keyframe_loss: f64,
    /// Retransmissions attempted after an initial loss before the
    /// scheduler declares the camera desynchronized for the horizon.
    pub max_retries: u32,
    /// Timeout before a lost transmission is retried, ms. Also the unit
    /// the scheduler waits for a camera that never answers.
    pub retry_timeout_ms: f64,
    /// Dropouts never reduce the alive set below this floor (the paper's
    /// system is meaningless with zero cameras; keeping one alive makes
    /// recall degrade monotonically instead of collapsing to zero).
    pub min_alive: usize,
}

impl FaultModel {
    /// The fault-free model: nothing ever drops, nothing is ever lost.
    pub fn none() -> Self {
        FaultModel {
            dropout_per_horizon: 0.0,
            rejoin_per_horizon: 0.0,
            keyframe_loss: 0.0,
            max_retries: 1,
            retry_timeout_ms: 30.0,
            min_alive: 1,
        }
    }

    /// Transmission attempts allowed per message (initial + retries).
    fn attempts_budget(&self) -> u32 {
        1 + self.max_retries
    }

    /// How long the scheduler waits for a camera that never delivers: the
    /// full retry schedule, timeout after timeout.
    pub(crate) fn deadline_ms(&self) -> f64 {
        self.attempts_budget() as f64 * self.retry_timeout_ms
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

/// Why a [`FaultModel`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultModelError {
    /// A probability field lies outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// The offending field's name.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `retry_timeout_ms` is negative or non-finite.
    BadRetryTimeout {
        /// The rejected value.
        value: f64,
    },
    /// `min_alive` exceeds the deployment's camera count, so the dropout
    /// floor could never be satisfied.
    MinAliveExceedsCameras {
        /// The configured floor.
        min_alive: usize,
        /// Cameras actually deployed.
        cameras: usize,
    },
}

impl fmt::Display for FaultModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultModelError::ProbabilityOutOfRange { field, value } => {
                write!(f, "{field} must be a probability in [0, 1], got {value}")
            }
            FaultModelError::BadRetryTimeout { value } => {
                write!(f, "retry_timeout_ms must be finite and >= 0, got {value}")
            }
            FaultModelError::MinAliveExceedsCameras { min_alive, cameras } => {
                write!(
                    f,
                    "min_alive ({min_alive}) exceeds the deployment's camera count ({cameras})"
                )
            }
        }
    }
}

impl Error for FaultModelError {}

impl FaultModel {
    /// Checks the model against a deployment of `cameras` cameras,
    /// returning the first violated constraint. [`FaultModel::none`]
    /// always validates (for any `cameras >= 1`).
    pub fn validate(&self, cameras: usize) -> Result<(), FaultModelError> {
        let probabilities = [
            ("dropout_per_horizon", self.dropout_per_horizon),
            ("rejoin_per_horizon", self.rejoin_per_horizon),
            ("keyframe_loss", self.keyframe_loss),
        ];
        for (field, value) in probabilities {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(FaultModelError::ProbabilityOutOfRange { field, value });
            }
        }
        if !self.retry_timeout_ms.is_finite() || self.retry_timeout_ms < 0.0 {
            return Err(FaultModelError::BadRetryTimeout {
                value: self.retry_timeout_ms,
            });
        }
        if self.min_alive > cameras {
            return Err(FaultModelError::MinAliveExceedsCameras {
                min_alive: self.min_alive,
                cameras,
            });
        }
        Ok(())
    }
}

/// One scheduled compute-pool degradation event for the serving layer:
/// from [`PoolDegrade::at_us`] onward the pool runs at
/// `capacity_factor × capacity_cores` and every modeled service time is
/// multiplied by `service_inflation` (stragglers). A later event replaces
/// the factors wholesale, so `{at_us, 1.0, 1.0}` restores the pool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolDegrade {
    /// Virtual time the degradation takes effect, µs.
    pub at_us: u64,
    /// Multiplier on the provisioned capacity (1.0 = healthy; 0.5 = half
    /// the cores). Must be finite and positive.
    pub capacity_factor: f64,
    /// Multiplier on every modeled per-frame service time (1.0 = healthy;
    /// 1.5 = every frame takes 50% longer). Must be finite and positive.
    pub service_inflation: f64,
}

/// Seeded serve-level chaos schedule: coordinator crashes, per-tenant
/// pipeline poison, and compute-pool degradation. Extends [`FaultModel`]
/// (which injects camera/network faults *inside* each tenant pipeline) to
/// the serving layer itself.
///
/// Like [`FaultModel`], an inactive model ([`ServeFaultModel::none`], the
/// default) draws nothing, so chaos-free serve runs are bitwise identical
/// to runs of a build without this machinery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeFaultModel {
    /// Seed of the dedicated serve-level chaos RNG stream (independent of
    /// the world, camera, and pipeline-fault streams).
    #[serde(default)]
    pub seed: u64,
    /// Virtual times at which the coordinator crashes, losing all
    /// in-memory state since the latest snapshot, µs. Must be strictly
    /// increasing; crashes require snapshotting to be enabled.
    #[serde(default)]
    pub crash_at_us: Vec<u64>,
    /// Outage length: the coordinator restarts this long after each
    /// crash, µs.
    #[serde(default)]
    pub restart_delay_us: u64,
    /// Probability that a dispatched frame poisons its tenant's pipeline
    /// (the step panics; the panic is caught and the tenant quarantined).
    /// One chaos draw per dispatch while positive; no draws at 0.
    #[serde(default)]
    pub poison_per_frame: f64,
    /// How long a poisoned tenant sits out before being re-piloted
    /// through the admission ladder, µs.
    #[serde(default)]
    pub quarantine_us: u64,
    /// Scheduled pool degradations, in event-time order.
    #[serde(default)]
    pub degrades: Vec<PoolDegrade>,
}

impl ServeFaultModel {
    /// The chaos-free model: no crashes, no poison, no degradation.
    pub fn none() -> Self {
        ServeFaultModel {
            seed: 0,
            crash_at_us: Vec::new(),
            restart_delay_us: 500_000,
            poison_per_frame: 0.0,
            quarantine_us: 5_000_000,
            degrades: Vec::new(),
        }
    }
}

impl Default for ServeFaultModel {
    fn default() -> Self {
        ServeFaultModel::none()
    }
}

/// Why a [`ServeFaultModel`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeFaultError {
    /// `poison_per_frame` lies outside `[0, 1]`.
    PoisonOutOfRange {
        /// The rejected value.
        value: f64,
    },
    /// `crash_at_us` is not strictly increasing.
    CrashTimesNotIncreasing,
    /// Crashes are scheduled but `restart_delay_us` is zero, which would
    /// restart the coordinator at the crash instant and re-fire the same
    /// crash forever.
    ZeroRestartDelay,
    /// `degrades` is not sorted by `at_us`.
    DegradeTimesNotSorted,
    /// A degrade event's `capacity_factor` is not finite and positive.
    BadCapacityFactor {
        /// The rejected value.
        value: f64,
    },
    /// A degrade event's `service_inflation` is not finite and positive.
    BadServiceInflation {
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for ServeFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeFaultError::PoisonOutOfRange { value } => {
                write!(
                    f,
                    "poison_per_frame must be a probability in [0, 1], got {value}"
                )
            }
            ServeFaultError::CrashTimesNotIncreasing => {
                write!(f, "crash_at_us must be strictly increasing")
            }
            ServeFaultError::ZeroRestartDelay => {
                write!(
                    f,
                    "restart_delay_us must be positive when crashes are scheduled"
                )
            }
            ServeFaultError::DegradeTimesNotSorted => {
                write!(f, "degrades must be sorted by at_us")
            }
            ServeFaultError::BadCapacityFactor { value } => {
                write!(f, "capacity_factor must be finite and > 0, got {value}")
            }
            ServeFaultError::BadServiceInflation { value } => {
                write!(f, "service_inflation must be finite and > 0, got {value}")
            }
        }
    }
}

impl Error for ServeFaultError {}

impl ServeFaultModel {
    /// Checks the chaos schedule's internal consistency, returning the
    /// first violated constraint. (Whether crashes are allowed at all
    /// depends on the serve configuration's snapshot cadence — the serve
    /// layer checks that separately.)
    pub fn validate(&self) -> Result<(), ServeFaultError> {
        if !self.poison_per_frame.is_finite() || !(0.0..=1.0).contains(&self.poison_per_frame) {
            return Err(ServeFaultError::PoisonOutOfRange {
                value: self.poison_per_frame,
            });
        }
        if self.crash_at_us.windows(2).any(|w| w[1] <= w[0]) {
            return Err(ServeFaultError::CrashTimesNotIncreasing);
        }
        if !self.crash_at_us.is_empty() && self.restart_delay_us == 0 {
            return Err(ServeFaultError::ZeroRestartDelay);
        }
        if self.degrades.windows(2).any(|w| w[1].at_us < w[0].at_us) {
            return Err(ServeFaultError::DegradeTimesNotSorted);
        }
        for d in &self.degrades {
            if !d.capacity_factor.is_finite() || d.capacity_factor <= 0.0 {
                return Err(ServeFaultError::BadCapacityFactor {
                    value: d.capacity_factor,
                });
            }
            if !d.service_inflation.is_finite() || d.service_inflation <= 0.0 {
                return Err(ServeFaultError::BadServiceInflation {
                    value: d.service_inflation,
                });
            }
        }
        Ok(())
    }
}

/// Camera-membership changes produced by one key-frame fault step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct KeyFrameEvents {
    /// Cameras that dropped out at this key frame (index order).
    pub dropped: Vec<usize>,
    /// Cameras that came back at this key frame (index order).
    pub rejoined: Vec<usize>,
}

/// The runtime fault schedule: the current alive set plus the dedicated
/// RNG stream all fault draws come from.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    model: FaultModel,
    /// Fault stream: same key as the run, stream `u64::MAX` — disjoint
    /// from the world stream (0) and every camera stream (`i + 1`).
    rng: ChaCha8Rng,
    alive: Vec<bool>,
}

impl FaultState {
    pub fn new(model: FaultModel, seed: u64, cameras: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.set_stream(u64::MAX);
        FaultState {
            model,
            rng,
            alive: vec![true; cameras],
        }
    }

    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    pub(crate) fn all_alive(&self) -> bool {
        self.alive.iter().all(|&a| a)
    }

    /// Draws this key frame's dropout/rejoin decisions, one draw per
    /// camera in index order (the draw happens even when `min_alive`
    /// vetoes the dropout, so the stream position is a function of the
    /// key-frame count alone).
    pub(crate) fn step_key_frame(&mut self) -> KeyFrameEvents {
        let mut events = KeyFrameEvents::default();
        if self.model.dropout_per_horizon <= 0.0 {
            return events;
        }
        let mut alive_count = self.alive.iter().filter(|&&a| a).count();
        for i in 0..self.alive.len() {
            let draw: f64 = self.rng.gen();
            if self.alive[i] {
                if draw < self.model.dropout_per_horizon && alive_count > self.model.min_alive {
                    self.alive[i] = false;
                    alive_count -= 1;
                    events.dropped.push(i);
                }
            } else if draw < self.model.rejoin_per_horizon {
                self.alive[i] = true;
                alive_count += 1;
                events.rejoined.push(i);
            }
        }
        events
    }

    /// One key frame's round trip to the central scheduler: every live
    /// camera uploads (`up`), and the scheduler answers each upload it
    /// received (`down`). `Some(k)` = delivered after `k` lost attempts;
    /// `None` = never sent, or lost for the whole retry budget. All uplink
    /// draws come first, then all downlink draws, each in camera-index
    /// order. Lost attempts, retransmitted messages and the live cameras
    /// left without an answer are added to `tally`.
    pub(crate) fn round_trip(
        &mut self,
        up: &mut Vec<Option<u32>>,
        down: &mut Vec<Option<u32>>,
        tally: &mut DegradationCounters,
    ) {
        let FaultState { model, rng, alive } = self;
        let mut leg = |leg: &mut Vec<Option<u32>>, sends: &dyn Fn(usize) -> bool| {
            let mut lost = 0;
            leg.clear();
            leg.extend((0..alive.len()).map(|i| {
                let delivered = sends(i).then(|| deliver(model, rng));
                match delivered {
                    None | Some(Some(0)) => {}
                    Some(Some(k)) => {
                        lost += u64::from(k);
                        tally.retransmits += 1;
                    }
                    Some(None) => lost += u64::from(model.attempts_budget()),
                }
                delivered.flatten()
            }));
            lost
        };
        tally.lost_uploads += leg(up, &|i| alive[i]);
        tally.lost_downlinks += leg(down, &|i| up[i].is_some());
        let unanswered = alive
            .iter()
            .zip(down.iter())
            .filter(|(&a, d)| a && d.is_none());
        tally.desynced_horizons += unanswered.count() as u64;
    }
}

/// Simulates one message's timeout-plus-retry delivery: returns `Some(k)`
/// if the message got through after `k` lost attempts, or `None` if the
/// whole retry budget was lost. Draws nothing when loss is off (the message
/// trivially arrives on the first attempt).
fn deliver(model: &FaultModel, rng: &mut ChaCha8Rng) -> Option<u32> {
    if model.keyframe_loss <= 0.0 {
        return Some(0);
    }
    (0..model.attempts_budget()).find(|_| rng.gen::<f64>() >= model.keyframe_loss)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_model_never_draws_or_drops() {
        let mut s = FaultState::new(FaultModel::none(), 7, 4);
        let mut pristine = s.rng.clone();
        for _ in 0..50 {
            assert_eq!(s.step_key_frame(), KeyFrameEvents::default());
            assert_eq!(deliver(&s.model, &mut s.rng), Some(0));
        }
        assert!(s.all_alive());
        // The RNG never advanced: fault-free runs are bitwise untouched.
        assert_eq!(s.rng.gen::<u64>(), pristine.gen::<u64>());
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let model = FaultModel {
            dropout_per_horizon: 0.3,
            rejoin_per_horizon: 0.5,
            keyframe_loss: 0.2,
            ..FaultModel::none()
        };
        let run = |seed: u64| -> (Vec<KeyFrameEvents>, Vec<Option<u32>>) {
            let mut s = FaultState::new(model, seed, 5);
            let mut events = Vec::new();
            let mut deliveries = Vec::new();
            for _ in 0..20 {
                events.push(s.step_key_frame());
                for _ in 0..5 {
                    deliveries.push(deliver(&s.model, &mut s.rng));
                }
            }
            (events, deliveries)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds give different faults");
    }

    #[test]
    fn min_alive_floor_is_never_violated() {
        let model = FaultModel {
            dropout_per_horizon: 1.0, // every camera tries to die, every key frame
            min_alive: 2,
            ..FaultModel::none()
        };
        let mut s = FaultState::new(model, 3, 6);
        for _ in 0..30 {
            s.step_key_frame();
            let alive = s.alive().iter().filter(|&&a| a).count();
            assert!(alive >= 2, "alive fell to {alive}");
        }
    }

    #[test]
    fn certain_loss_exhausts_the_retry_budget() {
        let model = FaultModel {
            keyframe_loss: 1.0,
            max_retries: 3,
            ..FaultModel::none()
        };
        let mut s = FaultState::new(model, 9, 1);
        assert_eq!(deliver(&s.model, &mut s.rng), None);
        assert_eq!(model.attempts_budget(), 4);
        assert_eq!(model.deadline_ms(), 120.0);
    }

    #[test]
    fn dead_cameras_can_rejoin() {
        let model = FaultModel {
            dropout_per_horizon: 1.0,
            rejoin_per_horizon: 1.0,
            min_alive: 1,
            ..FaultModel::none()
        };
        let mut s = FaultState::new(model, 5, 3);
        let first = s.step_key_frame();
        assert_eq!(first.dropped.len(), 2, "floor keeps one alive");
        let second = s.step_key_frame();
        assert_eq!(second.rejoined.len(), 2, "everyone dead comes back");
        // With certain rejoin the alive count oscillates but never empties.
        assert!(s.alive().iter().filter(|&&a| a).count() >= 1);
    }

    #[test]
    fn validate_accepts_the_inactive_model() {
        assert_eq!(FaultModel::none().validate(1), Ok(()));
        assert_eq!(ServeFaultModel::none().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range_probabilities() {
        let model = FaultModel {
            dropout_per_horizon: 1.5,
            ..FaultModel::none()
        };
        assert_eq!(
            model.validate(4),
            Err(FaultModelError::ProbabilityOutOfRange {
                field: "dropout_per_horizon",
                value: 1.5,
            })
        );
        let model = FaultModel {
            keyframe_loss: f64::NAN,
            ..FaultModel::none()
        };
        assert!(matches!(
            model.validate(4),
            Err(FaultModelError::ProbabilityOutOfRange {
                field: "keyframe_loss",
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_min_alive_above_camera_count() {
        let model = FaultModel {
            min_alive: 5,
            ..FaultModel::none()
        };
        let err = model.validate(4).unwrap_err();
        assert_eq!(
            err,
            FaultModelError::MinAliveExceedsCameras {
                min_alive: 5,
                cameras: 4,
            }
        );
        assert!(err.to_string().contains("min_alive"));
        assert_eq!(model.validate(5), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_retry_timeout() {
        let model = FaultModel {
            retry_timeout_ms: -1.0,
            ..FaultModel::none()
        };
        assert_eq!(
            model.validate(1),
            Err(FaultModelError::BadRetryTimeout { value: -1.0 })
        );
    }

    #[test]
    fn serve_fault_validation_covers_every_constraint() {
        let base = ServeFaultModel::none();
        let bad_poison = ServeFaultModel {
            poison_per_frame: -0.1,
            ..base.clone()
        };
        assert_eq!(
            bad_poison.validate(),
            Err(ServeFaultError::PoisonOutOfRange { value: -0.1 })
        );
        let bad_crashes = ServeFaultModel {
            crash_at_us: vec![5_000_000, 5_000_000],
            ..base.clone()
        };
        assert_eq!(
            bad_crashes.validate(),
            Err(ServeFaultError::CrashTimesNotIncreasing)
        );
        let instant_restart = ServeFaultModel {
            crash_at_us: vec![5_000_000],
            restart_delay_us: 0,
            ..base.clone()
        };
        assert_eq!(
            instant_restart.validate(),
            Err(ServeFaultError::ZeroRestartDelay)
        );
        let bad_degrade = ServeFaultModel {
            degrades: vec![PoolDegrade {
                at_us: 0,
                capacity_factor: 0.0,
                service_inflation: 1.0,
            }],
            ..base.clone()
        };
        assert_eq!(
            bad_degrade.validate(),
            Err(ServeFaultError::BadCapacityFactor { value: 0.0 })
        );
        let bad_inflation = ServeFaultModel {
            degrades: vec![PoolDegrade {
                at_us: 0,
                capacity_factor: 1.0,
                service_inflation: f64::INFINITY,
            }],
            ..base.clone()
        };
        assert!(matches!(
            bad_inflation.validate(),
            Err(ServeFaultError::BadServiceInflation { .. })
        ));
        let unsorted = ServeFaultModel {
            degrades: vec![
                PoolDegrade {
                    at_us: 9,
                    capacity_factor: 0.5,
                    service_inflation: 1.0,
                },
                PoolDegrade {
                    at_us: 3,
                    capacity_factor: 1.0,
                    service_inflation: 1.0,
                },
            ],
            ..base
        };
        assert_eq!(
            unsorted.validate(),
            Err(ServeFaultError::DegradeTimesNotSorted)
        );
    }

    #[test]
    fn fault_stream_is_disjoint_from_world_and_camera_streams() {
        let mut fault = FaultState::new(FaultModel::none(), 42, 4);
        let first = fault.rng.gen::<u64>();
        let world = ChaCha8Rng::seed_from_u64(42).gen::<u64>();
        assert_ne!(first, world, "fault stream collides with the world");
        for i in 0..8 {
            let cam = crate::worker::CameraWorker::stream_rng(42, i).gen::<u64>();
            assert_ne!(first, cam, "fault stream collides with camera {i}");
        }
    }
}
