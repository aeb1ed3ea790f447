//! Faults and coming back from them: checkpoints, coordinator crash and
//! restore, and poison → quarantine isolation of a single tenant.
//!
//! What a checkpoint contains is exactly [`LoopState`] plus every tenant's
//! [`TenantState`](super::TenantState): taking one clones them, restoring
//! one assigns them back and rebuilds what they do not hold (pipelines,
//! the chaos stream position, the crash cursor).

use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use mvs_exec::pool;
use rand::Rng;
use serde::{Deserialize, Serialize};

use super::admission::{pilot_load, AdmissionDecision, AdmissionTransition, TransitionReason};
use super::{
    chaos_stream, skip_until, LoopState, ServeConfig, ServeConfigError, ServeLoop, Tenant,
    TenantState,
};
use crate::runtime::PoisonPanic;

/// A serializable checkpoint of the whole serve loop: clock, accounting,
/// chaos-stream position, and per-tenant state including each pipeline's
/// replay recipe. Produced by [`ServeLoop::snapshot`] (and automatically
/// on the [`ServeConfig::snapshot_every_horizons`] cadence); consumed by
/// [`ServeLoop::recover`]. Restoring a snapshot and running to completion
/// yields bitwise the same report as the run that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSnapshot {
    core: LoopState,
    tenants: Vec<TenantState>,
}

impl ServeSnapshot {
    /// Virtual time the snapshot was taken, µs.
    #[must_use]
    pub fn taken_at_us(&self) -> u64 {
        self.core.now_us
    }
}

impl TenantState {
    /// Checks what [`Tenant::rebuild`] and the event loop take on trust
    /// from a checkpoint: a snapshot is deserialized outside input, and a
    /// recipe naming a frame the loop never dispatches would be replayed
    /// for as long as the number says. `frames` is the capture window.
    fn validate(&self, frames: u64, max_keep_every: u64) -> Result<(), &'static str> {
        if !(1..=max_keep_every).contains(&self.keep_every) {
            return Err("keep_every is outside 1..=max_keep_every");
        }
        if self.next_capture > frames {
            return Err("capture cursor is past the capture window");
        }
        let quarantined = self.decision == AdmissionDecision::Quarantined;
        let recipe = match (&self.recipe, quarantined) {
            (None, true) => return Ok(()),
            (None, false) => return Err("a tenant that is not quarantined has no replay recipe"),
            (Some(_), true) => return Err("a quarantined tenant has a replay recipe"),
            (Some(recipe), false) => recipe,
        };
        if recipe.base > self.next_capture {
            return Err("replay recipe starts past the capture cursor");
        }
        // What `try_dispatch` emits: strictly increasing serving frames of
        // the window, none before the pipeline's anchor.
        let mut floor = recipe.base;
        for &frame in &recipe.processed {
            if frame < floor || frame >= frames {
                return Err("replay recipe is not strictly increasing within the capture window");
            }
            floor = frame + 1;
        }
        Ok(())
    }
}

impl Tenant {
    /// Rebuilds the pipeline a restored [`TenantState`] describes by
    /// replaying its recipe: start from the tenant's deployment and pilot
    /// exactly as admission did, shed if admission shed, then the exact
    /// skip/step sequence — O(frames replayed), with no training term once
    /// the deployment exists. Leaves a quarantined tenant (no recipe)
    /// without a pipeline.
    fn rebuild(&mut self, fps: f64, traced: bool) {
        self.pipeline = None;
        let Some(recipe) = self.state.recipe.as_ref() else {
            return;
        };
        let (mut pipeline, _) = self.deploy(fps, traced);
        if recipe.shed {
            pipeline.set_redundancy(1);
            let _ = pilot_load(&mut pipeline, self.pipe_config.horizon, fps);
        }
        let serve_start = pipeline.next_frame();
        let mut replay_ms = 0.0;
        for &frame in &recipe.processed {
            skip_until(
                &mut pipeline,
                serve_start,
                frame.saturating_sub(recipe.base),
            );
            let cost = pipeline.step();
            if cost.is_finite() {
                replay_ms += cost;
            }
        }
        pipeline.note_recovery(replay_ms, recipe.processed.len());
        self.serve_start = serve_start;
        self.pipeline = Some(pipeline);
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

impl ServeLoop {
    /// Rebuilds a crashed coordinator from a checkpoint: validates the
    /// configuration against the snapshot, reconstructs every tenant
    /// pipeline by replaying its recipe, and positions the clock at
    /// `resume_at_us` (clamped to no earlier than the snapshot itself).
    /// Frames whose capture instants fall between the snapshot and the
    /// resume point are counted as replay loss, exactly as an in-run
    /// crash would count them.
    ///
    /// This is pure state reconstruction — it does *not* increment
    /// [`RecoveryCounters::restarts`](mvs_metrics::RecoveryCounters::restarts)
    /// (scheduled in-run crashes do); resuming from the snapshot a run
    /// just took yields bitwise the run's own continuation.
    ///
    /// # Errors
    ///
    /// Everything [`ServeConfig::validate`] rejects, plus
    /// [`ServeConfigError::SnapshotMismatch`] /
    /// [`ServeConfigError::SnapshotCameraMismatch`] when the snapshot was
    /// taken on a deployment with a different tenant count / a different
    /// number of cameras per tenant than the configuration's, and
    /// [`ServeConfigError::SnapshotCorrupt`] when the snapshot holds state
    /// no run checkpoints (a replay recipe that is not a strictly
    /// increasing frame sequence inside the capture window, a capture
    /// cursor or thinning divisor out of range, a recipe on a quarantined
    /// tenant or none on a live one, more chaos draws than frames, a
    /// checkpoint cadence the configuration does not have). All are
    /// checked before any tenant is deployed.
    pub fn recover(
        config: &ServeConfig,
        snapshot: &ServeSnapshot,
        resume_at_us: u64,
    ) -> Result<ServeLoop, ServeConfigError> {
        let mut served = ServeLoop::skeleton(config, false)?;
        if snapshot.tenants.len() != config.tenants {
            return Err(ServeConfigError::SnapshotMismatch {
                expected: config.tenants,
                got: snapshot.tenants.len(),
            });
        }
        let mut cameras = snapshot.tenants.iter().map(|t| t.lanes.len());
        if let Some(got) = cameras.find(|&n| n != config.cameras_per_tenant) {
            return Err(ServeConfigError::SnapshotCameraMismatch {
                expected: config.cameras_per_tenant,
                got,
            });
        }
        let corrupt = |tenant, reason| ServeConfigError::SnapshotCorrupt { tenant, reason };
        for (tenant, state) in snapshot.tenants.iter().enumerate() {
            state
                .validate(served.frames_per_tenant, config.max_keep_every)
                .map_err(|reason| corrupt(Some(tenant), reason))?;
        }
        // The two loop-level counts a restore iterates over. Every chaos
        // draw decides the fate of one waiting frame, so there are at most
        // as many as frames captured.
        let captured = snapshot
            .tenants
            .iter()
            .fold(0u64, |sum, t| sum.saturating_add(t.next_capture));
        if snapshot.core.chaos_draws > captured {
            return Err(corrupt(None, "more chaos draws than captured frames"));
        }
        if snapshot.core.next_snapshot_us.is_some() && served.snapshot_period_us == 0 {
            return Err(corrupt(
                None,
                "a checkpoint cadence is pending but the configuration disables snapshotting",
            ));
        }
        served.restore(snapshot.clone(), resume_at_us.max(snapshot.taken_at_us()));
        served.last_snapshot = Some(snapshot.clone());
        Ok(served)
    }

    /// Checkpoints the loop's full live state. Cheap relative to a run:
    /// pipelines are captured as replay recipes, not world state.
    #[must_use]
    pub fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            core: self.state.clone(),
            tenants: self.tenants.iter().map(|t| t.state.clone()).collect(),
        }
    }

    /// Takes the cadence checkpoint when one is due.
    pub(super) fn take_due_snapshot(&mut self) {
        let now_us = self.state.now_us;
        let Some(mut next) = self.state.next_snapshot_us.filter(|&n| n <= now_us) else {
            return;
        };
        while next <= now_us {
            next += self.snapshot_period_us;
        }
        self.state.next_snapshot_us = Some(next);
        self.state.recovery.snapshots_taken += 1;
        self.last_snapshot = Some(self.snapshot());
    }

    /// A scheduled coordinator crash at `at_us`: everything since the
    /// last checkpoint is lost; after the restart delay the loop resumes
    /// from that checkpoint, the capture gap counted as replay loss. The
    /// moment it resumes it re-checkpoints, so a back-to-back crash never
    /// replays the same gap twice and the recovery counters are durable.
    pub(super) fn crash(&mut self, at_us: u64) {
        let snap = self
            .last_snapshot
            .take()
            .expect("scheduled crashes require snapshotting (validated)");
        let resume = at_us + self.config.chaos.restart_delay_us;
        let staleness = resume.saturating_sub(snap.taken_at_us());
        self.restore(snap, resume);
        let recovery = &mut self.state.recovery;
        recovery.restarts += 1;
        recovery.outage_us += resume - at_us;
        recovery.staleness_at_resume_us = recovery.staleness_at_resume_us.max(staleness);
        recovery.snapshots_taken += 1;
        self.recovering_since_us = Some(at_us);
        self.last_snapshot = Some(self.snapshot());
    }

    /// Restores the loop to `snap`, positioned at `resume_at_us`: assigns
    /// the checkpointed state back, rewinds the chaos stream, rebuilds
    /// every tenant pipeline from its replay recipe, fast-forwards each
    /// tenant's capture clock over the snapshot→resume gap (counting those
    /// frames as replay loss), and re-fits the admitted mix. Scheduled
    /// chaos between the snapshot and the resume point re-fires naturally
    /// on the next loop iteration.
    fn restore(&mut self, snap: ServeSnapshot, resume_at_us: u64) {
        self.state = snap.core;
        self.state.now_us = resume_at_us;
        // Crashes strictly before the resume point are spent: the one
        // that triggered this restore, and any that the outage swallowed.
        // (Validation guarantees a positive restart delay, so the
        // triggering crash always satisfies `c < resume`.)
        let crashes = &self.config.chaos.crash_at_us;
        self.crash_idx = crashes.iter().filter(|&&c| c < resume_at_us).count();
        self.chaos_rng = chaos_stream(self.config.chaos.seed);
        for _ in 0..self.state.chaos_draws {
            let _: f64 = self.chaos_rng.gen();
        }
        if let Some(next) = self.state.next_snapshot_us.as_mut() {
            // Strict `<`: a cadence point exactly at the resume instant
            // still fires, matching an uninterrupted run.
            while *next < resume_at_us {
                *next += self.snapshot_period_us;
            }
        }
        for (tenant, state) in self.tenants.iter_mut().zip(snap.tenants) {
            tenant.state = state;
        }
        // Tenant rebuilds are independent (each replays its own private
        // recipe against its own RNG streams), so they fan out across the
        // pool; the shared-clock fast-forward below stays serial.
        let (fps, traced) = (self.config.fps, self.traced);
        pool().par_for_each_mut(&mut self.tenants, self.threads, |tenant| {
            tenant.rebuild(fps, traced);
        });
        for tenant in self.tenants.iter_mut() {
            if tenant.state.decision == AdmissionDecision::Rejected {
                continue;
            }
            let gap =
                tenant.captures_before(resume_at_us, self.interval_us, self.frames_per_tenant);
            tenant.state.replayed += gap.end - gap.start;
            self.state.recovery.replayed_frames += gap.end - gap.start;
        }
        self.recovering_since_us = None;
        self.reevaluate(TransitionReason::Recovery);
    }

    /// Poisons tenant `id`'s next pipeline step and drives it: the step
    /// panics, the panic is caught and verified to be the injected
    /// [`PoisonPanic`], and the tenant is quarantined. Any *other* panic
    /// payload is resumed — chaos isolation must not mask real bugs.
    pub(super) fn poison(&mut self, id: usize) {
        install_poison_hook();
        let pipeline = self.tenants[id]
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
        self.state.recovery.poisoned_steps += 1;
        self.quarantine(id);
    }

    /// Isolates tenant `id` after a pipeline panic: tears the pipeline
    /// down, drops its waiting frame (counted as a lane drop), marks the
    /// tenant [`AdmissionDecision::Quarantined`] until the chaos model's
    /// quarantine window expires, and re-fits the remaining mix to the
    /// freed capacity.
    fn quarantine(&mut self, id: usize) {
        let now_us = self.state.now_us;
        let tenant = &mut self.tenants[id];
        let from = tenant.state.decision;
        tenant.pipeline = None;
        tenant.state.recipe = None;
        for lane in tenant.state.lanes.iter_mut() {
            lane.clear_pending();
        }
        tenant.state.decision = AdmissionDecision::Quarantined;
        tenant.state.quarantined_until_us = Some(now_us + self.config.chaos.quarantine_us);
        tenant.state.load_cores = 0.0;
        self.state.recovery.quarantines += 1;
        self.state.transitions.push(AdmissionTransition {
            at_us: now_us,
            tenant: id,
            from,
            to: AdmissionDecision::Quarantined,
            reason: TransitionReason::Quarantine,
        });
        self.reevaluate(TransitionReason::Quarantine);
    }
}
