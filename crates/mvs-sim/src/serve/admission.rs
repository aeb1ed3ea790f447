//! Admission control: which rung of the degradation ladder each tenant
//! is served on, decided at start-up and re-decided whenever capacity
//! shifts. The ladder arithmetic ([`fit_keep_every`], [`rung`]) is pure;
//! the only stateful step is the re-pilot after shedding redundancy.

use std::sync::Arc;

use mvs_exec::pool;
use serde::{Deserialize, Serialize};

use super::{PipelineRecipe, ServeLoop, Tenant};
use crate::runtime::{Deployment, TenantPipeline};
use crate::scenario::Scenario;

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

/// The shallowest frame thinning that fits: the smallest `d` in
/// `1..=max_keep_every` such that a tenant of pilot load `load` (cores,
/// before thinning) fits `budget` cores when one frame in `d` is served.
/// `inflation` scales the pilot load to the pool's current straggler
/// factor. `None` when even the deepest rung does not fit.
pub(super) fn fit_keep_every(
    load: f64,
    inflation: f64,
    budget: f64,
    max_keep_every: u64,
) -> Option<u64> {
    (1..=max_keep_every).find(|&d| load * inflation / d as f64 <= budget)
}

/// The rung a served tenant sits on, given its thinning divisor and
/// whether its redundancy was shed (thinning is the deeper rung, so it
/// names the decision whenever it applies).
pub(super) fn rung(keep_every: u64, shed: bool) -> AdmissionDecision {
    if keep_every > 1 {
        AdmissionDecision::Degraded { keep_every }
    } else if shed {
        AdmissionDecision::ShedRedundancy
    } else {
        AdmissionDecision::Admitted
    }
}

/// Measures a tenant's steady-state core load over a pilot horizon:
/// steps `horizon` frames back to back and averages the modeled service
/// cost into cores at `fps`.
pub(super) fn pilot_load(pipeline: &mut TenantPipeline, horizon: usize, fps: f64) -> f64 {
    let mut total_ms = 0.0;
    for _ in 0..horizon {
        let cost = pipeline.step();
        if cost.is_finite() {
            total_ms += cost;
        }
    }
    total_ms / horizon.max(1) as f64 * fps / 1e3
}

impl Tenant {
    /// Starts a fresh pipeline on the tenant's deployment — tracing
    /// included — and takes the unconditional first pilot. Returns the
    /// pipeline and the pilot load in cores. Admission, quarantine
    /// re-admission and snapshot restore all start here, so a restored
    /// pipeline's RNG and world state line up with the original's. Only the
    /// first call generates the scenario and trains; every later one
    /// starts from the same post-warm-up world and trained models.
    pub(super) fn deploy(&self, fps: f64, traced: bool) -> (TenantPipeline, f64) {
        let deployment = self.deployment.get_or_init(|| {
            let mut scenario = Scenario::city(&self.city);
            scenario.fps = fps;
            Arc::new(Deployment::build(&scenario, &self.pipe_config))
        });
        let mut pipeline = TenantPipeline::start(Arc::clone(deployment));
        if traced {
            pipeline.enable_tracing();
        }
        let first_load = pilot_load(&mut pipeline, self.pipe_config.horizon, fps);
        (pipeline, first_load)
    }
}

impl ServeLoop {
    /// Deploys tenants `ids` across the pool. Deployment and the first
    /// pilot are budget-independent, so they fan out; the ladder walks
    /// that consume the result ([`ServeLoop::place`]) stay serial in id
    /// order because each placement shrinks the next one's budget — bitwise
    /// the fully serial sequence at any thread count.
    pub(super) fn deploy(&self, ids: &[usize]) -> Vec<(TenantPipeline, f64)> {
        let (fps, traced) = (self.config.fps, self.traced);
        pool().par_map(ids, self.threads, |&id| {
            self.tenants[id].deploy(fps, traced)
        })
    }

    /// Walks tenant `id` down the admission ladder against the pool's
    /// spare capacity — admit, shed redundancy, thin frames, reject — and
    /// installs its freshly deployed `pipeline` (first pilot already
    /// taken: `first_load`) at the resulting rung. On a healthy pool the
    /// capacity and inflation factors are 1.0, which leaves the arithmetic
    /// bitwise that of a chaos-free build.
    pub(super) fn place(
        &mut self,
        id: usize,
        mut pipeline: TenantPipeline,
        first_load: f64,
    ) -> AdmissionDecision {
        let budget = self.config.capacity_cores * self.state.capacity_factor
            - self.state.admitted_load_cores;
        let inflation = self.state.service_inflation;
        let max_keep_every = self.config.max_keep_every;
        let tenant = &mut self.tenants[id];
        let mut load = first_load;
        let mut fit = fit_keep_every(load, inflation, budget, max_keep_every);
        // Rung 1: shed redundancy — extra assignment copies cost compute
        // without adding coverage of new objects. The re-pilot is the one
        // budget-dependent pipeline step, hence inside the serial walk.
        let shed = fit != Some(1) && self.config.redundancy > 1 && pipeline.redundancy() > 1;
        if shed {
            pipeline.set_redundancy(1);
            load = pilot_load(&mut pipeline, tenant.pipe_config.horizon, self.config.fps);
            fit = fit_keep_every(load, inflation, budget, max_keep_every);
        }
        // Rung 2: thin frames — process one captured frame in d.
        let (decision, keep_every) = match fit {
            Some(d) => (rung(d, shed), d),
            None => (AdmissionDecision::Rejected, 1),
        };
        let state = &mut tenant.state;
        state.decision = decision;
        state.keep_every = keep_every;
        state.base_load_cores = load;
        state.load_cores = load / keep_every as f64;
        state.recipe = Some(PipelineRecipe {
            shed,
            base: state.next_capture,
            processed: Vec::new(),
        });
        state.quarantined_until_us = None;
        if decision != AdmissionDecision::Rejected {
            state.ever_served = true;
            self.state.admitted_load_cores += state.load_cores;
        }
        tenant.serve_start = pipeline.next_frame();
        tenant.pipeline = Some(pipeline);
        decision
    }

    /// Re-admits every tenant whose quarantine window has expired: each
    /// starts a fresh pipeline on the deployment it kept through the
    /// quarantine (its world restarts at the post-warm-up state; nothing
    /// retrains) and walks the ladder against the current spare capacity.
    pub(super) fn readmit_due(&mut self) {
        let now_us = self.state.now_us;
        let due: Vec<usize> = (0..self.tenants.len())
            .filter(|&id| {
                self.tenants[id]
                    .state
                    .quarantined_until_us
                    .is_some_and(|q| q <= now_us)
            })
            .collect();
        if due.is_empty() {
            return;
        }
        for (&id, (pipeline, first_load)) in due.iter().zip(self.deploy(&due)) {
            self.state.recovery.readmissions += 1;
            let to = self.place(id, pipeline, first_load);
            self.state.transitions.push(AdmissionTransition {
                at_us: now_us,
                tenant: id,
                from: AdmissionDecision::Quarantined,
                to,
                reason: TransitionReason::Readmission,
            });
            self.reevaluate(TransitionReason::Readmission);
        }
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
    pub(super) fn reevaluate(&mut self, reason: TransitionReason) {
        let budget = self.config.capacity_cores * self.state.capacity_factor;
        let inflation = self.state.service_inflation;
        let max_keep_every = self.config.max_keep_every;
        let (now_us, interval_us, frames) =
            (self.state.now_us, self.interval_us, self.frames_per_tenant);
        let allow_readmit = reason != TransitionReason::TenantFinished;
        let n = self.tenants.len();
        // reserved_after[i]: inflated load currently held by tenants i.. .
        let mut reserved_after = vec![0.0f64; n + 1];
        for (i, t) in self.tenants.iter().enumerate().rev() {
            let s = &t.state;
            let idle = matches!(
                s.decision,
                AdmissionDecision::Rejected | AdmissionDecision::Quarantined
            ) || s.next_capture >= frames;
            let active = if idle { 0.0 } else { s.load_cores * inflation };
            reserved_after[i] = reserved_after[i + 1] + active;
        }
        let mut used_eff = 0.0f64; // inflated load of tenants settled so far
        let mut used_raw = 0.0f64; // un-inflated (reported) load of the same
        for (id, tenant) in self.tenants.iter_mut().enumerate() {
            let finished = tenant.state.next_capture >= frames;
            let from = tenant.state.decision;
            let was_rejected = from == AdmissionDecision::Rejected;
            let Some(recipe) = tenant.state.recipe.as_ref() else {
                continue; // quarantined: no pipeline to serve with
            };
            if finished || (was_rejected && !allow_readmit) {
                continue;
            }
            let headroom = budget - used_eff - reserved_after[id + 1];
            let base = tenant.state.base_load_cores;
            let keep = match fit_keep_every(base, inflation, headroom + 1e-12, max_keep_every) {
                Some(d) => d,
                None if was_rejected => continue, // still does not fit
                // Pool shrank under a live tenant: clamp, don't evict.
                None => max_keep_every,
            };
            let to = rung(keep, recipe.shed);
            if was_rejected {
                // Re-admission: the frames it sat out were withheld by
                // policy; fast-forward its capture clock over them.
                let sat_out = tenant.captures_before(now_us, interval_us, frames);
                tenant.state.policy_skipped += sat_out.end - sat_out.start;
                tenant.state.ever_served = true;
            }
            let load = base / keep as f64;
            tenant.state.decision = to;
            tenant.state.keep_every = keep;
            tenant.state.load_cores = load;
            used_eff += load * inflation;
            used_raw += load;
            if to != from {
                self.state.transitions.push(AdmissionTransition {
                    at_us: now_us,
                    tenant: id,
                    from,
                    to,
                    reason,
                });
            }
        }
        self.state.admitted_load_cores = used_raw;
    }
}

#[cfg(test)]
mod tests {
    use super::AdmissionDecision::{Admitted, Degraded, Rejected, ShedRedundancy};
    use super::*;

    /// Where the ladder arithmetic puts a tenant; `Rejected` when nothing
    /// fits. Initial admission passes the spare budget as is,
    /// re-evaluation passes its headroom plus the rounding allowance.
    fn placed(load: f64, inflation: f64, budget: f64, max: u64, shed: bool) -> AdmissionDecision {
        fit_keep_every(load, inflation, budget, max).map_or(Rejected, |d| rung(d, shed))
    }

    #[test]
    fn ladder_arithmetic_places_tenants_on_the_shallowest_fitting_rung() {
        // (load, inflation, budget, max_keep_every, shed) -> decision
        let cases = [
            (1.0, 1.0, 2.0, 4, false, Admitted),
            (1.0, 1.0, 1.0, 4, false, Admitted), // exactly fits: `<=`
            (1.0, 1.0, 1.0, 4, true, ShedRedundancy),
            (1.0, 1.5, 1.0, 4, false, Degraded { keep_every: 2 }),
            (1.0, 1.0, 0.5, 4, true, Degraded { keep_every: 2 }),
            (3.0, 1.0, 1.0, 4, false, Degraded { keep_every: 3 }),
            (4.0, 1.0, 1.0, 4, false, Degraded { keep_every: 4 }),
            (4.1, 1.0, 1.0, 4, false, Rejected),
            (1.0, 1.0, 0.9, 1, false, Rejected), // ladder has rung 1 only
            (1.0, 1.0, 0.0, 4, false, Rejected), // no budget left
            (1.0, 1.0, -0.5, 4, true, Rejected), // over-committed pool
            (0.0, 1.0, 0.0, 4, false, Admitted), // an idle tenant always fits
        ];
        for (load, inflation, budget, max, shed, want) in cases {
            assert_eq!(
                placed(load, inflation, budget, max, shed),
                want,
                "load {load} x{inflation} into {budget} (max {max}, shed {shed})"
            );
            // Admission and re-evaluation are the same function of the
            // budget they are handed: where a tenant is not within the
            // allowance of a rung boundary they agree.
            assert_eq!(
                placed(load, inflation, budget + 1e-12, max, shed),
                want,
                "re-evaluation disagrees with admission"
            );
            // Admission's shed trigger, `load * inflation > budget`, is
            // "rung 1 does not fit".
            assert_eq!(
                load * inflation > budget,
                fit_keep_every(load, inflation, budget, 1).is_none()
            );
        }
        // The allowance itself: a load one rounding error over the
        // headroom stays where it is on re-evaluation.
        let base = 0.1 + 0.2; // 0.30000000000000004
        assert_eq!(placed(base, 1.0, 0.3, 4, false), Degraded { keep_every: 2 });
        assert_eq!(placed(base, 1.0, 0.3 + 1e-12, 4, false), Admitted);
    }

    #[test]
    fn thinning_outranks_shedding_in_the_reported_rung() {
        assert_eq!(rung(1, false), Admitted);
        assert_eq!(rung(1, true), ShedRedundancy);
        assert_eq!(rung(3, false), Degraded { keep_every: 3 });
        assert_eq!(rung(3, true), Degraded { keep_every: 3 });
    }
}
