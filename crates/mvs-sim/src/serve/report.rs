//! What a serving run reports: per-tenant and fleet outcomes, and the
//! fold that assembles them when the loop has drained.

use mvs_metrics::{DegradationCounters, RecoveryCounters, Summary};
use mvs_trace::{Trace, TraceRecorder};
use serde::{Deserialize, Serialize};

use super::admission::{AdmissionDecision, AdmissionTransition};
use super::lane::IngestLane;
use super::{ServeConfig, ServeLoop, Tenant};

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

/// Aggregate outcome of a [`run_serve`](super::run_serve) simulation.
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

impl Tenant {
    /// Tears the tenant down into its report row (the caller numbers it)
    /// and its trace when tracing: reconciles trailing skips, finishes the
    /// pipeline (which walks every camera series) and summarizes latency.
    fn finalize(&mut self, traced: bool, fps: f64) -> (TenantReport, Option<Trace>) {
        let captured = if self.state.ever_served {
            self.state.next_capture
        } else {
            0
        };
        // Account for trailing frames never consumed by the core.
        self.reconcile_skips(captured);
        let lane = self.state.lanes.first();
        let (recall, degradation, trace) = match self.pipeline.take() {
            Some(pipeline) => {
                let (result, trace) = pipeline.finish();
                (result.recall, result.degradation, trace)
            }
            // Quarantined at the end of the run: the pipeline (and its
            // recall/trace history) died with the panic.
            None => (
                0.0,
                DegradationCounters::default(),
                traced.then(|| TraceRecorder::new(fps).finish()),
            ),
        };
        let report = TenantReport {
            tenant: 0,
            decision: self.state.decision,
            pilot_load_cores: self.state.load_cores,
            captured,
            processed: lane.map_or(0, IngestLane::delivered),
            queue_dropped: lane.map_or(0, IngestLane::dropped),
            policy_skipped: self.state.policy_skipped,
            replayed: self.state.replayed,
            max_lane_depth: self.state.max_lane_depth,
            e2e_ms: Summary::of_lenient(&self.state.e2e_ms),
            service_ms: Summary::of_lenient(&self.state.service_ms),
            recall,
            degradation,
        };
        (report, trace)
    }
}

impl ServeLoop {
    /// Assembles the final report (and per-tenant traces when tracing).
    ///
    /// Per-tenant finalization is independent across tenants, so it fans
    /// out on the persistent pool; only the cross-tenant folds (decision
    /// counts, fleet totals, the pooled latency distribution) run serially
    /// afterwards, in tenant-id order, exactly as a single-thread pass
    /// would.
    pub(super) fn into_report(self) -> (ServeReport, Option<Vec<Trace>>) {
        let (traced, fps) = (self.traced, self.config.fps);
        let mut tenants = self.tenants;
        let finals = mvs_exec::pool().par_map_mut(&mut tenants, self.threads, |tenant| {
            tenant.finalize(traced, fps)
        });
        let mut reports = Vec::with_capacity(tenants.len());
        let mut traces = traced.then(Vec::new);
        let mut pooled_e2e: Vec<f64> = Vec::new();
        let mut decisions = DecisionCounts::default();
        let (mut captured, mut processed, mut queue_dropped) = (0u64, 0u64, 0u64);
        let (mut policy_skipped, mut replayed) = (0u64, 0u64);
        for ((mut report, trace), tenant) in finals.into_iter().zip(&tenants) {
            decisions.count(report.decision);
            if let (Some(ts), Some(tr)) = (traces.as_mut(), trace) {
                ts.push(tr);
            }
            if tenant.state.ever_served {
                captured += report.captured;
                processed += report.processed;
                queue_dropped += report.queue_dropped;
                policy_skipped += report.policy_skipped;
                replayed += report.replayed;
                pooled_e2e.extend_from_slice(&tenant.state.e2e_ms);
            }
            report.tenant = reports.len();
            reports.push(report);
        }
        let state = self.state;
        let serving_span_us = self.frames_per_tenant * self.interval_us;
        // Share of the serving window `us` covers (0 for zero-length runs).
        let share = |us: u64| {
            if serving_span_us > 0 {
                us as f64 / serving_span_us as f64
            } else {
                0.0
            }
        };
        let report = ServeReport {
            config: self.config,
            tenants: reports,
            admitted_load_cores: state.admitted_load_cores,
            captured,
            processed,
            queue_dropped,
            policy_skipped,
            replayed,
            drop_rate: if captured > 0 {
                (queue_dropped + policy_skipped) as f64 / captured as f64
            } else {
                0.0
            },
            e2e_ms: Summary::of_lenient(&pooled_e2e),
            core_utilization: share(state.core_busy_us),
            decisions,
            availability: (1.0 - share(state.recovery.outage_us)).clamp(0.0, 1.0),
            recovery: state.recovery,
            transitions: state.transitions,
            post_recovery_e2e_ms: Summary::of_lenient(&state.post_recovery_e2e),
        };
        (report, traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
