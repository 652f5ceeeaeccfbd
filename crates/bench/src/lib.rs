//! # flexsched-bench — figure regeneration and reference harnesses
//!
//! Scenario builders for the `figures` binary (which reprints every
//! evaluation artifact of the paper) and one bin that asserts what no test
//! does: `horizon_sweep` (bounded memory across three decades of horizon).
//! The seed's KMB scheduler, the reference `tests/equivalence.rs` compares
//! against, lives under `tests/reference/`. The overload criterion and the
//! fault-storm repair-vs-resolve differential run on the shipped pipeline
//! (`flexsched-orchestrator`'s test-only `overload` and `faultstorm`
//! modules). Performance is measured in `benchmark/` at the repo root, not
//! here.

use flexsched_orchestrator::{EventTestbed, RunSummary, TestbedConfig};
use flexsched_sched::{FixedSpff, FlexibleMst, ReschedulePolicy, Scheduler, SelectionStrategy};
use flexsched_simnet::{SimTime, Transport};
use flexsched_task::WorkloadConfig;
use flexsched_topo::builders::MetroParams;

/// Which policy a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The SPFF baseline.
    Fixed,
    /// The proposed MST scheduler.
    Flexible,
    /// The MST scheduler with in-network aggregation disabled (A6).
    FlexibleNoAgg,
}

impl Policy {
    /// Instantiate the scheduler.
    pub(crate) fn build(self) -> Box<dyn Scheduler> {
        match self {
            Policy::Fixed => Box::new(FixedSpff),
            Policy::Flexible => Box::new(FlexibleMst::paper()),
            Policy::FlexibleNoAgg => Box::new(FlexibleMst::without_aggregation()),
        }
    }

    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Fixed => "fixed",
            Policy::Flexible => "flexible",
            Policy::FlexibleNoAgg => "flexible-noagg",
        }
    }
}

/// The evaluation scenario of the poster: 30 AI tasks on the metro testbed
/// with `n_locals` local models per task. Arrivals are spread (mean 150 ms
/// apart) so tasks overlap lightly, as on the small hardware testbed
/// where per-task latencies sit in the low-millisecond range.
pub(crate) fn paper_config(n_locals: usize, num_tasks: usize, seed: u64) -> TestbedConfig {
    TestbedConfig {
        metro: MetroParams::default(),
        workload: WorkloadConfig {
            num_tasks,
            locals_per_task: n_locals,
            seed,
            mean_interarrival_ns: 150_000_000,
            ..WorkloadConfig::default()
        },
        ..TestbedConfig::default()
    }
}

/// Run one Figure-3 sweep point: returns the scenario summary.
pub fn fig3_point(policy: Policy, n_locals: usize, num_tasks: usize, seed: u64) -> RunSummary {
    EventTestbed::new(paper_config(n_locals, num_tasks, seed), policy.build())
        .run()
        .expect("scenario must complete")
}

/// The local-model counts swept by Figure 3.
pub const FIG3_SWEEP: [usize; 5] = [3, 6, 9, 12, 15];

/// Run a selection-strategy scenario (A1).
pub fn selection_point(strategy: SelectionStrategy, n_locals: usize, seed: u64) -> RunSummary {
    let cfg = TestbedConfig {
        selection: strategy,
        ..paper_config(n_locals, 20, seed)
    };
    EventTestbed::new(cfg, Policy::Flexible.build())
        .run()
        .expect("scenario must complete")
}

/// Run a rescheduling scenario under faults and churn (A2).
pub fn reschedule_point(policy: Policy, with_rescheduling: bool, seed: u64) -> RunSummary {
    let mut cfg = TestbedConfig {
        fault_count: 12,
        fault_seed: seed,
        mean_repair: SimTime::from_ms(200),
        traffic: Some(flexsched_simnet::traffic::TrafficConfig {
            mean_rate_gbps: 8.0,
            seed,
            ..Default::default()
        }),
        reschedule: with_rescheduling.then(ReschedulePolicy::default),
        ..paper_config(8, 20, seed)
    };
    // Confine the outage window to the busy part of the scenario so faults
    // actually intersect running schedules.
    cfg.horizon = SimTime::from_secs(6);
    EventTestbed::new(cfg, policy.build())
        .run()
        .expect("scenario must complete")
}

/// Run a transport-comparison scenario (A3): same workload, different wire.
pub fn transport_point(policy: Policy, transport: Transport, seed: u64) -> RunSummary {
    let cfg = TestbedConfig {
        transport,
        ..paper_config(8, 20, seed)
    };
    EventTestbed::new(cfg, policy.build())
        .run()
        .expect("scenario must complete")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_point_runs_quickly_at_small_scale() {
        let s = fig3_point(Policy::Flexible, 3, 5, 1);
        assert_eq!(s.reports.len(), 5);
        assert!(s.mean_iteration_ms > 0.0);
    }

    #[test]
    fn policies_have_distinct_labels() {
        assert_ne!(Policy::Fixed.label(), Policy::Flexible.label());
        assert_ne!(Policy::Flexible.label(), Policy::FlexibleNoAgg.label());
    }
}
