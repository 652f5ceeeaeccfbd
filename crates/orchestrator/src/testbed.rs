//! The monolithic-task scenario surface: Figure 2 as a configuration and
//! a summary.
//!
//! Tasks arrive over time (AI task manager), get their containers placed
//! (computing manager), their routing *proposed* by the configured policy
//! against a database snapshot, and their proposals *committed* — claims
//! validated, flow rules installed, wavelengths groomed — by the
//! [`Committer`](crate::Committer), all against live background traffic
//! and optional link faults. [`TestbedConfig`] describes such a scenario,
//! [`crate::EventTestbed`] runs it, and [`RunSummary`] aggregates the
//! Figure 3a/3b metrics over the per-task
//! [`flexsched_task::TaskReport`]s.

use crate::admission::{AdmissionConfig, AdmissionStats};
use flexsched_sched::{ReschedulePolicy, SelectionStrategy};
use flexsched_simnet::traffic::TrafficConfig;
use flexsched_simnet::{SimTime, Transport};
use flexsched_task::{TaskReport, WorkloadConfig};
use flexsched_topo::builders::MetroParams;

/// Scenario configuration.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Physical topology parameters.
    pub metro: MetroParams,
    /// Workload generation parameters (the paper's 30 tasks).
    pub workload: WorkloadConfig,
    /// Background traffic; `None` disables the traffic generator.
    pub traffic: Option<TrafficConfig>,
    /// Number of random link outages injected (0 = none).
    pub fault_count: usize,
    /// Fault schedule seed.
    pub fault_seed: u64,
    /// Mean outage repair time.
    pub mean_repair: SimTime,
    /// Transport protocol for model-weight transfers.
    pub transport: Transport,
    /// Local-model selection strategy.
    pub selection: SelectionStrategy,
    /// Rescheduling policy; `None` disables rescheduling.
    pub reschedule: Option<ReschedulePolicy>,
    /// Interval between rescheduling checks.
    pub reschedule_check: SimTime,
    /// Backoff before retrying a blocked task.
    pub retry_backoff: SimTime,
    /// Attempts before a task is declared blocked for good.
    pub max_retries: u32,
    /// Hard stop for the scenario clock.
    pub horizon: SimTime,
    /// Admission gate in front of the pipeline; `None` (default) runs
    /// ungated: a blocked start retries every `retry_backoff`, at most
    /// `max_retries` times. With a gate, arrivals get typed verdicts — sheds re-present after
    /// the verdict's backoff, blocked starts follow the gate's
    /// [`flexsched_sched::RetryPolicy`] (jittered exponential backoff,
    /// bounded attempts, decision deadline), and degraded mode routes
    /// non-critical tasks to the cheap fixed-tree scheduler.
    pub admission: Option<AdmissionConfig>,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            metro: MetroParams::default(),
            workload: WorkloadConfig::default(),
            traffic: None,
            fault_count: 0,
            fault_seed: 7,
            mean_repair: SimTime::from_ms(20),
            transport: Transport::tcp(),
            selection: SelectionStrategy::All,
            reschedule: None,
            reschedule_check: SimTime::from_ms(10),
            retry_backoff: SimTime::from_ms(10),
            max_retries: 500,
            horizon: SimTime::from_secs(60),
            admission: None,
        }
    }
}

/// Aggregated scenario outcome.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Scheduling policy that produced this run.
    pub scheduler: String,
    /// Per-task measurements (one per successfully scheduled task).
    pub reports: Vec<TaskReport>,
    /// Tasks that never got scheduled.
    pub blocked: u32,
    /// Schedule retries performed.
    pub retries: u32,
    /// Successful migrations (rescheduling events).
    pub reschedules: u32,
    /// Migrations that went through the incremental repair path (subset of
    /// `reschedules`).
    pub repairs: u32,
    /// Peak concurrently reserved bandwidth, Gbit/s·link.
    pub peak_reserved_gbps: f64,
    /// Time-weighted mean reserved bandwidth, Gbit/s·link.
    pub mean_reserved_gbps: f64,
    /// Sum over tasks of per-schedule bandwidth (the Figure-3b series).
    pub sum_task_bandwidth_gbps: f64,
    /// Mean per-iteration latency over all reports, ms (Figure 3a).
    pub mean_iteration_ms: f64,
    /// Wavelength-grooming placements that reused an existing lightpath.
    pub groom_reuse_hits: u64,
    /// Wavelength-grooming placements that lit a new wavelength.
    pub groom_new_lights: u64,
    /// Simulated duration.
    pub duration: SimTime,
    /// Events processed by the engine.
    pub events: u64,
    /// Tasks turned away for good by the admission gate or retry budget
    /// (0 without a gate — ungated runs report them under `blocked`).
    pub shed: u32,
    /// Decisions routed through the degraded (fixed-tree) path.
    pub degraded_decisions: u32,
    /// Final per-class admission counters when a gate was configured.
    pub admission: Option<AdmissionStats>,
    /// Per-task time-in-system and queueing-delay tails; `Some` for
    /// monolithic-task runs ([`crate::EventTestbed`]).
    pub sojourn: Option<crate::event_testbed::SojournStats>,
    /// DAG-job outcome (gang commits, per-job makespan and critical-path
    /// inflation); `Some` for DAG runs ([`crate::DagEventTestbed`]).
    pub dag: Option<crate::dag_testbed::DagStats>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventTestbed;
    use flexsched_sched::{FixedSpff, FlexibleMst};

    /// Every random stream in the scenario pinned to one explicit seed at
    /// the test site, so a failing draw replays from the seed alone.
    const TEST_SEED: u64 = 2024;

    fn quick_cfg(n_locals: usize) -> TestbedConfig {
        quick_cfg_seeded(n_locals, TEST_SEED)
    }

    fn quick_cfg_seeded(n_locals: usize, seed: u64) -> TestbedConfig {
        TestbedConfig {
            workload: WorkloadConfig::seeded_scenario(seed, 8, n_locals),
            fault_seed: seed,
            ..TestbedConfig::default()
        }
    }

    #[test]
    fn scenario_completes_all_tasks() {
        let tb = EventTestbed::new(quick_cfg(5), Box::new(FlexibleMst::paper()));
        let s = tb.run().unwrap();
        assert_eq!(s.reports.len(), 8);
        assert_eq!(s.blocked, 0);
        assert!(s.mean_iteration_ms > 0.0);
        assert!(s.events > 8);
    }

    #[test]
    fn bandwidth_returns_to_zero_after_run() {
        let tb = EventTestbed::new(quick_cfg(4), Box::new(FixedSpff));
        let db = tb.database().clone();
        let s = tb.run().unwrap();
        assert!(s.peak_reserved_gbps > 0.0);
        assert!(db.total_reserved_gbps().abs() < 1e-6, "reservations leaked");
    }

    #[test]
    fn flexible_beats_fixed_on_both_metrics_at_15_locals() {
        let fixed = EventTestbed::new(quick_cfg(15), Box::new(FixedSpff))
            .run()
            .unwrap();
        let flex = EventTestbed::new(quick_cfg(15), Box::new(FlexibleMst::paper()))
            .run()
            .unwrap();
        assert!(
            flex.mean_iteration_ms < fixed.mean_iteration_ms,
            "latency: flexible {} !< fixed {}",
            flex.mean_iteration_ms,
            fixed.mean_iteration_ms
        );
        assert!(
            flex.sum_task_bandwidth_gbps < fixed.sum_task_bandwidth_gbps,
            "bandwidth: flexible {} !< fixed {}",
            flex.sum_task_bandwidth_gbps,
            fixed.sum_task_bandwidth_gbps
        );
    }

    #[test]
    fn equal_seeds_reproduce_identical_summaries() {
        let a = EventTestbed::new(quick_cfg(6), Box::new(FlexibleMst::paper()))
            .run()
            .unwrap();
        let b = EventTestbed::new(quick_cfg(6), Box::new(FlexibleMst::paper()))
            .run()
            .unwrap();
        assert_eq!(a.reports, b.reports);
        assert_eq!(a.events, b.events);
        assert!((a.mean_reserved_gbps - b.mean_reserved_gbps).abs() < 1e-9);
    }

    #[test]
    fn background_traffic_slows_tasks_down() {
        let calm = EventTestbed::new(quick_cfg(8), Box::new(FixedSpff))
            .run()
            .unwrap();
        let mut cfg = quick_cfg(8);
        cfg.traffic = Some(TrafficConfig {
            mean_rate_gbps: 20.0,
            mean_interarrival: SimTime::from_us(100),
            mean_duration: SimTime::from_ms(5),
            ..TrafficConfig::default()
        });
        let busy = EventTestbed::new(cfg, Box::new(FixedSpff)).run().unwrap();
        assert!(
            busy.mean_iteration_ms > calm.mean_iteration_ms,
            "busy {} !> calm {}",
            busy.mean_iteration_ms,
            calm.mean_iteration_ms
        );
    }

    #[test]
    fn faults_with_rescheduling_still_complete() {
        let mut cfg = quick_cfg(5);
        cfg.fault_count = 4;
        cfg.reschedule = Some(ReschedulePolicy::default());
        let s = EventTestbed::new(cfg, Box::new(FlexibleMst::paper()))
            .run()
            .unwrap();
        assert_eq!(s.reports.len(), 8);
    }

    #[test]
    fn fault_storms_drive_the_repair_path() {
        // Enough outages over a long-enough busy window that some fault
        // lands inside a running tree; those migrations must go through
        // the incremental repair path (FlexibleMst repairs trees).
        let mut repaired_somewhere = false;
        for seed in [3u64, 7, 11, 19] {
            let mut cfg = quick_cfg_seeded(10, seed);
            cfg.workload.mean_interarrival_ns = 40_000_000;
            cfg.fault_count = 24;
            cfg.mean_repair = SimTime::from_ms(80);
            cfg.reschedule = Some(ReschedulePolicy::default());
            let s = EventTestbed::new(cfg, Box::new(FlexibleMst::paper()))
                .run()
                .unwrap();
            assert!(
                s.repairs <= s.reschedules,
                "repairs are a reschedule subset"
            );
            repaired_somewhere |= s.repairs > 0;
        }
        assert!(
            repaired_somewhere,
            "no storm seed exercised the repair path"
        );
    }

    #[test]
    fn repair_and_full_resolve_agree_on_task_completion() {
        let run = |prefer_repair: bool| {
            let mut cfg = quick_cfg(8);
            cfg.fault_count = 10;
            cfg.mean_repair = SimTime::from_ms(50);
            cfg.reschedule = Some(if prefer_repair {
                ReschedulePolicy::default()
            } else {
                ReschedulePolicy::full_resolve()
            });
            EventTestbed::new(cfg, Box::new(FlexibleMst::paper()))
                .run()
                .unwrap()
        };
        let with_repair = run(true);
        let without = run(false);
        // Repair must not lose tasks relative to the full re-solve policy.
        assert!(with_repair.reports.len() >= without.reports.len());
        assert_eq!(with_repair.blocked, without.blocked);
        assert_eq!(without.repairs, 0, "full_resolve must never repair");
    }

    #[test]
    fn grooming_reuses_wavelengths() {
        let s = EventTestbed::new(quick_cfg(8), Box::new(FlexibleMst::paper()))
            .run()
            .unwrap();
        assert!(
            s.groom_reuse_hits + s.groom_new_lights > 0,
            "grooming must have run"
        );
    }
}
