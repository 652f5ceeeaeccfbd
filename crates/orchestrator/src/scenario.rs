//! The monolithic-task scenario surface: Figure 2 as a configuration and
//! a summary.
//!
//! Tasks arrive over time (AI task manager), get their containers placed
//! (computing manager), their routing *proposed* by the configured policy
//! against a database snapshot, and their proposals *committed* — schedules
//! validated and wavelengths groomed by the
//! [`Committer`](crate::Committer), bandwidth reserved as the schedule is
//! stored in the [`Database`](crate::Database) — all against live background traffic
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
    /// The rescheduling check's batching quantum (and the admission gate's
    /// clock prompt). A check does not poll every running schedule: each
    /// interval it reconsiders the running tasks that finished an
    /// iteration since the previous check looked at them, plus those
    /// whose schedule crosses a dead link; link faults and heals are
    /// reacted to at their own events, whatever this is set to. Must be
    /// non-zero when `reschedule` or `admission` is set.
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
    /// Per-task measurements at commit time, one per started task (per
    /// committed stage in a DAG run). An [`crate::EventTestbed`] run keeps
    /// them only when traced; untraced, this is empty and the Figure-3
    /// means below come from commit-time sums.
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
    /// Mean per-iteration latency over all started tasks, ms (Figure 3a).
    pub mean_iteration_ms: f64,
    /// Wavelength-grooming placements that reused an existing lightpath.
    pub groom_reuse_hits: u64,
    /// Wavelength-grooming placements that lit a new wavelength.
    pub groom_new_lights: u64,
    /// The grooming manager's work: walks, segment placements, index
    /// probes, registry lookups, rollbacks and the placements they undid.
    pub groom_work: flexsched_optical::GroomWork,
    /// The scheduling decisions' work in the pipeline's scratch pool:
    /// searches, Steiner solves and the nodes of the trees they built,
    /// link weights priced and terminal-core links.
    pub search_work: flexsched_topo::algo::SearchWork,
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
