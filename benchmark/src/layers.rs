//! The benchmark's single adapter onto the program under test.
//!
//! **This is the only file that names items from the `flexsched_*`
//! crates.** Everything else in the benchmark reaches the program through
//! the re-exports and the spanned wrappers below, so this file *is* the API
//! surface a later consolidation PR must keep (or re-export under the same
//! paths): such a PR may not edit `benchmark/`.
//!
//! # Public functions the benchmark calls
//!
//! | layer (span)            | items called                                                                 |
//! |-------------------------|------------------------------------------------------------------------------|
//! | *(real drivers)*        | `EventTestbed::{new, with_memory_mode, database, run_detailed}`, `MemoryMode::Bounded`, `EventRunOutcome::{summary, peak_pending_events}`, `DagEventTestbed::{new, database, run}` |
//! | *(configs)*             | `TestbedConfig::{metro, workload, fault_count, fault_seed, mean_repair, transport, selection, reschedule, reschedule_check, retry_backoff, max_retries, horizon, admission}`, `DagTestbedConfig::{topology, workload, dag, fault_count, fault_seed, transport, selection, repair_scope, retry_backoff, max_retries, horizon}` (both with `Default`), `DagTopology::Backbone`, `RepairScope::Stage`, `AdmissionConfig::{queue_high, queue_low, latency_marks_ns, retry, with_bucket}`, `ClassBucket`, `ServiceClass`, `SimTime::{from_ns, from_ms, from_secs, as_ns, saturating_sub, ZERO}` and `SimTime + SimTime` |
//! | *(results)*             | `RunSummary::{blocked, shed, retries, reschedules, repairs, events, duration, degraded_decisions, mean_iteration_ms, sum_task_bandwidth_gbps, peak_reserved_gbps, mean_reserved_gbps, groom_reuse_hits, groom_new_lights, admission, sojourn, dag}`, `SojournStats::{completed, sojourn_p50_ns, sojourn_p99_ns}`, `DagStats::{jobs, jobs_completed, jobs_shed, stages_committed, gang_commits, gang_rejections, makespan_p50_ns, makespan_p99_ns, inflation_p50_milli, inflation_p99_milli, inflation_mean_milli}`, `AdmissionStats::{admitted, degraded, shed}` |
//! | *(world construction)*  | `builders::{metro, backbone}`, `BackboneParams::{default, with_target_links}`, `NetworkState::new`, `OpticalState::new`, `ClusterManager::from_topology`, `ServerSpec::default`, `Database::new`, `CommitPlane::new`, `PlaneConfig::Single`, `FaultSchedule::{new, random, events}`, `FaultEvent::{at, link, down}` |
//! | `task.generator`        | `WorkloadStream::{new, next}`, `JobStream::{new, next}`, `WorkloadConfig` (`num_tasks, locals_per_task, model_mix, mean_interarrival_ns, class_mix, seed`, `seeded_scenario`), `DagConfig::num_jobs`, `PRODUCTION_CLASS_MIX`, `AiTask::{id, arrival_ns, class, iterations}`, `AiJob::{stages, arrival_ns, stage}`, `Stage::task` |
//! | `compute.placement`     | `AiTaskManager::{new, admit_with, complete}`, `ResourceRequest` (fail = `OrchError::Compute`) |
//! | `sched.selection`       | `SelectionStrategy::select`                                                  |
//! | `simnet.snapshot`       | `NetworkSnapshot::capture`                                                   |
//! | `optical.snapshot`      | `NetworkSnapshot::with_optical`                                              |
//! | `sched.propose`         | `Scheduler::{name, propose}` on `FlexibleMst::{paper, default}` and `FixedSpff`, `Proposal::schedule` (fail = `SchedError::{Blocked, Unreachable}`) |
//! | `sched.propose_repair`  | `Scheduler::{propose_repair, estimate_fresh_cost}`, `RepairProposal`         |
//! | `sched.reschedule`      | `reschedule::consider`, `ReschedulePolicy::{default, degraded, resolve_after_repairs}`, `RescheduleVerdict::{Keep, Migrate { new_proposal, repair_delta }, Shed}` |
//! | `sched.evaluate`        | `evaluate_schedule`, `TaskReport::{total_ns, iteration_ms, bandwidth_gbps}`, `report::aggregate`, `Transport` |
//! | `orchestrator.admission`| `AdmissionController::{new, decide, config, is_degraded, observe_decision_latency, stats}`, `Verdict::{Admit, Degrade, Shed { retry_after_ns }}`, `RetryPolicy::{exhausted, past_deadline, backoff_ns}` (fail = `Verdict::Shed`) |
//! | `orchestrator.commit`   | `CommitPlane::apply`, `Intent::{admit, migrate, repair}`, `CommitReceipt::groomed` (fail = `OrchError::Rejected`) |
//! | `orchestrator.gang`     | `CommitPlane::apply_gang`, `Validation::Fit` (fail = `OrchError::GangRejected`) |
//! | `orchestrator.release`  | `CommitPlane::release`, `Schedule::task`                                     |
//! | `orchestrator.database` | `Database::{store_schedule, set_phase, take_schedule, forget_task, tasks_on_link, schedule, repair_count, note_repair, reset_repairs, total_reserved_gbps, ledger_leftovers}`, `CommitPlane::{read_state, total_reserved_gbps, groom_stats}`, `TaskPhase::{Running, Blocked}`, `OrchError::UnknownTask` |
//! | `orchestrator.faults`   | `CommitPlane::set_link_down`                                                 |
//! | `simcore.engine`        | `Simulation::{new, add_component, schedule_at, step, processed, peak_pending, component_mut}`, `Component`, `SimContext::{schedule_at, schedule_after, schedule_self_after, self_id, halt}`, `Event::{TaskArrival, TaskDeparture, RetryDue, LinkFault, LinkRepair, RescheduleCheck, AdmissionReevaluate}` |
//! | `simcore.metrics`       | `LatencyHistogram::{new, record, quantile, mean_ns}`                         |
//! | *(DAG bookkeeping)*     | `JobTracker::{new, ready, release_time, job, start, note_ideal_duration, complete, is_done, is_shed, mark_shed, makespan_ns, inflation_milli}` |
//! | *(counters)*            | `ScratchPool::{new, closure_stats}`, `ClosureStats::{hits, repairs, full_solves, fallbacks}` |

use crate::trace::{span, span_fail, Layer};
use std::cell::Cell;
use std::sync::Arc;

pub use flexsched_compute::{ClusterManager, ServerSpec};
pub use flexsched_optical::OpticalState;
pub use flexsched_orchestrator::database::TaskPhase;
pub use flexsched_orchestrator::{
    AdmissionConfig, AdmissionController, AiTaskManager, ClassBucket, CommitPlane, CommitReceipt,
    DagEventTestbed, DagTestbedConfig, DagTopology, Database, EventTestbed, Intent, MemoryMode,
    OrchError, PlaneConfig, RepairScope, RunSummary, TestbedConfig, Validation, Verdict,
};
pub use flexsched_sched::{
    reschedule::consider as reschedule_consider, FixedSpff, FlexibleMst, JobTracker,
    NetworkSnapshot, Proposal, RepairProposal, ReschedulePolicy, RescheduleVerdict, SchedError,
    Schedule, Scheduler, SelectionStrategy,
};
pub use flexsched_simcore::{Component, Event, LatencyHistogram, SimContext, Simulation};
pub use flexsched_simnet::fault::FaultSchedule;
pub use flexsched_simnet::{NetworkState, SimTime, Transport};
pub use flexsched_task::report::aggregate;
pub use flexsched_task::{
    AiJob, AiTask, DagConfig, JobStream, ServiceClass, TaskId, TaskReport, WorkloadConfig,
    WorkloadStream, PRODUCTION_CLASS_MIX,
};
pub use flexsched_topo::algo::{ClosureStats, ScratchPool};
pub use flexsched_topo::builders::{backbone, metro, BackboneParams};
pub use flexsched_topo::{LinkId, NodeId, Topology};

use flexsched_compute::server::ResourceRequest;
use flexsched_sched::evaluate_schedule;

/// Result alias over the orchestrator's error type.
pub type OrchResult<T> = Result<T, OrchError>;

/// Container sizing of the dockerised model replicas — the values every
/// driver in `flexsched_orchestrator` admits with.
const GLOBAL_REQ: ResourceRequest = ResourceRequest {
    cpu_cores: 1.0,
    gpus: 0.0,
    mem_gib: 4.0,
};
const LOCAL_REQ: ResourceRequest = ResourceRequest {
    cpu_cores: 0.5,
    gpus: 0.05,
    mem_gib: 4.0,
};

/// The state a driver builds before its first event: topology, database
/// and the single-lock commit plane (exactly what `EventTestbed::new` and
/// `DagEventTestbed::new` construct).
pub struct World {
    /// The fabric.
    pub topo: Arc<Topology>,
    /// The shared store.
    pub db: Database,
    /// The single-lock commit plane.
    pub plane: CommitPlane,
}

impl World {
    /// Fresh state over `topo`.
    pub fn new(topo: Topology) -> World {
        let topo = Arc::new(topo);
        let db = Database::new(
            NetworkState::new(Arc::clone(&topo)),
            OpticalState::new(Arc::clone(&topo)),
            ClusterManager::from_topology(&topo, ServerSpec::default()),
        );
        let plane = CommitPlane::new(PlaneConfig::Single, &topo);
        World { topo, db, plane }
    }
}

thread_local! {
    /// Closure-cache counters of the scratch pool the last `propose` ran
    /// on. The real drivers own their pool privately; the
    /// [`TimedScheduler`] sees it on every call and leaves the running
    /// totals here.
    static CLOSURE: Cell<ClosureStats> = Cell::new(ClosureStats::default());
}

/// Forget the closure counters (before a traced run).
pub fn reset_closure_stats() {
    CLOSURE.with(|c| c.set(ClosureStats::default()));
}

/// `topo.closure.*` of the pool behind the most recent proposal.
pub fn closure_stats() -> ClosureStats {
    CLOSURE.with(Cell::get)
}

/// A [`Scheduler`] that spans every call into the policy it wraps. Handed
/// to the *real* drivers it times `propose` / `propose_repair` in situ;
/// inside the replay its spans nest under `sched.reschedule`.
pub struct TimedScheduler(pub Box<dyn Scheduler>);

fn blocked<T>(r: &Result<T, SchedError>) -> bool {
    matches!(
        r,
        Err(SchedError::Blocked { .. } | SchedError::Unreachable { .. })
    )
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn propose(
        &self,
        task: &AiTask,
        selected: &[NodeId],
        snapshot: &NetworkSnapshot,
        scratch: &mut ScratchPool,
    ) -> Result<Proposal, SchedError> {
        let out = span_fail(Layer::SchedPropose, blocked, || {
            self.0.propose(task, selected, snapshot, scratch)
        });
        CLOSURE.with(|c| c.set(scratch.closure_stats()));
        out
    }

    fn propose_repair(
        &self,
        task: &AiTask,
        current: &Schedule,
        snapshot: &NetworkSnapshot,
        scratch: &mut ScratchPool,
    ) -> Result<Option<RepairProposal>, SchedError> {
        span(Layer::SchedProposeRepair, || {
            self.0.propose_repair(task, current, snapshot, scratch)
        })
    }

    fn estimate_fresh_cost(
        &self,
        task: &AiTask,
        current: &Schedule,
        snapshot: &NetworkSnapshot,
        scratch: &mut ScratchPool,
    ) -> Result<Option<f64>, SchedError> {
        // The repair path's shadow solve: accounted with the repair.
        span(Layer::SchedProposeRepair, || {
            self.0.estimate_fresh_cost(task, current, snapshot, scratch)
        })
    }
}

/// `task.generator`: pull the next task.
pub fn next_task(stream: &mut WorkloadStream) -> Option<AiTask> {
    span(Layer::TaskGenerator, || stream.next())
}

/// `task.generator`: pull the next job.
pub fn next_job(stream: &mut JobStream) -> Option<AiJob> {
    span(Layer::TaskGenerator, || stream.next())
}

/// `compute.placement`: place a task's containers (fail = no server fits).
pub fn place(mgr: &mut AiTaskManager, db: &Database, task: &AiTask) -> OrchResult<()> {
    span_fail(
        Layer::ComputePlacement,
        |r| matches!(r, Err(OrchError::Compute(_))),
        || mgr.admit_with(db, task, GLOBAL_REQ, LOCAL_REQ),
    )
}

/// `compute.placement`: free a task's containers.
pub fn unplace(mgr: &mut AiTaskManager, db: &Database, id: TaskId) -> OrchResult<()> {
    span(Layer::ComputePlacement, || mgr.complete(db, id))
}

/// The snapshot stage under one read lock: `sched.selection` per task,
/// then `simnet.snapshot` and `optical.snapshot` once.
pub fn select_and_snapshot(
    plane: &CommitPlane,
    db: &Database,
    strategy: &SelectionStrategy,
    tasks: &[&AiTask],
) -> (Vec<Vec<NodeId>>, NetworkSnapshot) {
    plane.read_state(db, |net, opt, _| {
        let selected = tasks
            .iter()
            .map(|t| span(Layer::SchedSelection, || strategy.select(t, net)))
            .collect();
        let snap = span(Layer::SimnetSnapshot, || NetworkSnapshot::capture(net));
        let snap = span(Layer::OpticalSnapshot, || snap.with_optical(opt));
        (selected, snap)
    })
}

/// `sched.evaluate`: report for an installed schedule.
pub fn evaluate(
    plane: &CommitPlane,
    db: &Database,
    task: &AiTask,
    schedule: &Schedule,
    transport: &Transport,
) -> OrchResult<TaskReport> {
    plane
        .read_state(db, |net, _, cluster| {
            span(Layer::SchedEvaluate, || {
                evaluate_schedule(task, schedule, net, cluster, transport)
            })
        })
        .map_err(OrchError::from)
}

/// `sched.reschedule`: reconsider one running schedule.
#[allow(clippy::too_many_arguments)]
pub fn consider(
    plane: &CommitPlane,
    db: &Database,
    policy: &ReschedulePolicy,
    scheduler: &dyn Scheduler,
    task: &AiTask,
    schedule: &Schedule,
    remaining_iterations: u32,
    repairs_so_far: u32,
    retry_attempts: u32,
    transport: &Transport,
    scratch: &mut ScratchPool,
) -> Result<RescheduleVerdict, SchedError> {
    plane.read_state(db, |net, opt, cluster| {
        span(Layer::SchedReschedule, || {
            reschedule_consider(
                policy,
                scheduler,
                task,
                schedule,
                remaining_iterations,
                repairs_so_far,
                retry_attempts,
                net,
                Some(opt),
                cluster,
                transport,
                scratch,
            )
        })
    })
}

/// `orchestrator.admission`: the gate's verdict (fail = shed).
pub fn decide(
    gate: &mut AdmissionController,
    class: ServiceClass,
    now_ns: u64,
    queue_depth: usize,
) -> Verdict {
    span_fail(
        Layer::OrchAdmission,
        |v| matches!(v, Verdict::Shed { .. }),
        || gate.decide(class, now_ns, queue_depth),
    )
}

/// `orchestrator.commit`: apply one intent (fail = typed conflict).
pub fn commit(
    plane: &mut CommitPlane,
    db: &Database,
    intent: Intent<'_>,
) -> OrchResult<CommitReceipt> {
    span_fail(
        Layer::OrchCommit,
        |r| matches!(r, Err(OrchError::Rejected(_))),
        || plane.apply(db, intent),
    )
}

/// `orchestrator.gang`: all-or-nothing frontier commit.
pub fn commit_gang(
    plane: &mut CommitPlane,
    db: &Database,
    gang: &[&Proposal],
) -> OrchResult<Vec<CommitReceipt>> {
    span_fail(
        Layer::OrchGang,
        |r| matches!(r, Err(OrchError::GangRejected(_))),
        || plane.apply_gang(db, gang, Validation::Fit),
    )
}

/// `orchestrator.release`: free a task's rules and wavelengths.
pub fn release(
    plane: &mut CommitPlane,
    db: &Database,
    task: TaskId,
    groomed: &[u64],
) -> OrchResult<()> {
    span(Layer::OrchRelease, || plane.release(db, task, groomed))
}

/// `orchestrator.faults`: flip a link's down flag.
pub fn set_link_down(
    plane: &CommitPlane,
    db: &Database,
    link: LinkId,
    down: bool,
) -> OrchResult<()> {
    span(Layer::OrchFaults, || plane.set_link_down(db, link, down))
}

/// `orchestrator.database`: any ledger or index operation.
pub fn database<R>(op: impl FnOnce() -> R) -> R {
    span(Layer::OrchDatabase, op)
}

/// `simcore.metrics`: record one latency sample.
pub fn record(hist: &mut LatencyHistogram, ns: u64) {
    span(Layer::SimcoreMetrics, || hist.record(ns));
}

/// `simcore.engine`: dispatch the earliest event. The handler's own span
/// is a child, so the layer's self time is the queue and dispatch alone.
pub fn step(sim: &mut Simulation) -> bool {
    span(Layer::SimcoreEngine, || sim.step())
}
