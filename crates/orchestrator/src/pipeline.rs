//! The one snapshot → propose → commit → reschedule pipeline.
//!
//! Both drivers — [`crate::EventTestbed`] for monolithic tasks and
//! [`crate::DagEventTestbed`] for stage DAGs — hold a [`Pipeline`]: the
//! database, the commit plane, the task manager, the scheduling policy and
//! the bookkeeping of the commit protocol. What a driver keeps for itself
//! is only what genuinely differs: where work comes from, how it is
//! admitted (one gated intent vs an all-or-nothing gang) and what a
//! completion or a shed means for it.

use crate::database::{Database, TaskPhase};
use crate::managers::AiTaskManager;
use crate::plane::{CommitPlane, PlaneConfig};
use crate::scenario::RunSummary;
use crate::{Intent, Result};
use flexsched_compute::server::ResourceRequest;
use flexsched_compute::{ClusterManager, ServerSpec};
use flexsched_optical::OpticalState;
use flexsched_sched::reschedule::{self, RescheduleVerdict};
use flexsched_sched::{
    evaluate_schedule, FixedSpff, NetworkSnapshot, Proposal, ReschedulePolicy, SchedError,
    Schedule, Scheduler, SelectionStrategy,
};
use flexsched_simcore::{ComponentId, Event, Simulation};
use flexsched_simnet::fault::FaultSchedule;
use flexsched_simnet::{NetworkState, SimTime, Transport};
use flexsched_task::{AiTask, TaskId, TaskReport};
use flexsched_topo::algo::ScratchPool;
use flexsched_topo::{NodeId, Topology};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Container sizing for the dockerised model replicas: the testbed packs
/// many lightweight replicas per server (fractional GPU shares, as with
/// MPS/MIG slicing).
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

/// What a driver builds before its first event: the fabric, the shared
/// store over it, the commit plane and the outage schedule.
pub(crate) struct World {
    pub topo: Arc<Topology>,
    pub db: Database,
    pub plane: CommitPlane,
    pub faults: FaultSchedule,
}

impl World {
    /// Fresh state over `topo`, with `fault_count` random outages spread
    /// over `fault_window` (none when zero).
    pub fn new(
        topo: Topology,
        fault_count: usize,
        fault_window: SimTime,
        mean_repair: SimTime,
        fault_seed: u64,
    ) -> World {
        let topo = Arc::new(topo);
        let db = Database::new(
            NetworkState::new(Arc::clone(&topo)),
            OpticalState::new(Arc::clone(&topo)),
            ClusterManager::from_topology(&topo, ServerSpec::default()),
        );
        let plane = CommitPlane::new(PlaneConfig::Single, &topo);
        let faults = if fault_count > 0 {
            FaultSchedule::random(&topo, fault_count, fault_window, mean_repair, fault_seed)
        } else {
            FaultSchedule::new()
        };
        World {
            topo,
            db,
            plane,
            faults,
        }
    }
}

/// Queue one [`Event::LinkFault`] / [`Event::LinkRepair`] per scheduled
/// transition for `dst`.
pub(crate) fn seed_faults(sim: &mut Simulation, dst: ComponentId, faults: &FaultSchedule) {
    for e in faults.events() {
        let event = if e.down {
            Event::LinkFault { link: e.link }
        } else {
            Event::LinkRepair { link: e.link }
        };
        sim.schedule_at(e.at, dst, event);
    }
}

/// Time-weighted reserved-bandwidth sampling: every handled event samples
/// once, accumulating a piecewise-constant integral.
#[derive(Default)]
pub(crate) struct BandwidthProbe {
    peak: f64,
    integral: f64,
    /// Time of the latest sample — the run's simulated duration.
    last_sample: SimTime,
}

impl BandwidthProbe {
    pub fn sample(&mut self, current: f64, now: SimTime) {
        let dt = now.saturating_sub(self.last_sample).as_ns() as f64;
        self.integral += current * dt;
        self.peak = self.peak.max(current);
        self.last_sample = now;
    }

    fn mean(&self) -> f64 {
        if self.last_sample > SimTime::ZERO {
            self.integral / self.last_sample.as_ns() as f64
        } else {
            0.0
        }
    }
}

/// What reconsidering one running schedule did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reconsidered {
    /// A new schedule was committed and stored in place of the old one.
    Migrated,
    /// The task's reschedule retry budget is exhausted: the driver must
    /// release it.
    Shed,
    /// The task stays on its current schedule (not worth the interruption,
    /// no feasible candidate, or the migration lost its commit race).
    Kept,
}

/// The state and steps of the commit protocol shared by the drivers.
pub(crate) struct Pipeline {
    pub db: Database,
    pub plane: CommitPlane,
    mgr: AiTaskManager,
    scheduler: Box<dyn Scheduler>,
    /// The cheap decision path degraded-mode verdicts route to.
    degraded_scheduler: FixedSpff,
    /// Warm Dijkstra/Steiner scratch reused across scheduling decisions.
    scratch: ScratchPool,
    selection: SelectionStrategy,
    transport: Transport,
    reschedule: Option<ReschedulePolicy>,
    /// Lost migration commit races per task (reschedule retry budget).
    migrate_failures: BTreeMap<TaskId, u32>,
    reschedules: u32,
    repairs: u32,
}

impl Pipeline {
    pub fn new(
        db: Database,
        plane: CommitPlane,
        scheduler: Box<dyn Scheduler>,
        selection: SelectionStrategy,
        transport: Transport,
        reschedule: Option<ReschedulePolicy>,
    ) -> Self {
        Pipeline {
            db,
            plane,
            mgr: AiTaskManager::new(),
            scheduler,
            degraded_scheduler: FixedSpff,
            scratch: ScratchPool::new(),
            selection,
            transport,
            reschedule,
            migrate_failures: BTreeMap::new(),
            reschedules: 0,
            repairs: 0,
        }
    }

    /// Bandwidth currently reserved, for the driver's [`BandwidthProbe`].
    pub fn reserved_gbps(&self) -> f64 {
        self.plane.total_reserved_gbps(&self.db)
    }

    /// Place a task's containers (the task manager stores them into the
    /// database as in Figure 2).
    pub fn place(&mut self, task: &AiTask) -> Result<()> {
        self.mgr.admit_with(&self.db, task, GLOBAL_REQ, LOCAL_REQ)
    }

    /// Free a departed (or abandoned) task's containers.
    pub fn unplace(&mut self, id: TaskId) -> Result<()> {
        self.mgr.complete(&self.db, id)
    }

    /// Snapshot stage: every task's site selection and the frozen world
    /// view come from one read lock, so they are mutually consistent.
    pub fn select_and_snapshot<'a>(
        &self,
        tasks: impl IntoIterator<Item = &'a AiTask>,
    ) -> (Vec<Vec<NodeId>>, NetworkSnapshot) {
        self.plane.read_state(&self.db, |net, opt, _| {
            (
                tasks
                    .into_iter()
                    .map(|t| self.selection.select(t, net))
                    .collect(),
                NetworkSnapshot::capture(net).with_optical(opt),
            )
        })
    }

    /// Propose stage: a pure decision against the snapshot, reusing the
    /// warm scratch pool. `degrade` routes it through the cheap fixed-tree
    /// scheduler. `None` = nothing feasible this attempt.
    pub fn propose(
        &mut self,
        task: &AiTask,
        selected: &[NodeId],
        snap: &NetworkSnapshot,
        degrade: bool,
    ) -> Result<Option<Proposal>> {
        if selected.is_empty() {
            return Ok(None);
        }
        let scheduler: &dyn Scheduler = if degrade {
            &self.degraded_scheduler
        } else {
            &*self.scheduler
        };
        match scheduler.propose(task, selected, snap, &mut self.scratch) {
            Ok(p) => Ok(Some(p)),
            Err(SchedError::Blocked { .. } | SchedError::Unreachable { .. }) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Install step for a schedule whose claims just committed: measure it
    /// against live state, store it and mark the task running.
    pub fn install(&self, task: &AiTask, schedule: Schedule) -> Result<TaskReport> {
        let report = self.evaluate(task, &schedule)?;
        self.db.store_schedule(schedule);
        self.db.set_phase(task.id, TaskPhase::Running)?;
        Ok(report)
    }

    /// A schedule's report under current conditions.
    pub fn evaluate(&self, task: &AiTask, schedule: &Schedule) -> Result<TaskReport> {
        Ok(self.plane.read_state(&self.db, |net, _, cluster| {
            evaluate_schedule(task, schedule, net, cluster, &self.transport)
        })?)
    }

    /// Free a task's flow rules and groomed wavelengths. Its reschedule
    /// retry tally goes with it, so that map stays bounded by in-flight
    /// tasks like the database ledger.
    pub fn release(&mut self, id: TaskId, groomed: &[u64]) -> Result<()> {
        if let Some(schedule) = self.db.take_schedule(id) {
            self.plane.release(&self.db, schedule.task, groomed)?;
        }
        self.migrate_failures.remove(&id);
        Ok(())
    }

    /// Reconsider one running task's schedule under the reschedule policy.
    /// `degrade` routes the reconsideration through the cheap fixed-tree
    /// scheduler and drops the repair shadow-solves.
    pub fn reconsider(&mut self, task: &AiTask, remaining: u32, degrade: bool) -> Reconsidered {
        let id = task.id;
        let (Some(policy), Some(schedule)) = (&self.reschedule, self.db.schedule(id)) else {
            return Reconsidered::Kept;
        };
        let scheduler: &dyn Scheduler = if degrade {
            &self.degraded_scheduler
        } else {
            &*self.scheduler
        };
        let degraded_policy;
        let task_policy = if degrade {
            degraded_policy = policy.degraded();
            &degraded_policy
        } else {
            policy
        };
        let retry_attempts = self.migrate_failures.get(&id).copied().unwrap_or(0);
        let repairs_so_far = self.db.repair_count(id);
        let drift_forced = policy
            .resolve_after_repairs
            .is_some_and(|n| repairs_so_far >= n);
        let scratch = &mut self.scratch;
        let verdict = self.plane.read_state(&self.db, |net, opt, cluster| {
            reschedule::consider(
                task_policy,
                scheduler,
                task,
                &schedule,
                remaining,
                repairs_so_far,
                retry_attempts,
                net,
                Some(opt),
                cluster,
                &self.transport,
                scratch,
            )
        });
        // The guard's contract is one *forced full consideration* per N
        // repairs — once that consideration has run, the run resets
        // whatever its verdict. A Keep means a fresh solve would not beat
        // the (possibly drifted) tree enough to justify the interruption,
        // which is exactly the drift check passing; a failed commit keeps
        // the schedule too. Without this reset a tripped counter would
        // disable the repair fast-path for the task's remaining lifetime.
        if drift_forced {
            self.db.reset_repairs(id);
        }
        match verdict {
            Ok(RescheduleVerdict::Migrate {
                new_proposal,
                repair_delta,
                ..
            }) => {
                // Migration is a commit like any other: new claims
                // validated (with the old reservations credited) and the
                // rules swapped atomically. Repair proposals speculate
                // against the live snapshot, so they go through the strict
                // repair intent — stamp-checked over their claims delta +
                // read region only.
                let intent = match &repair_delta {
                    Some(delta) => Intent::repair(&schedule, &new_proposal, delta),
                    None => Intent::migrate(&schedule, &new_proposal),
                };
                if self.plane.apply(&self.db, intent).is_err() {
                    // A conflict keeps the task on its current schedule and
                    // counts against its reschedule retry budget (when the
                    // policy sets one); `consider` sheds it once exhausted.
                    *self.migrate_failures.entry(id).or_insert(0) += 1;
                    return Reconsidered::Kept;
                }
                self.db.store_schedule(new_proposal.schedule);
                self.reschedules += 1;
                self.migrate_failures.remove(&id);
                // Drift guard bookkeeping: consecutive repairs accumulate;
                // a full re-solve resets the run.
                if repair_delta.is_some() {
                    self.repairs += 1;
                    self.db.note_repair(id);
                } else {
                    self.db.reset_repairs(id);
                }
                Reconsidered::Migrated
            }
            Ok(RescheduleVerdict::Shed { .. }) => Reconsidered::Shed,
            // Keep, or the candidate is infeasible right now: keep running.
            Ok(RescheduleVerdict::Keep { .. }) | Err(_) => Reconsidered::Kept,
        }
    }

    /// The part of a [`RunSummary`] every driver reports the same way;
    /// per-driver counters start at zero / `None`.
    pub fn summary(
        &self,
        probe: &BandwidthProbe,
        events: u64,
        reports: Vec<TaskReport>,
    ) -> RunSummary {
        let (mean_iteration_ms, sum_task_bandwidth_gbps) =
            flexsched_task::report::aggregate(&reports);
        let (groom_reuse_hits, groom_new_lights) = self.plane.groom_stats();
        RunSummary {
            scheduler: self.scheduler.name().to_string(),
            reports,
            blocked: 0,
            retries: 0,
            reschedules: self.reschedules,
            repairs: self.repairs,
            peak_reserved_gbps: probe.peak,
            mean_reserved_gbps: probe.mean(),
            sum_task_bandwidth_gbps,
            mean_iteration_ms,
            groom_reuse_hits,
            groom_new_lights,
            duration: probe.last_sample,
            events,
            shed: 0,
            degraded_decisions: 0,
            admission: None,
            sojourn: None,
            dag: None,
        }
    }
}
